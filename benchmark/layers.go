package main

// The per-layer metrics, named <module>.<metric>. Counts come from the
// product's public snapshots around the measured window; times come from
// the traced run's ladder rungs and timing decorators. moves says which
// end-to-end metric, on which workload, a change in the number should move:
// it is written down before anything is optimised, so that a later change
// can be checked against it. BENCHMARK.json repeats names, units and
// directions; the smoke test fails if the two disagree.
var layerMetrics = []metric{
	{name: "env.sleep50us_us", unit: "us", better: "lower", moves: "validity: what time.Sleep(50µs) costs here; compare paced numbers only between machines where it agrees"},
	{name: "gen.key_ns", unit: "ns", better: "lower", moves: "validity: the generator's own cost per op, inside every rung above it"},
	{name: "gen.late_p99_us", unit: "us", better: "lower", moves: "validity: a paced run later than 1000 is invalid"},
	{name: "gen.late_max_us", unit: "us", better: "lower", moves: "validity"},

	{name: "hashfn.hash_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest (small share); nothing else"},
	{name: "hashidx.find_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest and cold"},
	{name: "hashidx.find_uniform_ns", unit: "ns", better: "lower", moves: "tput_ops_s and shadowfax.lat_p50_us on paced"},
	{name: "hashidx.find_or_create_ns", unit: "ns", better: "lower", moves: "setup_s everywhere"},
	{name: "hashidx.ovf_bucket_ratio", unit: "ratio", better: "lower", moves: "hashidx.find_ns"},

	{name: "hlog.append8_ns", unit: "ns", better: "lower", moves: "setup_s on ingest and migrate; should not move ingest tput_ops_s"},
	{name: "hlog.append100_ns", unit: "ns", better: "lower", moves: "setup_s, tput_ops_s and space_amp on cold"},
	{name: "hlog.append256_ns", unit: "ns", better: "lower", moves: "setup_s on paced"},
	{name: "hlog.record_at_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest and cold"},
	{name: "hlog.pages_flushed", unit: "count", better: "lower", moves: "setup_s and tput_ops_s on cold"},
	{name: "hlog.pages_evicted", unit: "count", better: "lower", moves: "tput_ops_s on cold"},
	{name: "hlog.alloc_stalls", unit: "count", better: "lower", moves: "setup_s and lat_p99_us on cold"},
	{name: "hlog.disk_resident_mb", unit: "MB", better: "lower", moves: "space_amp on cold"},

	{name: "epoch.refresh_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest"},
	{name: "epoch.bump_drain_us", unit: "us", better: "lower", moves: "core.migrate_s and tput_mean_ops_s on migrate"},

	{name: "faster.rmw_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest and migrate"},
	{name: "faster.read_ns", unit: "ns", better: "lower", moves: "tput_ops_s on paced and cold"},
	{name: "faster.upsert_ns", unit: "ns", better: "lower", moves: "setup_s; tput_ops_s on paced"},
	{name: "faster.allocs_per_op", unit: "count", better: "lower", moves: "shadowfax.cpu_ns_per_op on ingest"},
	{name: "faster.e2e_ratio", unit: "ratio", better: "higher", moves: "is ingest tput_ops_s over the store's own rate; ROADMAP's shadowfax/faster, target 0.8"},
	{name: "faster.cold_read_us", unit: "us", better: "lower", moves: "tput_ops_s and lat_p99_us on cold; flat elsewhere"},
	{name: "faster.pending_ratio", unit: "ratio", better: "lower", moves: "tput_ops_s on cold; zero elsewhere"},
	{name: "faster.coalesced_ratio", unit: "ratio", better: "higher", moves: "storage.reads_per_get on cold"},
	{name: "faster.readcache_hit_ratio", unit: "ratio", better: "higher", moves: "tput_ops_s on cold"},
	{name: "faster.readcache_copies", unit: "count", better: "lower", moves: "space_amp on cold"},

	{name: "storage.read_us_p50", unit: "us", better: "lower", moves: "tput_ops_s on cold"},
	{name: "storage.read_us_p99", unit: "us", better: "lower", moves: "lat_p99_us on cold"},
	{name: "storage.reads_per_get", unit: "ratio", better: "lower", moves: "tput_ops_s on cold; zero on ingest, paced, migrate"},
	{name: "storage.reads_per_batch", unit: "ratio", better: "higher", moves: "tput_ops_s on cold"},
	{name: "storage.read_mb", unit: "MB", better: "lower", moves: "tput_ops_s on cold"},
	{name: "storage.write_mb", unit: "MB", better: "lower", moves: "space_amp on cold"},
	{name: "storage.write_amp", unit: "ratio", better: "lower", moves: "device bytes written per user byte acknowledged, preload included: space_amp on cold"},

	{name: "wire.enc_req_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest"},
	{name: "wire.dec_req_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest"},
	{name: "wire.enc_resp_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest; shadowfax.lat_p50_us on paced (256-byte read results)"},
	{name: "wire.dec_resp_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest; shadowfax.lat_p50_us on paced"},
	{name: "wire.req_bytes_per_op", unit: "bytes", better: "lower", moves: "transport.bytes_per_op"},
	{name: "wire.resp_bytes_per_op", unit: "bytes", better: "lower", moves: "transport.bytes_per_op"},
	{name: "wire.allocs_per_batch", unit: "count", better: "lower", moves: "shadowfax.cpu_ns_per_op on ingest"},

	{name: "transport.send_ns", unit: "ns", better: "lower", moves: "tput_ops_s and shadowfax.cpu_ns_per_op on ingest"},
	{name: "transport.recv_ns", unit: "ns", better: "lower", moves: "tput_ops_s and shadowfax.cpu_ns_per_op on ingest"},
	{name: "transport.frames_per_kop", unit: "count", better: "lower", moves: "shadowfax.cpu_ns_per_op on ingest and paced"},
	{name: "transport.bytes_per_op", unit: "bytes", better: "lower", moves: "tput_ops_s on ingest"},
	{name: "transport.empty_poll_ratio", unit: "ratio", better: "lower", moves: "shadowfax.cpu_ns_per_op on paced"},
	{name: "transport.echo_rtt_us", unit: "us", better: "lower", moves: "bounds shadowfax.lat_p50_us on paced from below"},
	{name: "transport.raw_ns_per_op", unit: "ns", better: "lower", moves: "the transport rung: tput_ops_s on ingest"},

	{name: "core.batch256_rtt_us", unit: "us", better: "lower", moves: "tput_ops_s on ingest"},
	{name: "core.batch1_rtt_us", unit: "us", better: "lower", moves: "contains the dispatcher's idle sleep: shadowfax.lat_p50_us, lat_p99_us and shadowfax.cpu_ns_per_op on paced"},
	{name: "core.dispatch_ns_per_op", unit: "ns", better: "lower", moves: "tput_ops_s on ingest"},
	{name: "core.raw_ns_per_op", unit: "ns", better: "lower", moves: "the core rung: tput_ops_s on ingest"},
	{name: "core.ops_per_batch", unit: "ops", better: "higher", moves: "tput_ops_s on ingest; falls toward 1 on paced"},
	{name: "core.batches_rejected", unit: "count", better: "lower", moves: "tput_mean_ops_s on migrate"},
	{name: "core.batches_shed", unit: "count", better: "lower", moves: "tput_mean_ops_s on migrate"},
	{name: "core.view_refreshes", unit: "count", better: "lower", moves: "tput_mean_ops_s on migrate"},
	{name: "core.remote_fetches", unit: "count", better: "lower", moves: "lat_p99_us on migrate"},
	{name: "core.pending_ops_max", unit: "ops", better: "lower", moves: "shadowfax.lat_p999_us on migrate"},
	{name: "core.migrate_s", unit: "s", better: "lower", moves: "Admin.Migrate call to no pending migration: tput_mean_ops_s on migrate"},
	{name: "core.migrate_stall_s", unit: "s", better: "lower", moves: "100-ms windows under half the pre-migration rate: tput_mean_ops_s and shadowfax.lat_p999_us on migrate"},
	{name: "core.mig_ownership_ms", unit: "ms", better: "lower", moves: "core.migrate_s"},
	{name: "core.mig_records_ms", unit: "ms", better: "lower", moves: "core.migrate_s"},
	{name: "core.mig_finish_ms", unit: "ms", better: "lower", moves: "core.migrate_s"},
	{name: "core.mig_records_sent", unit: "count", better: "lower", moves: "core.mig_records_ms"},
	{name: "core.mig_bytes_from_memory", unit: "bytes", better: "lower", moves: "core.mig_records_ms"},
	{name: "core.mig_sampled_records", unit: "count", better: "higher", moves: "core.pending_ops_max on migrate"},

	{name: "client.thread_ns_per_op", unit: "ns", better: "lower", moves: "the client rung: tput_ops_s on ingest"},
	{name: "client.issue_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest"},
	{name: "client.poll_ns", unit: "ns", better: "lower", moves: "tput_ops_s on ingest"},
	{name: "client.ops_per_batch", unit: "ops", better: "higher", moves: "tput_ops_s on ingest; toward 1 explains shadowfax.cpu_ns_per_op on paced"},
	{name: "client.batches_rejected", unit: "count", better: "lower", moves: "tput_mean_ops_s on migrate"},
	{name: "client.refreshes", unit: "count", better: "lower", moves: "tput_mean_ops_s on migrate"},

	{name: "shadowfax.api_ns_per_op", unit: "ns", better: "lower", moves: "the top rung: 1e9 over tput_ops_s (paced: shadowfax.cpu_ns_per_op)"},
	{name: "shadowfax.api_tax_ns", unit: "ns", better: "lower", moves: "futures, shard lock and pump over client.Thread: tput_ops_s on ingest"},
	{name: "shadowfax.sync_get_rtt_us", unit: "us", better: "lower", moves: "shadowfax.lat_p50_us and lat_p99_us on paced"},
	{name: "shadowfax.allocs_per_op", unit: "count", better: "lower", moves: "shadowfax.cpu_ns_per_op on ingest"},
	{name: "shadowfax.cpu_ns_per_op", unit: "ns", better: "lower", moves: "end to end but too unsteady here to carry a bound: process CPU over the window per op; on paced mostly idle spinning"},
	{name: "shadowfax.lat_p50_us", unit: "us", better: "lower", moves: "end to end but carries no bound: in a closed loop it sits on the edge of a bimodal distribution and moves 30-40% with the host's state at constant throughput; the median 1-s window's p50"},
	{name: "shadowfax.lat_p999_us", unit: "us", better: "lower", moves: "end to end but too unsteady here to carry a bound: the median 1-s window's p99.9"},

	{name: "ladder.closure_ratio", unit: "ratio", better: "higher", moves: "validity: the rung differences over shadowfax.api_ns_per_op; the ladder closes within 0.15 of 1"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher", moves: "validity: decorated over undecorated tput_ops_s (paced: undecorated over decorated shadowfax.cpu_ns_per_op)"},
}
