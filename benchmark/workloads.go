package main

import "time"

// workload is one traffic mix and the deployment it runs against. The
// names are the contract with BENCHMARK.json; the why strings are repeated
// there and in README.md.
type workload struct {
	name, why string

	keys       uint64 // preloaded key count; all keys are 8 bytes
	valueBytes int    // 8 = little-endian counter (RMW workloads)
	zipf       bool   // scrambled Zipfian θ=0.99, else uniform

	getPct, setPct int // the rest is RMW

	ring     int           // closed loop: outstanding futures, reaped oldest-first
	rate     int           // open loop: ops/s (ring == 0)
	tick     time.Duration // open loop: issue period
	warmup   time.Duration // unmeasured run of the same traffic before the window
	migrate  bool          // two servers; move [0,1<<63) s1→s2 a quarter into the window
	coldFile bool          // log on a FileDevice in a temp dir

	pageBits          uint
	memPages, mutable int
	indexBuckets      int
}

var workloads = []*workload{
	{
		name: "ingest_rmw_zipf",
		why: "closed loop at saturation, 100% 8-byte counter RMW, Zipfian, all in memory: " +
			"the paper's YCSB-F headline; dispatch, wire, transport and client do the work, the store its cheapest op",
		keys: 1 << 20, valueBytes: 8, zipf: true,
		ring: 1024, warmup: time.Second,
		pageBits: 20, memPages: 512, mutable: 256, indexBuckets: 1 << 20,
	},
	{
		name: "paced_mixed_uniform",
		why: "open loop at 50 000 ops/s, 50% Get / 50% Set of 256-byte values, uniform keys: " +
			"partial batches and idle-poll/sleep paths; shows the latency price of waiting to fill a batch",
		keys: 1 << 20, valueBytes: 256,
		getPct: 50, setPct: 50,
		rate: 50000, tick: time.Millisecond, warmup: time.Second,
		pageBits: 20, memPages: 512, mutable: 256, indexBuckets: 1 << 20,
	},
	{
		name: "cold_read_zipf",
		why: "closed loop, 95% Get / 5% Set of 100-byte values, Zipfian, 125 MB of log on a file against 8 MiB of memory: " +
			"the larger-than-memory half; the pending-read pipeline, storage and log flush/evict work",
		keys: 1 << 20, valueBytes: 100, zipf: true,
		getPct: 95, setPct: 5,
		ring: 512, warmup: time.Second, coldFile: true,
		pageBits: 16, memPages: 128, mutable: 64, indexBuckets: 1 << 20,
	},
	{
		name: "migrate_scaleout",
		why: "the ingest traffic on two servers while half the hash space migrates from s1 to s2: " +
			"the elasticity headline; on 2 cores it measures disruption, not scale-out gain",
		keys: 1 << 20, valueBytes: 8, zipf: true,
		ring: 1024, warmup: time.Second, migrate: true,
		pageBits: 20, memPages: 512, mutable: 256, indexBuckets: 1 << 20,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns a copy with key count, index and memory budget divided by
// div, a power of two (smoke tests).
func (w *workload) scaled(div int) *workload {
	c := *w
	c.keys /= uint64(div)
	c.indexBuckets /= div
	c.warmup /= time.Duration(div)
	if c.coldFile {
		// Keep the log larger than memory: 4 KiB pages, 64 KiB of them.
		c.pageBits, c.memPages, c.mutable = 12, 16, 8
	} else {
		c.memPages, c.mutable = max(c.memPages/div, 8), max(c.mutable/div, 4)
	}
	return &c
}
