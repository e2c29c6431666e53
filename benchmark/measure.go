package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/storage"
	"repro/shadowfax"
)

// snap is the public counters read on one side of a measured window.
type snap struct {
	cpu     int64
	mallocs uint64
	srv     []shadowfax.ServerStats
	log     []shadowfax.LogStats
	cli     shadowfax.ClientStats
	dev     storage.DeviceStats

	// Traced run only: the decorators' counters, both sides summed.
	conn  connCounts
	reads int // device reads completed so far
}

func (r *rig) snapshot() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snap{cpu: cpuNs(), mallocs: ms.Mallocs, cli: r.client.Stats()}
	for _, srv := range r.servers {
		s.srv = append(s.srv, srv.Stats())
		s.log = append(s.log, srv.LogStats())
	}
	if r.dev != nil {
		s.dev = r.dev.Stats()
	}
	if r.ttr != nil {
		s.conn = r.ttr.client.counts().plus(r.ttr.server.counts())
	}
	if r.tdev != nil {
		s.reads = r.tdev.reads()
	}
	return s
}

// outcome is one workload's measured window with everything derived from it.
type outcome struct {
	w *workload

	setups        []float64 // s, one per set-up
	m             *run
	before, after snap
	pendingOpsMax int64

	attempted, failed, mismatches uint64
	firstErr                      error

	e2e   map[string]float64
	layer map[string]float64
	notes []string
}

func (o *outcome) correct() bool { return o.mismatches == 0 && o.failed == 0 }

// measure sets the workload up, runs its measured window and verifies the
// outputs. tr is nil except in the traced run; after, if set, runs against
// the still-booted rig once the outcome is complete.
func measure(w *workload, seed uint64, dur time.Duration, outDir string, tr *tracer, after func(*rig)) (*outcome, error) {
	r, d, setup, err := setUp(w, seed, outDir, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	o := &outcome{w: w, setups: []float64{setup}, layer: map[string]float64{}}

	o.m = newRun(dur)
	ctx, cancel := context.WithTimeout(context.Background(), dur+graceAfter)
	defer cancel()

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() { // core.pending_ops_max: the target's pending set during a migration
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Millisecond):
				for _, s := range r.servers {
					o.pendingOpsMax = max(o.pendingOpsMax, s.Stats().PendingOps)
				}
			}
		}
	}()
	o.before = r.snapshot()
	d.drive(ctx, dur, o.m)
	o.after = r.snapshot()
	close(stop)
	<-sampled

	vctx, vcancel := context.WithTimeout(context.Background(), time.Minute)
	defer vcancel()
	if w.valueBytes == 8 {
		d.verifyCounters(vctx)
	}
	o.attempted, o.failed, o.mismatches, o.firstErr = d.attempted, d.failed, d.mismatches, d.firstErr
	if o.m.migErr != nil {
		o.failed++
		o.firstErr = fmt.Errorf("migration: %w", o.m.migErr)
	}
	o.derive(r)
	if after != nil {
		after(r)
	}
	return o, nil
}

// derive computes the end-to-end metrics and the per-layer counts.
func (o *outcome) derive(r *rig) {
	m, w := o.m, o.w
	e := map[string]float64{"setup_s": o.setups[0]}
	o.e2e = e

	// Throughput: completed ops per full 1-s window, median; and the mean
	// over the whole window, which a stall lowers and the median hides.
	var perSec []float64
	for i := 0; i+10 <= len(m.buckets); i += 10 {
		n := 0.0
		for _, b := range m.buckets[i : i+10] {
			n += float64(b)
		}
		perSec = append(perSec, n)
	}
	e["tput_ops_s"] = median(perSec)
	e["tput_mean_ops_s"] = float64(m.completed) / m.dur.Seconds()

	// Latency percentiles are taken per 1-s window and the median window is
	// reported: one stall of the host inside the run decides a whole-run
	// p99.9 by itself, and this sandbox has a few of them a minute. The
	// whole-run figures are printed beside them.
	secs := len(m.buckets) / 10
	byWin := make([][]int64, secs)
	for i, l := range m.lat {
		if s := int(m.latAt[i]); s < secs {
			byWin[s] = append(byWin[s], l)
		}
	}
	var p50, p99, p999 []float64
	tail := tailPercentile(len(m.lat) / max(secs, 1))
	for _, win := range byWin {
		if len(win) == 0 {
			continue
		}
		sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
		p50 = append(p50, percentile(win, 0.5)/1e3)
		p99 = append(p99, percentile(win, min(tail, 0.99))/1e3)
		p999 = append(p999, percentile(win, tail)/1e3)
	}
	e["lat_p99_us"] = median(p99)
	o.layer["shadowfax.lat_p50_us"] = median(p50)
	o.layer["shadowfax.lat_p999_us"] = median(p999)
	if tail < 0.999 {
		o.notes = append(o.notes, fmt.Sprintf("%d latency samples per window: shadowfax.lat_p999_us is p%g", len(m.lat)/max(secs, 1), tail*100))
	}
	lat := append([]int64(nil), m.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	o.notes = append(o.notes, fmt.Sprintf("whole run, %d latency samples (us): p50 %.0f  p99 %.0f  p99.9 %.0f  max %.0f",
		len(lat), percentile(lat, 0.5)/1e3, percentile(lat, 0.99)/1e3, percentile(lat, 0.999)/1e3, percentile(lat, 1)/1e3))

	o.notes = append(o.notes, fmt.Sprintf("1-s windows (ops): %.0f", perSec))
	e["peak_rss_mb"] = peakRSSMB()

	var logBytes float64
	for _, l := range o.after.log {
		logBytes += float64(l.TailAddress - l.BeginAddress)
	}
	e["space_amp"] = logBytes / float64(w.keys*uint64(8+w.valueBytes))

	// Per-layer counts from the public snapshots, over the window.
	l := o.layer
	var ops, accepted, rejected, shed, refreshes, fetches, pendReads, coalesced, rcHits, rcCopies, batchReads float64
	for i := range o.after.srv {
		a, b := o.after.srv[i], o.before.srv[i]
		ops += float64(a.OpsCompleted - b.OpsCompleted)
		accepted += float64(a.BatchesAccepted - b.BatchesAccepted)
		rejected += float64(a.BatchesRejected - b.BatchesRejected)
		shed += float64(a.BatchesShed - b.BatchesShed)
		refreshes += float64(a.ViewRefreshes - b.ViewRefreshes)
		fetches += float64(a.RemoteFetches - b.RemoteFetches)
		pendReads += float64(a.StorePendingReads - b.StorePendingReads)
		coalesced += float64(a.PendingCoalesced - b.PendingCoalesced)
		rcHits += float64(a.ReadCacheHits - b.ReadCacheHits)
		rcCopies += float64(a.ReadCacheCopies - b.ReadCacheCopies)
		batchReads += float64(a.DeviceBatchReads - b.DeviceBatchReads)
	}
	done := float64(max(m.done, 1))
	gets := done * float64(w.getPct) / 100
	l["core.ops_per_batch"] = ratio(ops, accepted)
	l["core.batches_rejected"] = rejected
	l["core.batches_shed"] = shed
	l["core.view_refreshes"] = refreshes
	l["core.remote_fetches"] = fetches
	l["core.pending_ops_max"] = float64(o.pendingOpsMax)
	l["faster.pending_ratio"] = ratio(pendReads, gets)
	l["faster.coalesced_ratio"] = ratio(coalesced, pendReads)
	l["faster.readcache_hit_ratio"] = ratio(rcHits, gets)
	l["faster.readcache_copies"] = rcCopies
	l["hlog.disk_resident_mb"] = float64(o.after.log[0].DiskResidentBytes) / (1 << 20)

	ca, cb := o.after.cli, o.before.cli
	l["client.ops_per_batch"] = ratio(float64(ca.OpsCompleted-cb.OpsCompleted), float64(ca.BatchesSent-cb.BatchesSent))
	l["client.batches_rejected"] = float64(ca.BatchesRejected - cb.BatchesRejected)
	l["client.refreshes"] = float64(ca.Refreshes - cb.Refreshes)

	da, db := o.after.dev, o.before.dev
	reads := float64(da.Reads - db.Reads)
	l["storage.reads_per_get"] = ratio(reads, gets)
	l["storage.reads_per_batch"] = ratio(reads, batchReads)
	l["storage.read_mb"] = float64(da.ReadBytes-db.ReadBytes) / (1 << 20)
	l["storage.write_mb"] = float64(da.WrittenBytes-db.WrittenBytes) / (1 << 20)
	// Device bytes written per byte of user data acknowledged, preload
	// included: both grow with the work done, so the ratio does not depend
	// on how fast the run went.
	sets := float64(w.keys) + done*float64(w.setPct)/100
	l["storage.write_amp"] = ratio(float64(da.WrittenBytes), sets*float64(8+w.valueBytes))

	l["shadowfax.allocs_per_op"] = float64(o.after.mallocs-o.before.mallocs) / done
	l["shadowfax.cpu_ns_per_op"] = float64(o.after.cpu-o.before.cpu) / done

	if len(m.late) > 0 {
		// Lateness per 1-s window (1000 ticks), the median window reported,
		// as for latency; the worst tick of the whole run beside it.
		var p99 []float64
		perWin := int(time.Second / w.tick)
		worst := int64(0)
		for i := 0; i+perWin <= len(m.late); i += perWin {
			win := append([]int64(nil), m.late[i:i+perWin]...)
			sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
			p99 = append(p99, percentile(win, 0.99)/1e3)
			worst = max(worst, win[len(win)-1])
		}
		l["gen.late_p99_us"] = median(p99)
		l["gen.late_max_us"] = float64(worst) / 1e3
		if l["gen.late_p99_us"] > 1000 {
			o.notes = append(o.notes, "INVALID: the generator ran its schedule more than 1 ms late at p99")
		}
		if got := e["tput_mean_ops_s"]; got < 0.99*float64(w.rate) {
			o.notes = append(o.notes, fmt.Sprintf("INVALID: achieved %.0f ops/s of the %d ops/s schedule", got, w.rate))
		}
	}
	if w.migrate {
		o.deriveMigration(r)
	}
	if r.ttr != nil {
		c := o.after.conn.minus(o.before.conn)
		l["transport.send_ns"] = ratio(float64(c.sendNs), float64(c.frames))
		l["transport.recv_ns"] = ratio(float64(c.recvNs), float64(c.recvFrames))
		l["transport.frames_per_kop"] = 1000 * float64(c.frames) / done
		l["transport.bytes_per_op"] = float64(c.bytes) / done
		l["transport.empty_poll_ratio"] = ratio(float64(c.emptyPolls), float64(c.polls))
	}
	if r.tdev != nil {
		ns := r.tdev.readsSince(o.before.reads, o.after.reads)
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		l["storage.read_us_p50"] = percentile(ns, 0.5) / 1e3
		l["storage.read_us_p99"] = percentile(ns, 0.99) / 1e3
	}
}

// deriveMigration reports how long the migration took and how long it
// disrupted the traffic.
func (o *outcome) deriveMigration(r *rig) {
	m, l := o.m, o.layer
	if m.migDone == 0 {
		o.notes = append(o.notes, "the migration did not finish inside the window")
		return
	}
	l["core.migrate_s"] = float64(m.migDone-m.migAt) / 1e9

	// A 100-ms window is stalled when its rate is under half the median
	// rate of the windows before the migration began.
	first := int(m.migAt / bucketNs)
	var pre []float64
	for _, b := range m.buckets[:first] {
		pre = append(pre, float64(b))
	}
	floor, stalled := median(pre)/2, 0
	for _, b := range m.buckets[first:] {
		if float64(b) < floor {
			stalled++
		}
	}
	l["core.migrate_stall_s"] = float64(stalled) * float64(bucketNs) / 1e9

	rep := r.servers[0].LastMigrationReport()
	ms := func(a, b time.Time) float64 {
		if a.IsZero() || b.IsZero() {
			return 0
		}
		return float64(b.Sub(a)) / 1e6
	}
	l["core.mig_ownership_ms"] = ms(rep.Started, rep.OwnershipAt)
	l["core.mig_records_ms"] = ms(rep.OwnershipAt, rep.RecordsDone)
	l["core.mig_finish_ms"] = ms(rep.RecordsDone, rep.Finished)
	l["core.mig_records_sent"] = float64(rep.RecordsSent)
	l["core.mig_bytes_from_memory"] = float64(rep.BytesFromMemory)
	l["core.mig_sampled_records"] = float64(rep.SampledRecords)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
