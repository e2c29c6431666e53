// Package bench is the experiment harness that regenerates every table and
// figure from the paper's evaluation (§4). Each experiment builds a scaled
// cluster (EXPERIMENTS.md's introduction documents the scaling), drives the
// paper's workload against it, and returns the rows/series the paper reports.
//
// cmd/shadowfax-bench wraps these functions as sub-commands; bench_test.go
// wraps them as testing.B benchmarks.
package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/ycsb"
)

// Options controls experiment scale. The zero value is filled with defaults
// sized for a laptop-class machine (seconds per data point, ~10^5 keys).
type Options struct {
	// Keys is the dataset size (the paper used 250M; scaled here).
	Keys uint64
	// ValueBytes is the record value size (paper: 256).
	ValueBytes int
	// Duration is the measurement window per data point.
	Duration time.Duration
	// ClientThreads drives the load (0 = match server threads).
	ClientThreads int
	// BatchOps is the client batch size in operations.
	BatchOps int
	// Outstanding bounds per-client-thread in-flight operations.
	Outstanding int
	// MemPages / PageBits size each server's in-memory log budget.
	PageBits uint
	MemPages int
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Keys == 0 {
		o.Keys = 100_000
	}
	if o.ValueBytes == 0 {
		o.ValueBytes = 64 // scaled from the paper's 256B to fit small logs
	}
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.BatchOps == 0 {
		o.BatchOps = 64
	}
	if o.Outstanding == 0 {
		o.Outstanding = 2048
	}
	if o.PageBits == 0 {
		o.PageBits = 16 // 64 KiB pages
	}
	if o.MemPages == 0 {
		o.MemPages = 256 // 16 MiB in-memory budget
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose != nil {
		fmt.Fprintf(o.Verbose, format+"\n", args...)
	}
}

// Cluster is a self-contained simulated deployment.
type Cluster struct {
	Meta *metadata.Store
	Tr   transport.Transport
	Tier *storage.SharedTier

	Servers []*core.Server
	devices []*storage.MemDevice
}

// NewCluster creates an empty deployment over an in-process transport with
// the given network cost model.
func NewCluster(cost transport.CostModel) *Cluster {
	return &Cluster{
		Meta: metadata.NewStore(),
		Tr:   transport.NewInMem(cost),
		Tier: storage.NewSharedTier(storage.LatencyModel{
			ReadLatency: 2 * time.Millisecond, IOPS: 7500}),
	}
}

// ServerSpec configures one server in the cluster.
type ServerSpec struct {
	ID         string
	Threads    int
	PageBits   uint
	MemPages   int
	Rocksteady bool
	NoSampling bool
	SSDModel   storage.LatencyModel
	Ranges     []metadata.HashRange

	// AutoScale hosts the elastic control plane's balancer on this server
	// (the hotspot-shift scenario); the remaining fields are its knobs.
	AutoScale      bool
	AutoScaleEvery time.Duration
	Imbalance      float64
	Cooldown       time.Duration
	MinOpsPerSec   float64
}

// AddServer boots a server into the cluster.
func (cl *Cluster) AddServer(spec ServerSpec) (*core.Server, error) {
	dev := storage.NewMemDevice(spec.SSDModel, 4)
	mut := spec.MemPages / 2
	if mut < 1 {
		mut = 1
	}
	s, err := core.NewServer(core.ServerConfig{
		ID: spec.ID, Addr: spec.ID, Threads: spec.Threads,
		Transport: cl.Tr, Meta: cl.Meta,
		Store: faster.Config{
			IndexBuckets: 1 << 16,
			Log: hlog.Config{
				PageBits: spec.PageBits, MemPages: spec.MemPages,
				MutablePages: mut, Device: dev, Tier: cl.Tier, LogID: spec.ID,
			},
		},
		Rocksteady:      spec.Rocksteady,
		DisableSampling: spec.NoSampling,
		SampleDuration:  100 * time.Millisecond,

		AutoScale:          spec.AutoScale,
		AutoScaleEvery:     spec.AutoScaleEvery,
		AutoScaleImbalance: spec.Imbalance,
		AutoScaleCooldown:  spec.Cooldown,
		AutoScaleMinRate:   spec.MinOpsPerSec,
	}, spec.Ranges...)
	if err != nil {
		dev.Close()
		return nil, err
	}
	cl.Meta.SetServerAddr(spec.ID, s.Addr())
	cl.Servers = append(cl.Servers, s)
	cl.devices = append(cl.devices, dev)
	return s, nil
}

// Close tears the cluster down.
func (cl *Cluster) Close() {
	for _, s := range cl.Servers {
		s.Close()
	}
	for _, d := range cl.devices {
		d.Close()
	}
	cl.Tier.Close()
}

// Load writes the dataset (keys 0..n with counter values) through a client.
func (cl *Cluster) Load(o Options) error {
	ct, err := client.NewThread(client.Config{
		Transport: cl.Tr, Meta: cl.Meta, BatchOps: o.BatchOps})
	if err != nil {
		return err
	}
	defer ct.Close()
	val := make([]byte, o.ValueBytes)
	for i := uint64(0); i < o.Keys; i++ {
		binary.LittleEndian.PutUint64(val, i)
		if err := ct.Upsert(ycsb.KeyBytes(i), val, nil); err != nil {
			return err
		}
		for ct.Outstanding() > o.Outstanding {
			if ct.Poll() == 0 {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	if !ct.Drain(120 * time.Second) {
		return fmt.Errorf("bench: load did not drain")
	}
	return nil
}

// genFactory builds per-thread key generators.
type genFactory func(seed uint64) ycsb.Generator

// ZipfianGen returns a factory for the paper's default distribution.
func ZipfianGen(keys uint64) genFactory {
	return func(seed uint64) ycsb.Generator {
		return ycsb.NewZipfian(keys, ycsb.DefaultTheta, seed)
	}
}

// UniformGen returns a factory for Figure 9's distribution.
func UniformGen(keys uint64) genFactory {
	return func(seed uint64) ycsb.Generator {
		return ycsb.NewUniform(keys, seed)
	}
}

// DriveResult summarizes a drive window.
type DriveResult struct {
	Ops      uint64
	Duration time.Duration
	// LatencySamples are per-op latencies (sampled), sorted not guaranteed.
	LatencySamples []time.Duration
	// MeanOutstanding approximates average queue depth per thread.
	MeanOutstanding float64
}

// Mops returns million operations per second.
func (r DriveResult) Mops() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds() / 1e6
}

// drive runs nThreads client threads issuing YCSB-F RMWs for duration and
// returns the aggregate completion count (measured at the clients).
func (cl *Cluster) drive(o Options, nThreads int, gf genFactory, duration time.Duration,
	sampleLatency bool, stop <-chan struct{}) (DriveResult, error) {
	results := make(chan DriveResult, nThreads)
	errs := make(chan error, nThreads)
	for t := 0; t < nThreads; t++ {
		go func(t int) {
			res, err := cl.driveThread(o, uint64(t+1), gf, duration, sampleLatency, stop)
			if err != nil {
				errs <- err
				return
			}
			results <- res
		}(t)
	}
	var agg DriveResult
	agg.Duration = duration
	for i := 0; i < nThreads; i++ {
		select {
		case err := <-errs:
			return agg, err
		case r := <-results:
			agg.Ops += r.Ops
			agg.LatencySamples = append(agg.LatencySamples, r.LatencySamples...)
			agg.MeanOutstanding += r.MeanOutstanding
		}
	}
	agg.MeanOutstanding /= float64(nThreads)
	return agg, nil
}

// driveThread is one client thread's issue/poll loop.
func (cl *Cluster) driveThread(o Options, seed uint64, gf genFactory,
	duration time.Duration, sampleLatency bool, stop <-chan struct{}) (DriveResult, error) {
	ct, err := client.NewThread(client.Config{
		Transport: cl.Tr, Meta: cl.Meta, BatchOps: o.BatchOps})
	if err != nil {
		return DriveResult{}, err
	}
	defer ct.Close()
	gen := gf(seed)
	delta := make([]byte, 8)
	binary.LittleEndian.PutUint64(delta, 1)
	var res DriveResult

	deadline := time.Now().Add(duration)
	var key [8]byte
	outSamples, outTotal := 0, 0
	i := 0
	for time.Now().Before(deadline) {
		select {
		case <-stop:
			goto out
		default:
		}
		for j := 0; j < 64; j++ {
			ycsb.FillKey(key[:], gen.Next())
			if sampleLatency && i%257 == 0 {
				issued := time.Now()
				ct.RMW(key[:], delta, func(wire.ResultStatus, []byte) {
					res.LatencySamples = append(res.LatencySamples, time.Since(issued))
				})
			} else {
				ct.RMW(key[:], delta, nil)
			}
			i++
		}
		ct.Flush()
		for ct.Outstanding() > o.Outstanding {
			if ct.Poll() == 0 {
				time.Sleep(10 * time.Microsecond)
			}
		}
		ct.Poll()
		outTotal += ct.Outstanding()
		outSamples++
	}
out:
	ct.Drain(30 * time.Second)
	res.Ops = ct.Stats().OpsCompleted
	res.Duration = duration
	if outSamples > 0 {
		res.MeanOutstanding = float64(outTotal) / float64(outSamples)
	}
	return res, nil
}
