package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric describes one reported number. bound is the relative worsening
// that counts as a regression (end-to-end metrics only); moves names, for a
// per-layer metric, the end-to-end metric and workload it should move.
type metric struct {
	name, unit, better string
	bound              float64
	moves              string
}

// The end-to-end metrics: what a user of the store sees. Every workload
// reports every one of them. BENCHMARK.json repeats names, units, directions
// and bounds; the smoke test fails if the two disagree.
var e2eMetrics = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "tput_ops_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "tput_mean_ops_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "lat_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.05},
}

func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// tailPercentile is the highest of p99.9, p99, p90 and p50 that has at least
// ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0.5
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the default, exclusive method); it needs two values or more.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// sleep50us measures what time.Sleep(50µs) costs here: the product's idle
// paths sleep for 20–100 µs, and where a timer cannot fire sooner than a
// millisecond, low-load latency is that timer and not work.
func sleep50us() float64 {
	var xs []float64
	for i := 0; i < 50; i++ {
		t := nowNs()
		time.Sleep(50 * time.Microsecond)
		xs = append(xs, float64(nowNs()-t)/1e3)
	}
	return median(xs)
}

// fingerprint describes the machine and build a result came from.
func fingerprint() string {
	kernel := "?"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = string(bytes.TrimSpace(out))
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s commit=%s\n"+
		"env: network = kernel TCP over the loopback interface, not a link; "+
		"cold reads hit the OS page cache, not a device: latencies are this sandbox's",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel, commit)
}
