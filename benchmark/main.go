// Command benchmark is the repository's benchmark: four workloads driven
// through the public shadowfax API over kernel TCP on the loopback
// interface, six end-to-end metrics per workload, and — in a separate
// traced run — a ladder of per-layer timings taken from outside the product.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory explains them.
//
//	go run ./benchmark -seed 1                          all four workloads
//	go run ./benchmark -workload cold_read_zipf -seed 1 one workload
//	go run ./benchmark -workload ... -trace 1           its per-layer run
//	go run ./benchmark -aa 5                            same-commit spread check
//
// With -workload the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics (end-to-end with -trace 0,
// per-layer with -trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times one run sets the workload up; setup_s is the
// median. All but the last are done in child processes, so that each set-up
// starts from a fresh heap and the measured window's peak RSS is its own.
const setupReps = 3

const outDir = "benchmark/out"

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with its JSON result (default: all four, each in a child process)")
		seed    = flag.Uint64("seed", 1, "seed of the generated keys, values and op mix")
		seconds = flag.Int("seconds", 15, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = the traced run: ladder rungs, timing decorators, per-layer metrics")
		aa      = flag.Int("aa", 0, "run this many full sets on the same code and fail if any end-to-end spread exceeds its bound")
		phase   = flag.String("phase", "", "internal: 'setup' sets the workload up once and prints the time it took")
	)
	flag.Parse()
	dur := time.Duration(*seconds) * time.Second

	var err error
	switch {
	case *aa > 0:
		err = selfCheck(*aa, *seed, *seconds)
	case *name == "":
		fmt.Printf("seed %d, %d-s windows\n%s\nenv.sleep50us_us = %.0f\n", *seed, *seconds, fingerprint(), sleep50us())
		_, err = runSet(*seed, *seconds, *trace, true)
	default:
		w := findWorkload(*name)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		if *phase == "setup" {
			err = setupOnly(w, *seed)
			break
		}
		err = single(w, *seed, dur, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// setupOnly is the child side of a repeated set-up.
func setupOnly(w *workload, seed uint64) error {
	r, _, s, err := setUp(w, seed, outDir, nil)
	if err != nil {
		return err
	}
	r.close()
	fmt.Printf("setup_s %v\n", s)
	return nil
}

// child re-executes this binary and returns its standard output.
func child(args ...string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return string(out), err
}

// extraSetups sets the workload up in n fresh processes and returns how long
// each took.
func extraSetups(w *workload, seed uint64, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		s, err := child("-workload", w.name, "-seed", fmt.Sprint(seed), "-phase", "setup")
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(s, "setup_s ")), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

// single runs one workload in this process and prints its report and JSON.
func single(w *workload, seed uint64, dur time.Duration, traced bool) error {
	fmt.Printf("== %s  seed %d  %s window  GOMAXPROCS %d\n   %s\n", w.name, seed, dur, runtime.GOMAXPROCS(0), w.why)
	var (
		o   *outcome
		err error
	)
	if traced {
		o, err = tracedRun(w, seed, dur, outDir, fullLadder)
	} else {
		var extra []float64
		if extra, err = extraSetups(w, seed, setupReps-1); err != nil {
			return err
		}
		if o, err = measure(w, seed, dur, outDir, nil, nil); err != nil {
			return err
		}
		o.setups = append(extra, o.setups...)
		o.e2e["setup_s"] = median(o.setups)
	}
	if err != nil {
		return err
	}
	o.print(traced)

	res := o.result(traced)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !o.correct() {
		return fmt.Errorf("%s: %d failed ops, %d verification mismatches (first: %v)", w.name, o.failed, o.mismatches, o.firstErr)
	}
	return nil
}

// result is the run's JSON object: the end-to-end metrics, or after a traced
// run the per-layer ones.
func (o *outcome) result(traced bool) result {
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	if traced {
		for _, m := range layerMetrics {
			res.Metrics[m.name] = value{o.layer[m.name], m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = value{o.e2e[m.name], m.unit}
		}
	}
	return res
}

// print writes the human-readable report.
func (o *outcome) print(traced bool) {
	if !traced {
		fmt.Printf("   set-ups (s): %.3f\n", o.setups)
		fmt.Printf("   %-18s %14s  %-6s %-7s %s\n", "end-to-end", "value", "unit", "better", "bound")
		for _, m := range e2eMetrics {
			fmt.Printf("   %-18s %14.4f  %-6s %-7s %.2f\n", m.name, o.e2e[m.name], m.unit, m.better, m.bound)
		}
		fmt.Printf("   latency samples %d, 1-s windows %d, attempted %d, failed %d, mismatches %d, fail_ratio %g\n",
			len(o.m.lat), len(o.m.buckets)/10, o.attempted, o.failed, o.mismatches,
			float64(o.failed+o.mismatches)/float64(max(o.attempted, 1)))
	}
	if traced {
		fmt.Printf("   %-30s %16s  %-6s %s\n", "per-layer (traced run)", "value", "unit", "better")
	} else {
		fmt.Printf("   %-30s %16s  %-6s %s\n", "per-layer (public snapshots)", "value", "unit", "better")
	}
	for _, m := range layerMetrics {
		if v, ok := o.layer[m.name]; ok {
			fmt.Printf("   %-30s %16.4f  %-6s %s\n", m.name, v, m.unit, m.better)
		}
	}
	for _, n := range o.notes {
		fmt.Println("   note:", n)
	}
}

// runSet runs every workload once, each in a fresh child process, and
// returns their end-to-end (or per-layer) metrics by workload.
func runSet(seed uint64, seconds, trace int, echo bool) (map[string]result, error) {
	set := map[string]result{}
	var firstErr error
	for _, w := range workloads {
		out, err := child("-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		if echo {
			fmt.Print(out)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", w.name, err)
			}
			continue
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", w.name, err)
		}
		set[w.name] = res
	}
	return set, firstErr
}

// selfCheck runs k sets on the same code and compares every end-to-end
// metric's spread (interquartile range over median, as the driver computes
// it) with its bound.
func selfCheck(k int, seed uint64, seconds int) error {
	fmt.Printf("A/A self-check: %d sets, seeds %d..%d, %d-s windows\n%s\nenv.sleep50us_us = %.0f\n",
		k, seed, seed+uint64(k)-1, seconds, fingerprint(), sleep50us())
	vals := map[string]map[string][]float64{} // workload → metric → one value per set
	for i := 0; i < k; i++ {
		set, err := runSet(seed+uint64(i), seconds, 0, false)
		if err != nil {
			return err
		}
		for wn, res := range set {
			if vals[wn] == nil {
				vals[wn] = map[string][]float64{}
			}
			for mn, v := range res.Metrics {
				vals[wn][mn] = append(vals[wn][mn], v.Value)
			}
		}
		fmt.Printf("set %d done\n", i+1)
	}
	bad := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n   %-18s %14s %9s %7s\n", w.name, "metric", "median", "spread", "bound")
		for _, m := range e2eMetrics {
			xs := vals[w.name][m.name]
			s, mark := spread(xs), ""
			if s > m.bound && m.name != "setup_s" {
				mark = "  EXCEEDS ITS BOUND"
				bad++
			}
			fmt.Printf("   %-18s %14.4f %8.1f%% %6.0f%%%s\n", m.name, median(xs), 100*s, 100*m.bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", bad)
	}
	return nil
}
