package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesProgram checks that BENCHMARK.json and the program's own
// tables name the same workloads and metrics with the same units, directions
// and bounds.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(m.EndToEnd), len(e2eMetrics))
	}
	for i, want := range e2eMetrics {
		got := m.EndToEnd[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better || got.Bound != want.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, got, want)
		}
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(m.PerLayer), len(layerMetrics))
	}
	seen := map[string]bool{}
	for i, want := range layerMetrics {
		got := m.PerLayer[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the program %+v", i, got, want)
		}
	}
	for _, mt := range append(append([]metric(nil), e2eMetrics...), layerMetrics...) {
		if !nameRE.MatchString(mt.name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", mt.name)
		}
		if seen[mt.name] {
			t.Errorf("metric name %q is used twice", mt.name)
		}
		seen[mt.name] = true
	}
}

// TestSmoke runs every workload at 1/128 scale with a 1-s window — the
// undecorated run, the ladder and the decorated run — and checks that every
// metric BENCHMARK.json names is reported exactly once and that verification
// passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers over TCP")
	}
	m := readManifest(t)
	small := ladderSize{ops: 1 << 14, pass: 100 * time.Millisecond, reps: 20}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			o, err := tracedRun(w.scaled(128), 1, time.Second, dir, small)
			if err != nil {
				t.Fatal(err)
			}
			if !o.correct() {
				t.Errorf("verification: %d failed ops, %d mismatches: %v", o.failed, o.mismatches, o.firstErr)
			}
			if o.attempted == 0 {
				t.Error("nothing attempted")
			}
			e2e, layer := o.result(false).Metrics, o.result(true).Metrics
			if len(e2e) != len(m.EndToEnd) || len(layer) != len(m.PerLayer) {
				t.Errorf("reported %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(e2e), len(layer), len(m.EndToEnd), len(m.PerLayer))
			}
			for _, want := range m.EndToEnd {
				if v, ok := e2e[want.Name]; !ok || v.Value <= 0 || v.Unit != want.Unit {
					t.Errorf("end-to-end %s = %+v (reported %v); it must be reported, positive, in %s", want.Name, v, ok, want.Unit)
				}
			}
			for _, want := range m.PerLayer {
				if v, ok := layer[want.Name]; !ok || v.Unit != want.Unit {
					t.Errorf("per-layer %s = %+v (reported %v); it must be reported in %s", want.Name, v, ok, want.Unit)
				}
			}
			for name := range o.layer {
				if _, ok := layer[name]; !ok {
					t.Errorf("per-layer %s is measured but not in the program's table", name)
				}
			}
			if st, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".jsonl")); err != nil || st.Size() == 0 {
				t.Errorf("no spans written: %v", err)
			}
		})
	}
}
