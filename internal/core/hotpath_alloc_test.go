//go:build !race

// The allocation-budget guard: the normal-operation server path (batch in,
// all ops served from memory, batch out) must not allocate per operation.
// testing.AllocsPerRun counts mallocs process-wide, so the budget below is
// per 64-op batch and covers the whole round trip — driver encode, both
// in-process transport frame copies, dispatch, store, response encode. A
// regression that adds even one allocation per op would blow the budget by
// 64; the headroom only absorbs rare amortized growth (map rehash, GC
// assists). Excluded under -race: instrumentation allocates.
package core_test

import "testing"

// allocBudgetPerBatch is the per-batch (64 ops) allowance. The steady state
// measures 2 (the in-process transport copies one request and one response
// frame per batch); anything near one-per-op means the zero-allocation
// invariant broke.
const allocBudgetPerBatch = 8

func hotPathAllocs(t *testing.T, mix hotPathMix, valueBytes int) float64 {
	t.Helper()
	// Dataset sized well inside the mutable region so upserts update in
	// place and nothing rolls pages mid-measurement.
	d := newHotPathDriver(t, 5_000, valueBytes, 64)
	// Warm lazily-grown buffers (arena, results, response path, session
	// table entry) out of the measurement.
	for i := 0; i < 10; i++ {
		if err := d.runBatch(mix); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(100, func() {
		if err := d.runBatch(mix); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHotPathReadAllocBudget(t *testing.T) {
	got := hotPathAllocs(t, hotPathRead, 64)
	if got > allocBudgetPerBatch {
		t.Fatalf("in-memory read batch: %.1f allocs per %d-op batch, budget %d",
			got, hotPathBatchOps, allocBudgetPerBatch)
	}
}

func TestHotPathUpsertAllocBudget(t *testing.T) {
	got := hotPathAllocs(t, hotPathUpsert, 64)
	if got > allocBudgetPerBatch {
		t.Fatalf("in-place upsert batch: %.1f allocs per %d-op batch, budget %d",
			got, hotPathBatchOps, allocBudgetPerBatch)
	}
}
