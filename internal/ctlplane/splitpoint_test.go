package ctlplane

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/wire"
)

func TestSplitPointMedian(t *testing.T) {
	st := wire.StatsResp{
		Ranges: []metadata.HashRange{{Start: 0, End: 1000}},
	}
	for i := uint64(0); i < 100; i++ {
		st.HashSample = append(st.HashSample, i*10)
	}
	rng, reason := splitPoint(st, 16)
	if reason != "" {
		t.Fatalf("no split: %s", reason)
	}
	if rng.End != 1000 {
		t.Fatalf("split range end = %d, want the owned range's end", rng.End)
	}
	if rng.Start < 400 || rng.Start > 600 {
		t.Fatalf("split at %d, want near the sample median 500", rng.Start)
	}
}

func TestSplitPointPicksHottestRange(t *testing.T) {
	st := wire.StatsResp{
		Ranges: []metadata.HashRange{{Start: 0, End: 1000}, {Start: 5000, End: 6000}},
	}
	// Load concentrated in the second range.
	for i := uint64(0); i < 4; i++ {
		st.HashSample = append(st.HashSample, i*100)
	}
	for i := uint64(0); i < 64; i++ {
		st.HashSample = append(st.HashSample, 5000+i*10)
	}
	rng, reason := splitPoint(st, 16)
	if reason != "" {
		t.Fatalf("no split: %s", reason)
	}
	if rng.Start < 5000 || rng.End != 6000 {
		t.Fatalf("split %v, want inside the hot range [5000,6000)", rng)
	}
}

func TestSplitPointGuards(t *testing.T) {
	// Too few samples.
	st := wire.StatsResp{
		Ranges:     []metadata.HashRange{{Start: 0, End: 1000}},
		HashSample: []uint64{1, 2, 3},
	}
	if _, reason := splitPoint(st, 16); reason == "" {
		t.Fatal("expected a too-few-samples refusal")
	}
	// No owned ranges.
	if _, reason := splitPoint(wire.StatsResp{}, 1); reason == "" {
		t.Fatal("expected an owns-no-ranges refusal")
	}
	// Degenerate distribution: every sample on the range's first hash.
	st = wire.StatsResp{Ranges: []metadata.HashRange{{Start: 100, End: 1000}}}
	for i := 0; i < 32; i++ {
		st.HashSample = append(st.HashSample, 100)
	}
	if _, reason := splitPoint(st, 16); reason == "" {
		t.Fatal("expected a nothing-to-split refusal")
	}
	// Median on the first hash but distinct samples above it: split must
	// land strictly inside the range.
	st.HashSample = append(st.HashSample[:20], 500, 600, 700)
	rng, reason := splitPoint(st, 16)
	if reason != "" {
		t.Fatalf("no split: %s", reason)
	}
	if rng.Start <= 100 || rng.End != 1000 {
		t.Fatalf("split %v, want strictly inside (100,1000)", rng)
	}
}

// planCand builds a planning candidate whose sampled load is spread evenly
// over one owned range [start,end), so splitPoint lands near its middle.
func planCand(id string, rate float64, busy bool, start, end uint64) moveCandidate {
	st := wire.StatsResp{Ranges: []metadata.HashRange{{Start: start, End: end}}}
	span := end - start
	for i := uint64(0); i < 64; i++ {
		st.HashSample = append(st.HashSample, start+i*span/64)
	}
	return moveCandidate{ID: id, Rate: rate, Stats: st, Busy: busy}
}

func basePlanReq(cands ...moveCandidate) planRequest {
	return planRequest{
		Candidates: cands, MaxMoves: 4,
		Imbalance: 3.0, MinOpsPerSec: 500, MinSplitSamples: 16,
	}
}

func TestPlanMovesTopK(t *testing.T) {
	// Eight servers, four clearly hot, four clearly cool, each owning its
	// own disjoint span of the hash space.
	req := basePlanReq(
		planCand("h1", 8000, false, 0, 10_000),
		planCand("h2", 7000, false, 20_000, 30_000),
		planCand("h3", 6000, false, 40_000, 50_000),
		planCand("h4", 5000, false, 60_000, 70_000),
		planCand("c1", 100, false, 80_000, 90_000),
		planCand("c2", 90, false, 100_000, 110_000),
		planCand("c3", 80, false, 120_000, 130_000),
		planCand("c4", 70, false, 140_000, 150_000),
	)
	req.MaxMoves = 3
	moves, reason := planMoves(req)
	if reason != "" {
		t.Fatalf("no plan: %s", reason)
	}
	if len(moves) != 3 {
		t.Fatalf("planned %d moves, want 3 (MaxMoves)", len(moves))
	}
	// Top-K sources hottest-first, targets coolest-first, no server reused.
	wantSrc := []string{"h1", "h2", "h3"}
	wantTgt := []string{"c4", "c3", "c2"}
	used := map[string]bool{}
	for i, m := range moves {
		if m.Source != wantSrc[i] || m.Target != wantTgt[i] {
			t.Fatalf("move %d = %s->%s, want %s->%s", i, m.Source, m.Target, wantSrc[i], wantTgt[i])
		}
		if used[m.Source] || used[m.Target] {
			t.Fatalf("server reused across moves: %+v", moves)
		}
		used[m.Source], used[m.Target] = true, true
	}
	// Planned ranges are pairwise disjoint.
	for i := range moves {
		for j := i + 1; j < len(moves); j++ {
			if moves[i].Range.Overlaps(moves[j].Range) {
				t.Fatalf("planned ranges overlap: %s and %s", moves[i].Range, moves[j].Range)
			}
		}
	}
}

func TestPlanMovesK1MatchesSingleMoveBehavior(t *testing.T) {
	// The degenerate MaxMoves=1 case is the old balancer: exactly one move,
	// hottest source toward coolest target, split at the load median.
	req := basePlanReq(
		planCand("a", 9000, false, 0, 1000),
		planCand("b", 2000, false, 2000, 3000),
		planCand("c", 50, false, 4000, 5000),
	)
	req.MaxMoves = 1
	moves, reason := planMoves(req)
	if reason != "" || len(moves) != 1 {
		t.Fatalf("moves=%v reason=%q, want exactly one move", moves, reason)
	}
	m := moves[0]
	if m.Source != "a" || m.Target != "c" {
		t.Fatalf("move %s->%s, want a->c", m.Source, m.Target)
	}
	if m.Range.Start < 400 || m.Range.Start > 600 || m.Range.End != 1000 {
		t.Fatalf("split %s, want near the sample median of [0,1000)", m.Range)
	}
}

func TestPlanMovesGuards(t *testing.T) {
	hot := planCand("a", 9000, false, 0, 1000)
	cool := planCand("b", 50, false, 2000, 3000)

	// Cooldown wins over everything, even a clear imbalance.
	req := basePlanReq(hot, cool)
	req.CooldownRemaining = 3 * time.Second
	if moves, reason := planMoves(req); len(moves) != 0 || !strings.Contains(reason, "cooling down") {
		t.Fatalf("moves=%v reason=%q, want cooldown refusal", moves, reason)
	}

	// Idle floor: the hottest free server below MinOpsPerSec plans nothing.
	req = basePlanReq(planCand("a", 400, false, 0, 1000), planCand("b", 10, false, 2000, 3000))
	if moves, reason := planMoves(req); len(moves) != 0 || !strings.Contains(reason, "idle") {
		t.Fatalf("moves=%v reason=%q, want idle refusal", moves, reason)
	}

	// Balanced: imbalance ratio not met.
	req = basePlanReq(planCand("a", 1000, false, 0, 1000), planCand("b", 900, false, 2000, 3000))
	if moves, reason := planMoves(req); len(moves) != 0 || !strings.Contains(reason, "balanced") {
		t.Fatalf("moves=%v reason=%q, want balanced refusal", moves, reason)
	}

	// Uniform load.
	req = basePlanReq(planCand("a", 1000, false, 0, 1000), planCand("b", 1000, false, 2000, 3000))
	if moves, reason := planMoves(req); len(moves) != 0 || reason != "load is uniform" {
		t.Fatalf("moves=%v reason=%q, want uniform refusal", moves, reason)
	}

	// The guards also bound a partial plan: the first pair qualifies, the
	// second source sits below the idle floor, so exactly one move ships.
	req = basePlanReq(
		planCand("a", 10_000, false, 0, 1000),
		planCand("b", 400, false, 2000, 3000),
		planCand("c", 50, false, 4000, 5000),
		planCand("d", 40, false, 6000, 7000),
	)
	moves, reason := planMoves(req)
	if reason != "" || len(moves) != 1 || moves[0].Source != "a" || moves[0].Target != "d" {
		t.Fatalf("moves=%v reason=%q, want the single a->d move", moves, reason)
	}
}

func TestPlanMovesBusyServersSitOut(t *testing.T) {
	// The hottest server and the coolest server are mid-migration: the plan
	// falls back to the hottest and coolest *free* servers.
	moves, reason := planMoves(basePlanReq(
		planCand("busy-hot", 20_000, true, 0, 1000),
		planCand("a", 9000, false, 2000, 3000),
		planCand("b", 60, false, 4000, 5000),
		planCand("busy-cool", 10, true, 6000, 7000),
	))
	if reason != "" || len(moves) != 1 {
		t.Fatalf("moves=%v reason=%q, want one move between free servers", moves, reason)
	}
	if moves[0].Source != "a" || moves[0].Target != "b" {
		t.Fatalf("move %s->%s, want a->b (busy servers excluded)", moves[0].Source, moves[0].Target)
	}

	// Fewer than two free servers: nothing to plan, reason says why.
	moves, reason = planMoves(basePlanReq(
		planCand("busy1", 9000, true, 0, 1000),
		planCand("busy2", 10, true, 2000, 3000),
		planCand("only-free", 500, false, 4000, 5000),
	))
	if len(moves) != 0 || !strings.Contains(reason, "busy") {
		t.Fatalf("moves=%v reason=%q, want busy refusal", moves, reason)
	}
}

func TestPlanMovesSkipsUnsplittableSource(t *testing.T) {
	// The hottest server has a degenerate sample distribution (one hash);
	// the plan moves on to the next-hottest source with the same target.
	degenerate := moveCandidate{ID: "spike", Rate: 50_000, Stats: wire.StatsResp{
		Ranges: []metadata.HashRange{{Start: 0, End: 1000}},
	}}
	for i := 0; i < 32; i++ {
		degenerate.Stats.HashSample = append(degenerate.Stats.HashSample, 0)
	}
	moves, reason := planMoves(basePlanReq(
		degenerate,
		planCand("a", 9000, false, 2000, 3000),
		planCand("b", 60, false, 4000, 5000),
	))
	if reason != "" || len(moves) != 1 || moves[0].Source != "a" || moves[0].Target != "b" {
		t.Fatalf("moves=%v reason=%q, want a->b after skipping the unsplittable spike", moves, reason)
	}
}
