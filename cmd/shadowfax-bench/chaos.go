package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/soak"
)

// The chaos experiment drives the partition soak (internal/soak): a
// replicated pair plus a metadata host behind a deterministic fault-
// injection network, scripted through a primary⇹standby partition (no
// promotion allowed; overload shed instead of unbounded queueing), a
// metadata partition (degraded cached views), and a primary kill (exactly
// one promotion, then balancer-driven re-replication). The headline metrics
// are the self-healing latencies: time-to-heal after the partition,
// time-to-promote and time-to-re-replicate after the kill, plus the shed
// rate the overload control imposed. Like the cluster scenario it doubles
// as a correctness gate — any linearizability violation fails the run.
func runChaos(threadsPer int, seed int64, verbose bool) error {
	cfg := soak.PartitionConfig{Load: soak.Load{Threads: threadsPer, Seed: seed}}
	if verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "chaos: "+format+"\n", args...)
		}
	}
	res, err := soak.RunPartition(cfg)
	if err != nil {
		return fmt.Errorf("chaos soak: %w", err)
	}
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "violation: %s\n", v)
		}
		return fmt.Errorf("chaos soak: %d correctness violations (first: %s)",
			len(res.Violations), res.Violations[0])
	}
	fmt.Println("# Chaos: partition/heal/failover timeline under fault-injected transport")
	fmt.Printf("%-26s %v\n", "time-to-heal", res.TimeToHeal.Round(time.Millisecond))
	fmt.Printf("%-26s %v\n", "metadata-degraded-seen", res.DegradedObserved.Round(time.Millisecond))
	fmt.Printf("%-26s %v\n", "time-to-promote", res.PromotedIn.Round(time.Millisecond))
	fmt.Printf("%-26s %v\n", "time-to-re-replicate", res.TimeToReReplicate.Round(time.Millisecond))
	fmt.Printf("%-26s %d (%.2f%% of batches)\n", "batches-shed", res.BatchesShed, res.ShedRate*100)
	fmt.Printf("%-26s %.3f Mops/s over %v\n", "aggregate-throughput",
		res.AggregateMops, res.Duration.Round(time.Millisecond))
	emitBenchJSON("chaos", []BenchMetric{
		{Name: "time_to_heal_seconds", Value: res.TimeToHeal.Seconds(), Unit: "s"},
		{Name: "time_to_promote_seconds", Value: res.PromotedIn.Seconds(), Unit: "s"},
		{Name: "time_to_rereplicate_seconds", Value: res.TimeToReReplicate.Seconds(), Unit: "s"},
		{Name: "metadata_degraded_seconds", Value: res.DegradedObserved.Seconds(), Unit: "s"},
		{Name: "shed_rate", Value: res.ShedRate, Unit: "fraction"},
		{Name: "aggregate_mops", Value: res.AggregateMops, Unit: "Mops/s"},
	})
	return nil
}
