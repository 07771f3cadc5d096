package engine

// White-box metric tests: the package's tests run sequentially (no
// t.Parallel anywhere in the repo), so exact before/after deltas on the
// package-global instruments are safe.

import (
	"context"
	"errors"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/metrics"
	"dualgraph/internal/sim"
)

// metricsCell is a cheap deterministic cell: round robin on a 6-line.
func metricsCell(t *testing.T) Trial {
	t.Helper()
	line, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	return Trial{Net: line, Alg: core.NewRoundRobin(), Adv: adversary.Benign{},
		Cfg: sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1}}
}

// streamCell runs n trials of cell as a one-cell grid, restoring the seeded
// shards, and returns the cell's trial count.
func streamCell(t *testing.T, cell Trial, n, workers int, seed map[ShardKey]*TrialSummary) int64 {
	t.Helper()
	sums, err := RunGridStreamFromContext(context.Background(), []Trial{cell}, n, Config{Workers: workers},
		StreamConfig{}, seed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sums[0].Trials
}

func TestReduceMetricsDeltas(t *testing.T) {
	const n = 100 // below the cap: one shard per trial
	baseTrials := mTrialsTotal.Value()
	baseShards := mShardsCompleted.Value()
	baseSeeded := mShardsSeeded.Value()
	basePending := mUnitsPending.Value()
	baseBusy := mWorkerBusy.Value()
	baseDur := mShardDuration.Count()

	if got := streamCell(t, metricsCell(t), n, 4, nil); got != n {
		t.Fatalf("folded %d trials, want %d", got, n)
	}

	if d := mTrialsTotal.Value() - baseTrials; d != n {
		t.Errorf("trials delta = %d, want %d", d, n)
	}
	if d := mShardsCompleted.Value() - baseShards; d != int64(Shards(n)) {
		t.Errorf("shards delta = %d, want %d", d, Shards(n))
	}
	if d := mShardsSeeded.Value() - baseSeeded; d != 0 {
		t.Errorf("seeded delta = %d, want 0", d)
	}
	if got := mUnitsPending.Value(); got != basePending {
		t.Errorf("pending gauge = %d, want baseline %d", got, basePending)
	}
	if mWorkerBusy.Value() <= baseBusy {
		t.Errorf("busy seconds did not advance")
	}
	if d := mShardDuration.Count() - baseDur; d != int64(Shards(n)) {
		t.Errorf("shard duration observations delta = %d, want %d", d, Shards(n))
	}
}

func TestReduceMetricsSeededSkips(t *testing.T) {
	const n = 50
	// Seed shards 0..9 with their true accumulators so the result is intact.
	cell := metricsCell(t)
	seed := make(map[ShardKey]*TrialSummary)
	for s := 0; s < 10; s++ {
		lo, hi := ShardRange(n, s)
		acc, err := FoldShardContext(context.Background(), cell, lo, hi, StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		seed[ShardKey{Shard: s}] = acc
	}
	baseTrials := mTrialsTotal.Value()
	baseSeeded := mShardsSeeded.Value()
	basePending := mUnitsPending.Value()

	if got := streamCell(t, cell, n, 2, seed); got != n {
		t.Fatalf("folded %d trials, want %d", got, n)
	}
	// Shards here are one trial wide (n < cap), so 10 seeded shards skip
	// exactly 10 trials.
	if d := mTrialsTotal.Value() - baseTrials; d != n-10 {
		t.Errorf("trials delta = %d, want %d", d, n-10)
	}
	if d := mShardsSeeded.Value() - baseSeeded; d != 10 {
		t.Errorf("seeded delta = %d, want 10", d)
	}
	if got := mUnitsPending.Value(); got != basePending {
		t.Errorf("pending gauge = %d, want baseline %d", got, basePending)
	}
}

func TestReduceMetricsPendingDrainsOnError(t *testing.T) {
	basePending := mUnitsPending.Value()
	cell := metricsCell(t)
	cell.Sched = failAt(cell, 17)
	_, err := RunGridStreamFromContext(context.Background(), []Trial{cell}, 64, Config{Workers: 4},
		StreamConfig{}, nil, nil, nil)
	if !errors.Is(err, errEpoch) {
		t.Fatalf("err = %v", err)
	}
	// Abandoned units must leave the queue with the failed run.
	if got := mUnitsPending.Value(); got != basePending {
		t.Errorf("pending gauge = %d, want baseline %d after error", got, basePending)
	}
}

func TestReduceMetricsGateOff(t *testing.T) {
	metrics.SetEnabled(false)
	defer metrics.SetEnabled(true)
	baseTrials := mTrialsTotal.Value()
	baseShards := mShardsCompleted.Value()
	basePending := mUnitsPending.Value()

	if got := streamCell(t, metricsCell(t), 40, 4, nil); got != 40 {
		t.Fatalf("folded %d trials, want 40", got)
	}
	if mTrialsTotal.Value() != baseTrials || mShardsCompleted.Value() != baseShards {
		t.Errorf("counters advanced with the gate off")
	}
	if mUnitsPending.Value() != basePending {
		t.Errorf("pending gauge moved with the gate off")
	}
}
