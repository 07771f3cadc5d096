package engine_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

func dynamicFixture(t *testing.T) (graph.Schedule, *graph.Dual, sim.Algorithm, sim.Adversary, sim.Config) {
	t.Helper()
	base, err := graph.RandomDual(18, 0.25, 0.4, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := graph.NewChurn(base, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(18, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	return sched, base, alg, adversary.GreedyCollider{}, sim.Config{Seed: 21}
}

// TestRunManyScheduleWorkerInvariance: dynamic sweeps inherit the engine's
// bit-identical-at-any-worker-count guarantee, because each trial's epoch
// randomness is a pure function of its derived trial seed.
func TestRunManyScheduleWorkerInvariance(t *testing.T) {
	sched, base, alg, adv, cfg := dynamicFixture(t)
	cell := engine.Trial{Net: base, Sched: sched, Alg: alg, Adv: adv, Cfg: cfg}
	const trials = 24
	var want []*sim.Result
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := engine.RunMany(context.Background(), cell, trials, engine.Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d results differ from workers=1", workers)
		}
	}
	completed := 0
	for _, r := range want {
		if r.Completed {
			completed++
		}
	}
	if completed != trials {
		t.Fatalf("only %d/%d dynamic trials completed", completed, trials)
	}
}

// TestRunStreamScheduleMatchesSlicePath: the streamed dynamic aggregate must
// agree with the materialized RunMany results (exact in the small-count
// regime) and be worker-invariant including P² marker state.
func TestRunStreamScheduleMatchesSlicePath(t *testing.T) {
	sched, base, alg, adv, cfg := dynamicFixture(t)
	cell := engine.Trial{Net: base, Sched: sched, Alg: alg, Adv: adv, Cfg: cfg}
	const trials = 32
	results := runMany(t, cell, trials, engine.Config{})
	var want *engine.TrialSummary
	for _, workers := range []int{1, 2, 8} {
		sum := streamOne(t, cell, trials, engine.Config{Workers: workers}, engine.StreamConfig{})
		if want == nil {
			want = sum
			if sum.Trials != trials {
				t.Fatalf("summary trials = %d, want %d", sum.Trials, trials)
			}
			minR, err := sum.Rounds.Min()
			if err != nil {
				t.Fatal(err)
			}
			maxR, err := sum.Rounds.Max()
			if err != nil {
				t.Fatal(err)
			}
			gotMin, gotMax := results[0].Rounds, results[0].Rounds
			for _, r := range results {
				gotMin = min(gotMin, r.Rounds)
				gotMax = max(gotMax, r.Rounds)
			}
			if int(minR) != gotMin || int(maxR) != gotMax {
				t.Fatalf("stream min/max = %v/%v, slice path %d/%d", minR, maxR, gotMin, gotMax)
			}
			continue
		}
		if !reflect.DeepEqual(sum, want) {
			t.Fatalf("workers=%d summary differs from workers=1", workers)
		}
	}
}

// TestGridStreamDynamicCellEqualsStandalone: a grid mixing static and
// dynamic cells must reproduce, per cell, exactly the summary of that cell
// run alone at any worker count.
func TestGridStreamDynamicCellEqualsStandalone(t *testing.T) {
	sched, base, alg, adv, cfg := dynamicFixture(t)
	const trials = 16
	cells := []engine.Trial{
		{Net: base, Alg: alg, Adv: adv, Cfg: cfg},
		{Net: base, Sched: sched, Alg: alg, Adv: adv, Cfg: cfg},
	}
	standaloneStatic := streamOne(t, cells[0], trials, engine.Config{}, engine.StreamConfig{})
	standaloneDyn := streamOne(t, cells[1], trials, engine.Config{}, engine.StreamConfig{})
	for _, workers := range []int{1, 2, 8} {
		sums, err := engine.RunGridStreamFromContext(context.Background(), cells, trials, engine.Config{Workers: workers},
			engine.StreamConfig{}, nil, nil, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(sums[0], standaloneStatic) {
			t.Fatalf("workers=%d static cell differs from the cell run alone", workers)
		}
		if !reflect.DeepEqual(sums[1], standaloneDyn) {
			t.Fatalf("workers=%d dynamic cell differs from the cell run alone", workers)
		}
	}
	// The static and dynamic cells genuinely differ (the schedule is doing
	// something).
	if reflect.DeepEqual(standaloneStatic, standaloneDyn) {
		t.Fatal("churn cell is identical to the static cell; dynamics not applied")
	}
}
