package engine_test

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
	"dualgraph/internal/stats"
)

// streamOne runs trials of one cell through the streaming path: a
// one-cell grid with no checkpoint seed.
func streamOne(t testing.TB, cell engine.Trial, trials int, ec engine.Config, sc engine.StreamConfig) *engine.TrialSummary {
	t.Helper()
	sums, err := engine.RunGridStreamFromContext(context.Background(), []engine.Trial{cell}, trials, ec, sc, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sums[0]
}

// runMany runs trials of one cell through the slice path.
func runMany(t testing.TB, cell engine.Trial, trials int, ec engine.Config) []*sim.Result {
	t.Helper()
	results, err := engine.RunMany(context.Background(), cell, trials, ec)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestReduceZeroAndNegativeTrials(t *testing.T) {
	cell := streamWorkload(t)
	if sum := streamOne(t, cell, 0, engine.Config{}, engine.StreamConfig{}); sum == nil || sum.Trials != 0 {
		t.Fatalf("zero trials: sum=%+v, want fresh empty summary", sum)
	}
	if _, err := engine.RunGridStreamFromContext(context.Background(), []engine.Trial{cell}, -1,
		engine.Config{}, engine.StreamConfig{}, nil, nil, nil); err == nil {
		t.Fatal("negative trial count must error")
	}
}

func TestShardsPureFunctionOfN(t *testing.T) {
	if got := engine.Shards(10); got != 10 {
		t.Errorf("Shards(10) = %d, want one shard per trial below the cap", got)
	}
	if got := engine.Shards(1_000_000); got != 256 {
		t.Errorf("Shards(1e6) = %d, want the 256 cap", got)
	}
}

// streamWorkload is the randomized cell used by the streaming tests.
func streamWorkload(t testing.TB) engine.Trial {
	t.Helper()
	d, err := graph.CliqueBridge(15)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(15, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(0.4)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Trial{Net: d, Alg: alg, Adv: adv, Cfg: sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 99}}
}

// TestRunStreamDeterministicAcrossWorkerCounts is the streaming path's core
// guarantee: the summary — including every floating-point bit of the
// Welford moments and the P² marker states — is identical at any worker
// count, because the trial→shard partition and the merge order are pure
// functions of the trial count.
func TestRunStreamDeterministicAcrossWorkerCounts(t *testing.T) {
	cell := streamWorkload(t)
	// 600 trials with ExactK 32 forces shard merges through every regime,
	// including P² marker merges.
	sc := engine.StreamConfig{ExactK: 32}
	var ref *engine.TrialSummary
	for _, workers := range []int{1, 2, 3, 8, 64} {
		sum := streamOne(t, cell, 600, engine.Config{Workers: workers}, sc)
		if ref == nil {
			ref = sum
			continue
		}
		if !reflect.DeepEqual(sum, ref) {
			t.Fatalf("workers=%d: summary diverged from workers=1", workers)
		}
	}
}

// TestRunStreamMatchesRunMany cross-checks the streaming path against the
// slice path on the same seeds: counts, min and max must agree exactly,
// the mean up to rounding, and — while within the exact regime — the
// quantiles must equal stats.Quantile over the materialized rounds.
func TestRunStreamMatchesRunMany(t *testing.T) {
	cell := streamWorkload(t)
	const trials = 300
	results := runMany(t, cell, trials, engine.Config{})
	sum := streamOne(t, cell, trials, engine.Config{}, engine.StreamConfig{})

	rounds := make([]float64, 0, trials)
	var completed int64
	var txTotal float64
	for _, res := range results {
		if res.Completed {
			completed++
		}
		rounds = append(rounds, float64(res.Rounds))
		txTotal += float64(res.Transmissions)
	}
	if sum.Trials != trials || sum.Completed != completed {
		t.Fatalf("counts: got %d/%d, want %d/%d", sum.Completed, sum.Trials, completed, trials)
	}
	if !sum.Rounds.Exact() {
		t.Fatal("300 trials under the default ExactK must stay exact")
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
		want, err := stats.Quantile(rounds, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sum.Rounds.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("q=%v: stream %v != slice-path %v", q, got, want)
		}
	}
	gotMean, _ := sum.Transmissions.Mean()
	if want := txTotal / trials; math.Abs(gotMean-want) > 1e-9*want {
		t.Errorf("mean transmissions: stream %v != slice-path %v", gotMean, want)
	}
}

// TestRunStreamP2WithinToleranceOfSlicePath pushes past the exact regime
// and checks the documented accuracy contract against the exact slice-path
// quantiles: each P² estimate must fall between the exact (q-0.02)- and
// (q+0.02)-quantiles of the materialized sample.
func TestRunStreamP2WithinToleranceOfSlicePath(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-checking thousands of trials is slow")
	}
	cell := streamWorkload(t)
	const trials = 4000
	results := runMany(t, cell, trials, engine.Config{})
	sum := streamOne(t, cell, trials, engine.Config{}, engine.StreamConfig{ExactK: 256})
	if sum.Rounds.Exact() {
		t.Fatal("4000 trials past ExactK=256 must have spilled")
	}
	rounds := make([]float64, trials)
	for i, res := range results {
		rounds[i] = float64(res.Rounds)
	}
	sort.Float64s(rounds)
	// Band of exact neighbouring quantiles, widened by one round: rounds
	// are integers, so on a nearly-atomic distribution the band can be a
	// single point while P² interpolates between atoms (e.g. 1.999 vs 2).
	const eps = 0.02
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got, err := sum.Rounds.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := stats.Quantile(rounds, math.Max(0, q-eps))
		hi, _ := stats.Quantile(rounds, math.Min(1, q+eps))
		if got < lo-1 || got > hi+1 {
			t.Errorf("q=%v: P² estimate %v outside exact band [%v, %v]±1", q, got, lo, hi)
		}
	}
	gotMax, _ := sum.Rounds.Max()
	if want := rounds[len(rounds)-1]; gotMax != want {
		t.Errorf("max: stream %v != slice-path %v", gotMax, want)
	}
}

// The 100k-trial bounded-memory smoke lives in cmd/dgsim's test suite
// (TestStreamSweepBoundedMemory), where it exercises this package's
// streaming path end to end through the CLI.
