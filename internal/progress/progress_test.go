package progress

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// shardState fabricates a completed shard over [lo, hi) with per-trial
// rounds values lo..hi-1, built with the same config as the tracker.
func shardState(t *testing.T, sc engine.StreamConfig, shard, lo, hi int) engine.ShardState {
	t.Helper()
	sum := sc.NewSummary()
	for i := lo; i < hi; i++ {
		sum.Trials++
		sum.Completed++
		if err := sum.Rounds.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := sum.Transmissions.Add(float64(2 * i)); err != nil {
			t.Fatal(err)
		}
	}
	return engine.ShardState{Shard: shard, TrialLo: lo, TrialHi: hi, Summary: sum}
}

func TestTrackerLine(t *testing.T) {
	sc := engine.StreamConfig{}
	tr := NewTracker(100, sc)
	tr.Observe(shardState(t, sc, 0, 0, 25))
	tr.Observe(shardState(t, sc, 1, 25, 50))

	line := tr.Line()
	if !strings.HasPrefix(line, "progress: 50/100 trials (50.0%)") {
		t.Fatalf("line = %q", line)
	}
	if !strings.Contains(line, "rounds p50=") || strings.Contains(line, "p50=-") {
		t.Fatalf("line missing live p50: %q", line)
	}
	// Rounds held 0..49, so p50 is near 24.5 (exact regime: 24 or 25).
	if !strings.Contains(line, "p50=24") && !strings.Contains(line, "p50=25") {
		t.Fatalf("p50 off: %q", line)
	}
}

func TestTrackerEmpty(t *testing.T) {
	tr := NewTracker(10, engine.StreamConfig{})
	line := tr.Line()
	if !strings.Contains(line, "0/10 trials (0.0%)") || !strings.Contains(line, "p50=- p99=-") {
		t.Fatalf("empty tracker line = %q", line)
	}
	if !strings.Contains(line, "eta ?") {
		t.Fatalf("empty tracker should have unknown eta: %q", line)
	}
}

// TestTrackerConcurrentObserve drives Observe from many goroutines while
// Line renders concurrently; the race lane runs this package.
func TestTrackerConcurrentObserve(t *testing.T) {
	sc := engine.StreamConfig{}
	const shards, per = 32, 10
	tr := NewTracker(shards*per, sc)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tr.Observe(shardState(t, sc, s, s*per, (s+1)*per))
		}(s)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Line()
			}
		}
	}()
	wg.Wait()
	close(stop)
	done, _ := tr.snapshot()
	if done != shards*per {
		t.Fatalf("done = %d, want %d", done, shards*per)
	}
	if !strings.Contains(tr.Line(), "eta 0s") {
		t.Fatalf("finished tracker line = %q", tr.Line())
	}
}

// TestTrackerTicker pins the Start/stop contract: at least one line per
// interval while running, plus exactly one final line from stop, and stop is
// idempotent.
func TestTrackerTicker(t *testing.T) {
	sc := engine.StreamConfig{}
	tr := NewTracker(10, sc)
	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	stop := tr.Start(w, 10*time.Millisecond)
	time.Sleep(60 * time.Millisecond)
	tr.Observe(shardState(t, sc, 0, 0, 10))
	stop()
	stop() // idempotent
	mu.Lock()
	out := sb.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected ticker lines plus a final line, got %q", out)
	}
	if !strings.Contains(lines[len(lines)-1], "10/10 trials (100.0%)") {
		t.Fatalf("final line = %q", lines[len(lines)-1])
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestTrackerAgainstRealRun wires a tracker into a real streaming run and
// checks the observed totals agree with the run's own summary — and that
// attaching the tracker did not change the result (observe-only).
func TestTrackerAgainstRealRun(t *testing.T) {
	d, err := graph.CliqueBridge(13)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(13, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(0.4)
	if err != nil {
		t.Fatal(err)
	}
	cells := []engine.Trial{{Net: d, Alg: alg, Adv: adv, Cfg: sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 99}}}
	sc := engine.StreamConfig{}

	bases, err := engine.RunGridStreamFromContext(context.Background(), cells, 500, engine.Config{Workers: 4},
		sc, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	tr := NewTracker(500, sc)
	sums, err := engine.RunGridStreamFromContext(context.Background(), cells, 500, engine.Config{Workers: 4},
		sc, nil, tr.Observe, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, sum := bases[0], sums[0]
	done, rounds := tr.snapshot()
	if done != 500 || rounds.Count() != 500 {
		t.Fatalf("tracker saw %d trials / %d rounds values, want 500/500", done, rounds.Count())
	}
	if sum.Trials != base.Trials || sum.Completed != base.Completed {
		t.Fatalf("tracker perturbed the run: %+v vs %+v", sum, base)
	}
	bm, _ := base.Rounds.Mean()
	sm, _ := sum.Rounds.Mean()
	if bm != sm {
		t.Fatalf("tracker perturbed rounds mean: %v vs %v", bm, sm)
	}
}
