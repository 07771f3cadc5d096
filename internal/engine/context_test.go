package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// testCell builds one small runnable trial cell.
func testCell(t *testing.T, seed int64) Trial {
	t.Helper()
	net, err := graph.CliqueBridge(9)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(net.N(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	return Trial{
		Net: net,
		Alg: alg,
		Adv: adversary.GreedyCollider{},
		Cfg: sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: seed},
	}
}

// A pre-cancelled context must stop every entry point before (or at) the
// first claim boundary and surface context.Canceled through errors.Is.
func TestContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cell := testCell(t, 1)

	for _, workers := range []int{1, 4} {
		if _, err := MapContext(ctx, 100, Config{Workers: workers}, func(i int) (int, error) { return i, nil }); !errors.Is(err, context.Canceled) {
			t.Fatalf("MapContext workers=%d: want context.Canceled, got %v", workers, err)
		}
	}
	if _, err := RunMany(ctx, cell, 50, Config{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMany: want context.Canceled, got %v", err)
	}
	if _, err := RunGridStreamFromContext(ctx, []Trial{cell}, 50, Config{Workers: 4}, StreamConfig{}, nil, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunGridStreamFromContext: want context.Canceled, got %v", err)
	}
	if _, err := FoldShardContext(ctx, cell, 0, 5, StreamConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FoldShardContext: want context.Canceled, got %v", err)
	}
}

// Cancelling mid-run stops the grid without delivering incomplete cells:
// every summary handed to onCell must be byte-identical to the same cell's
// uninterrupted one-cell run.
func TestGridContextCancelDeliversOnlyCompleteCells(t *testing.T) {
	const trials = 64
	cells := []Trial{testCell(t, 1), testCell(t, 2), testCell(t, 3), testCell(t, 4)}

	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	delivered := map[int]*TrialSummary{}
	n := 0
	_, err := RunGridStreamFromContext(ctx, cells, trials, Config{Workers: 2}, StreamConfig{}, nil, nil,
		func(c int, sum *TrialSummary) {
			mu.Lock()
			delivered[c] = sum
			n++
			if n == 1 {
				cancel() // cancel after the first completed cell
			}
			mu.Unlock()
		})
	defer cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(delivered) == 0 {
		t.Fatal("cancel fired from onCell, so at least one cell completed")
	}
	if len(delivered) == len(cells) {
		t.Log("all cells completed before the cancel took effect (tiny grid); delivery-equality still checked")
	}
	for c, got := range delivered {
		alone, err := RunGridStreamFromContext(context.Background(), cells[c:c+1], trials, Config{Workers: 1}, StreamConfig{}, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := alone[0]
		if got.Trials != want.Trials || got.Completed != want.Completed {
			t.Fatalf("cell %d: delivered summary (%d/%d) differs from standalone (%d/%d)",
				c, got.Completed, got.Trials, want.Completed, want.Trials)
		}
		gm, _ := got.Rounds.Mean()
		wm, _ := want.Rounds.Mean()
		if gm != wm {
			t.Fatalf("cell %d: delivered mean %v != standalone %v", c, gm, wm)
		}
	}
}

// onCell must fire exactly once per cell on an uninterrupted run, and the
// delivered summaries must be the returned ones.
func TestGridOnCellDeliversEveryCellOnce(t *testing.T) {
	cells := []Trial{testCell(t, 1), testCell(t, 2), testCell(t, 3)}
	var calls [3]atomic.Int32
	var got [3]*TrialSummary
	var mu sync.Mutex
	sums, err := RunGridStreamFromContext(context.Background(), cells, 10, Config{Workers: 4}, StreamConfig{}, nil, nil,
		func(c int, sum *TrialSummary) {
			calls[c].Add(1)
			mu.Lock()
			got[c] = sum
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	for c := range cells {
		if n := calls[c].Load(); n != 1 {
			t.Fatalf("cell %d delivered %d times", c, n)
		}
		if got[c] != sums[c] {
			t.Fatalf("cell %d: onCell summary is not the returned summary", c)
		}
	}
}

// A trial error must still win over cancellation and be reported with the
// deterministic lowest (cell, trial) key.
func TestContextErrorPrecedence(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := MapContext(ctx, 8, Config{Workers: 1}, func(i int) (int, error) {
		if i == 3 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the trial error to take precedence, got %v", err)
	}
}

// errEpoch is the failure failingSched injects.
var errEpoch = errors.New("injected epoch failure")

// failingSched wraps a schedule so that epoch 0 fails for chosen trials,
// which puts trial errors at known indices of a real run.
type failingSched struct {
	graph.Schedule
	fail map[int64]int // trial seed → trial index
}

func (f failingSched) Epoch(e int, seed int64) (*graph.Dual, error) {
	if i, ok := f.fail[seed]; ok {
		return nil, fmt.Errorf("%w at %d", errEpoch, i)
	}
	return f.Schedule.Epoch(e, seed)
}

// failAt returns cell's schedule with the runs of the given trial indices
// failing.
func failAt(cell Trial, trials ...int) graph.Schedule {
	fail := make(map[int64]int, len(trials))
	for _, i := range trials {
		fail[SeedFor(cell.Cfg.Seed, i)] = i
	}
	return failingSched{Schedule: graph.Static(cell.Net), fail: fail}
}

// Several trials of one cell fail; the reported error must name the lowest
// of them regardless of worker count or scheduling.
func TestReduceReportsLowestIndexError(t *testing.T) {
	cell := metricsCell(t)
	cell.Sched = failAt(cell, 77, 300, 499)
	for _, workers := range []int{1, 4} {
		_, err := RunGridStreamFromContext(context.Background(), []Trial{cell}, 500, Config{Workers: workers},
			StreamConfig{}, nil, nil, nil)
		if err == nil || !errors.Is(err, errEpoch) {
			t.Fatalf("workers=%d: want errEpoch, got %v", workers, err)
		}
		if !strings.Contains(err.Error(), "cell 0 trial 77") {
			t.Fatalf("workers=%d: error %q must name the lowest failing trial", workers, err)
		}
	}
}
