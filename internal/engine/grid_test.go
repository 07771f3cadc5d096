package engine_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// gridCells builds a small heterogeneous grid: two topologies × two
// algorithms, each cell with its own sim config.
func gridCells(t testing.TB) []engine.Trial {
	t.Helper()
	cb, err := graph.CliqueBridge(9)
	if err != nil {
		t.Fatal(err)
	}
	line, err := graph.Line(9)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHarmonicForN(9, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var cells []engine.Trial
	for _, net := range []*graph.Dual{cb, line} {
		for _, alg := range []sim.Algorithm{h, core.NewRoundRobin()} {
			cells = append(cells, engine.Trial{
				Net: net, Alg: alg, Adv: adversary.GreedyCollider{},
				Cfg: sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 5},
			})
		}
	}
	return cells
}

// runGrid runs a fresh grid with no checkpoint hooks or cell delivery.
func runGrid(cells []engine.Trial, trials int, ec engine.Config) ([]*engine.TrialSummary, error) {
	return engine.RunGridStreamFromContext(context.Background(), cells, trials, ec, engine.StreamConfig{}, nil, nil, nil)
}

// TestGridStreamMatchesPerCellRunStream is the grid determinism contract:
// every cell summary must be bit-identical (including P² marker state, via
// DeepEqual) to running that cell alone as a one-cell grid, and identical
// at any worker count of the grid call.
func TestGridStreamMatchesPerCellRunStream(t *testing.T) {
	cells := gridCells(t)
	const trials = 12
	var ref []*engine.TrialSummary
	for _, cell := range cells {
		ref = append(ref, streamOne(t, cell, trials, engine.Config{Workers: 1}, engine.StreamConfig{}))
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := runGrid(cells, trials, engine.Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(cells) {
			t.Fatalf("workers=%d: %d summaries for %d cells", workers, len(got), len(cells))
		}
		for c := range cells {
			if !reflect.DeepEqual(got[c], ref[c]) {
				t.Errorf("workers=%d cell %d: grid summary differs from the cell run alone", workers, c)
			}
		}
	}
}

func TestGridStreamEdgeCases(t *testing.T) {
	if sums, err := runGrid(nil, 5, engine.Config{}); err != nil || len(sums) != 0 {
		t.Fatalf("empty grid: sums=%v err=%v", sums, err)
	}
	all := gridCells(t)
	for _, cells := range [][]engine.Trial{all, all[:1]} {
		sums, err := runGrid(cells, 0, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(sums) != len(cells) {
			t.Fatalf("%d cells: %d zero-trial summaries", len(cells), len(sums))
		}
		for c, s := range sums {
			if s == nil || s.Trials != 0 {
				t.Fatalf("cell %d: zero-trial summary = %+v", c, s)
			}
		}
		if _, err := runGrid(cells, -1, engine.Config{}); err == nil {
			t.Fatalf("%d cells: negative trials must fail", len(cells))
		}
	}
}

// badAdv fails delivery validation from a specific cell onward, so the
// reported error index is predictable.
type badAdv struct{ adversary.Benign }

func (badAdv) Name() string { return "bad" }

func (badAdv) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	// Deliver along a non-edge: every node to itself.
	m := map[graph.NodeID][]graph.NodeID{}
	for _, s := range senders {
		m[s] = []graph.NodeID{s}
	}
	return m
}

func TestGridStreamReportsLowestCellError(t *testing.T) {
	line, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	good := engine.Trial{Net: line, Alg: core.NewRoundRobin(), Adv: adversary.Benign{},
		Cfg: sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1}}
	bad := good
	bad.Adv = badAdv{}
	for want, cells := range map[string][]engine.Trial{
		"cell 1 trial 0": {good, bad, bad},
		"cell 0 trial 0": {bad},
	} {
		_, err = runGrid(cells, 4, engine.Config{Workers: 4})
		if err == nil || !errors.Is(err, sim.ErrBadDelivery) {
			t.Fatalf("err = %v, want ErrBadDelivery", err)
		}
		if got := err.Error(); !strings.Contains(got, want) {
			t.Fatalf("err = %q, want it to name %q", got, want)
		}
	}
}
