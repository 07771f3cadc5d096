package dualgraph_test

import (
	"context"
	"fmt"

	"dualgraph"
)

// ExampleNewScenario builds and runs one declarative cell: every component
// is addressed by registry name, validated once, and materialized
// deterministically from the seed. A deterministic algorithm on a classical
// line completes in exactly n-1 rounds.
func ExampleNewScenario() {
	s, err := dualgraph.NewScenario(
		dualgraph.WithTopology("line", nil),
		dualgraph.WithN(8),
		dualgraph.WithAlgorithm("round-robin", nil),
		dualgraph.WithAdversary("benign", nil),
		dualgraph.WithCollisionRule(dualgraph.CR3),
		dualgraph.WithStart(dualgraph.SyncStart),
		dualgraph.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	res, err := s.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("completed:", res.Completed, "rounds:", res.Rounds)
	// Output:
	// completed: true rounds: 7
}

// ExampleRunGrid aggregates a Monte Carlo sweep of one scenario — a
// one-cell grid — without retaining per-trial results: memory stays
// O(shards) at any trial count and the summary is bit-identical at any
// worker count.
func ExampleRunGrid() {
	net, err := dualgraph.CliqueBridge(9)
	if err != nil {
		panic(err)
	}
	alg, err := dualgraph.NewHarmonicForN(9, 0.02)
	if err != nil {
		panic(err)
	}
	cell := dualgraph.EngineTrial{Net: net, Alg: alg, Adv: dualgraph.GreedyCollider{}, Cfg: dualgraph.Config{Seed: 2}}
	sums, err := dualgraph.RunGrid(context.Background(), []dualgraph.EngineTrial{cell}, 8,
		dualgraph.EngineConfig{}, dualgraph.StreamConfig{}, nil, nil, nil)
	if err != nil {
		panic(err)
	}
	sum := sums[0]
	p50, err := sum.Rounds.Quantile(0.5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed: %d/%d p50-rounds: %.0f\n", sum.Completed, sum.Trials, p50)
	// Output:
	// completed: 8/8 p50-rounds: 148
}

// ExampleSweep runs a whole Cartesian grid as one declarative value; every
// cell summary equals that cell's standalone run, at any worker count.
func ExampleSweep() {
	base, err := dualgraph.NewScenario(
		dualgraph.WithTopology("line", nil),
		dualgraph.WithAdversary("benign", nil),
		dualgraph.WithCollisionRule(dualgraph.CR3),
		dualgraph.WithStart(dualgraph.SyncStart),
		dualgraph.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	sweep := dualgraph.Sweep{
		Base:       base,
		Algorithms: []dualgraph.Choice{{Name: "round-robin"}},
		Ns:         []int{6, 12},
		Trials:     4,
	}
	grid, err := sweep.StreamFrom(context.Background(), dualgraph.EngineConfig{}, dualgraph.StreamConfig{}, nil, nil, nil)
	if err != nil {
		panic(err)
	}
	for _, cr := range grid.Cells {
		maxR, err := cr.Summary.Rounds.Max()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s rounds=%.0f\n", cr.Cell.Label, maxR)
	}
	// Output:
	// alg=round-robin n=6 rounds=5
	// alg=round-robin n=12 rounds=11
}

// ExampleWithSchedule makes a scenario time-varying: the churn schedule
// crashes nodes every epoch (their non-backbone links vanish) and the
// network is rebuilt as a frozen core at each epoch boundary, while
// algorithm and adversary state survive. Trial seeds drive the epoch
// randomness, so dynamic sweeps stay reproducible at any worker count.
func ExampleWithSchedule() {
	s, err := dualgraph.NewScenario(
		dualgraph.WithTopology("geometric", nil),
		dualgraph.WithN(24),
		dualgraph.WithAlgorithm("harmonic", nil),
		dualgraph.WithAdversary("greedy", nil),
		dualgraph.WithSchedule("churn", dualgraph.Params{"p-down": 0.2, "epoch-len": 4}),
		dualgraph.WithSeed(3),
	)
	if err != nil {
		panic(err)
	}
	res, err := s.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("completed:", res.Completed)
	// Output:
	// completed: true
}
