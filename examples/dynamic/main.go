// Dynamic: epidemic broadcast on time-varying networks. An epoch schedule
// rebuilds the dual graph every few rounds — node churn crashes radios,
// link fading demotes reliable links into the adversary's gray zone, and
// waypoint mobility moves the whole deployment — while algorithm and
// adversary state survive every swap. The sweep below treats the churn rate
// as an ordinary grid axis; the static cell is byte-identical to the
// fixed-topology engine at any worker count, and so is every dynamic cell,
// because each trial's epoch randomness is a pure function of its trial
// seed.
//
//	go run ./examples/dynamic
//	go run ./examples/dynamic -trials 50 -workers 2
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"dualgraph"
)

func main() {
	trials := flag.Int("trials", 20, "Monte Carlo trials per schedule cell")
	workers := flag.Int("workers", 0, "engine workers (0 = one per CPU); never changes the output")
	seed := flag.Int64("seed", 7, "base seed of every cell")
	flag.Parse()
	if err := run(*trials, *workers, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(trials, workers int, seed int64) error {
	base, err := dualgraph.NewScenario(
		dualgraph.WithTopology("geometric", nil),
		dualgraph.WithN(40),
		dualgraph.WithAlgorithm("harmonic", nil),
		dualgraph.WithAdversary("greedy", nil),
		dualgraph.WithSeed(seed),
	)
	if err != nil {
		return err
	}
	sweep := dualgraph.Sweep{
		Base: base,
		// The schedule axis: a static control, three churn intensities, link
		// fading, and random-waypoint mobility — one declarative value.
		Schedules: []dualgraph.Choice{
			{Name: "static"},
			{Name: "churn", Params: dualgraph.Params{"p-down": 0.05}},
			{Name: "churn", Params: dualgraph.Params{"p-down": 0.2}},
			{Name: "churn", Params: dualgraph.Params{"p-down": 0.4}},
			{Name: "fade", Params: dualgraph.Params{"p-fade": 0.5}},
			{Name: "waypoint", Params: dualgraph.Params{"leg-epochs": 2}},
		},
		Trials: trials,
	}
	grid, err := sweep.StreamFrom(context.Background(), dualgraph.EngineConfig{Workers: workers},
		dualgraph.StreamConfig{}, nil, nil, nil)
	if err != nil {
		return err
	}
	fmt.Printf("dynamic: %d schedules × %d trials (identical at any worker count)\n",
		len(grid.Cells), grid.Trials)
	for _, cr := range grid.Cells {
		med, err := cr.Summary.Rounds.Quantile(0.5)
		if err != nil {
			return err
		}
		tx, err := cr.Summary.Transmissions.Mean()
		if err != nil {
			return err
		}
		fmt.Printf("  %-28s completed=%d/%d median-rounds=%.0f mean-transmissions=%.0f\n",
			cr.Cell.Label, cr.Summary.Completed, cr.Summary.Trials, med, tx)
	}

	// Dynamics are first-class in the Go API too: a churn schedule over any
	// base network plugs straight into RunDynamic.
	net, err := dualgraph.Geometric(40, 0.28, 0.7, dualgraph.NewRand(seed))
	if err != nil {
		return err
	}
	sched, err := dualgraph.NewChurnSchedule(net, 8, 0.2)
	if err != nil {
		return err
	}
	alg, err := dualgraph.NewHarmonicForN(net.N(), 0.02)
	if err != nil {
		return err
	}
	res, err := dualgraph.RunDynamic(sched, alg, dualgraph.GreedyCollider{}, dualgraph.Config{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("single dynamic run: completed=%v rounds=%d transmissions=%d\n",
		res.Completed, res.Rounds, res.Transmissions)
	return nil
}
