package adversary_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/exhaustive"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// namedNet is one small topology of the cross-validation matrix.
type namedNet struct {
	name string
	d    *graph.Dual
}

// smallNets returns every registry-style topology at sizes small enough for
// exhaustive search: the correctness spine of the adaptive adversary is that
// it reproduces the exhaustive worst case exactly on all of them.
func smallNets(t testing.TB) []namedNet {
	t.Helper()
	build := func(name string, d *graph.Dual, err error) namedNet {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return namedNet{name: name, d: d}
	}
	line, errLine := graph.Line(4)
	star, errStar := graph.Star(5)
	complete, errComplete := graph.Complete(4)
	cb4, errCB4 := graph.CliqueBridge(4)
	cb5, errCB5 := graph.CliqueBridge(5)
	cb6, errCB6 := graph.CliqueBridge(6)
	return []namedNet{
		build("line4", line, errLine),
		build("star5", star, errStar),
		build("complete4", complete, errComplete),
		build("bridge4", cb4, errCB4),
		build("bridge5", cb5, errCB5),
		build("bridge6", cb6, errCB6),
	}
}

// algsFor returns the algorithm panel for an n-node network: a deterministic
// schedule-driven algorithm, the paper's select-family representative, and a
// randomized one (the planner must predict randomized algorithms exactly too,
// because replays share the run's seed).
func algsFor(t testing.TB, n int) []sim.Algorithm {
	t.Helper()
	ss, err := core.NewStrongSelect(n)
	if err != nil {
		t.Fatal(err)
	}
	return []sim.Algorithm{core.NewRoundRobin(), ss, core.NewDecay()}
}

// adaptiveRounds plays alg against adv and folds the outcome onto the
// exhaustive value scale: the completion round, or horizon+1 when the
// broadcast did not finish within the horizon.
func adaptiveRounds(t *testing.T, sched graph.Schedule, alg sim.Algorithm, adv sim.Adversary,
	rule sim.CollisionRule, start sim.StartRule, horizon int, seed int64) int {
	t.Helper()
	run, err := sim.RunDynamic(sched, alg, adv, sim.Config{
		Rule:      rule,
		Start:     start,
		MaxRounds: horizon,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Completed {
		return horizon + 1
	}
	return run.Rounds
}

// TestAdaptiveUnboundedMatchesExhaustive is the tentpole property: with an
// unbounded delivery horizon, the adaptive best-response adversary must
// realize EXACTLY the worst case exhaustive.Search reports — on every small
// topology, under every collision rule, for deterministic and randomized
// algorithms, across seeds.
func TestAdaptiveUnboundedMatchesExhaustive(t *testing.T) {
	const horizon = 20
	rules := []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4}
	seeds := []int64{1, 9}
	if testing.Short() {
		rules = []sim.CollisionRule{sim.CR1, sim.CR4}
		seeds = seeds[:1]
	}
	for _, net := range smallNets(t) {
		for _, alg := range algsFor(t, net.d.N()) {
			for _, rule := range rules {
				for _, seed := range seeds {
					name := fmt.Sprintf("%s/%s/cr%d/seed%d", net.name, alg.Name(), rule, seed)
					t.Run(name, func(t *testing.T) {
						res, err := exhaustive.Search(net.d, alg, exhaustive.Config{
							Rule:        rule,
							Horizon:     horizon,
							MaxBranches: 2000000,
							Seed:        seed,
						})
						if err != nil {
							t.Fatal(err)
						}
						adv, err := adversary.NewAdaptive(0, horizon, 0, 0)
						if err != nil {
							t.Fatal(err)
						}
						got := adaptiveRounds(t, graph.Static(net.d), alg, adv,
							rule, sim.SyncStart, horizon, seed)
						if got != res.WorstRounds {
							t.Fatalf("adaptive realized %d rounds, exhaustive worst case is %d",
								got, res.WorstRounds)
						}
					})
				}
			}
		}
	}
}

// TestAdaptiveMatchesExhaustiveAsyncStart covers the async-start rule: wake
// on first delivery changes the reachable state space, and the planner must
// track it through the same signature chain.
func TestAdaptiveMatchesExhaustiveAsyncStart(t *testing.T) {
	const horizon = 24
	d, err := graph.CliqueBridge(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range algsFor(t, d.N()) {
		t.Run(alg.Name(), func(t *testing.T) {
			res, err := exhaustive.Search(d, alg, exhaustive.Config{
				Rule:        sim.CR1,
				Start:       sim.AsyncStart,
				Horizon:     horizon,
				MaxBranches: 2000000,
				Seed:        5,
			})
			if err != nil {
				t.Fatal(err)
			}
			adv, err := adversary.NewAdaptive(0, horizon, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := adaptiveRounds(t, graph.Static(d), alg, adv,
				sim.CR1, sim.AsyncStart, horizon, 5)
			if got != res.WorstRounds {
				t.Fatalf("adaptive realized %d rounds, exhaustive worst case is %d",
					got, res.WorstRounds)
			}
		})
	}
}

// TestAdaptiveMatchesExhaustiveOnDynamicSchedules cross-validates on
// time-varying networks: churn and fade schedules change the deliverable
// fringe (and its EdgeID universe) every epoch, and the planner's per-round
// epoch resolution must agree with the engine's.
func TestAdaptiveMatchesExhaustiveOnDynamicSchedules(t *testing.T) {
	const horizon = 20
	base, err := graph.CliqueBridge(5)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := graph.NewChurn(base, 2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	fade, err := graph.NewFade(base, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []struct {
		name  string
		sched graph.Schedule
	}{
		{"static", graph.Static(base)},
		{"churn", churn},
		{"fade", fade},
	}
	seeds := []int64{3, 7, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	alg := core.NewRoundRobin()
	for _, sc := range scheds {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				res, err := exhaustive.SearchSchedule(sc.sched, alg, exhaustive.Config{
					Rule:        sim.CR1,
					Horizon:     horizon,
					MaxBranches: 2000000,
					Seed:        seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				adv, err := adversary.NewAdaptive(0, horizon, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				got := adaptiveRounds(t, sc.sched, alg, adv,
					sim.CR1, sim.SyncStart, horizon, seed)
				if got != res.WorstRounds {
					t.Fatalf("adaptive realized %d rounds, exhaustive worst case is %d",
						got, res.WorstRounds)
				}
			})
		}
	}
}

// TestAdaptiveHorizonMonotone pins the bounded-horizon ordering: allowing
// deliveries only in rounds 1..h yields a strategy set nested inside the one
// for h+1, so the realized completion round must be non-decreasing in h and
// never exceed the unbounded (== exhaustive) value.
func TestAdaptiveHorizonMonotone(t *testing.T) {
	const horizon = 20
	nets := smallNets(t)
	if testing.Short() {
		nets = nets[:4]
	}
	for _, net := range nets {
		t.Run(net.name, func(t *testing.T) {
			alg := core.NewRoundRobin()
			sched := graph.Static(net.d)
			unbounded, err := adversary.NewAdaptive(0, horizon, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			full := adaptiveRounds(t, sched, alg, unbounded, sim.CR1, sim.SyncStart, horizon, 1)
			res, err := exhaustive.Search(net.d, alg, exhaustive.Config{
				Rule:        sim.CR1,
				Horizon:     horizon,
				MaxBranches: 2000000,
				Seed:        1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if full != res.WorstRounds {
				t.Fatalf("unbounded adaptive %d != exhaustive %d", full, res.WorstRounds)
			}
			prev := 0
			for h := 1; h <= 6; h++ {
				adv, err := adversary.NewAdaptive(h, horizon, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				got := adaptiveRounds(t, sched, alg, adv, sim.CR1, sim.SyncStart, horizon, 1)
				if got < prev {
					t.Fatalf("adaptive(h=%d) realized %d < adaptive(h=%d)'s %d: horizons must be monotone",
						h, got, h-1, prev)
				}
				if got > full {
					t.Fatalf("adaptive(h=%d) realized %d > unbounded %d: bounded horizon cannot be stronger",
						h, got, full)
				}
				prev = got
			}
		})
	}
}

// TestAdaptiveGridDeterministicAcrossWorkers is the concurrency contract: a
// single shared Adaptive value driven through the engine's grid runner must
// produce bit-identical summaries at every worker count, because each trial
// gets a private fork via sim.RunForker and the planner itself has no
// randomness, map-order, or wall-clock dependence.
func TestAdaptiveGridDeterministicAcrossWorkers(t *testing.T) {
	cb, err := graph.CliqueBridge(5)
	if err != nil {
		t.Fatal(err)
	}
	line, err := graph.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := adversary.NewAdaptive(0, 20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cells []engine.Trial
	for _, net := range []*graph.Dual{cb, line} {
		for _, alg := range []sim.Algorithm{core.NewRoundRobin(), core.NewDecay()} {
			cells = append(cells, engine.Trial{
				Net: net, Alg: alg, Adv: shared,
				Cfg: sim.Config{Rule: sim.CR1, Start: sim.SyncStart, MaxRounds: 20, Seed: 17},
			})
		}
	}
	const trials = 8
	ref, err := engine.RunGridStreamFromContext(context.Background(), cells, trials, engine.Config{Workers: 1}, engine.StreamConfig{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := engine.RunGridStreamFromContext(context.Background(), cells, trials, engine.Config{Workers: workers}, engine.StreamConfig{}, nil, nil, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: grid summaries differ from workers=1", workers)
		}
	}
}

// TestAdaptiveConstructorValidation pins the typed-parameter contract used by
// the registry entry.
func TestAdaptiveConstructorValidation(t *testing.T) {
	for _, bad := range [][4]int{
		{-1, 0, 0, 0},
		{0, -1, 0, 0},
		{0, 0, -1, 0},
		{0, 0, 0, -1},
	} {
		if _, err := adversary.NewAdaptive(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Fatalf("NewAdaptive(%v) accepted a negative parameter", bad)
		}
	}
	a, err := adversary.NewAdaptive(0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "adaptive(h=∞)" {
		t.Fatalf("unbounded name = %q", a.Name())
	}
	b, err := adversary.NewAdaptive(3, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "adaptive(h=3)" {
		t.Fatalf("bounded name = %q", b.Name())
	}
}
