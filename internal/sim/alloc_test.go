package sim_test

import (
	"math/rand"
	"runtime"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// TestRoundLoopAllocationFreeSteadyState guards the allocation-free delivery
// path: executing 40x more rounds must not cost meaningfully more heap
// allocations, because per-round state lives in preallocated run buffers.
// Only run setup (processes, buffers, result) may allocate.
func TestRoundLoopAllocationFreeSteadyState(t *testing.T) {
	d, err := graph.CliqueBridge(33)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewUniform(0.3)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := sim.Run(d, alg, adversary.GreedyCollider{}, sim.Config{
				Rule:           sim.CR4,
				Start:          sim.SyncStart,
				Seed:           7,
				MaxRounds:      rounds,
				RunToMaxRounds: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			_ = res
		})
	}
	short := measure(2000)
	long := measure(8000)
	// The reaching lists grow to their steady-state capacity during early
	// rounds; beyond that the round loop must not allocate. Allow a small
	// slack for stragglers and runtime noise — the old map-based path cost
	// several allocations per round, which over 6000 extra rounds would blow
	// far past this bound.
	if long > short+64 {
		t.Fatalf("round loop allocates per round: %0.f allocs at 2000 rounds vs %0.f at 8000", short, long)
	}
}

// TestLargeScaleRoundLoopAllocationFree is the 100k-node stress path: a
// geometric dual with ~2.7M arcs must build via the cell-bucketed generator
// and run a 1000-round CR3 broadcast whose steady-state round loop does not
// allocate. Skipped under -short (it takes ~20s); the full CI test lane
// runs it.
func TestLargeScaleRoundLoopAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node stress sim skipped in -short mode")
	}
	const n = 100_000
	d, err := graph.Geometric(n, 0.004, 0.009, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != n {
		t.Fatalf("n = %d", d.N())
	}
	alg, err := core.NewUniform(0.05)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(0.3)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(rounds int) (*sim.Result, uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := sim.Run(d, alg, adv, sim.Config{
			Rule:           sim.CR3,
			Start:          sim.AsyncStart,
			Seed:           7,
			MaxRounds:      rounds,
			RunToMaxRounds: true,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.Mallocs - before.Mallocs
	}
	// Both runs pay the identical setup (processes, run buffers) and the
	// reaching lists reach steady-state capacity well before round 300, so
	// the malloc difference isolates the per-round cost of 700 extra rounds.
	_, baseAllocs := measure(300)
	res, fullAllocs := measure(1000)
	if !res.Completed {
		t.Fatalf("broadcast did not cover all %d nodes within 1000 rounds", n)
	}
	extra := int64(fullAllocs) - int64(baseAllocs)
	if extra > 700 { // < 1 allocation per extra round on average
		t.Fatalf("steady-state rounds allocate: %d extra mallocs over 700 rounds", extra)
	}
}

// swapMallocBudgetCheck runs sched for 200 and for 600 rounds and fails if
// the 400 extra rounds allocate more than perEpochBudget mallocs per extra
// epoch swap (plus a constant 100 of slack). Both runs pay identical setup,
// so the difference isolates the extra epoch boundaries: steady-state
// rounds must stay allocation-free, and each swap may allocate only a
// bounded number of arrays, never anything proportional to the round count.
func swapMallocBudgetCheck(t *testing.T, sched graph.Schedule, perEpochBudget int64) {
	t.Helper()
	alg, err := core.NewUniform(0.05)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(0.3)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(rounds int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := sim.RunDynamic(sched, alg, adv, sim.Config{
			Rule:           sim.CR3,
			Start:          sim.AsyncStart,
			Seed:           7,
			MaxRounds:      rounds,
			RunToMaxRounds: true,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	baseAllocs := measure(200)
	fullAllocs := measure(600)
	extra := int64(fullAllocs) - int64(baseAllocs)
	extraEpochs := int64((600 - 200) / sched.EpochLength())
	budget := extraEpochs*perEpochBudget + 100
	if extra > budget {
		t.Fatalf("%d extra mallocs over 400 rounds / %d epochs (budget %d): epoch swaps are not allocation-bounded",
			extra, extraEpochs, budget)
	}
	t.Logf("%d extra mallocs over %d extra epoch swaps", extra, extraEpochs)
}

// TestLargeScaleDynamicAllocationBounded extends the 100k-node stress path
// to dynamic schedules: under churn and fade the steady-state rounds must
// stay allocation-free and only epoch boundaries may allocate, bounded by a
// fixed per-swap budget (the incremental epoch patch allocates a handful of
// arrays per epoch — down/dirty masks, patched CSR cores, the fringe — never
// anything proportional to the round count). Skipped under -short with the
// static stress test; the full CI test lane runs it.
func TestLargeScaleDynamicAllocationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node dynamic stress sim skipped in -short mode")
	}
	const (
		n        = 100_000
		epochLen = 50
		// Per-swap allocation budget: the incremental churn epoch costs ~12
		// graph-side allocations (masks, two patched cores, fringe, dual)
		// plus the simulator's in-degree re-scan, which reuses its scratch;
		// fade slightly fewer. Neither epoch kind goes through a Builder.
		perEpochBudget = 48
	)
	d, err := graph.Geometric(n, 0.004, 0.009, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	schedules := map[string]graph.Schedule{}
	if churn, err := graph.NewChurn(d, epochLen, 0.0001); err != nil {
		t.Fatal(err)
	} else {
		schedules["churn"] = churn
	}
	if fade, err := graph.NewFade(d, epochLen, 0.00002); err != nil {
		t.Fatal(err)
	} else {
		schedules["fade"] = fade
	}
	for name, sched := range schedules {
		t.Run(name, func(t *testing.T) {
			swapMallocBudgetCheck(t, sched, perEpochBudget)
		})
	}
}

// TestWaypointDynamicAllocationBounded is the waypoint sibling at a
// moderate n: every waypoint epoch rebuilds the geometric dual from fresh
// positions, so a swap allocates the new CSR cores, but only a fixed number
// of arrays — the positions, the flat cell buckets, the pair rows and
// cursors, three cores and the validation BFS — whatever the grid side or
// the arc count. When an epoch's in-degrees outgrow the delivery rows the
// simulator re-carves them from its kept backing, at most one allocation.
// (The Builder→Freeze rebuild this replaced grew one bucket slice per grid
// cell and an arc log per core: several hundred mallocs per epoch here.)
func TestWaypointDynamicAllocationBounded(t *testing.T) {
	const (
		n              = 2000
		epochLen       = 20
		perEpochBudget = 40
	)
	d, err := graph.Geometric(n, 0.03, 0.07, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := graph.NewWaypoint(d, epochLen, 4, 0.03, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	swapMallocBudgetCheck(t, sched, perEpochBudget)
}

// TestSetupAllocationLazyRNG prices per-trial setup: a one-round run at
// n=129 must allocate less than 4 KB per node. Seeding every process's
// math/rand source eagerly costs a ~4.9 KB register per process before the
// first round; the lazily seeded sources of internal/randsrc carry no
// register until a process draws more than 273 times.
func TestSetupAllocationLazyRNG(t *testing.T) {
	const n = 129
	d, err := graph.CliqueBridge(n)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(n, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for seed := int64(1); seed <= runs; seed++ {
		if _, err := sim.Run(d, alg, adversary.GreedyCollider{}, sim.Config{
			Rule:      sim.CR4,
			Start:     sim.SyncStart,
			Seed:      seed,
			MaxRounds: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(n * 4096); perRun >= limit {
		t.Fatalf("a one-round run at n=%d allocates %d B, want < %d B (n × 4 KB)", n, perRun, limit)
	}
	t.Logf("one-round run at n=%d allocates %d B", n, perRun)
}
