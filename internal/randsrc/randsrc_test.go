package randsrc

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// newSource returns a source seeded with seed, from an arena of its own.
func newSource(seed int64) *Source { return &NewArena(1).next(seed).src }

// exactSeeds returns the seeds of the exactness table: the edge cases of
// rand.NewSource's seed reduction plus a spread of ordinary seeds, 300+
// in all.
func exactSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, int32max, -int32max, int32max - 1, int32max + 1,
		2 * int32max, -2 * int32max, zeroSeed, -zeroSeed, zeroSeed + int32max,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		math.MaxInt32, math.MinInt32,
	}
	r := rand.New(rand.NewSource(20100725))
	for len(seeds) < 320 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, r.Int63())
		case 1:
			seeds = append(seeds, -r.Int63())
		default:
			seeds = append(seeds, r.Int63n(1000))
		}
	}
	return seeds
}

// step draws one value from both generators through rand.Rand method op
// and reports whether they agree. It draws at least one value from the
// source; Perm draws several.
func step(op int, want, got *rand.Rand) bool {
	switch op % 5 {
	case 0:
		return want.Float64() == got.Float64()
	case 1:
		n := 1 + op%1000
		return want.Intn(n) == got.Intn(n)
	case 2:
		w, g := want.Perm(1+op%7), got.Perm(1+op%7)
		for i := range w {
			if w[i] != g[i] {
				return false
			}
		}
		return true
	case 3:
		return want.Int63() == got.Int63()
	default:
		return want.Uint64() == got.Uint64()
	}
}

// TestSourceExact pins the package's contract: for every seed, through
// every rand.Rand method the simulators use, a lazy source's stream equals
// rand.NewSource's well past the 273/274 materialization boundary — for
// standalone sources and for arena sources alike.
func TestSourceExact(t *testing.T) {
	const draws = 2000
	seeds := exactSeeds()
	arena := NewArena(len(seeds))
	for i, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		var got *rand.Rand
		if i%2 == 0 {
			got = rand.New(newSource(seed))
		} else {
			got = arena.Rand(seed)
		}
		for d := 0; d < draws; d++ {
			if !step(d*7+i, want, got) {
				t.Fatalf("seed %d: streams diverge at step %d", seed, d)
			}
		}
	}
}

// TestBoundaryDraws checks the raw stream draw by draw across the lazy
// phase, the materializing draw 274, and a full turn of the register.
func TestBoundaryDraws(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, zeroSeed, math.MinInt64, math.MaxInt64, 20100725} {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for k := 1; k <= 2*rngLen; k++ {
			w, g := want.Uint64(), got.Uint64()
			if w != g {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, k, g, w)
			}
			if lazy := got.vec == nil; lazy != (k <= rngTap) {
				t.Fatalf("seed %d: after draw %d lazy = %v", seed, k, lazy)
			}
		}
	}
}

// TestReseed checks that Seed restarts the stream exactly, both from the
// lazy phase and after materialization, and that a materialized source
// reuses its register.
func TestReseed(t *testing.T) {
	for _, drawsBefore := range []int{0, 5, rngTap, rngTap + 1, 3000} {
		s := newSource(11)
		for i := 0; i < drawsBefore; i++ {
			s.Int63()
		}
		vec := s.vec
		s.Seed(-7919)
		want := rand.NewSource(-7919)
		for k := 1; k <= 1000; k++ {
			if g, w := s.Int63(), want.Int63(); g != w {
				t.Fatalf("reseeded after %d draws: draw %d = %d, want %d", drawsBefore, k, g, w)
			}
		}
		if vec != nil && s.vec != vec {
			t.Fatalf("reseeded after %d draws: register reallocated", drawsBefore)
		}
	}
}

// TestPowTable cross-checks the precomputed multipliers against
// math/rand's own seeding arithmetic (Schrage's method on int32).
func TestPowTable(t *testing.T) {
	seedrand := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		x = a*(x%q) - r*(x/q)
		if x < 0 {
			x += int32max
		}
		return x
	}
	x := int32(1)
	for j := 0; j < warmup; j++ {
		x = seedrand(x)
	}
	for i := range pow {
		for j := range pow[i] {
			x = seedrand(x)
			if pow[i][j] != uint64(x) {
				t.Fatalf("pow[%d][%d] = %d, want %d", i, j, pow[i][j], x)
			}
		}
	}
}

// TestArenaRegisterChunks checks the arena's allocation discipline: when
// every source materializes, registers come in O(log n) doubling chunks
// whose total never exceeds the sources handed out; when none does, the
// arena allocates no register at all.
func TestArenaRegisterChunks(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 129, 1000} {
		a := NewArena(n)
		rs := make([]*rand.Rand, n)
		for i := range rs {
			rs[i] = a.Rand(int64(i))
		}
		for i := range rs {
			rs[i].Int63()
		}
		if a.made != 0 {
			t.Fatalf("n=%d: %d registers allocated before any source passed draw %d", n, a.made, rngTap)
		}
		chunks, last := 0, 0
		for _, r := range rs {
			for k := 0; k < rngTap; k++ {
				r.Int63()
			}
			if a.made != last {
				chunks++
				last = a.made
			}
			if a.made > a.handed {
				t.Fatalf("n=%d: %d registers allocated for %d sources", n, a.made, a.handed)
			}
		}
		if a.made != n {
			t.Fatalf("n=%d: %d registers allocated, want %d", n, a.made, n)
		}
		if limit := bits.Len(uint(n)) + 1; chunks > limit {
			t.Fatalf("n=%d: %d register chunks, want <= %d", n, chunks, limit)
		}
	}
}

// TestArenaGrowsPastHint checks that an arena asked for more sources than
// it was sized for still hands out exact, distinct generators.
func TestArenaGrowsPastHint(t *testing.T) {
	a := NewArena(2)
	var got []*rand.Rand
	var want []rand.Source
	for seed := int64(0); seed < 9; seed++ {
		got = append(got, a.Rand(seed))
		want = append(want, rand.NewSource(seed))
	}
	// Interleave the sources so they materialize in turn.
	for k := 1; k <= 600; k++ {
		for i := range got {
			if g, w := got[i].Int63(), want[i].Int63(); g != w {
				t.Fatalf("seed %d: draw %d = %d, want %d", i, k, g, w)
			}
		}
	}
}

// TestArenaRandAllocationFree checks that handing out a generator from a
// sized arena costs no allocation: the sources and rand.Rand values live in
// the arena's slabs.
func TestArenaRandAllocationFree(t *testing.T) {
	a := NewArena(1000)
	allocs := testing.AllocsPerRun(100, func() { a.Rand(42).Int63() })
	if allocs != 0 {
		t.Fatalf("Arena.Rand allocates %.1f times per call", allocs)
	}
}

// TestTrialDerivation pins NewTrial to the derivation the simulators have
// always used with eager sources: base seeded with the run seed draws the
// assignment seed, the adversary seed, then pid 1..n.
func TestTrialDerivation(t *testing.T) {
	const seed, n = 7919, 40
	tr := NewTrial(seed, n)
	base := rand.New(rand.NewSource(seed))
	check := func(name string, got *rand.Rand, s int64) {
		t.Helper()
		want := rand.New(rand.NewSource(s))
		for k := 0; k < 300; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s: draw %d = %d, want %d", name, k+1, g, w)
			}
		}
	}
	check("assign", tr.Assign, base.Int63())
	check("adversary", tr.Adversary, base.Int63())
	if len(tr.Procs) != n+1 || tr.Procs[0] != nil {
		t.Fatalf("Procs has length %d (index 0 set: %v), want %d with index 0 unused", len(tr.Procs), tr.Procs[0] != nil, n+1)
	}
	for pid := 1; pid <= n; pid++ {
		check("proc", tr.Procs[pid], base.Int63())
	}
}

// FuzzSourceExact drives a lazy source and rand.NewSource with the same
// seed through an arbitrary pattern of rand.Rand calls and reseeds. Each
// pattern byte picks an operation and a repeat count, so short patterns
// still reach the 273/274 boundary.
func FuzzSourceExact(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(1), []byte{0xff, 0xff, 0x10})
	f.Add(int64(math.MinInt64), []byte{0x7f, 0x3e, 0x81, 0x22, 0xf4})
	f.Add(int64(math.MaxInt64), []byte{0xa3, 0xa3, 0xa3, 0x05})
	f.Add(int64(zeroSeed), []byte{0xc8, 0x01, 0xfe})
	f.Fuzz(func(t *testing.T, seed int64, pattern []byte) {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newSource(seed))
		draws := 0
		for i, b := range pattern {
			op, reps := int(b&7), 1+int(b>>3)*4
			if op == 5 {
				// Reseed both, from a seed derived from the pattern position.
				s := seed ^ int64(i+1)<<40 ^ int64(i)
				want.Seed(s)
				got.Seed(s)
				continue
			}
			for r := 0; r < reps; r++ {
				if !step(op+5*r, want, got) {
					t.Fatalf("seed %d: streams diverge at pattern byte %d (op %d, rep %d, ~%d draws)", seed, i, op, r, draws)
				}
				draws++
			}
		}
	})
}
