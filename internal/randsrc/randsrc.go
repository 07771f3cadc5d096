// Package randsrc owns how a simulated run seeds its random number
// generators. Every source it returns produces exactly the Int63/Uint64
// stream of rand.NewSource(seed), bit for bit, but seeds lazily.
//
// rand.NewSource fills a 607-word lagged-Fibonacci register from ~1,800
// Park–Miller steps before its first draw. A run that gives each of its n
// processes its own coins builds n+3 such registers, and most processes in
// a short run draw only a handful of times. The lagged-Fibonacci recurrence
// makes that work avoidable: the register's feed index starts 273 words
// behind its tap, so each of the first 273 draws adds two words the
// recurrence has not yet overwritten,
//
//	draw k = V(334−k) + V(607−k),   1 ≤ k ≤ 273,
//
// where V(i) is word i of the freshly seeded register. V(i) depends only on
// the seed and i: it XORs math/rand's cooked table with three Park–Miller
// values x_j = seed·48271^j mod (2³¹−1), which a precomputed power table
// yields in O(1). Draw 274 is the first to read a word the recurrence has
// written, so only then does a source materialize its register: it fills
// all 607 words and replays the 273 steps it has already answered.
//
// An Arena hands out the sources of one run and the registers they
// materialize into, so a run that never passes draw 273 never pays for a
// register at all.
package randsrc

import "math/rand"

// The constants of math/rand's additive lagged-Fibonacci generator.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// firstFeed is the feed index of a freshly seeded register.
	firstFeed = rngLen - rngTap
	// seedMul is the Park–Miller multiplier of math/rand's seeding.
	seedMul = 48271
	// zeroSeed replaces a seed ≡ 0 mod 2³¹−1, as rand.NewSource does.
	zeroSeed = 89482311
	// warmup is the number of Park–Miller steps seeding discards before
	// the first register word.
	warmup = 20
)

// pow[i][t] = 48271^(warmup+1+3i+t) mod (2³¹−1): the multipliers of the
// three Park–Miller values that make up register word i.
var pow = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for j := 0; j < warmup; j++ {
		x = mulMod(x, seedMul)
	}
	for i := range p {
		for t := range p[i] {
			x = mulMod(x, seedMul)
			p[i][t] = x
		}
	}
	return p
}()

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹−1 with a·b ≢ 0. It folds
// twice: the first fold leaves r < 2·(2³¹−1) and r ≠ 2³¹−1 (as
// r ≡ a·b ≢ 0), so the second maps r ≥ 2³¹ to r − (2³¹−1) and leaves a
// smaller r alone.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	return r&int32max + r>>31
}

// Source is a rand.Source64 whose stream equals rand.NewSource's for the
// same seed. Its first 273 draws are computed from the seed alone; the 274th
// materializes the register from the source's Arena. A Source is not safe
// for concurrent use, and neither is its Arena.
type Source struct {
	seed  uint64 // seed reduced into [1, 2³¹−2], as rand.NewSource does
	drawn int    // draws answered lazily; rngTap+1 once materialized
	tap   int
	feed  int
	vec   *[rngLen]int64 // register; kept across Seed for reuse
	arena *Arena
}

var _ rand.Source64 = (*Source)(nil)

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.drawn = 0
}

// word returns word i of the register as rand.NewSource seeds it.
func (s *Source) word(i int) int64 {
	p := &pow[i]
	return int64(mulMod(s.seed, p[0]))<<40 ^ int64(mulMod(s.seed, p[1]))<<20 ^
		int64(mulMod(s.seed, p[2])) ^ rngCooked[i]
}

// Uint64 returns the next value of the stream as a uint64.
func (s *Source) Uint64() uint64 {
	if s.drawn < rngTap {
		s.drawn++
		return uint64(s.word(firstFeed-s.drawn) + s.word(rngLen-s.drawn))
	}
	if s.drawn == rngTap {
		s.materialize()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// materialize fills the register as rand.NewSource would have seeded it
// and replays the rngTap draws already answered, leaving the register,
// tap and feed exactly where an eagerly seeded source would have them.
func (s *Source) materialize() {
	if s.vec == nil {
		s.vec = s.arena.register()
	}
	v := s.vec
	for i := range v {
		v[i] = s.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		v[firstFeed-k] += v[rngLen-k]
	}
	s.tap = rngLen - rngTap
	s.feed = firstFeed - rngTap
	s.drawn = rngTap + 1
}

// Arena allocates the sources of one run and the registers they
// materialize into. Sources and their rand.Rand wrappers come from a
// preallocated slab. Registers come in chunks that double in size but never
// outgrow the number of sources handed out, so a run allocates O(log n)
// times for them and never more register bytes than seeding every source
// eagerly would. An Arena is not safe for concurrent use: it belongs to the
// goroutine executing the run.
type Arena struct {
	free   []entry         // unused slab entries
	regs   [][rngLen]int64 // unused registers of the current chunk
	handed int             // sources handed out
	made   int             // registers allocated
}

// entry is one slab slot: a source and the generator that draws from it.
type entry struct {
	src Source
	rng rand.Rand
}

// NewArena returns an arena sized for a run that uses the given number of
// sources. Asking for more still works, at the cost of more allocations.
func NewArena(sources int) *Arena {
	return &Arena{free: make([]entry, max(sources, 1))}
}

// Rand returns a generator whose stream equals
// rand.New(rand.NewSource(seed))'s, backed by a lazily seeded Source.
func (a *Arena) Rand(seed int64) *rand.Rand {
	e := a.next(seed)
	// Copy rand.New's result into the slab, so the arena rather than the
	// heap holds the generator.
	e.rng = *rand.New(&e.src)
	return &e.rng
}

// next hands out the next slab entry with its source seeded, growing the
// slab past the size hint by doubling.
func (a *Arena) next(seed int64) *entry {
	if len(a.free) == 0 {
		a.free = make([]entry, max(a.handed, 1))
	}
	e := &a.free[0]
	a.free = a.free[1:]
	a.handed++
	e.src.arena = a
	e.src.Seed(seed)
	return e
}

// register returns an unused register, allocating the next chunk when the
// current one is spent. Every source asks at most once (Seed keeps the
// register), so when a source asks, made < handed and the chunk is
// non-empty.
func (a *Arena) register() *[rngLen]int64 {
	if len(a.regs) == 0 {
		k := min(max(a.made, 1), a.handed-a.made)
		a.regs = make([][rngLen]int64, k)
		a.made += k
	}
	r := &a.regs[0]
	a.regs = a.regs[1:]
	return r
}

// Procs draws one seed per process from base, in pid order 1..n, and
// returns the generators seeded with them, indexed by pid (index 0 is
// unused). It is the per-process seeding loop every simulator shares.
func (a *Arena) Procs(base *rand.Rand, n int) []*rand.Rand {
	procs := make([]*rand.Rand, n+1)
	for pid := 1; pid <= n; pid++ {
		procs[pid] = a.Rand(base.Int63())
	}
	return procs
}

// Trial is the RNG set of one simulated run. All of it derives from the
// run seed in one fixed order: a base generator seeded with the run seed
// draws the assignment seed, then the adversary seed, then one seed per
// process in pid order. sim.RunDynamic and the explicit-interference
// executor both use it, so the same seed gives the same coins in both.
type Trial struct {
	Assign    *rand.Rand
	Adversary *rand.Rand
	// Procs holds process pid's generator at index pid, 1..n.
	Procs []*rand.Rand
}

// NewTrial derives the RNGs of an n-process run from seed, all n+3 of them
// (base, assignment, adversary, processes) drawn from one Arena.
func NewTrial(seed int64, n int) Trial {
	a := NewArena(n + 3)
	base := a.Rand(seed)
	assign := a.Rand(base.Int63())
	adv := a.Rand(base.Int63())
	return Trial{Assign: assign, Adversary: adv, Procs: a.Procs(base, n)}
}
