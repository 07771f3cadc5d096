// Dynamic dual graphs: epoch-scheduled time-varying topologies.
//
// A Schedule produces the sequence of frozen networks — epochs — that a
// dynamic run executes on. Each epoch is an ordinary immutable Dual, so
// within an epoch the simulator's allocation-free CSR hot loop is untouched;
// only the epoch boundary pays for a swap. Churn and fade epochs patch the
// base network's CSR rows (filterRowsPatched, subtractPatched); waypoint
// epochs are the geometric dual of the epoch's positions, built directly as
// sorted CSR by DualFromPositions, the generator of the static geometric
// topology. EdgeIDs are dense per epoch: an id names an
// arc of one epoch's fringe only, and adversaries must resolve ids against
// the Dual they are currently handed (View.Dual), never cache them across
// epochs.
//
// Determinism contract: Epoch(e, runSeed) must be a pure function of the
// schedule value, e, and runSeed. The simulator passes its run seed, so a
// trial's entire topology trajectory is fixed by (schedule, trial seed) —
// which is what keeps engine sweeps bit-identical at any worker count.
// Schedules derive per-epoch randomness with EpochSeed (or directly from
// hashed (runSeed, index) tuples, as waypoint mobility does to keep motion
// continuous across epochs), never from shared RNG state.
//
// Epochs must preserve the model invariants of NewDual — node count, E ⊆ E',
// and reachability of every node from the source in G. The built-in mutation
// policies guarantee reachability by construction: churn and fading never
// touch a BFS backbone of the base network, and waypoint mobility keeps the
// Hamiltonian-path backbone of the geometric generator.

package graph

import (
	"fmt"

	"dualgraph/internal/metrics"
)

// Schedule produces the frozen network of each epoch of a dynamic run.
// Epoch e covers rounds e·EpochLength()+1 .. (e+1)·EpochLength(); an
// EpochLength of 0 means the network never changes (a single unbounded
// epoch, the static special case).
type Schedule interface {
	// N returns the node count, constant across every epoch.
	N() int
	// EpochLength returns the number of rounds each epoch lasts; 0 means
	// the epoch-0 network is used for the whole run.
	EpochLength() int
	// Epoch materializes epoch e (0-based). It must be pure in (e, runSeed):
	// the same schedule value with the same arguments returns a structurally
	// identical Dual, whatever the call order or count.
	Epoch(e int, runSeed int64) (*Dual, error)
}

// EpochSeed derives the randomness seed of one epoch as a SplitMix64-style
// mix of the run seed and the epoch index — a pure function, like
// engine.SeedFor is for trials, so dynamic runs stay reproducible at any
// worker count without any shared RNG state.
func EpochSeed(runSeed int64, epoch int) int64 {
	z := uint64(runSeed) ^ 0xd1b54a32d192ed03*(uint64(epoch)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Domain-separation tags for unitHash, so the per-node churn coins, per-edge
// fade coins, and per-waypoint coordinates are independent streams even when
// their packed keys collide.
const (
	churnTag uint64 = 0x636875726e5f5f31 // "churn__1"
	fadeTag  uint64 = 0x666164655f5f5f31 // "fade___1"
	wpxTag   uint64 = 0x77617970745f7831 // "waypt_x1"
	wpyTag   uint64 = 0x77617970745f7931 // "waypt_y1"
)

// unitHash maps (seed, tag, key) to a uniform float64 in [0, 1) through a
// SplitMix64 finalizer. It is the stateless coin of the built-in schedules:
// pure, order-independent, and cheap enough to re-evaluate per epoch.
func unitHash(seed int64, tag, key uint64) float64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(tag^(key+1))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// StaticSchedule is the trivial schedule: every epoch is the same network.
// It is the "static" registry entry and the bridge between the static and
// dynamic run paths — sim.Run(d, ...) is exactly
// sim.RunDynamic(graph.Static(d), ...).
type StaticSchedule struct {
	d *Dual
}

// Static wraps a fixed network as a schedule.
func Static(d *Dual) *StaticSchedule { return &StaticSchedule{d: d} }

// N returns the node count.
func (s *StaticSchedule) N() int { return s.d.N() }

// EpochLength returns 0: the network never changes.
func (s *StaticSchedule) EpochLength() int { return 0 }

// Epoch returns the wrapped network, whatever the epoch.
func (s *StaticSchedule) Epoch(int, int64) (*Dual, error) { return s.d, nil }

// Base returns the wrapped network.
func (s *StaticSchedule) Base() *Dual { return s.d }

// backboneTree is the BFS-tree membership test of the mutation policies,
// stored as a parent array: arc (u, v) is a backbone arc iff one endpoint is
// the BFS parent of the other. The built-in mutation policies never remove
// or demote backbone arcs, which is what keeps every epoch a valid Dual: all
// nodes stay reachable from the source in G by construction. Two array reads
// replace the old per-arc hash-map lookup, which dominated the keep
// predicates of the full-rebuild path.
type backboneTree struct {
	parent []NodeID // parent[source] = source; tree of the base's G
}

func newBackboneTree(d *Dual) *backboneTree {
	g := d.G()
	parent := make([]NodeID, g.N())
	for i := range parent {
		parent[i] = -1
	}
	src := d.Source()
	parent[src] = src
	queue := make([]NodeID, 0, g.N())
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Out(u) {
			if parent[v] < 0 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return &backboneTree{parent: parent}
}

// has reports whether (u, v) — in either orientation — is a tree arc.
func (b *backboneTree) has(u, v NodeID) bool {
	return b.parent[v] == u || b.parent[u] == v
}

// filterRowsPatched builds the CSR graph obtained from base by deleting the
// arcs that keep rejects, given that only rows flagged dirty can change:
// clean rows are copied verbatim (one bulk copy per row, already sorted and
// deduplicated), and only dirty rows pay the per-arc keep predicate. This is
// the incremental half of an epoch swap — no Builder log, no re-sort, no
// hashing; cost O(m) of straight-line copying plus O(Σ deg(dirty)) predicate
// evaluations, against the old full Builder→Freeze rebuild that re-sorted
// every row.
//
// Callers must flag every row whose content can differ from the base; a row
// flagged dirty that turns out unchanged is merely re-filtered to an
// identical result, so over-approximating dirtiness affects cost, never
// structure.
func filterRowsPatched(base *Graph, dirty []bool, keep func(u, v NodeID) bool) *Graph {
	n := base.n
	offsets := make([]int32, n+1)
	targets := make([]NodeID, 0, len(base.targets))
	for u := 0; u < n; u++ {
		row := base.Out(NodeID(u))
		if !dirty[u] {
			targets = append(targets, row...)
		} else {
			for _, v := range row {
				if keep(NodeID(u), v) {
					targets = append(targets, v)
				}
			}
		}
		offsets[u+1] = int32(len(targets))
	}
	return &Graph{n: n, directed: base.directed, offsets: offsets, targets: targets[:len(targets):len(targets)]}
}

// subtractPatched computes the fringe gp \ g like subtract, reusing the
// base's fringe rows for every clean node: a fringe row can change only where
// the epoch's g or gp row changed, so only dirty rows pay the merge-walk.
// The caller guarantees g ⊆ gp (both sides derive from a validated base via
// the same keep predicate), so unlike subtract no subgraph violation can
// arise. The capacity len(gp) - len(g) is exact for subset inputs, so the
// append loops never reallocate.
func subtractPatched(gp, g, baseFringe *Graph, baseFrom []NodeID, dirty []bool) (*Graph, []NodeID) {
	n := gp.n
	offsets := make([]int32, n+1)
	fringeCap := len(gp.targets) - len(g.targets)
	if fringeCap < 0 {
		fringeCap = 0
	}
	targets := make([]NodeID, 0, fringeCap)
	from := make([]NodeID, 0, fringeCap)
	for u := 0; u < n; u++ {
		if !dirty[u] {
			lo, hi := baseFringe.offsets[u], baseFringe.offsets[u+1]
			targets = append(targets, baseFringe.targets[lo:hi]...)
			from = append(from, baseFrom[lo:hi]...)
			offsets[u+1] = int32(len(targets))
			continue
		}
		gRow := g.Out(NodeID(u))
		i := 0
		for _, v := range gp.Out(NodeID(u)) {
			if i < len(gRow) && gRow[i] == v {
				i++
				continue
			}
			targets = append(targets, v)
			from = append(from, NodeID(u))
		}
		offsets[u+1] = int32(len(targets))
	}
	fringe := &Graph{n: n, directed: true, offsets: offsets, targets: targets}
	return fringe, from
}

// newDualPatched assembles an epoch Dual from patched cores without
// re-running NewDual's validation sweep: subgraph containment holds because
// both cores were filtered from a validated base by one keep predicate, and
// source reachability holds because the predicate never rejects a backbone
// arc. Schedules constructed these invariants; re-proving them per epoch
// (a BFS plus a full merge re-walk) was a large share of the old swap cost.
func newDualPatched(g, gp *Graph, source NodeID, fringe *Graph, from []NodeID) *Dual {
	return &Dual{g: g, gPrime: gp, source: source, fringe: fringe, fringeFrom: from}
}

// canonArc packs an arc into the fade-coin key: undirected edges use the
// (min, max) orientation so both stored orientations flip the same coin.
func canonArc(u, v NodeID, directed bool) uint64 {
	if !directed && v < u {
		u, v = v, u
	}
	return packArc(u, v)
}

// ChurnSchedule models node churn: in every epoch after the first, each
// non-source node is independently down with probability PDown (a crashed
// radio, a rebooting host). A down node keeps only its backbone link — every
// other incident arc is removed from both G and G' for the epoch — and
// recovers automatically in the next epoch's fresh draw. Epoch 0 is always
// the unmutated base network, so runs shorter than one epoch are identical
// to static runs.
type ChurnSchedule struct {
	base     *Dual
	epochLen int
	pDown    float64
	backbone *backboneTree
	// inPrime is the in-adjacency of the base G'. An epoch differs from the
	// base only in the CSR rows of down nodes and of nodes with an arc TO a
	// down node, so this is the reverse index that turns the down set into
	// the dirty-row set. For undirected bases Transpose returns G' itself.
	inPrime *Graph
}

// NewChurn builds a churn schedule over base with the given epoch length in
// rounds and per-epoch per-node down probability.
func NewChurn(base *Dual, epochLen int, pDown float64) (*ChurnSchedule, error) {
	if epochLen < 1 {
		return nil, fmt.Errorf("churn: epoch length must be >= 1, got %d", epochLen)
	}
	if pDown < 0 || pDown > 1 {
		return nil, fmt.Errorf("churn: down probability %v outside [0,1]", pDown)
	}
	return &ChurnSchedule{
		base:     base,
		epochLen: epochLen,
		pDown:    pDown,
		backbone: newBackboneTree(base),
		inPrime:  base.GPrime().Transpose(),
	}, nil
}

// N returns the node count.
func (s *ChurnSchedule) N() int { return s.base.N() }

// EpochLength returns the epoch length in rounds.
func (s *ChurnSchedule) EpochLength() int { return s.epochLen }

// Epoch materializes epoch e: the base network for e == 0, otherwise the
// base with every non-backbone arc incident to a down node removed.
func (s *ChurnSchedule) Epoch(e int, runSeed int64) (*Dual, error) {
	if e < 0 {
		return nil, fmt.Errorf("churn: negative epoch %d", e)
	}
	if e == 0 {
		return s.base, nil
	}
	seed := EpochSeed(runSeed, e)
	n := s.base.N()
	src := s.base.Source()
	down := make([]bool, n)
	anyDown := false
	for v := 0; v < n; v++ {
		if NodeID(v) != src && unitHash(seed, churnTag, uint64(v)) < s.pDown {
			down[v] = true
			anyDown = true
		}
	}
	if !anyDown {
		// No coin fired: the epoch is structurally the base, so skip the
		// rebuild and hand the base core back (same arc sets, same dense
		// EdgeIDs — byte-identical to the rebuilt Dual).
		if metrics.Enabled() {
			mEpochBase.Inc()
		}
		return s.base, nil
	}
	// A row u changes only if u is down (its whole row is filtered) or u has
	// an arc to a down node. G ⊆ G', so the G'-in-adjacency covers the dirty
	// rows of both cores; epoch cost is proportional to the down set and its
	// neighbourhood, not to n.
	dirty := make([]bool, n)
	for v := 0; v < n; v++ {
		if !down[v] {
			continue
		}
		dirty[v] = true
		for _, u := range s.inPrime.Out(NodeID(v)) {
			dirty[u] = true
		}
	}
	keep := func(u, v NodeID) bool {
		if !down[u] && !down[v] {
			return true
		}
		return s.backbone.has(u, v)
	}
	if metrics.Enabled() {
		mEpochIncremental.Inc()
	}
	g := filterRowsPatched(s.base.G(), dirty, keep)
	gp := filterRowsPatched(s.base.GPrime(), dirty, keep)
	fringe, from := subtractPatched(gp, g, s.base.fringe, s.base.fringeFrom, dirty)
	return newDualPatched(g, gp, src, fringe, from), nil
}

// FadeSchedule models link fading: in every epoch after the first, each
// reliable non-backbone edge is independently demoted to unreliable with
// probability PFade — the link still exists in G', but for that epoch the
// adversary controls it. Demoted edges recover automatically in the next
// epoch's fresh draw ("and back"). G' never changes, so the epoch duals
// share the base's frozen G' core; only G and the fringe are re-frozen.
type FadeSchedule struct {
	base     *Dual
	epochLen int
	pFade    float64
	backbone *backboneTree
}

// NewFade builds a fading schedule over base with the given epoch length in
// rounds and per-epoch per-edge demotion probability.
func NewFade(base *Dual, epochLen int, pFade float64) (*FadeSchedule, error) {
	if epochLen < 1 {
		return nil, fmt.Errorf("fade: epoch length must be >= 1, got %d", epochLen)
	}
	if pFade < 0 || pFade > 1 {
		return nil, fmt.Errorf("fade: fade probability %v outside [0,1]", pFade)
	}
	return &FadeSchedule{base: base, epochLen: epochLen, pFade: pFade, backbone: newBackboneTree(base)}, nil
}

// N returns the node count.
func (s *FadeSchedule) N() int { return s.base.N() }

// EpochLength returns the epoch length in rounds.
func (s *FadeSchedule) EpochLength() int { return s.epochLen }

// Epoch materializes epoch e: the base network for e == 0, otherwise the
// base with faded reliable edges demoted into the adversary's fringe.
func (s *FadeSchedule) Epoch(e int, runSeed int64) (*Dual, error) {
	if e < 0 {
		return nil, fmt.Errorf("fade: negative epoch %d", e)
	}
	if e == 0 {
		return s.base, nil
	}
	seed := EpochSeed(runSeed, e)
	bg := s.base.G()
	keep := func(u, v NodeID) bool {
		if s.backbone.has(u, v) {
			return true
		}
		return unitHash(seed, fadeTag, canonArc(u, v, bg.Directed())) >= s.pFade
	}
	// One coin scan finds the faded arcs — and hence the dirty rows — before
	// anything is built. If no edge fades, the epoch is structurally the base
	// (same arc sets, same dense EdgeIDs): return the base core. Otherwise
	// the patched filter below re-draws identical outcomes (coins are pure),
	// and only the rows that lost an arc are re-filtered; an undirected edge's
	// reverse orientation flips the same canonical coin in its own row's scan,
	// so both endpoint rows get flagged.
	var dirty []bool
	anyFaded := false
	for u := 0; u < bg.N(); u++ {
		for _, v := range bg.Out(NodeID(u)) {
			if keep(NodeID(u), v) {
				continue
			}
			if !anyFaded {
				anyFaded = true
				dirty = make([]bool, bg.N())
			}
			dirty[u] = true
		}
	}
	if !anyFaded {
		if metrics.Enabled() {
			mEpochBase.Inc()
		}
		return s.base, nil
	}
	if metrics.Enabled() {
		mEpochIncremental.Inc()
	}
	g := filterRowsPatched(bg, dirty, keep)
	gp := s.base.GPrime()
	fringe, from := subtractPatched(gp, g, s.base.fringe, s.base.fringeFrom, dirty)
	return newDualPatched(g, gp, s.base.Source(), fringe, from), nil
}

// WaypointSchedule models random-waypoint mobility over the geometric
// dual-graph model: every node moves in the unit square between successive
// waypoints (one leg lasts LegEpochs epochs, positions interpolate linearly
// within a leg), and each epoch's network is the geometric dual of the
// current positions — short links reliable, longer links unreliable, plus
// the generator's Hamiltonian-path backbone so the source always reaches
// everyone. The base network contributes only its node count and source; the
// geometry is the schedule's own. Waypoints are hashed directly from the run
// seed (not the epoch seed), which is what makes motion continuous: epoch
// e+1 starts where epoch e ended.
type WaypointSchedule struct {
	n         int
	source    NodeID
	epochLen  int
	legEpochs int
	rRel      float64
	rUnrel    float64
}

// NewWaypoint builds a mobility schedule for base.N() nodes. legEpochs is
// the number of epochs one waypoint-to-waypoint leg lasts (larger = slower
// motion); rReliable/rUnreliable are the geometric link radii.
func NewWaypoint(base *Dual, epochLen, legEpochs int, rReliable, rUnreliable float64) (*WaypointSchedule, error) {
	if epochLen < 1 {
		return nil, fmt.Errorf("waypoint: epoch length must be >= 1, got %d", epochLen)
	}
	if legEpochs < 1 {
		return nil, fmt.Errorf("waypoint: leg epochs must be >= 1, got %d", legEpochs)
	}
	if rUnreliable < rReliable {
		return nil, fmt.Errorf("waypoint: rUnreliable (%v) must be >= rReliable (%v)", rUnreliable, rReliable)
	}
	return &WaypointSchedule{
		n:         base.N(),
		source:    base.Source(),
		epochLen:  epochLen,
		legEpochs: legEpochs,
		rRel:      rReliable,
		rUnrel:    rUnreliable,
	}, nil
}

// N returns the node count.
func (s *WaypointSchedule) N() int { return s.n }

// EpochLength returns the epoch length in rounds.
func (s *WaypointSchedule) EpochLength() int { return s.epochLen }

// waypoint returns node v's k-th waypoint coordinate pair.
func (s *WaypointSchedule) waypoint(runSeed int64, v NodeID, k int) (x, y float64) {
	key := uint64(uint32(v))<<32 | uint64(uint32(k))
	return unitHash(runSeed, wpxTag, key), unitHash(runSeed, wpyTag, key)
}

// Epoch materializes epoch e: the geometric dual of the interpolated
// positions at epoch e.
func (s *WaypointSchedule) Epoch(e int, runSeed int64) (*Dual, error) {
	if e < 0 {
		return nil, fmt.Errorf("waypoint: negative epoch %d", e)
	}
	if e > 0 && metrics.Enabled() {
		mEpochRebuild.Inc()
	}
	leg, step := e/s.legEpochs, e%s.legEpochs
	t := float64(step) / float64(s.legEpochs)
	xs := make([]float64, s.n)
	ys := make([]float64, s.n)
	for v := 0; v < s.n; v++ {
		x0, y0 := s.waypoint(runSeed, NodeID(v), leg)
		x1, y1 := s.waypoint(runSeed, NodeID(v), leg+1)
		xs[v] = x0*(1-t) + x1*t
		ys[v] = y0*(1-t) + y1*t
	}
	return DualFromPositions(xs, ys, s.rRel, s.rUnrel, s.source)
}
