package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// Classical wraps a single graph g as the dual network (g, g): every link is
// reliable, which is exactly the classical static radio model. The frozen
// CSR core is shared between G and G'.
func Classical(g *Builder, source NodeID) (*Dual, error) {
	fg := g.Freeze()
	return NewDualGraphs(fg, fg, source)
}

// ClassicalFrozen is Classical for an already-frozen graph (e.g. a Dual's
// own reliable core reused as a static network).
func ClassicalFrozen(g *Graph, source NodeID) (*Dual, error) {
	return NewDualGraphs(g, g, source)
}

// Complete returns the classical complete graph on n nodes (single hop).
func Complete(n int) (*Dual, error) {
	g := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(NodeID(u), NodeID(v))
		}
	}
	return Classical(g, 0)
}

// Line returns the classical path 0-1-...-(n-1) with the source at node 0.
func Line(n int) (*Dual, error) {
	g := NewBuilder(n, false)
	for u := 0; u+1 < n; u++ {
		g.MustAddEdge(NodeID(u), NodeID(u+1))
	}
	return Classical(g, 0)
}

// Star returns the classical star with the source at the hub (node 0).
func Star(n int) (*Dual, error) {
	g := NewBuilder(n, false)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, NodeID(v))
	}
	return Classical(g, 0)
}

// CliqueBridge builds the Theorem 2 network for n >= 3: G is an (n-1)-node
// clique C containing the source s (node 0) and a bridge b (node 1), plus a
// receiver r (node n-1) attached only to b. G' is the complete graph.
// The network is 2-broadcastable (s sends, then b sends) yet deterministic
// broadcast against the Theorem 2 adversary needs more than n-3 rounds.
func CliqueBridge(n int) (*Dual, error) {
	if n < 3 {
		return nil, fmt.Errorf("clique-bridge needs n >= 3, got %d", n)
	}
	g := NewBuilder(n, false)
	for u := 0; u < n-1; u++ {
		for v := u + 1; v < n-1; v++ {
			g.MustAddEdge(NodeID(u), NodeID(v))
		}
	}
	g.MustAddEdge(BridgeNode, NodeID(n-1))
	gp := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gp.MustAddEdge(NodeID(u), NodeID(v))
		}
	}
	return NewDual(g, gp, 0)
}

// Node roles in the CliqueBridge network.
const (
	// BridgeNode is the clique node adjacent to the receiver.
	BridgeNode NodeID = 1
)

// ReceiverNode returns the receiver node of an n-node CliqueBridge network.
func ReceiverNode(n int) NodeID { return NodeID(n - 1) }

// CompleteLayered builds the Theorem 12 network. Node 0 is the source
// (layer L0); layer Lk = {2k-1, 2k} for k = 1..(n-1)/2. G connects the
// source to L1, all nodes within a layer, and all nodes in consecutive
// layers; G' is the complete graph. n must be odd and at least 5 so that
// the layers pair up exactly.
func CompleteLayered(n int) (*Dual, error) {
	if n < 5 || n%2 == 0 {
		return nil, fmt.Errorf("complete-layered needs odd n >= 5, got %d", n)
	}
	g := NewBuilder(n, false)
	layers := (n - 1) / 2
	layerOf := func(k int) []NodeID {
		if k == 0 {
			return []NodeID{0}
		}
		return []NodeID{NodeID(2*k - 1), NodeID(2 * k)}
	}
	for k := 0; k <= layers; k++ {
		cur := layerOf(k)
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				g.MustAddEdge(cur[i], cur[j])
			}
		}
		if k < layers {
			for _, u := range cur {
				for _, v := range layerOf(k + 1) {
					g.MustAddEdge(u, v)
				}
			}
		}
	}
	gp := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gp.MustAddEdge(NodeID(u), NodeID(v))
		}
	}
	return NewDual(g, gp, 0)
}

// Layer returns the Theorem 12 layer index of a node in a CompleteLayered
// network (0 for the source).
func Layer(v NodeID) int {
	if v == 0 {
		return 0
	}
	return (int(v) + 1) / 2
}

// LayeredRandom builds a dual graph made of consecutive fully connected
// layers with the given sizes (source alone in layer 0); G' is complete.
// This is the layered-network shape used in the Section 7 intuition for
// Harmonic Broadcast.
func LayeredRandom(layerSizes []int) (*Dual, error) {
	n := 1
	for _, s := range layerSizes {
		if s < 1 {
			return nil, fmt.Errorf("layer size must be positive, got %d", s)
		}
		n += s
	}
	g := NewBuilder(n, false)
	prev := []NodeID{0}
	next := 1
	for _, s := range layerSizes {
		cur := make([]NodeID, 0, s)
		for i := 0; i < s; i++ {
			cur = append(cur, NodeID(next))
			next++
		}
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				g.MustAddEdge(cur[i], cur[j])
			}
		}
		for _, u := range prev {
			for _, v := range cur {
				g.MustAddEdge(u, v)
			}
		}
		prev = cur
	}
	gp := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gp.MustAddEdge(NodeID(u), NodeID(v))
		}
	}
	return NewDual(g, gp, 0)
}

// Grid builds a rows x cols lattice whose lattice edges are reliable.
// Unreliable edges connect nodes at Chebyshev distance <= reach (the
// "gray zone" of longer, flaky radio links); each such candidate edge is
// included independently with probability p using rng.
func Grid(rows, cols, reach int, p float64, rng *rand.Rand) (*Dual, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("grid needs at least 2 nodes, got %dx%d", rows, cols)
	}
	if reach < 1 {
		return nil, fmt.Errorf("grid reach must be >= 1, got %d", reach)
	}
	n := rows * cols
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	g := NewBuilder(n, false)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
			}
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
			}
		}
	}
	gp := g.Clone()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for dr := -reach; dr <= reach; dr++ {
				for dc := -reach; dc <= reach; dc++ {
					r2, c2 := r+dr, c+dc
					if r2 < 0 || r2 >= rows || c2 < 0 || c2 >= cols {
						continue
					}
					u, v := id(r, c), id(r2, c2)
					// Lattice edges (the reliable layer) are exactly the
					// axis-aligned unit steps; everything else in the reach
					// window is a gray-zone candidate.
					if u >= v || abs(dr)+abs(dc) == 1 {
						continue
					}
					if rng.Float64() < p {
						gp.MustAddEdge(u, v)
					}
				}
			}
		}
	}
	return NewDual(g, gp, 0)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// RandomDual builds a random dual graph: G is a random connected graph
// (a path through a random permutation plus G(n, pReliable) edges) and
// G' adds each remaining pair independently with probability pUnreliable.
func RandomDual(n int, pReliable, pUnreliable float64, rng *rand.Rand) (*Dual, error) {
	if n < 2 {
		return nil, ErrTooSmall
	}
	g := NewBuilder(n, false)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(NodeID(perm[i]), NodeID(perm[i+1]))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(NodeID(u), NodeID(v)) && rng.Float64() < pReliable {
				g.MustAddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	gp := g.Clone()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !gp.HasEdge(NodeID(u), NodeID(v)) && rng.Float64() < pUnreliable {
				gp.MustAddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return NewDual(g, gp, 0)
}

// Geometric places n nodes uniformly at random in the unit square. Links
// shorter than rReliable are reliable, links shorter than rUnreliable are
// unreliable (the classic gray-zone picture: short links always work, longer
// ones only sometimes). A Hamiltonian path in placement order is added to G
// to guarantee source reachability, modelling a deployment with a known-good
// backbone.
//
// Candidate pairs are enumerated through a uniform cell grid of side
// >= rUnreliable, so construction costs O(n + c) for c candidate pairs in
// adjacent cells instead of the quadratic all-pairs scan — a 100k-node
// deployment with local radii builds in well under a second. The edge set
// (and hence the frozen Dual) is identical to the historical all-pairs
// construction for the same rng, since positions consume the only random
// draws.
func Geometric(n int, rReliable, rUnreliable float64, rng *rand.Rand) (*Dual, error) {
	if n < 2 {
		return nil, ErrTooSmall
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	return DualFromPositions(xs, ys, rReliable, rUnreliable, 0)
}

// DualFromPositions builds the geometric dual over explicit unit-square
// coordinates: links shorter than rReliable are reliable, links between
// rReliable and rUnreliable are unreliable, and a Hamiltonian path in index
// order is added to G so every node stays reachable from the source. It is
// the position-driven core shared by Geometric (random placement) and the
// waypoint mobility schedule (epoch-interpolated placement), so it runs once
// per waypoint epoch.
//
// G and G' are built directly as sorted CSR, with no Builder log and no row
// sort. Each unordered pair u < v is classified once and recorded in u's
// upper row (its neighbours above u, in enumeration order). Two counting
// passes then place every arc: walking u ascending appends u to the rows of
// its upper neighbours, which fills each row's below-the-node half already
// sorted; walking v ascending over those halves appends v to the rows of its
// lower neighbours, which fills each row's above-the-node half sorted. Total
// cost O(n + m) beyond the distance tests. The result passes the same
// validation as NewDual: the subgraph check, which also produces the fringe,
// and the reachability BFS.
func DualFromPositions(xs, ys []float64, rReliable, rUnreliable float64, source NodeID) (*Dual, error) {
	n := len(xs)
	if n < 2 {
		return nil, ErrTooSmall
	}
	if len(ys) != n {
		return nil, fmt.Errorf("geometric positions: %d x coordinates but %d y coordinates", n, len(ys))
	}
	if rUnreliable < rReliable {
		return nil, fmt.Errorf("rUnreliable (%v) must be >= rReliable (%v)", rUnreliable, rReliable)
	}

	// Bucket nodes into a side x side grid with cell length >= rUnreliable:
	// all pairs within the radius live in the same or an adjacent cell. The
	// side is capped at ~sqrt(n) so bucket memory stays O(n) even for tiny
	// radii. Buckets are one counting-sorted array: bucket c is
	// members[start[c]:start[c+1]], holding its nodes in ascending order.
	side := 1
	if rUnreliable > 0 {
		side = int(1 / rUnreliable)
	}
	if maxSide := int(math.Sqrt(float64(n))) + 1; side > maxSide {
		side = maxSide
	}
	if side < 1 {
		side = 1
	}
	cellOf := func(x float64) int {
		c := int(x * float64(side))
		if c >= side {
			c = side - 1
		}
		return c
	}
	start := make([]int32, side*side+1)
	for u := 0; u < n; u++ {
		start[cellOf(ys[u])*side+cellOf(xs[u])]++
	}
	for c := 1; c <= side*side; c++ {
		start[c] += start[c-1]
	}
	members := make([]int32, n)
	for u := n - 1; u >= 0; u-- {
		c := cellOf(ys[u])*side + cellOf(xs[u])
		start[c]--
		members[start[c]] = int32(u)
	}

	// Classify every pair u < v once. up[upOff[u]:upOff[u+1]] is u's upper
	// row: v for a reliable pair, ^v for an unreliable one. The path pair
	// (u, u+1) leads the row and is always reliable, so the grid walk skips
	// it. gOff and gpOff first count each node's degree in G and G'.
	upOff := make([]int32, n+1)
	up := make([]NodeID, 0, 2*n)
	gOff := make([]int32, n+1)
	gpOff := make([]int32, n+1)
	addPair := func(u, v int, reliable bool) {
		gpOff[u+1]++
		gpOff[v+1]++
		if reliable {
			gOff[u+1]++
			gOff[v+1]++
			up = append(up, NodeID(v))
		} else {
			up = append(up, ^NodeID(v))
		}
	}
	rel, unrel := newRadiusTest(rReliable), newRadiusTest(rUnreliable)
	for u := 0; u < n; u++ {
		if u+1 < n {
			addPair(u, u+1, true)
		}
		xu, yu := xs[u], ys[u]
		cx, cy := cellOf(xu), cellOf(yu)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x2, y2 := cx+dx, cy+dy
				if x2 < 0 || x2 >= side || y2 < 0 || y2 >= side {
					continue
				}
				c := y2*side + x2
				for _, w := range members[start[c]:start[c+1]] {
					v := int(w)
					if v <= u+1 {
						continue
					}
					px, py := xu-xs[v], yu-ys[v]
					sq := px*px + py*py
					if rel.within(px, py, sq) {
						addPair(u, v, true)
					} else if unrel.within(px, py, sq) {
						addPair(u, v, false)
					}
				}
			}
		}
		upOff[u+1] = int32(len(up))
	}
	for u := 0; u < n; u++ {
		gOff[u+1] += gOff[u]
		gpOff[u+1] += gpOff[u]
	}

	gT := make([]NodeID, gOff[n])
	gpT := make([]NodeID, gpOff[n])
	gCur := make([]int32, n)
	gpCur := make([]int32, n)
	copy(gCur, gOff[:n])
	copy(gpCur, gpOff[:n])
	// Lower halves: row v receives its neighbours u < v in increasing u.
	for u := 0; u < n; u++ {
		for _, e := range up[upOff[u]:upOff[u+1]] {
			v := e
			if e < 0 {
				v = ^e
			} else {
				gT[gCur[v]] = NodeID(u)
				gCur[v]++
			}
			gpT[gpCur[v]] = NodeID(u)
			gpCur[v]++
		}
	}
	// Upper halves: row u receives its neighbours v > u in increasing v.
	// Row v's lower half is complete when v is visited, since only larger
	// nodes write to row v from here on.
	for v := 0; v < n; v++ {
		for _, u := range gT[gOff[v]:gCur[v]] {
			gT[gCur[u]] = NodeID(v)
			gCur[u]++
		}
		for _, u := range gpT[gpOff[v]:gpCur[v]] {
			gpT[gpCur[u]] = NodeID(v)
			gpCur[u]++
		}
	}
	g := &Graph{n: n, offsets: gOff, targets: gT}
	gp := &Graph{n: n, offsets: gpOff, targets: gpT}
	return newDual(g, gp, source)
}

// radiusTest decides math.Hypot(dx, dy) <= r, the link test of the
// geometric model, with the same answer as the Hypot comparison but usually
// without calling Hypot: it first compares the squared distance sq = dx²+dy²
// against r² widened by a relative band of 1e-9 on either side. The rounding
// errors of sq and of Hypot are a few parts in 10^16, so a squared distance
// outside the band decides the comparison exactly; inside it the test calls
// Hypot. A radius outside [1e-100, 1e100] (0, negative and NaN included),
// where r² or sq could under- or overflow past the band, always calls Hypot:
// lo = -1 and hi = +Inf admit no squared distance.
type radiusTest struct{ r, lo, hi float64 }

func newRadiusTest(r float64) radiusTest {
	if !(r >= 1e-100 && r <= 1e100) {
		return radiusTest{r: r, lo: -1, hi: math.Inf(1)}
	}
	return radiusTest{r: r, lo: r * r * (1 - 1e-9), hi: r * r * (1 + 1e-9)}
}

func (t radiusTest) within(dx, dy, sq float64) bool {
	if sq < t.lo {
		return true
	}
	if sq > t.hi {
		return false
	}
	return math.Hypot(dx, dy) <= t.r
}

// BinaryTree returns the classical complete binary tree on n nodes rooted at
// the source.
func BinaryTree(n int) (*Dual, error) {
	if n < 2 {
		return nil, ErrTooSmall
	}
	g := NewBuilder(n, false)
	for v := 1; v < n; v++ {
		g.MustAddEdge(NodeID((v-1)/2), NodeID(v))
	}
	return Classical(g, 0)
}

// PreferentialAttachment builds a scale-free dual graph by Barabási–Albert
// growth: node v joins with min(m, v) links to existing nodes chosen
// proportionally to their current G' degree. Each node's first link is
// reliable (so G stays connected to the source, node 0); every further link
// is unreliable with probability unreliableFrac, modelling hub-and-spoke
// deployments whose long-range shortcuts are gray-zone radio links.
// Construction is O(n·m) — the generator scales to 100k+ nodes.
func PreferentialAttachment(n, m int, unreliableFrac float64, rng *rand.Rand) (*Dual, error) {
	if n < 2 {
		return nil, ErrTooSmall
	}
	if m < 1 {
		return nil, fmt.Errorf("preferential attachment needs m >= 1, got %d", m)
	}
	if unreliableFrac < 0 || unreliableFrac > 1 {
		return nil, fmt.Errorf("unreliable fraction %v outside [0,1]", unreliableFrac)
	}
	g := NewBuilder(n, false)
	var unreliable [][2]NodeID
	// ends holds one entry per arc endpoint: sampling uniformly from it is
	// sampling nodes proportionally to degree (the classic BA trick).
	ends := make([]NodeID, 0, 2*m*n)
	targets := make([]NodeID, 0, m)
	for v := 1; v < n; v++ {
		targets = targets[:0]
		if v <= m {
			// Too few existing nodes to sample distinctly: link to all.
			for t := 0; t < v; t++ {
				targets = append(targets, NodeID(t))
			}
		} else {
			for len(targets) < m {
				t := ends[rng.Intn(len(ends))]
				dup := false
				for _, prev := range targets {
					if prev == t {
						dup = true
						break
					}
				}
				if !dup {
					targets = append(targets, t)
				}
			}
		}
		for i, t := range targets {
			if i > 0 && rng.Float64() < unreliableFrac {
				unreliable = append(unreliable, [2]NodeID{NodeID(v), t})
			} else {
				g.MustAddEdge(NodeID(v), t)
			}
			ends = append(ends, NodeID(v), t)
		}
	}
	gp := g.Clone()
	for _, e := range unreliable {
		gp.MustAddEdge(e[0], e[1])
	}
	return NewDual(g, gp, 0)
}

// DirectedLayered builds a directed dual graph: a chain of layers where
// reliable edges point from each layer to the next and G' additionally has
// forward edges from every layer to all later layers. Used to exercise the
// directed-graph setting of the Section 5 upper bound.
func DirectedLayered(layerSizes []int) (*Dual, error) {
	n := 1
	for _, s := range layerSizes {
		if s < 1 {
			return nil, fmt.Errorf("layer size must be positive, got %d", s)
		}
		n += s
	}
	g := NewBuilder(n, true)
	gp := NewBuilder(n, true)
	var layers [][]NodeID
	layers = append(layers, []NodeID{0})
	next := 1
	for _, s := range layerSizes {
		cur := make([]NodeID, 0, s)
		for i := 0; i < s; i++ {
			cur = append(cur, NodeID(next))
			next++
		}
		layers = append(layers, cur)
	}
	for k := 0; k+1 < len(layers); k++ {
		for _, u := range layers[k] {
			for _, v := range layers[k+1] {
				g.MustAddEdge(u, v)
				gp.MustAddEdge(u, v)
			}
			for j := k + 2; j < len(layers); j++ {
				for _, v := range layers[j] {
					gp.MustAddEdge(u, v)
				}
			}
		}
	}
	return NewDual(g, gp, 0)
}
