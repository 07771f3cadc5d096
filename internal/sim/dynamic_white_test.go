package sim

import (
	"testing"

	"dualgraph/internal/graph"
)

// TestEnsureCapacityNoAliasingAcrossSwaps is the epoch-boundary buffer
// invariant: after swapping to an epoch with larger G' in-degrees the
// unreliable-delivery rows must be re-carved (an old row would overflow its
// slot in the flat backing array), after which filling every row to its new
// bound keeps all rows disjoint — no delivery-list aliasing. Swapping to a
// smaller epoch must keep the existing buffers (the lazy half of the resize).
func TestEnsureCapacityNoAliasingAcrossSwaps(t *testing.T) {
	const n = 9
	small, err := graph.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	big, err := graph.Complete(n)
	if err != nil {
		t.Fatal(err)
	}

	buf := newRunBuffers(small)
	wasDense := buf.dense
	for v := 0; v < n; v++ {
		if cap(buf.unrel[v]) >= n-1 {
			t.Fatalf("line row %d capacity %d already fits the complete graph; test setup broken", v, cap(buf.unrel[v]))
		}
	}
	// Dirty the buffers like a round would, then clear (the loop clears
	// before any swap).
	sent := make([]bool, n)
	buf.addUnrel(0, 1)
	buf.addUnrel(2, 1)
	buf.clearRound(sent)

	// Grow swap: line -> complete. Every row must now hold in-degree = n-1
	// unreliable deliveries.
	buf.ensureCapacity(big)
	if buf.dense != wasDense {
		t.Fatal("re-carve changed the per-run delivery mode")
	}
	for v := 0; v < n; v++ {
		if got := cap(buf.unrel[v]); got < n-1 {
			t.Fatalf("after grow swap, row %d capacity %d < %d", v, got, n-1)
		}
	}
	// Fill every row to its model bound and verify no row sees another's
	// writes.
	for v := 0; v < n; v++ {
		for s := 0; s < n-1; s++ {
			buf.addUnrel(graph.NodeID(v), graph.NodeID(v*100+s)) // sentinel unique per (row, slot)
		}
	}
	for v := 0; v < n; v++ {
		row := buf.unrel[v]
		if len(row) != n-1 {
			t.Fatalf("row %d has %d entries, want %d", v, len(row), n-1)
		}
		for s, got := range row {
			if want := graph.NodeID(v*100 + s); got != want {
				t.Fatalf("row %d slot %d = %d, want %d: rows alias after swap", v, s, got, want)
			}
		}
	}
	buf.clearRound(sent)

	// Shrink swap: complete -> line. Capacities suffice, so the rows are
	// kept as-is (lazy: no re-carve).
	bigCaps := make([]int, n)
	for v := range bigCaps {
		bigCaps[v] = cap(buf.unrel[v])
	}
	buf.ensureCapacity(small)
	for v := 0; v < n; v++ {
		if cap(buf.unrel[v]) != bigCaps[v] {
			t.Fatalf("shrink swap re-carved row %d (cap %d -> %d); resize should be lazy",
				v, bigCaps[v], cap(buf.unrel[v]))
		}
	}
	if buf.sizedFor != small.GPrime() {
		t.Fatal("keep path did not record the new G' core")
	}

	// Shared-G'-core fast path (fade epochs): a dual aliasing the same
	// frozen G' skips the scan — observable as sizedFor staying put even
	// though the Dual differs.
	faded, err := graph.NewDualGraphs(small.G(), small.GPrime(), small.Source())
	if err != nil {
		t.Fatal(err)
	}
	buf.ensureCapacity(faded)
	if buf.sizedFor != small.GPrime() {
		t.Fatal("shared-core fast path re-sized the buffers")
	}
}

// hubDual is a path backbone under a G' star: every node is an unreliable
// neighbour of hub, so hub's G' in-degree is n-1 while every other node's
// stays at most 3. Hubs at either end of the path give the same arc total.
func hubDual(t *testing.T, n int, hub graph.NodeID) *graph.Dual {
	t.Helper()
	g := graph.NewBuilder(n, false)
	for u := 0; u+1 < n; u++ {
		g.MustAddEdge(graph.NodeID(u), graph.NodeID(u+1))
	}
	gp := g.Clone()
	for v := 0; v < n; v++ {
		if graph.NodeID(v) != hub {
			gp.MustAddEdge(hub, graph.NodeID(v))
		}
	}
	d, err := graph.NewDual(g, gp, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// inBacking reports whether p addresses an element of backing.
func inBacking(backing []graph.NodeID, p *graph.NodeID) bool {
	for i := range backing {
		if &backing[i] == p {
			return true
		}
	}
	return false
}

// TestEnsureCapacityRecarvesInPlace drives a grow → shrink → grow → grow
// swap sequence in both delivery modes: line → hub at node 0 (the backing
// must grow) → line (rows kept) → hub at the last node (its row overflows,
// but the total fits: re-carved inside the same backing) → hub at node 0
// again (same). After every swap the run keeps its delivery mode, every row
// holds its new G' in-degree, and rows filled to that bound with per-row
// sentinels never see each other's writes.
func TestEnsureCapacityRecarvesInPlace(t *testing.T) {
	for _, n := range []int{9, 80} { // dense masks at 9, sparse bitsets at 80
		line, err := graph.Line(n)
		if err != nil {
			t.Fatal(err)
		}
		first, last := hubDual(t, n, 0), hubDual(t, n, graph.NodeID(n-1))
		buf := newRunBuffers(line)
		wasDense := buf.dense
		if wasDense != (n == 9) {
			t.Fatalf("line(%d) dense=%v: fixture no longer covers both delivery modes", n, wasDense)
		}
		sent := make([]bool, n)
		var backing *graph.NodeID
		for step, d := range []*graph.Dual{first, line, last, first} {
			buf.ensureCapacity(d)
			if buf.dense != wasDense || (buf.dense && buf.sentBit == nil) || (!buf.dense && buf.firstFrom == nil) {
				t.Fatalf("n=%d step %d: swap changed the per-run delivery mode", n, step)
			}
			switch step {
			case 0:
				backing = &buf.unrelBacking[0]
			case 2, 3:
				if &buf.unrelBacking[0] != backing {
					t.Fatalf("n=%d step %d: re-carve reallocated a backing already large enough", n, step)
				}
			}
			indeg := make([]int, n)
			for u := 0; u < n; u++ {
				for _, v := range d.GPrime().Out(graph.NodeID(u)) {
					indeg[v]++
				}
			}
			for v := 0; v < n; v++ {
				if cap(buf.unrel[v]) < indeg[v] {
					t.Fatalf("n=%d step %d: row %d capacity %d < G' in-degree %d", n, step, v, cap(buf.unrel[v]), indeg[v])
				}
				for s := 0; s < indeg[v]; s++ {
					buf.addUnrel(graph.NodeID(v), graph.NodeID(v*1000+s))
				}
			}
			for v := 0; v < n; v++ {
				for s, got := range buf.unrel[v] {
					if want := graph.NodeID(v*1000 + s); got != want {
						t.Fatalf("n=%d step %d: row %d slot %d = %d, want %d: rows alias", n, step, v, s, got, want)
					}
				}
				if len(buf.unrel[v]) > 0 && !inBacking(buf.unrelBacking, &buf.unrel[v][0]) {
					t.Fatalf("n=%d step %d: row %d is not carved from the backing", n, step, v)
				}
			}
			buf.clearRound(sent)
		}
	}
}

// sparseFixture returns a dual large and thin enough to take the sparse
// delivery path.
func sparseFixture(t *testing.T) *graph.Dual {
	t.Helper()
	d, err := graph.Line(80)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeliveryModeChoice pins the per-run mode decision: small dense
// networks go word-parallel, large or thin ones stay per-edge.
func TestDeliveryModeChoice(t *testing.T) {
	dense, err := graph.CliqueBridge(65)
	if err != nil {
		t.Fatal(err)
	}
	if b := newRunBuffers(dense); !b.dense {
		t.Error("clique-bridge(65) should use the dense mask mode")
	}
	if b := newRunBuffers(sparseFixture(t)); b.dense {
		t.Error("line(80) should use the sparse bitset mode")
	}
}

// TestReachBitsetsCountClasses exercises the sparse-mode count-class
// transitions that replaced per-node sender lists: one delivery makes a node
// reached with a recoverable single sender, a second collides it, and
// clearRound returns the bitsets (and only the touched words) to zero.
func TestReachBitsetsCountClasses(t *testing.T) {
	d := sparseFixture(t)
	buf := newRunBuffers(d)
	sent := make([]bool, d.N())

	const v, s1, s2 = 70, 3, 5 // v in the second word: both words must reset
	buf.addReach(v, s1)
	if !buf.reached(v) || buf.collided(v) {
		t.Fatal("one delivery: want reached, not collided")
	}
	if got := buf.singleReacher(v); got != s1 {
		t.Fatalf("singleReacher = %d, want %d", got, s1)
	}
	buf.addReach(v, s2)
	if !buf.reached(v) || !buf.collided(v) {
		t.Fatal("two deliveries: want reached and collided")
	}
	buf.addUnrel(9, s1)
	if !buf.reached(9) || buf.collided(9) {
		t.Fatal("one unreliable delivery: want reached, not collided")
	}
	if got := buf.singleReacher(9); got != s1 {
		t.Fatalf("unreliable singleReacher = %d, want %d", got, s1)
	}
	// A duplicate unreliable delivery along the same arc is a collision (the
	// legacy list was [s, s], length two).
	buf.addUnrel(9, s1)
	if !buf.collided(9) {
		t.Fatal("duplicate unreliable delivery must collide")
	}

	buf.clearRound(sent)
	for w, x := range buf.reach1 {
		if x != 0 || buf.reach2[w] != 0 {
			t.Fatalf("word %d not cleared: reach1=%x reach2=%x", w, x, buf.reach2[w])
		}
	}
	if len(buf.touchedW) != 0 || len(buf.unrelTouched) != 0 {
		t.Fatal("touched lists not truncated")
	}
	if len(buf.unrel[9]) != 0 {
		t.Fatal("unrel row not truncated")
	}
}

// TestClearRoundUnmarksOnlySenders pins the O(senders) sent-clear: clearRound
// must unset exactly the previous round's sender flags (an O(n) wipe per
// round is what it replaced) and truncate the sender list.
func TestClearRoundUnmarksOnlySenders(t *testing.T) {
	d := sparseFixture(t)
	n := d.N()
	buf := newRunBuffers(d)
	sent := make([]bool, n)
	for _, s := range []graph.NodeID{2, 41, 77} {
		sent[s] = true
		buf.senders = append(buf.senders, s)
	}
	buf.clearRound(sent)
	for i, f := range sent {
		if f {
			t.Fatalf("sent[%d] still set after clearRound", i)
		}
	}
	if len(buf.senders) != 0 {
		t.Fatal("sender list not truncated")
	}
}

// TestMaterializeReachingOrder pins the lazy CR4 list order against the
// legacy per-edge append order in both modes: reliable senders ascending
// (the reliable pass visited senders in ascending node order), then
// unreliable deliveries in sink-add order.
func TestMaterializeReachingOrder(t *testing.T) {
	check := func(t *testing.T, d *graph.Dual, senders []graph.NodeID, target graph.NodeID) {
		t.Helper()
		buf := newRunBuffers(d)
		if !buf.dense {
			buf.ensureInRows(d.G())
		}
		sent := make([]bool, d.N())
		want := []graph.NodeID{}
		for _, s := range senders {
			sent[s] = true
			buf.senders = append(buf.senders, s)
			if buf.dense {
				buf.deliverDense(s)
			} else {
				buf.addReach(s, s)
				for _, v := range d.ReliableOut(s) {
					buf.addReach(v, s)
				}
			}
			if d.G().HasEdge(s, target) {
				want = append(want, s)
			}
		}
		// Two unreliable deliveries out of ascending-sender order: they must
		// come last, in add order.
		unrel := []graph.NodeID{}
		for _, s := range senders {
			if d.HasUnreliableEdge(s, target) {
				unrel = append(unrel, s)
			}
		}
		for i := len(unrel) - 1; i >= 0; i-- {
			buf.addUnrel(target, unrel[i])
			want = append(want, unrel[i])
		}
		got := buf.materializeReaching(target, sent)
		if len(got) != len(want) {
			t.Fatalf("materialized %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("materialized %v, want %v", got, want)
			}
		}
	}

	dense, err := graph.CliqueBridge(17)
	if err != nil {
		t.Fatal(err)
	}
	// Target 3 is a non-sender inside the clique; senders reach it reliably.
	check(t, dense, []graph.NodeID{1, 4, 9}, 3)

	sparse := sparseFixture(t)
	// Line: node 10's reliable in-neighbours are 9 and 11.
	check(t, sparse, []graph.NodeID{9, 11}, 10)
}
