package graph

import (
	"math/rand"
	"testing"
)

// randomArcs generates a reproducible edge workload for the construction
// benchmarks: m undirected edges over n nodes.
func randomArcs(n, m int, seed int64) [][2]NodeID {
	rng := rand.New(rand.NewSource(seed))
	arcs := make([][2]NodeID, 0, m)
	for len(arcs) < m {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v {
			arcs = append(arcs, [2]NodeID{u, v})
		}
	}
	return arcs
}

// BenchmarkGraphConstruction compares the historical map[edge]struct{} +
// ragged-adjacency builder (reimplemented here as the reference) against the
// Builder→Freeze CSR pipeline on the same 150k-edge workload. The CSR path
// must show materially lower bytes/op and allocs/op.
func BenchmarkGraphConstruction(b *testing.B) {
	const n, m = 20000, 150000
	arcs := randomArcs(n, m, 1)
	b.Run("map-builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := newRefGraph(n)
			for _, a := range arcs {
				g.addEdge(a[0], a[1])
			}
			if len(g.edges) == 0 {
				b.Fatal("empty graph")
			}
		}
	})
	b.Run("csr-builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bd := NewBuilder(n, false)
			for _, a := range arcs {
				bd.MustAddEdge(a[0], a[1])
			}
			if bd.Freeze().NumEdges() == 0 {
				b.Fatal("empty graph")
			}
		}
	})
}

// denseFringeDual builds the 10k-node membership stress network: a reliable
// path backbone under a G' star, so the hub's unreliable fringe row holds
// ~10k arcs — the worst case for the old linear-scan membership test.
func denseFringeDual(b *testing.B, n int) *Dual {
	b.Helper()
	g := NewBuilder(n, false)
	for u := 0; u+1 < n; u++ {
		g.MustAddEdge(NodeID(u), NodeID(u+1))
	}
	gp := g.Clone()
	for v := 2; v < n; v++ {
		gp.MustAddEdge(0, NodeID(v))
	}
	d, err := NewDual(g, gp, 0)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// linearScanHasUnreliable is the pre-index membership test: walk the
// sender's whole unreliable row. Kept as the benchmark baseline.
func linearScanHasUnreliable(d *Dual, from, to NodeID) bool {
	for _, v := range d.UnreliableOut(from) {
		if v == to {
			return true
		}
	}
	return false
}

// BenchmarkUnreliableMembership is the regression guard for the
// GreedyCollider-style membership test on a dense fringe: the edge-indexed
// O(log d) path must beat the O(d) scan by orders of magnitude at d ≈ 10k.
func BenchmarkUnreliableMembership(b *testing.B) {
	const n = 10000
	d := denseFringeDual(b, n)
	if deg := len(d.UnreliableOut(0)); deg < n-2 {
		b.Fatalf("hub fringe degree = %d, want ~%d", deg, n-2)
	}
	probes := make([]NodeID, 512)
	rng := rand.New(rand.NewSource(2))
	for i := range probes {
		probes[i] = NodeID(rng.Intn(n))
	}
	b.Run("linear-scan", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if linearScanHasUnreliable(d, 0, probes[i%len(probes)]) {
				hits++
			}
		}
		_ = hits
	})
	b.Run("edge-index", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if d.HasUnreliableEdge(0, probes[i%len(probes)]) {
				hits++
			}
		}
		_ = hits
	})
}

// BenchmarkGeometricBuild100k is the construction half of the 100k-node
// stress path: the cell-bucketed pair walk, the two counting passes that
// fill G and G' as sorted CSR, and the fringe subtraction, ~2.7M arcs end
// to end. The historical all-pairs loop would perform 5·10^9 distance
// evaluations here.
func BenchmarkGeometricBuild100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := Geometric(100_000, 0.004, 0.009, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		if d.NumUnreliable() == 0 {
			b.Fatal("no unreliable arcs")
		}
	}
}

// BenchmarkPreferentialAttachmentBuild100k covers the scale-free generator
// at the same scale (m=3 links per node, half unreliable).
func BenchmarkPreferentialAttachmentBuild100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := PreferentialAttachment(100_000, 3, 0.5, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		if d.NumUnreliable() == 0 {
			b.Fatal("no unreliable arcs")
		}
	}
}
