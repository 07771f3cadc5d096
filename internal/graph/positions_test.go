package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// dualFromPositionsReference is the generic construction of the geometric
// dual: the same cell-grid pair enumeration as DualFromPositions, but every
// edge goes through a Builder arc log, G' is a Clone of G's log plus the
// unreliable pairs, and NewDual freezes (sorts and deduplicates) both. It is
// the readable statement DualFromPositions' direct CSR fill must reproduce
// exactly.
func dualFromPositionsReference(xs, ys []float64, rReliable, rUnreliable float64, source NodeID) (*Dual, error) {
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
	dist := func(u, v int) float64 {
		return math.Hypot(xs[u]-xs[v], ys[u]-ys[v])
	}
	g := NewBuilder(n, false)
	for u := 0; u+1 < n; u++ {
		g.MustAddEdge(NodeID(u), NodeID(u+1))
	}

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
	buckets := make([][]int32, side*side)
	for u := 0; u < n; u++ {
		c := cellOf(ys[u])*side + cellOf(xs[u])
		buckets[c] = append(buckets[c], int32(u))
	}

	var unreliable [][2]NodeID
	for u := 0; u < n; u++ {
		cx, cy := cellOf(xs[u]), cellOf(ys[u])
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x2, y2 := cx+dx, cy+dy
				if x2 < 0 || x2 >= side || y2 < 0 || y2 >= side {
					continue
				}
				for _, w := range buckets[y2*side+x2] {
					v := int(w)
					if v <= u {
						continue
					}
					d := dist(u, v)
					if d <= rReliable {
						g.MustAddEdge(NodeID(u), NodeID(v))
					} else if d <= rUnreliable {
						unreliable = append(unreliable, [2]NodeID{NodeID(u), NodeID(v)})
					}
				}
			}
		}
	}
	gp := g.Clone()
	for _, e := range unreliable {
		gp.MustAddEdge(e[0], e[1])
	}
	return NewDual(g, gp, source)
}

// checkDualFromPositions requires DualFromPositions and the reference to
// agree exactly: reflect.DeepEqual Duals (all three CSR cores and the
// EdgeID decoding table), or errors with identical text.
func checkDualFromPositions(t *testing.T, xs, ys []float64, rRel, rUnrel float64, source NodeID) {
	t.Helper()
	got, gotErr := DualFromPositions(xs, ys, rRel, rUnrel, source)
	want, wantErr := dualFromPositionsReference(xs, ys, rRel, rUnrel, source)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("n=%d rRel=%v rUnrel=%v source=%d: error %v, reference error %v",
			len(xs), rRel, rUnrel, source, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d rRel=%v rUnrel=%v source=%d: Dual differs from the reference\nxs=%v\nys=%v",
			len(xs), rRel, rUnrel, source, xs, ys)
	}
}

// TestDualFromPositionsMatchesReference is the property test of the direct
// CSR construction over 3000 random position sets: uniform placements,
// placements snapped to a coarse lattice (coincident points, coordinates at
// exactly 0 and 1), and radii from degenerate (0, negative, equal) to small
// enough that the bucket grid has side > 1.
func TestDualFromPositionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	radii := [][2]float64{
		{0.28, 0.7}, {0.1, 0.3}, {0.05, 0.12}, {0.02, 0.04}, {0.3, 0.3},
		{0, 0}, {0, 0.2}, {-1, -0.5}, {-0.5, 0.25}, {1.5, 2}, {0.001, 0.002},
	}
	for i := 0; i < 3000; i++ {
		n := 2 + rng.Intn(63)
		xs, ys := make([]float64, n), make([]float64, n)
		lattice := 0
		if i%2 == 1 {
			lattice = 1 + rng.Intn(6) // few distinct coordinates: many coincident points
		}
		for v := range xs {
			if lattice > 0 {
				xs[v] = float64(rng.Intn(lattice+1)) / float64(lattice)
				ys[v] = float64(rng.Intn(lattice+1)) / float64(lattice)
			} else {
				xs[v], ys[v] = rng.Float64(), rng.Float64()
			}
		}
		r := radii[rng.Intn(len(radii))]
		switch i % 5 {
		case 0:
			a, b := rng.Float64()*0.5, rng.Float64()*0.5
			r = [2]float64{math.Min(a, b), math.Max(a, b)}
		case 2:
			// Radii at exactly the distance of some pair: the link test's
			// d <= r boundary.
			dist := func() float64 {
				u, v := rng.Intn(n), rng.Intn(n)
				return math.Hypot(xs[u]-xs[v], ys[u]-ys[v])
			}
			a, b := dist(), dist()
			r = [2]float64{math.Min(a, b), math.Max(a, b)}
		}
		checkDualFromPositions(t, xs, ys, r[0], r[1], NodeID(rng.Intn(n)))
	}
}

// TestRadiusTestMatchesHypot checks the squared-distance shortcut of the
// link test against the plain math.Hypot(dx, dy) <= r comparison, at radii
// placed just inside and just outside the 1e-9 band around the pair's own
// distance (where the shortcut decides without Hypot), at the distance
// itself and one ulp either side, and at offset magnitudes from subnormal
// to 1e160, where squares under- or overflow.
func TestRadiusTestMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scales := []float64{1, 1e-3, 1e-80, 1e-120, 1e-160, 1e-310, 1e90, 1e120, 1e160}
	special := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-100, 1e100, 5e-324, math.MaxFloat64}
	for i := 0; i < 200000; i++ {
		sc := scales[rng.Intn(len(scales))]
		dx, dy := (2*rng.Float64()-1)*sc, (2*rng.Float64()-1)*sc
		if i%7 == 0 {
			dy = 0
		}
		h := math.Hypot(dx, dy)
		var r float64
		switch i % 5 {
		case 0:
			r = h
		case 1:
			r = math.Nextafter(h, math.Inf(1))
		case 2:
			r = math.Nextafter(h, 0)
		case 3:
			// Relative offsets from 1e-11 to 1e-7, either sign: both sides
			// of the band edge (5e-10 relative in distance).
			off := math.Pow(10, -11+4*rng.Float64())
			if rng.Intn(2) == 0 {
				off = -off
			}
			r = h * (1 + off)
		default:
			r = special[rng.Intn(len(special))]
		}
		if got, want := newRadiusTest(r).within(dx, dy, dx*dx+dy*dy), h <= r; got != want {
			t.Fatalf("dx=%v dy=%v r=%v: within = %v, Hypot <= r = %v", dx, dy, r, got, want)
		}
	}
}

// TestDualFromPositionsEdgeCases pins the corners the property test may
// draw only rarely, including every validation error.
func TestDualFromPositionsEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		xs, ys     []float64
		rRel, rUnr float64
		source     NodeID
	}{
		{"n=2 apart", []float64{0, 1}, []float64{0, 1}, 0.1, 0.2, 0},
		{"n=2 close", []float64{0.5, 0.5}, []float64{0.5, 0.6}, 0.01, 0.2, 1},
		{"coincident", []float64{0.3, 0.3, 0.3, 0.3}, []float64{0.7, 0.7, 0.7, 0.7}, 0, 0, 2},
		{"corners", []float64{0, 1, 0, 1, 0.5}, []float64{0, 0, 1, 1, 0.5}, 0.5, 0.75, 4},
		{"corners side>1", []float64{0, 1, 0, 1, 0.5, 0.49, 0.51}, []float64{0, 0, 1, 1, 0.5, 0.5, 0.5}, 0.01, 0.02, 0},
		{"equal radii", []float64{0.1, 0.2, 0.3, 0.9}, []float64{0.1, 0.1, 0.1, 0.9}, 0.15, 0.15, 0},
		{"zero radii", []float64{0.1, 0.2, 0.3}, []float64{0.1, 0.1, 0.1}, 0, 0, 0},
		{"negative radii", []float64{0.1, 0.2, 0.3}, []float64{0.1, 0.1, 0.1}, -2, -1, 0},
		{"negative reliable", []float64{0.1, 0.2, 0.3, 0.12}, []float64{0.1, 0.1, 0.1, 0.1}, -1, 0.5, 1},
		{"path pair unreliable by distance", []float64{0, 0.5, 0.52}, []float64{0, 0, 0}, 0.1, 0.6, 0},
		{"n=1", []float64{0.5}, []float64{0.5}, 0.1, 0.2, 0},
		{"n=0", nil, nil, 0.1, 0.2, 0},
		{"ragged", []float64{0.1, 0.2, 0.3}, []float64{0.1, 0.2}, 0.1, 0.2, 0},
		{"radii inverted", []float64{0.1, 0.2}, []float64{0.1, 0.2}, 0.3, 0.2, 0},
		{"source out of range", []float64{0.1, 0.2}, []float64{0.1, 0.2}, 0.1, 0.2, 2},
		{"source negative", []float64{0.1, 0.2}, []float64{0.1, 0.2}, 0.1, 0.2, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkDualFromPositions(t, c.xs, c.ys, c.rRel, c.rUnr, c.source)
		})
	}
}

// FuzzDualFromPositions drives the same comparison from arbitrary bytes:
// each 4-byte group is one node's (x, y) on a 65536-step lattice of the unit
// square, both ends included, so coincident points and coordinates at
// exactly 0 and 1 are reachable. The radii are arbitrary float64 values
// (NaN, infinities and negatives included).
func FuzzDualFromPositions(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255}, 0.28, 0.7, int16(0))
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4}, 0.0, 0.0, int16(1))
	f.Add([]byte{0, 0, 0, 0, 0, 16, 0, 16, 0, 32, 0, 32, 255, 255, 0, 0, 128, 0, 128, 0}, 0.01, 0.03, int16(4))
	f.Add([]byte{9, 9, 9, 9, 200, 1, 7, 7, 3, 3, 3, 3}, -1.0, 0.5, int16(2))
	f.Add([]byte{9, 9, 9, 9}, 0.1, 0.2, int16(0))
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80}, 0.2, 0.1, int16(9))
	f.Fuzz(func(t *testing.T, data []byte, rRel, rUnrel float64, source int16) {
		n := len(data) / 4
		if n > 96 {
			n = 96
		}
		xs, ys := make([]float64, n), make([]float64, n)
		for v := 0; v < n; v++ {
			p := data[4*v:]
			xs[v] = float64(uint16(p[0])<<8|uint16(p[1])) / 65535
			ys[v] = float64(uint16(p[2])<<8|uint16(p[3])) / 65535
		}
		checkDualFromPositions(t, xs, ys, rRel, rUnrel, NodeID(source))
	})
}
