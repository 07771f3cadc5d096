// Streaming (single-pass, mergeable) summary statistics for memory-bounded
// Monte Carlo sweeps: a Stream folds values one at a time into O(1)-per-value
// state — Welford mean/variance, min/max, count — plus a quantile sketch that
// is exact up to ExactK buffered values and degrades to one P² estimator
// (Jain & Chlamtac, CACM 1985) per tracked quantile beyond that. Streams
// merge, so a trial population can be reduced shard by shard (see
// internal/engine.RunGridStreamFromContext) without ever materializing it.
//
// Accuracy contract:
//
//   - count, min, max and the completion-style tallies built on Count are
//     exact at any size;
//   - mean and variance are exact up to floating-point rounding (Welford
//     updates, Chan et al. pairwise merge);
//   - quantiles are exact (identical to Quantile on the full sample) while
//     the total count is at most ExactK, and P² estimates beyond that. P²
//     keeps five markers per target and is asymptotically consistent with
//     O(1/√n)-scale error on smooth distributions; merging two spilled
//     sketches combines markers by count-weighted interpolation, which adds
//     a second approximation of the same order. Quantile(0) and Quantile(1)
//     always return the exact min/max.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// DefaultExactK is the spill threshold used when NewStream is given
// exactK <= 0: below it quantiles are exact, above it P² takes over.
const DefaultExactK = 4096

// minExactK keeps the exact buffer large enough that a spill always fully
// initializes the five P² markers.
const minExactK = 8

// ErrUntracked is returned by Stream.Quantile after the sketch has spilled
// to P² estimators and the requested quantile is not one of the tracked
// targets (nor 0 or 1, which stay exact via min/max).
var ErrUntracked = errors.New("quantile not tracked by this stream")

// Stream is an online, mergeable summary of a float64 sample. The zero
// value is not usable; construct with NewStream. Streams are not safe for
// concurrent use — the engine gives each shard its own and merges after.
type Stream struct {
	targets []float64
	exactK  int

	count    int64
	mean, m2 float64
	min, max float64

	// exact buffers every value (in insertion order, so a spill replays
	// them deterministically) until it reaches exactK; nil once spilled.
	exact []float64
	// p2s holds one estimator per target once spilled; nil before.
	p2s []*p2
}

// NewStream returns a Stream tracking the given target quantiles with an
// exact-until-exactK sketch (exactK <= 0 means DefaultExactK). Targets must
// be in [0,1]; order is significant only for Merge compatibility, which
// requires identical (targets, exactK) configurations.
func NewStream(quantiles []float64, exactK int) (*Stream, error) {
	if exactK <= 0 {
		exactK = DefaultExactK
	}
	if exactK < minExactK {
		return nil, fmt.Errorf("stats: exactK %d below minimum %d", exactK, minExactK)
	}
	ts := make([]float64, len(quantiles))
	for i, q := range quantiles {
		if math.IsNaN(q) || q < 0 || q > 1 {
			return nil, fmt.Errorf("stats: target quantile %v out of [0,1]", q)
		}
		ts[i] = q
	}
	return &Stream{targets: ts, exactK: exactK}, nil
}

// Add folds one value into the stream. NaN is rejected with ErrNaN and
// leaves the stream unchanged.
func (s *Stream) Add(x float64) error {
	if math.IsNaN(x) {
		return ErrNaN
	}
	s.count++
	if s.count == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.count)
	s.m2 += d * (x - s.mean)

	if s.p2s == nil {
		if len(s.exact) < s.exactK {
			s.exact = append(s.exact, x)
			return nil
		}
		s.spill()
	}
	for _, p := range s.p2s {
		p.add(x)
	}
	return nil
}

// spill converts the exact buffer into one P² estimator per target,
// replaying the buffered values in insertion order.
func (s *Stream) spill() {
	s.p2s = make([]*p2, len(s.targets))
	for i, q := range s.targets {
		s.p2s[i] = &p2{q: q}
	}
	for _, v := range s.exact {
		for _, p := range s.p2s {
			p.add(v)
		}
	}
	s.exact = nil
}

// Merge folds o into s; o is left unchanged. The two streams must share the
// same configuration. Merging is deterministic: for a fixed sequence of
// merges the result is a pure function of the operand states, which is what
// lets the engine guarantee worker-count-independent aggregates by always
// merging shard accumulators in shard-index order.
func (s *Stream) Merge(o *Stream) error {
	if o == nil {
		return nil
	}
	// Check compatibility before the empty-source fast path, so a
	// misconfigured merge fails loudly regardless of operand order or of
	// which shards happened to receive values.
	if s.exactK != o.exactK || len(s.targets) != len(o.targets) {
		return fmt.Errorf("stats: merging streams with different configurations")
	}
	for i := range s.targets {
		if s.targets[i] != o.targets[i] {
			return fmt.Errorf("stats: merging streams with different quantile targets")
		}
	}
	if o.count == 0 {
		return nil
	}
	if s.count == 0 {
		*s = *o
		s.targets = append([]float64(nil), o.targets...)
		s.exact = append([]float64(nil), o.exact...)
		if o.p2s != nil {
			s.p2s = make([]*p2, len(o.p2s))
			for i, p := range o.p2s {
				s.p2s[i] = p.clone()
			}
		}
		return nil
	}

	// Moments: Chan et al. pairwise update; min/max/count are exact.
	n1, n2 := float64(s.count), float64(o.count)
	delta := o.mean - s.mean
	tot := n1 + n2
	s.mean += delta * n2 / tot
	s.m2 += o.m2 + delta*delta*n1*n2/tot
	s.count += o.count
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}

	// Quantile sketch: stay exact while the union fits in one buffer; feed
	// raw values into the spilled side when only one side has spilled; and
	// combine markers by count-weighted interpolation when both have.
	switch {
	case s.p2s == nil && o.p2s == nil:
		if len(s.exact)+len(o.exact) <= s.exactK {
			s.exact = append(s.exact, o.exact...)
			return nil
		}
		s.spill()
		feed(s.p2s, o.exact)
	case s.p2s == nil: // s still exact, o spilled: adopt o's markers, replay s.
		buf := s.exact
		s.exact = nil
		s.p2s = make([]*p2, len(o.p2s))
		for i, p := range o.p2s {
			s.p2s[i] = p.clone()
		}
		feed(s.p2s, buf)
	case o.p2s == nil: // o still exact: replay its raw values.
		feed(s.p2s, o.exact)
	default:
		for i := range s.p2s {
			s.p2s[i].merge(o.p2s[i])
		}
	}
	return nil
}

func feed(ps []*p2, xs []float64) {
	for _, x := range xs {
		for _, p := range ps {
			p.add(x)
		}
	}
}

// Snapshot returns an independent deep copy of the stream. The copy shares
// no state with the original, so a progress reporter can take a snapshot
// under the lock that guards its accumulator and then query quantiles at
// leisure while the original keeps folding — the read-only-view primitive
// behind live percentile reporting.
func (s *Stream) Snapshot() *Stream {
	c := *s
	c.targets = append([]float64(nil), s.targets...)
	c.exact = append([]float64(nil), s.exact...)
	if s.p2s != nil {
		c.p2s = make([]*p2, len(s.p2s))
		for i, p := range s.p2s {
			c.p2s[i] = p.clone()
		}
	}
	return &c
}

// Count returns the number of values folded in.
func (s *Stream) Count() int64 { return s.count }

// Exact reports whether the quantile sketch is still exact (has not spilled
// to P² estimators).
func (s *Stream) Exact() bool { return s.p2s == nil }

// Targets returns a copy of the tracked quantile targets.
func (s *Stream) Targets() []float64 { return append([]float64(nil), s.targets...) }

// Mean returns the arithmetic mean of the streamed values.
func (s *Stream) Mean() (float64, error) {
	if s.count == 0 {
		return 0, ErrEmpty
	}
	return s.mean, nil
}

// Variance returns the sample (n-1) variance of the streamed values.
func (s *Stream) Variance() (float64, error) {
	if s.count == 0 {
		return 0, ErrEmpty
	}
	if s.count < 2 {
		return 0, ErrInsufficient
	}
	return s.m2 / float64(s.count-1), nil
}

// Stddev returns the sample standard deviation of the streamed values.
func (s *Stream) Stddev() (float64, error) {
	v, err := s.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the minimum streamed value.
func (s *Stream) Min() (float64, error) {
	if s.count == 0 {
		return 0, ErrEmpty
	}
	return s.min, nil
}

// Max returns the maximum streamed value.
func (s *Stream) Max() (float64, error) {
	if s.count == 0 {
		return 0, ErrEmpty
	}
	return s.max, nil
}

// Quantile returns the q-quantile of the streamed values: exact (identical
// to the batch Quantile) while the sketch has not spilled, the P² estimate
// of a tracked target after it has, and ErrUntracked for a spilled
// non-target. q = 0 and q = 1 are always exact.
func (s *Stream) Quantile(q float64) (float64, error) {
	if s.count == 0 {
		return 0, ErrEmpty
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, errors.New("quantile out of [0,1]")
	}
	if q == 0 {
		return s.min, nil
	}
	if q == 1 {
		return s.max, nil
	}
	if s.p2s == nil {
		return Quantile(s.exact, q)
	}
	for i, t := range s.targets {
		if t == q {
			return s.p2s[i].estimate(), nil
		}
	}
	return 0, fmt.Errorf("%w: %v (tracked: %v)", ErrUntracked, q, s.targets)
}

// Median is Quantile(0.5).
func (s *Stream) Median() (float64, error) { return s.Quantile(0.5) }

// p2 is one P² quantile estimator (Jain & Chlamtac 1985): five markers
// whose heights track the min, the q/2-, q- and (1+q)/2-quantiles, and the
// max, nudged toward their desired positions after every observation with
// piecewise-parabolic interpolation.
type p2 struct {
	q     float64
	count int64
	init  [5]float64 // first five observations, before initialization
	n     [5]float64 // marker positions (1-based counts)
	np    [5]float64 // desired marker positions
	h     [5]float64 // marker heights
}

func (p *p2) clone() *p2 {
	c := *p
	return &c
}

// dn is the per-observation increment of the desired positions.
func (p *p2) dn(i int) float64 {
	switch i {
	case 1:
		return p.q / 2
	case 2:
		return p.q
	case 3:
		return (1 + p.q) / 2
	case 4:
		return 1
	}
	return 0
}

func (p *p2) add(x float64) {
	if p.count < 5 {
		p.init[p.count] = x
		p.count++
		if p.count == 5 {
			h := p.init
			sort.Float64s(h[:])
			p.h = h
			p.n = [5]float64{1, 2, 3, 4, 5}
			q := p.q
			p.np = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
		}
		return
	}
	p.count++
	// Cell k such that h[k] <= x < h[k+1], extending the extreme markers.
	var k int
	switch {
	case x < p.h[0]:
		p.h[0] = x
		k = 0
	case x >= p.h[4]:
		p.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.n[i]++
	}
	for i := 1; i < 5; i++ {
		p.np[i] += p.dn(i)
	}
	for i := 1; i <= 3; i++ {
		d := p.np[i] - p.n[i]
		if (d >= 1 && p.n[i+1]-p.n[i] > 1) || (d <= -1 && p.n[i-1]-p.n[i] < -1) {
			sgn := 1.0
			if d < 0 {
				sgn = -1
			}
			if hp := p.parabolic(i, sgn); p.h[i-1] < hp && hp < p.h[i+1] {
				p.h[i] = hp
			} else {
				p.h[i] = p.linear(i, sgn)
			}
			p.n[i] += sgn
		}
	}
}

func (p *p2) parabolic(i int, s float64) float64 {
	return p.h[i] + s/(p.n[i+1]-p.n[i-1])*
		((p.n[i]-p.n[i-1]+s)*(p.h[i+1]-p.h[i])/(p.n[i+1]-p.n[i])+
			(p.n[i+1]-p.n[i]-s)*(p.h[i]-p.h[i-1])/(p.n[i]-p.n[i-1]))
}

func (p *p2) linear(i int, s float64) float64 {
	j := i + int(s)
	return p.h[i] + s*(p.h[j]-p.h[i])/(p.n[j]-p.n[i])
}

// merge combines another fully initialized estimator into p by
// count-weighted marker interpolation: extreme markers take the true
// min/max, interior heights average by weight, positions add, and desired
// positions are recomputed for the combined count. Both operands always
// have count >= minExactK in Stream's usage, so the markers exist.
func (p *p2) merge(o *p2) {
	n1, n2 := float64(p.count), float64(o.count)
	tot := n1 + n2
	p.h[0] = math.Min(p.h[0], o.h[0])
	p.h[4] = math.Max(p.h[4], o.h[4])
	for i := 1; i <= 3; i++ {
		p.h[i] = (n1*p.h[i] + n2*o.h[i]) / tot
	}
	p.count += o.count
	m := float64(p.count)
	p.n[0] = 1
	p.n[4] = m
	for i := 1; i <= 3; i++ {
		p.n[i] += o.n[i]
	}
	// Belt and braces: restore the strictly-increasing position invariant
	// the update step relies on (the sums above preserve it in practice).
	for i := 1; i <= 3; i++ {
		if p.n[i] <= p.n[i-1] {
			p.n[i] = p.n[i-1] + 1
		}
	}
	for i := 3; i >= 1; i-- {
		if p.n[i] >= p.n[i+1] {
			p.n[i] = p.n[i+1] - 1
		}
	}
	q := p.q
	p.np = [5]float64{1, (m-1)*q/2 + 1, (m-1)*q + 1, (m-1)*(1+q)/2 + 1, m}
}

// estimate returns the current quantile estimate (the middle marker).
func (p *p2) estimate() float64 {
	if p.count < 5 {
		// Unreachable via Stream (spills replay >= minExactK values), but
		// degrade gracefully: exact over the few buffered observations.
		buf := append([]float64(nil), p.init[:p.count]...)
		v, _ := Quantile(buf, p.q)
		return v
	}
	return p.h[2]
}
