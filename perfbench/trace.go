package main

// Outside-in tracing for the traced pass. The benchmark cannot record spans
// inside the program, so it wraps the values a sweep hands to the simulator
// — the algorithm and its processes, the adversary, the epoch schedule — and
// records counts and times at those call boundaries:
//
//   - every call is counted exactly;
//   - cold calls (epoch materialization, AssignProcs, NewProcess) are all
//     timed;
//   - hot calls (Decide, Receive, Start, DeliverInto, Resolve) are timed on a
//     deterministic 1-in-sampleEvery sample and scaled by calls/sampled.
//
// A trial is keyed by its seed: Schedule.Epoch(0, seed) is the first thing
// sim.RunDynamic does, and the adversary's per-run fork receives the same
// seed in its config. The fork also binds the trial to the worker goroutine
// running it, so the source process — the one started with the message —
// can find its trial and mark the end of set-up (its first Decide) and the
// end of the round loop (its last Receive).
//
// The wrappers only forward: every argument and result passes through
// unchanged, so a traced sweep's cell lines are byte-identical to an
// untraced one (checked on every traced pass).

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// sampleEvery is the hot-call sampling period.
const sampleEvery = 16

// epoch0 anchors the monotonic clock used by every span.
var epoch0 = time.Now()

// now returns monotonic nanoseconds since epoch0.
func now() int64 { return int64(time.Since(epoch0)) }

// clockCost is the median time between two back-to-back now() calls: what a
// timed call's interval holds beyond the call itself.
var clockCost = func() int64 {
	d := make([]float64, 2001)
	for i := range d {
		t0 := now()
		d[i] = float64(now() - t0)
	}
	return int64(quantile(d, 0.5))
}()

// sampled reports whether the hot call of process pid in round is timed: a
// pure function of the two, so the sample is the same on every run.
func sampled(pid, round int) bool { return (pid*7+round)%sampleEvery == 0 }

// goid returns the calling goroutine's id, parsed from the header line
// runtime.Stack writes ("goroutine 42 [running]:"). It costs microseconds,
// so it is called only twice per trial.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// hotCounter counts one kind of hot call and the sampled time spent in it.
type hotCounter struct {
	calls, sampledCalls, sampledNs int64
}

// seconds scales the sampled time to all calls.
func (h hotCounter) seconds() float64 {
	if h.sampledCalls == 0 {
		return 0
	}
	return float64(h.sampledNs) * float64(h.calls) / float64(h.sampledCalls) / 1e9
}

// tick counts a call and reports whether to time it: the first call of a
// trial and every sampleEvery-th after it.
func (h *hotCounter) tick() bool {
	h.calls++
	return (h.calls-1)%sampleEvery == 0
}

// sample records one timed call that started at t0, less the cost of
// reading the clock.
func (h *hotCounter) sample(t0 int64) {
	h.sampledNs += now() - t0 - clockCost
	h.sampledCalls++
}

func (h *hotCounter) add(o hotCounter) {
	h.calls += o.calls
	h.sampledCalls += o.sampledCalls
	h.sampledNs += o.sampledNs
}

// procCounters are one process's call counters. Only the goroutine running
// the process's trial touches them, so they are plain fields; the cell folds
// them in when its sweep's grid has returned.
type procCounters struct {
	decide, receive, start hotCounter
	sends                  int64
}

func (c *procCounters) add(o *procCounters) {
	c.decide.add(o.decide)
	c.receive.add(o.receive)
	c.start.add(o.start)
	c.sends += o.sends
}

// trialRec is one trial's span and the counters only its own goroutine
// touches. Times are now() values; zero means "not seen".
type trialRec struct {
	cell *cellTrace
	seed int64

	start, firstDecide, end int64

	assignNs         int64
	deliver, resolve hotCounter
	epochCalls       int64
	epochSwaps       int64
	epochNs          int64
	lastDual         *graph.Dual // released when the trial closes
	rounds           int64       // the source's Receive calls: one per round run
	closed           bool
	setupNs, loopNs  int64 // filled by close
	spanOK           bool
}

// cellTrace collects the trials of one grid cell.
type cellTrace struct {
	tr    *tracer
	sweep int
	label string

	mu                      sync.Mutex          // guards the fields below
	open                    map[int64]*trialRec // trials by seed, until closed
	trials                  []*trialRec
	newProcCalls, newProcNs int64
	live                    []*procCounters // processes of the running grid
	procs                   procCounters    // folded from finished grids
}

// tracer is the state of one traced pass.
type tracer struct {
	mu    sync.Mutex
	byG   map[int64]*trialRec // goroutine id → trial it is running
	cells []*cellTrace
}

func newTracer() *tracer { return &tracer{byG: make(map[int64]*trialRec)} }

// wrap returns traced stand-ins for one built cell's schedule, algorithm
// and adversary.
func (t *tracer) wrap(sweep int, label string, sched graph.Schedule, alg sim.Algorithm, adv sim.Adversary) (graph.Schedule, sim.Algorithm, sim.Adversary) {
	c := &cellTrace{tr: t, sweep: sweep, label: label, open: make(map[int64]*trialRec)}
	t.mu.Lock()
	t.cells = append(t.cells, c)
	t.mu.Unlock()
	return &tracedSched{inner: sched, cell: c}, &tracedAlg{inner: alg, cell: c}, &tracedAdv{inner: adv, cell: c}
}

// bind records that the calling goroutine now runs rec (nil: an untraced
// run), closing the trial it ran before — whose round loop has ended by the
// time the next one forks.
func (t *tracer) bind(rec *trialRec) {
	id := goid()
	t.mu.Lock()
	prev := t.byG[id]
	t.byG[id] = rec
	t.mu.Unlock()
	if prev != nil {
		prev.cell.close(prev)
	}
}

// current returns the trial the calling goroutine runs.
func (t *tracer) current() *trialRec {
	id := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byG[id]
}

// finish closes every trial still open and folds the process counters;
// call after the grid returned.
func (t *tracer) finish() {
	t.mu.Lock()
	byG := t.byG
	t.byG = make(map[int64]*trialRec)
	t.mu.Unlock()
	for _, rec := range byG {
		rec.cell.close(rec)
	}
	for _, c := range t.cells {
		c.mu.Lock()
		for _, pc := range c.live {
			c.procs.add(pc)
		}
		c.live = nil
		c.mu.Unlock()
	}
}

func (c *cellTrace) begin(seed, start int64, d *graph.Dual) {
	rec := &trialRec{cell: c, seed: seed, start: start, lastDual: d}
	c.mu.Lock()
	c.open[seed] = rec
	c.trials = append(c.trials, rec)
	c.mu.Unlock()
}

func (c *cellTrace) lookup(seed int64) *trialRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.open[seed]
}

// close ends rec's span and drops its references, so a finished trial
// retains no epoch network.
func (c *cellTrace) close(rec *trialRec) {
	c.mu.Lock()
	if c.open[rec.seed] == rec {
		delete(c.open, rec.seed)
	}
	c.mu.Unlock()
	if rec.closed {
		return
	}
	rec.closed = true
	rec.lastDual = nil
	if rec.firstDecide > 0 && rec.end >= rec.firstDecide {
		rec.setupNs = rec.firstDecide - rec.start
		rec.loopNs = rec.end - rec.firstDecide
		rec.spanOK = true
	}
}

// tracedSched forwards a graph.Schedule, opening a trial at epoch 0 and
// timing every later epoch materialization.
type tracedSched struct {
	inner graph.Schedule
	cell  *cellTrace
}

func (s *tracedSched) N() int           { return s.inner.N() }
func (s *tracedSched) EpochLength() int { return s.inner.EpochLength() }

func (s *tracedSched) Epoch(e int, seed int64) (*graph.Dual, error) {
	if e == 0 {
		start := now()
		d, err := s.inner.Epoch(0, seed)
		if err == nil {
			s.cell.begin(seed, start, d)
		}
		return d, err
	}
	rec := s.cell.lookup(seed)
	t0 := now()
	d, err := s.inner.Epoch(e, seed)
	dt := now() - t0
	if rec != nil {
		rec.epochCalls++
		rec.epochNs += dt
		if err == nil && d != rec.lastDual {
			rec.epochSwaps++
			rec.lastDual = d
		}
	}
	return d, err
}

// tracedAlg forwards a sim.Algorithm and wraps every process it creates.
type tracedAlg struct {
	inner sim.Algorithm
	cell  *cellTrace
}

func (a *tracedAlg) Name() string { return a.inner.Name() }

func (a *tracedAlg) NewProcess(id, n int, rng *rand.Rand) sim.Process {
	t0 := now()
	p := a.inner.NewProcess(id, n, rng)
	dt := now() - t0
	pc := new(procCounters)
	a.cell.mu.Lock()
	a.cell.newProcCalls++
	a.cell.newProcNs += dt
	a.cell.live = append(a.cell.live, pc)
	a.cell.mu.Unlock()
	return &tracedProc{inner: p, cell: a.cell, c: pc, pid: id}
}

// tracedProc forwards a sim.Process. Only the source process knows its
// trial (bound when it starts holding the message); it marks set-up end at
// its first Decide and round-loop end at every Receive.
type tracedProc struct {
	inner sim.Process
	cell  *cellTrace
	c     *procCounters
	pid   int
	trial *trialRec
}

func (p *tracedProc) Start(round int, hasMessage bool) {
	if hasMessage {
		p.trial = p.cell.tr.current()
		if p.trial != nil && p.trial.closed {
			p.trial = nil
		}
	}
	p.c.start.calls++
	if !sampled(p.pid, round) {
		p.inner.Start(round, hasMessage)
		return
	}
	t0 := now()
	p.inner.Start(round, hasMessage)
	p.c.start.sample(t0)
}

func (p *tracedProc) Decide(round int) bool {
	if p.trial != nil && p.trial.firstDecide == 0 {
		p.trial.firstDecide = now()
	}
	p.c.decide.calls++
	var sends bool
	if !sampled(p.pid, round) {
		sends = p.inner.Decide(round)
	} else {
		t0 := now()
		sends = p.inner.Decide(round)
		p.c.decide.sample(t0)
	}
	if sends {
		p.c.sends++
	}
	return sends
}

func (p *tracedProc) Receive(round int, r sim.Reception) {
	p.c.receive.calls++
	if sampled(p.pid, round) {
		t0 := now()
		p.inner.Receive(round, r)
		p.c.receive.sample(t0)
	} else {
		p.inner.Receive(round, r)
	}
	if p.trial != nil {
		p.trial.rounds++
		p.trial.end = now()
	}
}

// tracedAdv forwards a sim.Adversary. It is always a sim.RunForker — its
// fork is the per-run hook that binds a trial — and it calls the wrapped
// adversary's ForkRun exactly when that implements sim.RunForker.
type tracedAdv struct {
	inner sim.Adversary
	cell  *cellTrace
}

func (a *tracedAdv) Name() string { return a.inner.Name() }
func (a *tracedAdv) AssignProcs(d *graph.Dual, rng *rand.Rand) ([]int, error) {
	return a.inner.AssignProcs(d, rng)
}
func (a *tracedAdv) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return a.inner.Deliver(v, senders)
}
func (a *tracedAdv) Resolve(v *sim.View, node graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	return a.inner.Resolve(v, node, reaching)
}

func (a *tracedAdv) ForkRun(sched graph.Schedule, alg sim.Algorithm, cfg sim.Config) (sim.Adversary, error) {
	inner := a.inner
	if f, ok := inner.(sim.RunForker); ok {
		var err error
		if inner, err = f.ForkRun(sched, alg, cfg); err != nil || inner == nil {
			return inner, err
		}
	}
	rec := a.cell.lookup(cfg.Seed)
	a.cell.tr.bind(rec)
	if rec == nil {
		// Not started through Epoch(0): run untraced rather than guess.
		return inner, nil
	}
	run := &runAdv{inner: inner, rec: rec}
	if b, ok := inner.(sim.BufferedDeliverer); ok {
		return &runAdvBuffered{runAdv: run, buffered: b}, nil
	}
	return run, nil
}

// runAdv is one trial's adversary: its counters belong to the trial.
type runAdv struct {
	inner sim.Adversary
	rec   *trialRec
}

func (r *runAdv) Name() string { return r.inner.Name() }

func (r *runAdv) AssignProcs(d *graph.Dual, rng *rand.Rand) ([]int, error) {
	t0 := now()
	procOf, err := r.inner.AssignProcs(d, rng)
	r.rec.assignNs += now() - t0
	return procOf, err
}

func (r *runAdv) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	if !r.rec.deliver.tick() {
		return r.inner.Deliver(v, senders)
	}
	t0 := now()
	m := r.inner.Deliver(v, senders)
	r.rec.deliver.sample(t0)
	return m
}

func (r *runAdv) Resolve(v *sim.View, node graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	if !r.rec.resolve.tick() {
		return r.inner.Resolve(v, node, reaching)
	}
	t0 := now()
	choice := r.inner.Resolve(v, node, reaching)
	r.rec.resolve.sample(t0)
	return choice
}

// runAdvBuffered is runAdv for adversaries with the buffered delivery path.
type runAdvBuffered struct {
	*runAdv
	buffered sim.BufferedDeliverer
}

func (r *runAdvBuffered) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	if !r.rec.deliver.tick() {
		r.buffered.DeliverInto(v, senders, sink)
		return
	}
	t0 := now()
	r.buffered.DeliverInto(v, senders, sink)
	r.rec.deliver.sample(t0)
}
