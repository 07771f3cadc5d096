package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dualgraph/internal/checkpoint"
	"dualgraph/internal/engine"
	"dualgraph/internal/spec"
)

// jobTiming is one job's timeline in now() nanoseconds: submitted, first
// cell line seen, done.
type jobTiming struct {
	submit, firstCell, done int64
}

// passStats collects the layer metrics of a traced pass that are measured
// around spec, engine and checkpoint calls rather than inside trials.
type passStats struct {
	tr *tracer

	cellsNs, buildNs int64 // summed Sweep.Cells and Scenario.Build calls
	gridNs           int64 // summed engine wall time
	workerNs         int64 // summed engine wall time × workers in use

	mu         sync.Mutex
	shards     int64
	ckRecords  int64
	ckAppendNs int64
	ckBytes    int64
	spans      []span
}

// span is one recorded interval of the traced pass, written to the trace
// file at exit. Trial spans carry their seed; all spans of one sweep share
// its id.
type span struct {
	Name   string `json:"name"`
	Sweep  int    `json:"sweep"`
	Cell   string `json:"cell,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (p *passStats) addSpan(s span) {
	p.mu.Lock()
	p.spans = append(p.spans, s)
	p.mu.Unlock()
}

// runner executes sweeps in-process, as `dgsim -spec` does.
type runner struct {
	w       workload
	ec      engine.Config
	sc      engine.StreamConfig
	workDir string
}

// run executes sweep i. With ps set it runs the traced path: the same
// Cells → Build → grid sequence spec.Sweep.StreamFrom performs, with the
// built values wrapped by ps's tracer and every layer call timed.
func (r runner) run(ctx context.Context, sw spec.Sweep, i int, ps *passStats) (*sweepResult, jobTiming) {
	res := &sweepResult{index: i, sweep: sw}
	var jt jobTiming
	jt.submit = now()
	onShard, finish, err := r.openCheckpoint(sw, i, ps)
	if err != nil {
		res.err = err
		jt.done = now()
		return res, jt
	}
	onCell := func(label string, sum *engine.TrialSummary) {
		if jt.firstCell == 0 {
			jt.firstCell = now()
		}
		res.lines = append(res.lines, label+": "+spec.FormatSummary(sum))
	}
	if ps == nil {
		_, err = sw.StreamFrom(ctx, r.ec, r.sc, nil, onShard, func(cr spec.CellResult) {
			onCell(cr.Cell.Label, cr.Summary)
		})
	} else {
		err = r.runTraced(ctx, sw, i, ps, onShard, onCell)
	}
	if cerr := finish(); err == nil {
		err = cerr
	}
	res.err = err
	jt.done = now()
	if ps != nil {
		ps.addSpan(span{Name: "sweep", Sweep: i, Start: jt.submit, End: jt.done})
	}
	return res, jt
}

// openCheckpoint creates the sweep's checkpoint file when the workload
// checkpoints, returning the shard hook and a function that closes and
// removes the file. With ps set, appends are counted and timed.
func (r runner) openCheckpoint(sw spec.Sweep, i int, ps *passStats) (func(engine.ShardState), func() error, error) {
	var onShard func(engine.ShardState)
	if ps != nil {
		onShard = func(engine.ShardState) {
			ps.mu.Lock()
			ps.shards++
			ps.mu.Unlock()
		}
	}
	if !r.w.checkpoint {
		return onShard, func() error { return nil }, nil
	}
	hash, err := sw.Hash()
	if err != nil {
		return nil, nil, err
	}
	cells, err := sw.Cells()
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(r.workDir, fmt.Sprintf("sweep-%d.ckpt", i))
	wr, err := checkpoint.Create(path, checkpoint.MetaFor(hash, len(cells), sw.Trials, r.sc))
	if err != nil {
		return nil, nil, err
	}
	var mu sync.Mutex
	var appendErr error
	hook := func(st engine.ShardState) {
		t0 := now()
		err := wr.Append(checkpoint.Record{Cell: st.Cell, Shard: st.Shard, TrialLo: st.TrialLo, TrialHi: st.TrialHi, Summary: st.Summary})
		if ps != nil {
			t1 := now()
			ps.mu.Lock()
			ps.shards++
			ps.ckRecords++
			ps.ckAppendNs += t1 - t0
			ps.spans = append(ps.spans, span{Name: "checkpoint.append", Sweep: i, Start: t0, End: t1})
			ps.mu.Unlock()
		}
		if err != nil {
			mu.Lock()
			if appendErr == nil {
				appendErr = err
			}
			mu.Unlock()
		}
	}
	finish := func() error {
		if ps != nil {
			if fi, err := os.Stat(path); err == nil {
				ps.mu.Lock()
				ps.ckBytes += fi.Size()
				ps.mu.Unlock()
			}
		}
		err := wr.Close()
		if rerr := os.Remove(path); err == nil {
			err = rerr
		}
		mu.Lock()
		defer mu.Unlock()
		if appendErr != nil {
			return fmt.Errorf("checkpoint: %w", appendErr)
		}
		return err
	}
	return hook, finish, nil
}

// runTraced is spec.Sweep.StreamFrom with the built values wrapped: cells
// are built in parallel on the engine pool, then run as one grid. Cells are
// delivered in enumeration order once the grid returns.
func (r runner) runTraced(ctx context.Context, sw spec.Sweep, i int, ps *passStats,
	onShard func(engine.ShardState), onCell func(string, *engine.TrialSummary)) error {
	t0 := now()
	cells, err := sw.Cells()
	t1 := now()
	ps.cellsNs += t1 - t0
	ps.addSpan(span{Name: "spec.cells", Sweep: i, Parent: "sweep", Start: t0, End: t1})
	if err != nil {
		return err
	}
	var buildNs int64
	var mu sync.Mutex
	built, err := engine.MapContext(ctx, len(cells), r.ec, func(c int) (engine.Trial, error) {
		b0 := now()
		b, err := cells[c].Scenario.Build()
		b1 := now()
		mu.Lock()
		buildNs += b1 - b0
		mu.Unlock()
		ps.addSpan(span{Name: "spec.build", Sweep: i, Cell: cells[c].Label, Parent: "sweep", Start: b0, End: b1})
		if err != nil {
			return engine.Trial{}, fmt.Errorf("cell %s: %w", cells[c].Label, err)
		}
		sched, alg, adv := ps.tr.wrap(i, cells[c].Label, b.Sched, b.Alg, b.Adv)
		return engine.Trial{Net: b.Net, Sched: sched, Alg: alg, Adv: adv, Cfg: b.Cfg}, nil
	})
	ps.buildNs += buildNs
	if err != nil {
		return err
	}
	g0 := now()
	sums, err := engine.RunGridStreamFromContext(ctx, built, sw.Trials, r.ec, r.sc, nil, onShard, nil)
	g1 := now()
	ps.tr.finish()
	ps.addSpan(span{Name: "engine.grid", Sweep: i, Parent: "sweep", Start: g0, End: g1})
	ps.gridNs += g1 - g0
	ps.workerNs += (g1 - g0) * int64(min(r.ec.Workers, len(cells)*engine.Shards(sw.Trials)))
	if err != nil {
		return err
	}
	for c, sum := range sums {
		onCell(cells[c].Label, sum)
	}
	return nil
}
