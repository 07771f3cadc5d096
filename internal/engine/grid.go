// Grid execution: many (network, algorithm, adversary, config) cells, each
// streamed over many trials, all sharing one worker pool. The unit of
// parallelism is a (cell, shard) pair — finer than a cell — so a grid
// parallelizes across cells and inside them at the same time: two cells
// saturate an 8-way pool, and so does one cell with enough trials.
package engine

import (
	"context"
	"fmt"
	"sync/atomic"

	"dualgraph/internal/metrics"
	"dualgraph/internal/stats"
)

// ShardKey names one (cell, shard) work unit of a grid run: cell indexes the
// cells slice, shard indexes the Shards(trials) partition. It is the key of
// checkpoint records and coordinator/worker claims.
type ShardKey struct {
	Cell  int
	Shard int
}

// ShardState is one completed work unit: the shard's identity, its trial
// range under ShardRange, and the accumulator folded over exactly those
// trials. onShard callbacks receive it the moment the shard completes; the
// Summary must be consumed (typically serialized) during the callback,
// because the engine may later mutate it as a merge destination.
type ShardState struct {
	Cell    int
	Shard   int
	TrialLo int
	TrialHi int
	Summary *TrialSummary
}

// Key returns the shard's ShardKey.
func (s ShardState) Key() ShardKey { return ShardKey{Cell: s.Cell, Shard: s.Shard} }

// RunGridStreamFromContext executes trials independent runs of every cell,
// folding each cell's results into its own streaming TrialSummary, and
// returns the summaries indexed like cells. It is the one streaming path: a
// single scenario is a one-cell grid, and a fresh (non-resumed) run passes a
// nil seed. Cell c's trial i runs with sim seed SeedFor(cells[c].Cfg.Seed, i)
// — the same rule RunMany and FoldShardContext apply — and each cell's
// shard accumulators are built over the fixed ShardRange partition and
// merged in shard order, so every returned summary is bit-identical to the
// same cell run alone, at any worker count of either call. Cells with a
// Sched run dynamically under the same derivation.
//
// Work is fanned out at (cell, shard) granularity over one pool: with C
// cells and S = Shards(trials) shards there are C·S independent units, so
// the pool stays busy whether the grid is wide (many cells) or deep (many
// trials). On error the lowest (cell, trial) pair in lexicographic order is
// reported as "engine: cell c trial i".
//
// onCell, when non-nil, is invoked once per cell the moment the cell's last
// shard finishes and its shards have been merged — i.e. while other cells
// are still running — with the cell index and its final summary. Calls come
// from worker goroutines, possibly concurrently for different cells and in
// nondeterministic cell order; each cell's summary value is nevertheless
// deterministic. Cells that never complete (error or cancellation) get no
// call, so everything a caller saw through onCell is final and would be
// byte-identical in an uninterrupted run.
//
// Cancelling ctx stops the pool at (cell, shard) granularity: claimed
// shards finish, nothing new is claimed, and the call returns ctx.Err()
// (wrapped). Completed cells have already been delivered through onCell.
//
// Checkpoint hooks: units listed in seed are taken as already reduced —
// their accumulators enter the cell's shard-order merge directly and their
// trials never run. onShard, when non-nil, observes every freshly completed
// unit (never a seeded one) from worker goroutines, possibly concurrently;
// the callback must synchronize its own state. Because the shard partition
// and the merge order are pure functions of the trial count, the returned
// summaries are bit-identical whether a unit was just folded or restored
// from a serialized checkpoint — at any worker count on either side of the
// interruption. Cells whose every shard is seeded are merged and delivered
// through onCell before the pool starts, in cell-index order. Seeded
// accumulators become part of the reduction: the caller must not retain or
// mutate them after the call starts.
func RunGridStreamFromContext(ctx context.Context, cells []Trial, trials int, cfg Config, sc StreamConfig,
	seed map[ShardKey]*TrialSummary, onShard func(ShardState),
	onCell func(cell int, sum *TrialSummary)) ([]*TrialSummary, error) {
	if trials < 0 {
		return nil, fmt.Errorf("engine: negative trial count %d", trials)
	}
	if _, err := stats.NewStream(sc.quantiles(), sc.ExactK); err != nil {
		return nil, err
	}
	shards := Shards(trials)
	for k := range seed {
		if k.Cell < 0 || k.Cell >= len(cells) || k.Shard < 0 || k.Shard >= shards {
			return nil, fmt.Errorf("engine: seeded unit (cell %d, shard %d) outside %d cells × %d shards",
				k.Cell, k.Shard, len(cells), shards)
		}
	}
	summaries := make([]*TrialSummary, len(cells))
	if len(cells) == 0 {
		return summaries, nil
	}
	if trials == 0 {
		for c := range summaries {
			summaries[c] = sc.newSummary()
			if onCell != nil {
				onCell(c, summaries[c])
			}
		}
		return summaries, nil
	}

	units := len(cells) * shards
	accs := make([]*TrialSummary, units)
	// remaining[c] counts the cell's unfinished shards; the worker that
	// drops it to zero owns the (deterministic, shard-ordered) merge and the
	// onCell delivery. Failed shards never decrement, so a failing cell is
	// never delivered.
	remaining := make([]atomic.Int32, len(cells))
	for c := range remaining {
		remaining[c].Store(int32(shards))
	}
	for k, sum := range seed {
		accs[k.Cell*shards+k.Shard] = sum
		remaining[k.Cell].Add(-1)
	}
	// Fully seeded cells never enter the pool: merge and deliver them now, in
	// cell-index order, exactly as their last worker would have.
	seededCells := 0
	for c := range cells {
		if remaining[c].Load() != 0 {
			continue
		}
		seededCells++
		dst := accs[c*shards]
		for t := 1; t < shards; t++ {
			if err := dst.Merge(accs[c*shards+t]); err != nil {
				return nil, fmt.Errorf("engine: cell %d merge: %w", c, err)
			}
		}
		summaries[c] = dst
		if onCell != nil {
			onCell(c, dst)
		}
	}
	var mergeEr trialError
	workers := min(cfg.workers(), units)

	// Instrumentation is observe-only and recorded at unit granularity; the
	// gate is read once so a mid-run toggle cannot unbalance the pending
	// gauge. Seeded units never enter the pool, so they never count as
	// pending.
	mOn := metrics.Enabled()
	var completedFresh atomic.Int64
	freshUnits := int64(units - len(seed))
	if mOn {
		mShardsSeeded.Add(int64(len(seed)))
		mUnitsPending.Add(freshUnits)
		mCellsCompleted.Add(int64(seededCells))
	}

	var (
		next    atomic.Int64
		failed  atomic.Bool
		firstEr trialError
	)
	// One code path at any worker count: the sequential case is the same
	// unit walk on a pool of one, so fold/merge rounding is identical.
	done := ctx.Done()
	work := func() {
		clock := newWorkerClock(mOn)
		defer clock.drain()
		for !failed.Load() {
			select {
			case <-done:
				return
			default:
			}
			u := int(next.Add(1)) - 1
			if u >= units {
				return
			}
			if accs[u] != nil {
				// Seeded unit: its accumulator is already in place and its
				// cell's countdown was decremented upfront.
				continue
			}
			c, s := u/shards, u%shards
			run := cells[c].runner()
			lo, hi := ShardRange(trials, s)
			acc := sc.newSummary()
			shardErr := false
			clock.beginUnit()
			for i := lo; i < hi; i++ {
				res, err := run(i)
				if err == nil {
					err = acc.fold(res)
				}
				if err != nil {
					// Global order key: all trials of cell c sort before any
					// trial of cell c+1.
					firstEr.record(c*trials+i, err)
					failed.Store(true)
					shardErr = true
					break
				}
			}
			if shardErr {
				clock.abortUnit()
				break
			}
			clock.endUnit()
			accs[u] = acc
			if mOn {
				mTrialsTotal.Add(int64(hi - lo))
				mCellTrials.With(cellLabel(c)).Add(int64(hi - lo))
				mShardsCompleted.Inc()
				mUnitsPending.Add(-1)
				completedFresh.Add(1)
			}
			if onShard != nil {
				onShard(ShardState{Cell: c, Shard: s, TrialLo: lo, TrialHi: hi, Summary: acc})
			}
			if remaining[c].Add(-1) == 0 {
				// Last shard of the cell: merge in shard-index order, so
				// the summary is byte-identical to the cell run alone, and
				// hand the finished cell to the caller.
				dst := accs[c*shards]
				for t := 1; t < shards; t++ {
					if err := dst.Merge(accs[c*shards+t]); err != nil {
						mergeEr.record(c, err)
						failed.Store(true)
						return
					}
				}
				summaries[c] = dst
				if mOn {
					mCellsCompleted.Inc()
				}
				if onCell != nil {
					onCell(c, dst)
				}
			}
		}
	}
	runPool(workers, work)
	if mOn {
		// Units abandoned by error or cancellation leave the queue with the
		// run; without this the pending gauge would leak on every failure.
		mUnitsPending.Add(completedFresh.Load() - freshUnits)
	}
	if err := firstEr.get(); err != nil {
		c, i := firstEr.index/trials, firstEr.index%trials
		return nil, fmt.Errorf("engine: cell %d trial %d: %w", c, i, err)
	}
	if err := mergeEr.get(); err != nil {
		return nil, fmt.Errorf("engine: cell %d merge: %w", mergeEr.index, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return summaries, nil
}

// FoldShardContext executes the trials [lo, hi) of one cell sequentially in
// index order, folding each result into a fresh summary — exactly the
// per-shard inner loop of RunGridStreamFromContext, with the same per-trial
// seed rule. A remote worker that runs a claimed (cell, shard) unit through
// FoldShardContext therefore produces an accumulator bit-identical to the
// one the local engine would have built, which is what makes
// coordinator/worker grids byte-equivalent to single-process runs. ctx is
// consulted between trials; cancellation abandons the shard (a claimed unit
// either completes or reports nothing).
func FoldShardContext(ctx context.Context, t Trial, lo, hi int, sc StreamConfig) (*TrialSummary, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("engine: bad trial range [%d, %d)", lo, hi)
	}
	if _, err := stats.NewStream(sc.quantiles(), sc.ExactK); err != nil {
		return nil, err
	}
	run := t.runner()
	acc := sc.newSummary()
	clock := newWorkerClock(metrics.Enabled())
	defer clock.drain()
	clock.beginUnit()
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			clock.abortUnit()
			return nil, fmt.Errorf("engine: %w", err)
		}
		res, err := run(i)
		if err == nil {
			err = acc.fold(res)
		}
		if err != nil {
			clock.abortUnit()
			return nil, fmt.Errorf("engine: trial %d: %w", i, err)
		}
	}
	clock.endUnit()
	if clock.on {
		mTrialsTotal.Add(int64(hi - lo))
		mShardsCompleted.Inc()
	}
	return acc, nil
}
