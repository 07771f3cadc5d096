// Package engine is the sharded, deterministic Monte-Carlo trial engine.
// It fans independent trials out over a fixed worker pool (GOMAXPROCS-sized
// by default) using a batched work queue, while guaranteeing that results —
// and the first error, if any — are bit-identical regardless of the worker
// count or the goroutine schedule.
//
// Determinism rests on two rules:
//
//  1. every trial derives its randomness only from the base seed and its
//     trial index, via SeedFor(baseSeed, index), never from shared RNG
//     state or wall-clock time; and
//  2. trial i's result is written to slot i of a preallocated result slice,
//     so the output order is the input order no matter which worker ran it.
//
// There is one way to run each kind of work: MapContext (and RunMany, its
// trial-runner instance) materializes one result per index;
// RunGridStreamFromContext streams any number of cells into mergeable
// summaries and resumes from checkpointed shards (a single scenario is a
// one-cell grid, a fresh run passes a nil seed); FoldShardContext folds one
// (cell, shard) unit for a remote worker.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// Config parameterizes the worker pool. The zero value is ready to use: one
// worker per logical CPU.
type Config struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SeedFor derives the RNG seed of one trial as a SplitMix64-style mix of
// the base seed and the trial index. The derivation is a pure function of
// (base, trial) — which is what makes engine runs reproducible at any
// worker count — and, unlike a plain base^trial XOR, it decorrelates the
// trial-seed sets of nearby base seeds: replications run with different
// base seeds are statistically independent rather than permutations of the
// same trials.
func SeedFor(base int64, trial int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(trial)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// trialError carries the error of the lowest-indexed failing trial, so the
// reported error is deterministic even when several trials fail.
type trialError struct {
	mu    sync.Mutex
	index int
	err   error
}

func (te *trialError) record(index int, err error) {
	te.mu.Lock()
	if te.err == nil || index < te.index {
		te.index, te.err = index, err
	}
	te.mu.Unlock()
}

func (te *trialError) get() error {
	te.mu.Lock()
	defer te.mu.Unlock()
	return te.err
}

// MapContext runs fn for every trial index 0..n-1 across the worker pool
// and returns the results in index order. fn must be safe for concurrent
// invocation and must derive any randomness from its trial index alone
// (typically via SeedFor). On error MapContext returns the error of the
// lowest-indexed failing trial (wrapped with that index) and stops claiming
// new batches; trials already claimed still finish.
//
// Cancelling ctx stops the pool at batch granularity: workers finish the
// batch they claimed and claim no more, and MapContext returns ctx.Err()
// (wrapped, so errors.Is(err, context.Canceled) works). A trial error takes
// precedence over cancellation in the returned error, keeping the reported
// failure deterministic.
func MapContext[T any](ctx context.Context, n int, cfg Config, fn func(trial int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("engine: negative trial count %d", n)
	}
	if n == 0 {
		return []T{}, nil
	}
	workers := min(cfg.workers(), n)
	// Workers claim batches of consecutive indices: ~8 batches per worker
	// so slow trials rebalance, capped to keep the atomic counter cold on
	// large trial counts. The batch size never affects results.
	batch := min(max(n/(workers*8), 1), 64)
	results := make([]T, n)
	var (
		next    atomic.Int64
		failed  atomic.Bool
		firstEr trialError
	)
	done := ctx.Done()
	work := func() {
		for !failed.Load() {
			select {
			case <-done:
				return
			default:
			}
			lo := int(next.Add(int64(batch))) - batch
			if lo >= n {
				return
			}
			hi := min(lo+batch, n)
			for i := lo; i < hi; i++ {
				r, err := fn(i)
				if err != nil {
					firstEr.record(i, err)
					failed.Store(true)
					break
				}
				results[i] = r
			}
		}
	}
	runPool(workers, work)
	if err := firstEr.get(); err != nil {
		return nil, fmt.Errorf("engine: trial %d: %w", firstEr.index, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return results, nil
}

// runPool runs work on `workers` goroutines and waits for all of them. A
// pool of one runs work inline, so the sequential case is the same claim
// loop with no goroutine or scheduling of its own.
func runPool(workers int, work func()) {
	if workers == 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// Trial is one fully specified simulation: a network, an algorithm, an
// adversary, and a sim configuration (including its base seed). Sched, when
// set, makes the trial dynamic: the run executes on the schedule's epoch
// sequence instead of the fixed Net (which then only documents the base
// topology the schedule was built over).
//
// Run i of a trial uses sim seed SeedFor(Cfg.Seed, i), and sim.RunDynamic
// derives every epoch's randomness from that seed alone (graph.EpochSeed),
// so dynamic sweeps are bit-identical at any worker count for the same
// reason static ones are. Algorithms, adversaries and schedules are shared
// across concurrently running trials and must therefore be stateless
// factories with concurrency-safe Epoch calls, which all the built-in ones
// are.
type Trial struct {
	Net   *graph.Dual
	Sched graph.Schedule
	Alg   sim.Algorithm
	Adv   sim.Adversary
	Cfg   sim.Config
}

// runner resolves the trial's schedule once and returns the function that
// executes its i-th run — the one place the per-trial seed rule lives.
func (t Trial) runner() func(i int) (*sim.Result, error) {
	sched := t.Sched
	if sched == nil {
		sched = graph.Static(t.Net)
	}
	return func(i int) (*sim.Result, error) {
		c := t.Cfg
		c.Seed = SeedFor(t.Cfg.Seed, i)
		return sim.RunDynamic(sched, t.Alg, t.Adv, c)
	}
}

// RunMany executes `trials` independent runs of t across the pool and
// returns their results in trial order: run i uses sim seed
// SeedFor(t.Cfg.Seed, i), so a fixed seed yields bit-identical results at
// any worker count. Cancellation follows MapContext's batch-granularity
// contract.
func RunMany(ctx context.Context, t Trial, trials int, cfg Config) ([]*sim.Result, error) {
	return MapContext(ctx, trials, cfg, t.runner())
}
