// Package expt is the experiment harness: it regenerates, as measured
// scaling experiments, every table of the paper plus per-theorem validation
// figures and ablations. Each experiment has a stable ID used by
// cmd/dgbench and by the benchmark suite; DESIGN.md carries the full
// experiment index.
//
// All experiments fan their Monte Carlo trials and sweep cells out over the
// parallel trial engine (internal/engine). Because every trial's seed is a
// pure function of the experiment seed and the trial index, an experiment's
// table is byte-identical at any worker count.
package expt

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"text/tabwriter"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
	"dualgraph/internal/spec"
	"dualgraph/internal/stats"
)

// Config parameterizes an experiment run.
type Config struct {
	// Out receives the experiment's table.
	Out io.Writer
	// Quick trims sweeps and trial counts for CI-speed runs.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Engine configures the parallel trial engine used to fan out the
	// experiment's simulations; the zero value uses one worker per CPU.
	// Worker count never changes an experiment's output.
	Engine engine.Config
}

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the stable identifier (e.g. "table1-dual-strongselect").
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef points at the table/theorem the experiment reproduces.
	PaperRef string
	// Run executes the experiment and writes its table to cfg.Out.
	Run func(cfg Config) error
}

// All returns every registered experiment in a stable order.
func All() []Experiment {
	exps := []Experiment{
		table1ClassicalRR(),
		table1DualStrongSelect(),
		table1Theorem2(),
		table1Theorem12(),
		table2ClassicalDecay(),
		table2DualHarmonic(),
		table2Theorem4(),
		figSeparation(),
		figBusyRounds(),
		figSSFSize(),
		figLemma1(),
		ablCollisionRules(),
		ablHarmonicT(),
		ablAdversary(),
		extDeltaSelect(),
		extDynamic(),
		extPreferentialAttachment(),
		extRepeatedBroadcast(),
		extLinkCulling(),
		extBroadcastability(),
		extExhaustive(),
		extAdaptive(),
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// newTable returns a tabwriter for aligned experiment output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// header prints the experiment banner.
func header(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "== %s — %s\n   paper: %s\n", e.ID, e.Title, e.PaperRef)
}

// medianRounds fans `trials` independent executions out over the engine
// and returns the median and maximum completion round. Executions that do
// not complete count as maxRounds. Trial i's seed is cfg.Seed + i*104729, a
// pure function of the trial index, so the aggregate is identical at any
// worker count.
func medianRounds(
	ec engine.Config,
	d *graph.Dual,
	alg sim.Algorithm,
	adv sim.Adversary,
	cfg sim.Config,
	trials int,
) (median, maxRound float64, completed int, err error) {
	results, err := engine.MapContext(context.Background(), trials, ec, func(i int) (*sim.Result, error) {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*104729
		return sim.Run(d, alg, adv, c)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	rounds := make([]float64, len(results))
	for i, res := range results {
		rounds[i] = float64(cfg.MaxRounds)
		if res.Completed {
			rounds[i] = float64(res.Rounds)
			completed++
		}
	}
	median, err = stats.Median(rounds)
	if err != nil {
		return 0, 0, 0, err
	}
	maxRound, err = stats.Max(rounds)
	if err != nil {
		return 0, 0, 0, err
	}
	return median, maxRound, completed, nil
}

// sweepSizes returns the n sweep for scaling experiments.
func sweepSizes(quick bool) []int {
	if quick {
		return []int{17, 33, 65}
	}
	return []int{17, 33, 65, 129, 257}
}

// fitLine reports the fitted power-law exponent of rounds vs n, or NaN-free
// fallback text when the fit fails.
func fitLine(ns []int, rounds []float64) string {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	alpha, c, err := stats.FitPowerLaw(xs, rounds)
	if err != nil {
		return "fit: n/a"
	}
	return fmt.Sprintf("fit: rounds ≈ %.2f·n^%.2f", c, alpha)
}

// scenario builds the declarative spec of one experiment cell. All name
// lookup goes through internal/registry (there is no expt-private topology
// table anymore), so experiment cells are the same first-class values
// cmd/dgsim -spec files describe.
func scenario(topo string, n int, alg, adv string, rule sim.CollisionRule, start sim.StartRule, seed int64) (spec.Scenario, error) {
	return spec.New(
		spec.WithTopology(topo, nil),
		spec.WithN(n),
		spec.WithAlgorithm(alg, nil),
		spec.WithAdversary(adv, nil),
		spec.WithCollisionRule(rule),
		spec.WithStart(start),
		spec.WithSeed(seed),
	)
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// greedy returns the standard worst-case-ish adversary used in the dual
// experiments.
func greedy() sim.Adversary { return adversary.GreedyCollider{} }

// benign returns the classical-model adversary.
func benign() sim.Adversary { return adversary.Benign{} }

// mustHarmonic builds the Harmonic algorithm with the paper's T or fails the
// experiment.
func mustHarmonic(n int) (sim.Algorithm, error) {
	return core.NewHarmonicForN(n, 0.02)
}
