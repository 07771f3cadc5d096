package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dualgraph/internal/core"
	"dualgraph/internal/sim"
	"dualgraph/internal/spec"
	"dualgraph/internal/stats"
)

// workload is one named input set. Every sweep it runs is a pure function of
// the workload seed and the sweep's position in the run, so the same seed
// gives the same inputs.
type workload struct {
	name string
	// sweep returns the i-th sweep of a run with workload seed seed.
	sweep func(seed int64, i int) spec.Sweep
	// service runs the sweeps as dgsimd jobs over HTTP; otherwise they run
	// in-process like `dgsim -spec`.
	service bool
	// checkpoint appends every finished shard to a fresh checkpoint file,
	// as `dgsim -spec -checkpoint` does.
	checkpoint bool
	// minSweeps is the least number of sweeps a measured phase runs, however
	// short --seconds is.
	minSweeps int
	// tracedSweeps is how many sweeps (the first ones) the traced pass runs,
	// a fixed count so its per-layer counts repeat exactly for a seed.
	tracedSweeps int
	// dominantShare names the share metric of the layer the workload was
	// chosen to exercise; the traced pass checks it is at least one half.
	dominantShare string
}

// sweepSeed gives sweep i of a run its own base seed.
func sweepSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }

func choices(names ...string) []spec.Choice {
	out := make([]spec.Choice, len(names))
	for i, n := range names {
		out[i] = spec.Choice{Name: n}
	}
	return out
}

// base is the CR4/async scenario every workload starts from.
func base(n int, seed int64) spec.Scenario {
	s := spec.Default()
	s.N = n
	s.Rule = sim.CR4
	s.Start = sim.AsyncStart
	s.Seed = seed
	return s
}

var workloads = []workload{
	{
		// Long trials: hundreds to thousands of rounds each, so the round
		// loop (reception, Decide, DeliverInto/Resolve) dominates.
		name: "static-long",
		sweep: func(seed int64, i int) spec.Sweep {
			return spec.Sweep{
				Base:       base(65, sweepSeed(seed, i)),
				Topologies: choices("clique-bridge", "complete-layered", "geometric"),
				Algorithms: choices("harmonic", "strong-select"),
				Trials:     200,
			}
		},
		checkpoint:    true,
		minSweeps:     1,
		tracedSweeps:  1,
		dominantShare: "layer.round_loop_share",
	},
	{
		// Trials of 1-5 rounds: per-trial set-up, engine shards and the
		// service path dominate.
		name: "short-jobs",
		sweep: func(seed int64, i int) spec.Sweep {
			b := base(129, sweepSeed(seed, i))
			b.Adversary = spec.Choice{Name: "random"}
			return spec.Sweep{
				Base:       b,
				Topologies: choices("clique-bridge", "geometric"),
				Algorithms: choices("harmonic", "decay"),
				Trials:     24,
			}
		},
		service:       true,
		minSweeps:     100,
		tracedSweeps:  30,
		dominantShare: "layer.setup_share",
	},
	{
		// An epoch every 8 rounds: materializing epochs dominates, both by
		// incremental patching (churn, fade) and by full rebuilds (waypoint).
		// Fade comes first so the first cell line waits on a few hundred
		// milliseconds of work: churn's cell finishes in about 15 ms, short
		// enough that a few milliseconds of host preemption move
		// first_cell_p50_s by a quarter.
		name: "dynamic-epochs",
		sweep: func(seed int64, i int) spec.Sweep {
			b := base(129, sweepSeed(seed, i))
			b.Topology = spec.Choice{Name: "geometric"}
			return spec.Sweep{
				Base:      b,
				Schedules: choices("fade", "churn", "waypoint"),
				Trials:    4,
			}
		},
		minSweeps:     2,
		tracedSweeps:  2,
		dominantShare: "layer.epoch_share",
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Pinned rounds of the deterministic cells: Strong Select against the greedy
// collider on the seed-independent n=65 topologies. No random stream enters
// these runs, so the values hold across any change of generator.
var pinnedRounds = map[string]int{
	"topo=clique-bridge alg=strong-select":    67,
	"topo=complete-layered alg=strong-select": 2077,
}

// harmonicBound is the completion bound the repository's benchmarks hold
// Harmonic Broadcast to: 2·n·T·H(n) rounds with the registry's ε = 0.02.
func harmonicBound(n int) float64 {
	return 2 * float64(n*core.HarmonicT(n, 0.02)) * stats.HarmonicNumber(n)
}

// sweepResult is one finished sweep: its cell lines in cell order, each
// "label: summary" as `dgsim -spec` prints it and dgsimd streams it.
type sweepResult struct {
	index int
	sweep spec.Sweep
	lines []string
	err   error
}

// attempted returns the number of trials the sweep attempts.
func (r *sweepResult) attempted() int64 {
	cells, err := r.sweep.Cells()
	if err != nil {
		return 0
	}
	return int64(len(cells) * r.sweep.Trials)
}

// cellStat is the part of a summary line the checks and rates read.
type cellStat struct {
	trials, completed int64
	min, mean, max    float64
}

// parseLine reads a "label: summary" line back into its label and figures.
func parseLine(line string) (string, cellStat, error) {
	label, summary, ok := strings.Cut(line, ": ")
	if !ok {
		return "", cellStat{}, fmt.Errorf("malformed cell line %q", line)
	}
	var st cellStat
	var p50, p90, p95, p99, tx float64
	_, err := fmt.Sscanf(summary, "completed=%d/%d rounds: min=%g mean=%g p50=%g p90=%g p95=%g p99=%g max=%g mean-transmissions=%g",
		&st.completed, &st.trials, &st.min, &st.mean, &p50, &p90, &p95, &p99, &st.max, &tx)
	if err != nil {
		return "", cellStat{}, fmt.Errorf("malformed summary %q: %w", summary, err)
	}
	return label, st, nil
}

// totals returns the completed trials and simulated rounds of a sweep, read
// off its summary lines.
func (r *sweepResult) totals() (completed int64, rounds float64) {
	for _, line := range r.lines {
		if _, st, err := parseLine(line); err == nil {
			completed += st.completed
			rounds += st.mean * float64(st.trials)
		}
	}
	return completed, rounds
}

// checkOutputs verifies one sweep's results and returns how many of its
// trials count as failed, with a message per problem. A trial fails when it
// did not complete; every trial of a cell fails when the cell breaks a check;
// every trial of the sweep fails when the sweep errored or lost cells.
func checkOutputs(r *sweepResult, directRounds func(spec.Scenario) (int, error)) (int64, []string) {
	attempted := r.attempted()
	if r.err != nil {
		return attempted, []string{fmt.Sprintf("sweep %d: %v", r.index, r.err)}
	}
	cells, err := r.sweep.Cells()
	if err != nil {
		return attempted, []string{fmt.Sprintf("sweep %d: %v", r.index, err)}
	}
	if len(r.lines) != len(cells) {
		return attempted, []string{fmt.Sprintf("sweep %d: %d of %d cells returned", r.index, len(r.lines), len(cells))}
	}
	trials := int64(r.sweep.Trials)
	var failed int64
	var problems []string
	for i, c := range cells {
		bad := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("sweep %d cell %q: ", r.index, c.Label)+fmt.Sprintf(format, args...))
		}
		label, st, err := parseLine(r.lines[i])
		switch {
		case err != nil:
			bad("%v", err)
			failed += trials
			continue
		case label != c.Label || st.trials != trials:
			bad("line %q is not this cell's %d trials", r.lines[i], trials)
			failed += trials
			continue
		case st.completed < trials:
			bad("%d of %d trials did not complete", trials-st.completed, trials)
		}
		cellFailed := trials - st.completed
		s := c.Scenario
		switch {
		case s.Algorithm.Name == "strong-select" && s.Adversary.Name == "greedy":
			want, pinned := pinnedRounds[c.Label]
			if !pinned {
				// A seed-dependent network: pin to a direct simulation of
				// the same cell outside the engine.
				if want, err = directRounds(s); err != nil {
					bad("direct run: %v", err)
					cellFailed = trials
					break
				}
			}
			if st.min != float64(want) || st.max != float64(want) {
				bad("deterministic cell took %v..%v rounds, pinned at %d", st.min, st.max, want)
				cellFailed = trials
			}
		case s.Algorithm.Name == "harmonic":
			if bound := harmonicBound(s.N); st.max > bound {
				bad("max %v rounds exceeds the 2·n·T·H(n) bound %.0f", st.max, bound)
				cellFailed = trials
			}
		}
		failed += cellFailed
	}
	return failed, problems
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified), or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
