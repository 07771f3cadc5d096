package expt

import (
	"context"
	"fmt"
	"math"

	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/lowerbound"
	"dualgraph/internal/sim"
	"dualgraph/internal/stats"
)

// table2ClassicalDecay reproduces the classical-model column of Table 2:
// randomized broadcast in O(D log(n/D) + log² n) rounds (Czumaj-Rytter
// [12]); our executable stand-in is the Decay protocol of Bar-Yehuda et al.
func table2ClassicalDecay() Experiment {
	e := Experiment{
		ID:       "table2-classical-decay",
		Title:    "randomized broadcast in the classical model: Decay",
		PaperRef: "Table 2, classical column (O(n log(n/D)+log²n) [12])",
	}
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		tw := newTable(cfg.Out)
		trials := 9
		if cfg.Quick {
			trials = 5
		}
		fmt.Fprintln(tw, "topology\tn\tmedian rounds\tmax rounds\tcompleted")
		for _, topo := range []string{"complete", "line", "tree"} {
			var ns []int
			var meds []float64
			for _, n := range sweepSizes(cfg.Quick) {
				// The cell is a declarative Scenario; the aggregation on top
				// (medianRounds with its historical seed stepping) stays
				// expt-specific, so tables are byte-identical to the
				// positional era.
				scn, err := scenario(topo, n, "decay", "benign",
					sim.CR3, sim.AsyncStart, cfg.Seed)
				if err != nil {
					return err
				}
				scn.MaxRounds = 400 * n
				b, err := scn.Build()
				if err != nil {
					return err
				}
				med, maxR, done, err := medianRounds(cfg.Engine, b.Net, b.Alg, b.Adv, b.Cfg, trials)
				if err != nil {
					return err
				}
				ns = append(ns, n)
				meds = append(meds, med)
				fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%d/%d\n", topo, n, med, maxR, done, trials)
			}
			fmt.Fprintf(tw, "%s\t\t\t%s\n", topo, fitLine(ns, meds))
		}
		return tw.Flush()
	}
	return e
}

// table2DualHarmonic reproduces the bold dual-graph entry of Table 2:
// Harmonic Broadcast completes in O(n log² n) rounds w.h.p. on dual graphs.
func table2DualHarmonic() Experiment {
	e := Experiment{
		ID:       "table2-dual-harmonic",
		Title:    "Harmonic Broadcast on dual graphs: O(n log² n) w.h.p. (Theorem 19)",
		PaperRef: "Table 2, dual column (bold O(n log² n)); Section 7",
	}
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		tw := newTable(cfg.Out)
		trials := 9
		if cfg.Quick {
			trials = 5
		}
		fmt.Fprintln(tw, "topology\tn\tT\tmedian rounds\tThm18 bound\tmedian/bound\tcompleted")
		for _, topo := range []string{"clique-bridge", "complete-layered", "random"} {
			var ns []int
			var meds []float64
			for _, n := range sweepSizes(cfg.Quick) {
				scn, err := scenario(topo, n, "harmonic", "greedy",
					sim.CR4, sim.AsyncStart, cfg.Seed)
				if err != nil {
					return err
				}
				b, err := scn.Build()
				if err != nil {
					return err
				}
				// The Theorem 18 budget is derived from the T of the
				// algorithm actually built, so it cannot drift from the
				// registry's construction.
				h, ok := b.Alg.(*core.Harmonic)
				if !ok {
					return fmt.Errorf("scenario built %T for %q, want *core.Harmonic", b.Alg, "harmonic")
				}
				nn := b.Net.N()
				paperT := h.T
				bound := int(2 * float64(nn*paperT) * stats.HarmonicNumber(nn))
				b.Cfg.MaxRounds = bound
				med, _, done, err := medianRounds(cfg.Engine, b.Net, b.Alg, b.Adv, b.Cfg, trials)
				if err != nil {
					return err
				}
				if done < trials {
					return fmt.Errorf("%s n=%d: %d/%d runs exceeded the Theorem 18 bound", topo, nn, trials-done, trials)
				}
				ns = append(ns, nn)
				meds = append(meds, med)
				fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%d\t%.3f\t%d/%d\n",
					topo, nn, paperT, med, bound, med/float64(bound), done, trials)
			}
			fmt.Fprintf(tw, "%s\t\t\t\t%s\n", topo, fitLine(ns, meds))
		}
		return tw.Flush()
	}
	return e
}

// table2Theorem4 reproduces the randomized lower bound of Theorem 4: the
// success probability within k rounds on the clique-bridge network is at
// most k/(n-2) for the adversary's best bridge assignment.
func table2Theorem4() Experiment {
	e := Experiment{
		ID:       "table2-thm4",
		Title:    "Theorem 4 Monte-Carlo: success within k rounds is at most k/(n-2)",
		PaperRef: "Theorem 4; Table 2 dual column open randomized lower bound",
	}
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		tw := newTable(cfg.Out)
		n := 18
		trials := 200
		if cfg.Quick {
			n = 14
			trials = 80
		}
		fmt.Fprintln(tw, "algorithm\tn\tk\tmin success\tbound k/(n-2)\trespects bound")
		h, err := core.NewHarmonicForN(n, 0.1)
		if err != nil {
			return err
		}
		u, err := core.NewUniform(0.25)
		if err != nil {
			return err
		}
		type job struct {
			alg sim.Algorithm
			k   int
		}
		var jobs []job
		for _, alg := range []sim.Algorithm{h, u} {
			for _, k := range []int{2, n / 3, n - 4} {
				jobs = append(jobs, job{alg, k})
			}
		}
		results, err := engine.MapContext(context.Background(), len(jobs), cfg.Engine, func(i int) (*lowerbound.Theorem4Result, error) {
			return lowerbound.RunTheorem4(n, jobs[i].k, trials, jobs[i].alg, cfg.Seed)
		})
		if err != nil {
			return err
		}
		for i, res := range results {
			j := jobs[i]
			// Allow 3-sigma Monte-Carlo slack.
			slack := 3 * math.Sqrt(res.Bound*(1-res.Bound)/float64(trials))
			ok := res.MinSuccess <= res.Bound+slack
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.3f\t%v\n",
				j.alg.Name(), n, j.k, res.MinSuccess, res.Bound, ok)
		}
		return tw.Flush()
	}
	return e
}
