package spec

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"dualgraph/internal/engine"
	"dualgraph/internal/registry"
	"dualgraph/internal/sim"
)

// Sweep is a declarative Cartesian grid: a base Scenario plus per-axis value
// lists. Every listed axis replaces the base's value in the product; an
// omitted axis contributes the base's single value. Cells are enumerated in
// a fixed nested order — topology, algorithm, adversary, schedule, n, rule,
// seed, with the last axis innermost — so cell indices and labels are
// stable.
type Sweep struct {
	// Version is the wire-format version of the document (see WireVersion);
	// zero reads and marshals as version 1, unknown versions are rejected.
	Version int `json:"version,omitempty"`
	// Base supplies the value of every axis the sweep does not list, and
	// the non-axis fields (start rule, max rounds).
	Base Scenario `json:"base"`
	// Topologies is the topology axis (empty = base's topology).
	Topologies []Choice `json:"topologies,omitempty"`
	// Algorithms is the algorithm axis.
	Algorithms []Choice `json:"algorithms,omitempty"`
	// Adversaries is the adversary axis.
	Adversaries []Choice `json:"adversaries,omitempty"`
	// Schedules is the epoch-schedule axis (topology dynamics): sweep churn
	// rates, fade probabilities, or mobility speeds like any other axis.
	Schedules []Choice `json:"schedules,omitempty"`
	// Ns is the network-size axis.
	Ns []int `json:"ns,omitempty"`
	// Rules is the collision-rule axis.
	Rules []sim.CollisionRule `json:"rules,omitempty"`
	// Seeds is the base-seed axis (independent replications of the grid).
	Seeds []int64 `json:"seeds,omitempty"`
	// Trials is the Monte Carlo depth of every cell; 0 means 1.
	Trials int `json:"trials,omitempty"`
}

// Cell is one point of the expanded grid.
type Cell struct {
	// Index is the cell's position in enumeration order.
	Index int
	// Label identifies the cell by its swept axes (axes the sweep did not
	// list are fixed across the grid and stay out of the label).
	Label string
	// Scenario is the fully specified cell.
	Scenario Scenario
}

// UnmarshalJSON fills unset base fields with Default's values, so a spec
// file only states what it cares about: `{"base": {"n": 17}}` inherits the
// default topology, algorithm, adversary, rules, and seed. Unknown
// wire-format versions are rejected up front with *ErrUnsupportedVersion.
func (sw *Sweep) UnmarshalJSON(b []byte) error {
	type alias Sweep // drop methods to avoid recursion
	tmp := alias{Base: Default()}
	if err := json.Unmarshal(b, &tmp); err != nil {
		return err
	}
	if err := checkVersion("sweep", tmp.Version); err != nil {
		return err
	}
	*sw = Sweep(tmp)
	return nil
}

// TrialCount returns the per-cell Monte Carlo depth: Trials, or 1 when it
// is unset. Every consumer of a sweep's depth (the grid run, checkpoint
// identities, coordinator shard ranges) reads it from here.
func (sw Sweep) TrialCount() int {
	if sw.Trials > 0 {
		return sw.Trials
	}
	return 1
}

// Cells expands the grid in enumeration order and validates every cell.
// Axis value combinations that expand to duplicate labels — e.g. a repeated
// seed or two identical topology choices — are rejected with
// *ErrDuplicateLabel, since labels key GridResult lookups and downstream
// result streams.
func (sw Sweep) Cells() ([]Cell, error) {
	if err := checkVersion("sweep", sw.Version); err != nil {
		return nil, err
	}
	if sw.Trials < 0 {
		return nil, fmt.Errorf("sweep: trials must be >= 0, got %d", sw.Trials)
	}
	if len(sw.Ns) > 0 {
		// An n axis over a topology that derives its size from parameters
		// would run byte-identical duplicate cells under different n=
		// labels; reject the combination instead.
		topos := sw.Topologies
		if len(topos) == 0 {
			topos = []Choice{sw.Base.Topology}
		}
		for _, c := range topos {
			if e, ok := registry.TopologyInfo(c.Name); ok && e.IgnoresN {
				return nil, fmt.Errorf("sweep: topology %q derives its size from its params and ignores n; drop the ns axis or sweep its size parameter instead", c.Name)
			}
		}
	}
	type axis struct {
		n      int                      // axis length (0 = not swept)
		apply  func(s *Scenario, i int) // set value i on s
		render func(s Scenario) string  // label fragment after apply
	}
	axes := []axis{
		{len(sw.Topologies),
			func(s *Scenario, i int) { s.Topology = sw.Topologies[i] },
			func(s Scenario) string { return "topo=" + s.Topology.label() }},
		{len(sw.Algorithms),
			func(s *Scenario, i int) { s.Algorithm = sw.Algorithms[i] },
			func(s Scenario) string { return "alg=" + s.Algorithm.label() }},
		{len(sw.Adversaries),
			func(s *Scenario, i int) { s.Adversary = sw.Adversaries[i] },
			func(s Scenario) string { return "adv=" + s.Adversary.label() }},
		{len(sw.Schedules),
			func(s *Scenario, i int) { s.Schedule = sw.Schedules[i] },
			func(s Scenario) string { return "sched=" + s.Schedule.label() }},
		{len(sw.Ns),
			func(s *Scenario, i int) { s.N = sw.Ns[i] },
			func(s Scenario) string { return fmt.Sprintf("n=%d", s.N) }},
		{len(sw.Rules),
			func(s *Scenario, i int) { s.Rule = sw.Rules[i] },
			func(s Scenario) string { return fmt.Sprintf("rule=%v", s.Rule) }},
		{len(sw.Seeds),
			func(s *Scenario, i int) { s.Seed = sw.Seeds[i] },
			func(s Scenario) string { return fmt.Sprintf("seed=%d", s.Seed) }},
	}
	total := 1
	for _, a := range axes {
		if a.n > 0 {
			total *= a.n
		}
	}
	cells := make([]Cell, 0, total)
	seen := make(map[string]int, total)
	// odometer enumeration: the last listed axis is the innermost digit.
	idx := make([]int, len(axes))
	for {
		s := sw.Base
		label := ""
		for ai, a := range axes {
			if a.n == 0 {
				continue
			}
			a.apply(&s, idx[ai])
			if label != "" {
				label += " "
			}
			label += a.render(s)
		}
		if label == "" {
			label = "base"
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("sweep cell %d (%s): %w", len(cells), label, err)
		}
		if first, dup := seen[label]; dup {
			return nil, &ErrDuplicateLabel{Label: label, First: first, Second: len(cells)}
		}
		seen[label] = len(cells)
		cells = append(cells, Cell{Index: len(cells), Label: label, Scenario: s})

		// advance the odometer
		ai := len(axes) - 1
		for ; ai >= 0; ai-- {
			if axes[ai].n == 0 {
				continue
			}
			idx[ai]++
			if idx[ai] < axes[ai].n {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			return cells, nil
		}
	}
}

// labelWithoutN drops the "n=..." fragment of a cell label, grouping cells
// that differ only in the requested size.
func labelWithoutN(label string) string {
	fields := strings.Fields(label)
	kept := fields[:0]
	for _, f := range fields {
		if !strings.HasPrefix(f, "n=") {
			kept = append(kept, f)
		}
	}
	return strings.Join(kept, " ")
}

// CellResult pairs a cell with its streamed Monte Carlo summary.
type CellResult struct {
	// Cell identifies the grid point.
	Cell Cell
	// Summary aggregates the cell's trials (bit-identical at any worker
	// count; equal to the summary of the cell's Scenario run alone as a
	// one-cell grid).
	Summary *engine.TrialSummary
}

// GridResult is the outcome of a Sweep run, keyed by cell label.
type GridResult struct {
	// Trials is the per-cell Monte Carlo depth that was run.
	Trials int
	// Cells holds one result per grid point, in enumeration order.
	Cells []CellResult
}

// Cell returns the result with the given label.
func (g *GridResult) Cell(label string) (*CellResult, bool) {
	for i := range g.Cells {
		if g.Cells[i].Cell.Label == label {
			return &g.Cells[i], true
		}
	}
	return nil, false
}

// StreamFrom expands the sweep and executes the whole grid on the trial
// engine: cell networks are constructed in parallel (deterministically,
// each from its own scenario seed), then all (cell, shard) work units share
// one worker pool (engine.RunGridStreamFromContext), so the pool stays
// saturated whether the grid is wide or deep. Every cell summary is
// bit-identical at any worker count and equal to running that cell's
// Scenario alone.
//
// onCell, when non-nil, receives finished cells in enumeration order while
// the rest of the grid is still running: a cell is delivered as soon as it
// and every cell before it have completed, so the delivered sequence is
// always a prefix of the full grid — byte-identical to the corresponding
// prefix of an uninterrupted run. Calls are serialized.
//
// Cancelling ctx stops the run at (cell, shard) granularity with a wrapped
// context error; cells already delivered through onCell remain final.
//
// A fresh run passes nil seed and onShard. For a resumed run, units in seed
// are restored instead of run, and onShard observes every freshly completed
// unit (from worker goroutines, possibly concurrently — synchronize, and
// consume the summary during the call); the grid result — including the
// order and content of onCell deliveries — is bit-identical to an
// uninterrupted run at any worker count on either side of the
// interruption.
func (sw Sweep) StreamFrom(ctx context.Context, ec engine.Config, sc engine.StreamConfig,
	seed map[engine.ShardKey]*engine.TrialSummary, onShard func(engine.ShardState),
	onCell func(CellResult)) (*GridResult, error) {
	cells, err := sw.Cells()
	if err != nil {
		return nil, err
	}
	built, err := engine.MapContext(ctx, len(cells), ec, func(i int) (engine.Trial, error) {
		b, err := cells[i].Scenario.Build()
		if err != nil {
			return engine.Trial{}, fmt.Errorf("cell %s: %w", cells[i].Label, err)
		}
		return b.Trial(), nil
	})
	if err != nil {
		return nil, err
	}
	if len(sw.Ns) > 1 {
		// A size-adjusting topology (grid rounds n up to a square) can map
		// two requested n values to the same built network; those cells
		// would be byte-identical under different n= labels, so refuse.
		// Cells that differ in any other axis keep distinct keys.
		type key struct {
			rest   string
			builtN int
		}
		seen := make(map[key]string, len(cells))
		for i, c := range cells {
			k := key{rest: labelWithoutN(c.Label), builtN: built[i].Net.N()}
			if prev, ok := seen[k]; ok {
				return nil, fmt.Errorf("sweep: cells %q and %q build the same %d-node network (the topology adjusts the requested size); remove one of the n values",
					prev, c.Label, built[i].Net.N())
			}
			seen[k] = c.Label
		}
	}
	// Reorder buffer: the engine reports cells in completion order, the
	// callback contract is enumeration order. done tracks out-of-order
	// completions; next is the lowest undelivered cell.
	var (
		mu   sync.Mutex
		done []*engine.TrialSummary
		next int
	)
	var onEngineCell func(c int, sum *engine.TrialSummary)
	if onCell != nil {
		done = make([]*engine.TrialSummary, len(cells))
		onEngineCell = func(c int, sum *engine.TrialSummary) {
			mu.Lock()
			defer mu.Unlock()
			done[c] = sum
			for next < len(done) && done[next] != nil {
				onCell(CellResult{Cell: cells[next], Summary: done[next]})
				next++
			}
		}
	}
	sums, err := engine.RunGridStreamFromContext(ctx, built, sw.TrialCount(), ec, sc, seed, onShard, onEngineCell)
	if err != nil {
		return nil, err
	}
	out := &GridResult{Trials: sw.TrialCount(), Cells: make([]CellResult, len(cells))}
	for i, c := range cells {
		out.Cells[i] = CellResult{Cell: c, Summary: sums[i]}
	}
	return out, nil
}
