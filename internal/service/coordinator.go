// Coordinator mode: a job whose (cell, shard) work units are executed by
// remote dgsimd workers instead of the local engine. The coordinator holds
// the authoritative unit ledger; workers repeatedly claim the lowest
// claimable unit over the v1 job API, fold its trials through
// engine.FoldShardContext — the exact per-shard inner loop of the local
// engine — and report the serialized accumulator back. The coordinator
// merges each cell's accumulators in shard-index order, so the job's result
// lines are byte-identical to the same sweep under `dgsim -spec` or a local
// service job, regardless of how many workers ran, in what order they
// finished, or how many of them died.
//
// Worker death costs progress, never correctness: every claim carries a
// lease deadline, and a unit whose lease expired without a report simply
// becomes claimable again (lazy expiry — no timers). Reports are idempotent;
// a slow worker reporting a unit that was re-run elsewhere gets a friendly
// "already done" instead of corrupting the ledger.
package service

import (
	"errors"
	"fmt"
	"time"

	"dualgraph/internal/engine"
	"dualgraph/internal/spec"
)

// ModeCoordinator marks a JobRequest whose work units are executed by remote
// workers rather than the local engine.
const ModeCoordinator = "coordinator"

// defaultLease is the claim lease duration when the request does not set
// one. Long enough for any realistic shard, short enough that a dead
// worker's units return to the pool quickly.
const defaultLease = 60 * time.Second

// Typed coordinator errors; the HTTP layer maps them to status codes.
var (
	// ErrNotCoordinator reports a shard claim/report against a job that runs
	// on the local engine.
	ErrNotCoordinator = errors.New("service: job does not use remote workers")
	// ErrJobNotRunning reports a shard claim/report against a job that has
	// already reached a terminal state.
	ErrJobNotRunning = errors.New("service: job is not running")
)

// unitState is the ledger state of one (cell, shard) work unit.
type unitState uint8

const (
	unitPending unitState = iota // claimable
	unitLeased                   // claimed, lease not yet expired
	unitDone                     // reported
)

// coordination is the remote-execution ledger of one coordinator job; every
// field is guarded by Server.mu.
type coordination struct {
	specHash string
	shards   int
	lease    time.Duration

	units     []unitState
	deadlines []time.Time            // per unit, meaningful while leased
	accs      []*engine.TrialSummary // per unit, set when done
	remaining []int                  // per cell, undone shard count
	pending   int                    // undone unit count
	sums      []*engine.TrialSummary // per cell, merged when complete
	nextCell  int                    // reorder frontier for CellLine delivery
}

// Claim is the coordinator's answer to a successful shard claim: everything
// a worker needs to reproduce the unit bit-exactly — the fully specified
// cell scenario, the trial range, the stream statistics configuration, and
// the sweep identity it must echo back implicitly by folding exactly these
// trials.
type Claim struct {
	// Cell and Shard name the claimed unit.
	Cell  int `json:"cell"`
	Shard int `json:"shard"`
	// TrialLo and TrialHi delimit the unit's half-open trial range.
	TrialLo int `json:"trial_lo"`
	TrialHi int `json:"trial_hi"`
	// Scenario is the cell's fully specified scenario.
	Scenario spec.Scenario `json:"scenario"`
	// Label is the cell's grid label (for worker logs).
	Label string `json:"label"`
	// Quantiles and ExactK are the stream configuration the accumulator must
	// be built with.
	Quantiles []float64 `json:"quantiles,omitempty"`
	ExactK    int       `json:"exact_k,omitempty"`
	// SpecHash identifies the sweep (workers may log or cross-check it).
	SpecHash string `json:"spec_hash"`
	// LeaseSeconds is how long the claim is held before the unit returns to
	// the pool.
	LeaseSeconds int `json:"lease_seconds"`
}

// Report is a worker's completed unit: the claimed identity plus the
// serialized accumulator (engine.TrialSummary encoding, base64 in JSON).
type Report struct {
	Cell    int    `json:"cell"`
	Shard   int    `json:"shard"`
	Summary []byte `json:"summary"`
}

// newCoordination builds the ledger for a coordinator job.
func newCoordination(sw spec.Sweep, cells int, sc engine.StreamConfig, leaseSeconds int) (*coordination, error) {
	hash, err := sw.Hash()
	if err != nil {
		return nil, err
	}
	lease := defaultLease
	if leaseSeconds > 0 {
		lease = time.Duration(leaseSeconds) * time.Second
	}
	shards := engine.Shards(sw.TrialCount())
	units := cells * shards
	co := &coordination{
		specHash:  hash,
		shards:    shards,
		lease:     lease,
		units:     make([]unitState, units),
		deadlines: make([]time.Time, units),
		accs:      make([]*engine.TrialSummary, units),
		remaining: make([]int, cells),
		pending:   units,
		sums:      make([]*engine.TrialSummary, cells),
	}
	for c := range co.remaining {
		co.remaining[c] = shards
	}
	return co, nil
}

// ClaimShard leases the lowest claimable unit of a coordinator job to a
// worker. A unit is claimable when pending, or when leased past its
// deadline — lazy lease expiry, which is how a dead worker's unit returns to
// the pool. ok is false when nothing is claimable right now (every remaining
// unit is actively leased, or the job is complete); workers poll the job
// status to tell the two apart.
func (s *Server) ClaimShard(id string) (Claim, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Claim{}, false, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	if j.coord == nil {
		return Claim{}, false, fmt.Errorf("%w (%q)", ErrNotCoordinator, id)
	}
	if j.state != Running {
		return Claim{}, false, fmt.Errorf("%w (%q is %s)", ErrJobNotRunning, id, j.state)
	}
	co := j.coord
	now := time.Now()
	for u := range co.units {
		switch co.units[u] {
		case unitDone:
			continue
		case unitLeased:
			if now.Before(co.deadlines[u]) {
				continue
			}
			// Lease expired without a report: the worker died (or stalled);
			// the unit returns to the pool here, on the next claim scan.
			mLeaseExpirations.Inc()
		}
		co.units[u] = unitLeased
		co.deadlines[u] = now.Add(co.lease)
		mShardClaims.Inc()
		c, sh := u/co.shards, u%co.shards
		lo, hi := engine.ShardRange(j.sweep.TrialCount(), sh)
		return Claim{
			Cell: c, Shard: sh, TrialLo: lo, TrialHi: hi,
			Scenario:     j.cells[c].Scenario,
			Label:        j.cells[c].Label,
			Quantiles:    s.cfg.Stream.Quantiles,
			ExactK:       s.cfg.Stream.ExactK,
			SpecHash:     co.specHash,
			LeaseSeconds: int(co.lease / time.Second),
		}, true, nil
	}
	return Claim{}, false, nil
}

// ReportShard records a worker's completed unit. The summary must decode and
// cover exactly the unit's trial range; violations are rejected without
// touching the ledger. Reporting an already-done unit is an acknowledged
// no-op (the idempotency a re-leased unit needs). When the report completes
// a cell, its accumulators merge in shard-index order and the cell's line is
// delivered in enumeration order — exactly the local path's semantics — and
// when it completes the whole grid, the job ends Done.
func (s *Server) ReportShard(id string, rep Report) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	if j.coord == nil {
		return JobStatus{}, fmt.Errorf("%w (%q)", ErrNotCoordinator, id)
	}
	if j.state != Running {
		return JobStatus{}, fmt.Errorf("%w (%q is %s)", ErrJobNotRunning, id, j.state)
	}
	co := j.coord
	if rep.Cell < 0 || rep.Cell >= len(j.cells) || rep.Shard < 0 || rep.Shard >= co.shards {
		return JobStatus{}, fmt.Errorf("report names unit (%d, %d) outside %d cells × %d shards",
			rep.Cell, rep.Shard, len(j.cells), co.shards)
	}
	var sum engine.TrialSummary
	if err := sum.UnmarshalBinary(rep.Summary); err != nil {
		return JobStatus{}, fmt.Errorf("report for (%d, %d): %w", rep.Cell, rep.Shard, err)
	}
	lo, hi := engine.ShardRange(j.sweep.TrialCount(), rep.Shard)
	if sum.Trials != int64(hi-lo) {
		return JobStatus{}, fmt.Errorf("report for (%d, %d) covers %d trials, unit range [%d, %d) has %d",
			rep.Cell, rep.Shard, sum.Trials, lo, hi, hi-lo)
	}
	u := rep.Cell*co.shards + rep.Shard
	if co.units[u] == unitDone {
		mDuplicateReports.Inc()
		return j.status(), nil // duplicate from a re-leased unit's first owner
	}
	co.units[u] = unitDone
	co.accs[u] = &sum
	co.pending--
	co.remaining[rep.Cell]--
	mShardReports.Inc()
	if co.remaining[rep.Cell] == 0 {
		dst := co.accs[rep.Cell*co.shards]
		for t := 1; t < co.shards; t++ {
			if err := dst.Merge(co.accs[rep.Cell*co.shards+t]); err != nil {
				j.state = Failed
				j.err = fmt.Sprintf("cell %d merge: %v", rep.Cell, err)
				mJobsRunning.Add(-1)
				s.retire(j)
				s.cond.Broadcast()
				return j.status(), nil
			}
		}
		co.sums[rep.Cell] = dst
		// Reorder frontier: deliver every consecutive completed cell, in
		// enumeration order, exactly like the local path's onCell buffer.
		for co.nextCell < len(j.cells) && co.sums[co.nextCell] != nil {
			c := co.nextCell
			j.results = append(j.results, CellLine{
				Cell: c, Label: j.cells[c].Label,
				Summary: spec.FormatSummary(co.sums[c]),
			})
			co.nextCell++
			mCellsStreamed.Inc()
		}
	}
	if co.pending == 0 {
		j.state = Done
		mJobsRunning.Add(-1)
		s.retire(j)
	}
	s.cond.Broadcast()
	return j.status(), nil
}
