package main

// layerMetrics folds one traced pass into the per-layer metrics. Times are
// seconds summed over worker goroutines; worker time is the engine's wall
// time times the workers it ran.
func (ps *passStats) layerMetrics() map[string]float64 {
	var (
		trials, spanned                   int64
		setupNs, loopNs, busyNs, assignNs int64
		setups                            []float64
		deliver, resolve                  hotCounter
		epochCalls, epochSwaps, epochNs   int64
		procs                             procCounters
		newProcCalls, newProcNs, rounds   int64
	)
	for _, c := range ps.tr.cells {
		newProcCalls += c.newProcCalls
		newProcNs += c.newProcNs
		procs.add(&c.procs)
		for _, rec := range c.trials {
			trials++
			rounds += rec.rounds
			assignNs += rec.assignNs
			deliver.add(rec.deliver)
			resolve.add(rec.resolve)
			epochCalls += rec.epochCalls
			epochSwaps += rec.epochSwaps
			epochNs += rec.epochNs
			if !rec.spanOK {
				continue
			}
			spanned++
			setupNs += rec.setupNs
			loopNs += rec.loopNs
			busyNs += rec.end - rec.start
			setups = append(setups, float64(rec.setupNs)/1e3)
		}
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	decide, receive, start := procs.decide, procs.receive, procs.start
	epochS := sec(epochNs)
	children := decide.seconds() + receive.seconds() + start.seconds() + deliver.seconds() + resolve.seconds() + epochS
	worker := sec(ps.workerNs)
	return map[string]float64{
		"sim.trials":              float64(trials),
		"sim.rounds":              float64(rounds),
		"sim.transmissions":       float64(procs.sends),
		"sim.ns_per_round":        ratio(float64(loopNs), float64(rounds)),
		"sim.setup_s":             sec(setupNs),
		"sim.setup_p50_us":        quantile(setups, 0.50),
		"sim.setup_p99_us":        quantile(setups, 0.99),
		"sim.round_loop_s":        sec(loopNs),
		"sim.self_s":              sec(loopNs) - children,
		"sim.spanned_frac":        ratio(float64(spanned), float64(trials)),
		"core.newprocess_s":       sec(newProcNs),
		"core.newprocesses":       float64(newProcCalls),
		"core.decide_calls":       float64(decide.calls),
		"core.decide_s":           decide.seconds(),
		"core.receive_calls":      float64(receive.calls),
		"core.receive_s":          receive.seconds(),
		"core.start_calls":        float64(start.calls),
		"core.start_s":            start.seconds(),
		"adversary.assign_s":      sec(assignNs),
		"adversary.deliver_calls": float64(deliver.calls),
		"adversary.deliver_s":     deliver.seconds(),
		"adversary.resolve_calls": float64(resolve.calls),
		"adversary.resolve_s":     resolve.seconds(),
		"graph.epoch_calls":       float64(epochCalls),
		"graph.epoch_swaps":       float64(epochSwaps),
		"graph.epoch_s":           epochS,
		"graph.epoch_us_per_swap": ratio(float64(epochNs)/1e3, float64(epochSwaps)),
		"spec.cells_s":            sec(ps.cellsNs),
		"spec.build_s":            sec(ps.buildNs),
		"engine.shards":           float64(ps.shards),
		"engine.worker_s":         worker,
		"engine.worker_busy_frac": ratio(sec(busyNs), worker),
		"engine.overhead_s":       worker - sec(busyNs),
		"checkpoint.records":      float64(ps.ckRecords),
		"checkpoint.bytes":        float64(ps.ckBytes),
		"checkpoint.append_s":     sec(ps.ckAppendNs),
		"layer.setup_share":       ratio(sec(setupNs), worker),
		"layer.round_loop_share":  ratio(sec(loopNs), worker),
		"layer.epoch_share":       ratio(epochS, worker),
	}
}

// trialSpans renders every traced trial as a trial span with its set-up and
// round-loop children.
func (ps *passStats) trialSpans() []span {
	var out []span
	for _, c := range ps.tr.cells {
		for _, rec := range c.trials {
			if !rec.spanOK {
				continue
			}
			out = append(out,
				span{Name: "sim.trial", Sweep: c.sweep, Cell: c.label, Seed: rec.seed, Parent: "engine.grid", Start: rec.start, End: rec.end},
				span{Name: "sim.setup", Sweep: c.sweep, Cell: c.label, Seed: rec.seed, Parent: "sim.trial", Start: rec.start, End: rec.firstDecide},
				span{Name: "sim.round_loop", Sweep: c.sweep, Cell: c.label, Seed: rec.seed, Parent: "sim.trial", Start: rec.firstDecide, End: rec.end})
		}
	}
	return out
}
