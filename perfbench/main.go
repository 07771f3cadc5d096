// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload in a single process, prints every metric by name with its
// unit, checks the outputs, and ends with one JSON result line. See
// README.md in this directory for the workloads, the metrics and how to run
// it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dualgraph/internal/engine"
	"dualgraph/internal/spec"
)

const (
	// setupReps is how many times set-up is repeated; setup_s is the median.
	setupReps = 15
	// deadline bounds the whole run, leaving headroom under a 180 s limit.
	deadline = 170 * time.Second
	// heldOutSeed is never used while tuning the benchmark or a change; a
	// claim is re-checked on it.
	heldOutSeed = 7919
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units names the unit of every metric the benchmark can print.
var units = map[string]string{
	"trials_per_s":          "1/s",
	"rounds_per_s":          "1/s",
	"setup_s":               "s",
	"alloc_bytes_per_trial": "B",
	"rss_mb":                "MB",
	"job_p50_s":             "s",
	"job_p90_s":             "s",
	"first_cell_p50_s":      "s",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_swap"):
		return "us"
	case strings.HasSuffix(name, "ns_per_round"):
		return "ns"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_share"):
		return "fraction"
	case strings.HasSuffix(name, ".bytes"):
		return "B"
	}
	return "count"
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name: static-long, short-jobs or dynamic-epochs")
		seed    = flag.Int64("seed", 1, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
		seconds = flag.Float64("seconds", 10, "measured-phase length in seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced pass instead of end-to-end metrics")
		workDir = flag.String("work", filepath.Join(".bench_build", "perfbench-work"), "directory for checkpoint and trace files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	b := &bench{
		w:       w,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		ec:      engine.Config{Workers: runtime.NumCPU()},
		workDir: *workDir,
	}
	out, err := b.execute(ctx, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(enc))
	return 0
}

// bench is one run of one workload.
type bench struct {
	w       workload
	seed    int64
	seconds time.Duration
	ec      engine.Config
	workDir string

	svc *serviceClient // short-jobs: the server set up for the measured phase

	attempted, failed int64
	problems          []string
}

func (b *bench) runner() runner {
	return runner{w: b.w, ec: b.ec, workDir: b.workDir}
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// phase is one measured stretch of sweeps.
type phase struct {
	results []*sweepResult
	jobs    []jobTiming
	svc     []serviceTiming
	rssMB   []float64 // resident set size at the end of each sweep
	wallNs  int64
	cpuNs   int64
	stealS  float64
	alloc   uint64
	gcs     uint64
	gcFrac  float64
}

func (b *bench) execute(ctx context.Context, traced bool) (*result, error) {
	defer func() {
		if b.svc != nil {
			b.svc.close()
		}
	}()
	setup, err := b.setupPhase()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	measured := b.measure(ctx)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	peakRSS := peakRSSMB()
	if b.svc != nil {
		b.svc.close()
		b.svc = nil
	}
	b.check(ctx, measured)

	report := map[string]any{
		"workload": b.w.name, "seed": b.seed, "held_out_seed": heldOutSeed,
		"machine":         machineStamp(b.ec.Workers),
		"sweeps":          len(measured.results),
		"measured_wall_s": float64(measured.wallNs) / 1e9,
		"measured_cpu_s":  float64(measured.cpuNs) / 1e9,
		"host_steal_s":    measured.stealS,
		"peak_rss_mb":     peakRSS,
	}
	out := &result{Metrics: map[string]metric{}}
	if !traced {
		for k, v := range b.endToEnd(measured, setup) {
			out.Metrics[k] = metric{Value: v, Unit: units[k]}
		}
	} else {
		layers, err := b.tracedPasses(ctx, measured)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		for k, v := range layers {
			out.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
		}
	}
	out.Attempted, out.Failed = b.attempted, b.failed
	out.Correct = b.failed == 0 && len(b.problems) == 0
	failedFrac := 0.0
	if b.attempted > 0 {
		failedFrac = float64(b.failed) / float64(b.attempted)
	}
	report["failed_frac"] = failedFrac
	report["problems"] = b.problems
	report["metrics"] = out.Metrics
	printReport(report, out)
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no trial attempted")
	}
	return out, nil
}

// setupPhase times set-up setupReps times and returns the median: expanding
// and building every cell of the workload's first sweep, and for the service
// workload starting a server first. The last server set up stays up for the
// measured phase.
func (b *bench) setupPhase() (float64, error) {
	sw := b.w.sweep(b.seed, 0)
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		if b.svc != nil {
			b.svc.close()
			b.svc = nil
		}
		t0 := time.Now()
		if b.w.service {
			b.svc = startService(b.ec)
		}
		cells, err := sw.Cells()
		if err != nil {
			return 0, err
		}
		for _, c := range cells {
			if _, err := c.Scenario.Build(); err != nil {
				return 0, fmt.Errorf("cell %s: %w", c.Label, err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return quantile(times, 0.5), nil
}

// measure runs the workload's sweeps back to back, untraced, until the run
// length has passed and at least minSweeps sweeps are done.
func (b *bench) measure(ctx context.Context) phase {
	var p phase
	r := b.runner()
	runtime.GC()
	m0 := readRuntime()
	start := now()
	cpu0 := cpuNow()
	steal0 := stealSeconds()
	for i := 0; ctx.Err() == nil; i++ {
		if i >= b.w.minSweeps && time.Duration(now()-start) >= b.seconds {
			break
		}
		sw := b.w.sweep(b.seed, i)
		var res *sweepResult
		var jt jobTiming
		if b.svc != nil {
			var st serviceTiming
			res, jt, st = b.svc.run(ctx, sw, i)
			p.svc = append(p.svc, st)
		} else {
			res, jt = r.run(ctx, sw, i, nil)
		}
		p.results = append(p.results, res)
		p.jobs = append(p.jobs, jt)
		p.rssMB = append(p.rssMB, currentRSSMB())
	}
	p.wallNs = now() - start
	p.cpuNs = cpuNow() - cpu0
	p.stealS = stealSeconds() - steal0
	m1 := readRuntime()
	p.alloc = m1.alloc - m0.alloc
	p.gcs = m1.gcs - m0.gcs
	if cpu := m1.cpu - m0.cpu; cpu > 0 {
		p.gcFrac = (m1.gcCPU - m0.gcCPU) / cpu
	}
	return p
}

// check verifies every measured sweep's outputs; for the service workload
// the first job's streamed lines must also equal the same sweep run
// in-process.
func (b *bench) check(ctx context.Context, p phase) {
	direct := func(s spec.Scenario) (int, error) {
		res, err := s.Run()
		if err != nil {
			return 0, err
		}
		return res.Rounds, nil
	}
	for _, res := range p.results {
		b.attempted += res.attempted()
		failed, problems := checkOutputs(res, direct)
		b.failed += failed
		b.problems = append(b.problems, problems...)
	}
	if b.w.service && len(p.results) > 0 {
		first := p.results[0]
		ref, _ := b.runner().run(ctx, first.sweep, 0, nil)
		if ref.err != nil {
			b.problem("in-process reference of job 0: %v", ref.err)
		} else if !slices.Equal(first.lines, ref.lines) {
			b.problem("job 0 streamed lines differ from the in-process sweep")
			b.failed += first.attempted()
		}
	}
}

// endToEnd computes the end-to-end metrics of the measured phase.
func (b *bench) endToEnd(p phase, setup float64) map[string]float64 {
	var completed int64
	var rounds float64
	for _, res := range p.results {
		c, r := res.totals()
		completed += c
		rounds += r
	}
	wall := float64(p.wallNs) / 1e9
	var jobs, firsts []float64
	for _, jt := range p.jobs {
		jobs = append(jobs, float64(jt.done-jt.submit)/1e9)
		if jt.firstCell > 0 {
			firsts = append(firsts, float64(jt.firstCell-jt.submit)/1e9)
		}
	}
	perTrial := 0.0
	if completed > 0 {
		perTrial = float64(p.alloc) / float64(completed)
	}
	return map[string]float64{
		"trials_per_s":          float64(completed) / wall,
		"rounds_per_s":          rounds / (float64(p.cpuNs) / 1e9),
		"setup_s":               setup,
		"alloc_bytes_per_trial": perTrial,
		"rss_mb":                quantile(p.rssMB, 0.5),
		"job_p50_s":             quantile(jobs, 0.5),
		"job_p90_s":             quantile(jobs, 0.9),
		"first_cell_p50_s":      quantile(firsts, 0.5),
	}
}

// tracedPasses runs the workload's first tracedSweeps sweeps twice,
// in-process: untraced, then traced. The traced cell lines must equal the
// untraced ones and the measured phase's, and the workload's dominant layer
// must take at least half of worker time.
func (b *bench) tracedPasses(ctx context.Context, measured phase) (map[string]float64, error) {
	r := b.runner()
	n := b.w.tracedSweeps
	sweeps := make([]spec.Sweep, n)
	for i := range sweeps {
		sweeps[i] = b.w.sweep(b.seed, i)
	}

	runtime.GC()
	plain := make([]*sweepResult, n)
	t0 := now()
	for i, sw := range sweeps {
		plain[i], _ = r.run(ctx, sw, i, nil)
	}
	plainNs := now() - t0

	runtime.GC()
	ps := &passStats{tr: newTracer()}
	traced := make([]*sweepResult, n)
	t1 := now()
	for i, sw := range sweeps {
		traced[i], _ = r.run(ctx, sw, i, ps)
	}
	tracedNs := now() - t1
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for i := range sweeps {
		ok := false
		switch {
		case plain[i].err != nil || traced[i].err != nil:
			b.problem("sweep %d: untraced error %v, traced error %v", i, plain[i].err, traced[i].err)
		case !slices.Equal(plain[i].lines, traced[i].lines):
			b.problem("sweep %d: traced cell lines differ from untraced", i)
		case i < len(measured.results) && !slices.Equal(measured.results[i].lines, traced[i].lines):
			b.problem("sweep %d: traced cell lines differ from the measured phase", i)
		default:
			ok = true
		}
		if !ok {
			b.failed += traced[i].attempted()
		}
	}

	m := ps.layerMetrics()
	m["trace.overhead_frac"] = float64(tracedNs)/float64(plainNs) - 1

	var submits, tails []float64
	for _, st := range measured.svc {
		submits = append(submits, float64(st.submitNs)/1e6)
		tails = append(tails, float64(st.tailNs)/1e6)
	}
	m["service.jobs"] = float64(len(measured.svc))
	m["service.submit_p50_ms"] = quantile(submits, 0.5)
	m["service.stream_tail_ms"] = quantile(tails, 0.5)
	m["runtime.gc_cycles"] = float64(measured.gcs)
	m["runtime.gc_cpu_frac"] = measured.gcFrac

	if share := b.w.dominantShare; m[share] < 0.5 {
		b.problem("%s: %s is %.3f, below half of worker time", b.w.name, share, m[share])
	}
	if b.w.dominantShare != "layer.epoch_share" && m["graph.epoch_swaps"] != 0 {
		b.problem("%s: static workload swapped %v epochs", b.w.name, m["graph.epoch_swaps"])
	}
	if m["sim.spanned_frac"] != 1 {
		b.problem("%s: only %.3f of trials have a complete span", b.w.name, m["sim.spanned_frac"])
	}

	spans := append(ps.spans, ps.trialSpans()...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := b.writeTrace(spans, m); err != nil {
		return nil, err
	}
	return m, nil
}

// writeTrace writes the traced pass's spans and metrics to the work
// directory.
func (b *bench) writeTrace(spans []span, m map[string]float64) error {
	path := filepath.Join(b.workDir, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{
		"workload": b.w.name, "seed": b.seed, "machine": machineStamp(b.ec.Workers),
		"metrics": m, "spans": spans,
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}

// printReport writes the human-readable report to standard error and the
// full report, with the machine stamp, as one JSON line to standard output.
func printReport(report map[string]any, out *result) {
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: workload=%v seed=%v sweeps=%v attempted=%d failed=%d failed_frac=%v host_steal_s=%.2f\n",
		report["workload"], report["seed"], report["sweeps"], out.Attempted, out.Failed, report["failed_frac"], report["host_steal_s"])
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	for _, p := range report["problems"].([]string) {
		fmt.Fprintln(os.Stderr, "  FAIL:", p)
	}
	if enc, err := json.Marshal(map[string]any{"report": report}); err == nil {
		fmt.Println(string(enc))
	}
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	alloc, gcs uint64
	gcCPU, cpu float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		alloc: s[0].Value.Uint64(),
		gcs:   s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(),
		cpu:   s[3].Value.Float64(),
	}
}

// stealSeconds returns the CPU time the host has withheld from this
// machine's CPUs so far (the "steal" column of /proc/stat), or 0 where it is
// not reported. Other tenants' load shows up here; a run with much steal is
// slower for reasons outside the program.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// cpuNow returns the CPU time the process has used, user plus system, in
// nanoseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// currentRSSMB returns the process's resident set size in MB.
func currentRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// machineStamp describes where a result was measured.
func machineStamp(workers int) map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        model,
		"workers":    workers,
	}
}
