// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output, prints each metric by
// name with its unit and sample count, and ends with one JSON line:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 42 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists and which layers it drives):
//
//   - paper-sweep: the 220-cell Figure 8 matrix at scale 1.0 through one
//     warm core.RunBatch call per pass.
//   - serve-jobs: an open loop of seeded arrivals against an in-process
//     jobs.Server over loopback (hot-spec hits, fresh-seed misses, small
//     sweeps, several tenants).
//   - fabric-sweep: the 110-cell 4B4L matrix through an in-process fabric
//     coordinator with two loopback workers, alternating fresh-seed and
//     repeat passes.
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, taken from spans the benchmark records
// around its own calls into each layer and from fixed layer probes, and the
// spans are written to .bench_build/perfbench/spans-<workload>-<seed>.jsonl.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds spans and scratch directories, relative to the checkout
// root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// Set-up is measured in fresh child processes, so process-wide caches start
// cold, and once more in this process. Children run until setupBudget is
// spent, at least minSetupRuns-1 and at most maxSetupRuns-1 of them, so a
// cheap set-up gets more samples behind its median.
const (
	minSetupRuns = 3
	maxSetupRuns = 21
	setupBudget  = 2 * time.Second
)

// metric is one reported number. N is the sample count behind it and P the
// percentile of a tail; both are 0 when they do not apply.
type metric struct {
	Value float64
	Unit  string
	N     int
	P     float64
}

// result collects one run's metrics and its correctness record.
type result struct {
	e2e   map[string]metric // end-to-end: the JSON metrics of an untraced run
	extra map[string]metric // workload-specific end-to-end views, printed only
	layer map[string]metric // per-layer: the JSON metrics of a traced run

	attempted, failed int
	failures          []string
	fingerprint       string
	sims              simStats // simulated statistics of the timed phase
	notes             []string
	invalid           string // non-empty: the run could not keep its schedule
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, extra: map[string]metric{}, layer: map[string]metric{}}
}

// fail records a wrong or missing output; n operations count as failed.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latency stores a distribution's median and tail under name_p50_ms and
// name_tail_ms in m.
func latency(m map[string]metric, name string, d *dist) {
	m[name+"_p50_ms"] = metric{Value: d.p50(), Unit: "ms", N: d.n()}
	v, p := d.tail()
	m[name+"_tail_ms"] = metric{Value: v, Unit: "ms", N: d.n(), P: p}
}

// workload is one benchmark workload: set-up is everything before the
// first timed operation, run is the timed phase with its output checks.
type workload interface {
	setup() error
	run(ctx context.Context, seconds float64, tr *tracer, res *result) error
	close()
}

var workloadNames = []string{"paper-sweep", "serve-jobs", "fabric-sweep"}

func newWorkload(name string, seed uint64, scratch string) (workload, error) {
	switch name {
	case "paper-sweep":
		return newPaper(seed), nil
	case "serve-jobs":
		return newServe(seed, scratch, serveRate), nil
	case "fabric-sweep":
		return newFabric(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed      = flag.Uint64("seed", 42, "workload seed: every generated spec and arrival derives from it")
		seconds   = flag.Float64("seconds", 20, "length of the timed phase in seconds")
		traceFlag = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		setupOnly = flag.Bool("setup-only", false, "measure one cold set-up and exit (used by the benchmark itself)")
	)
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf(2, "--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf(2, "--seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf(1, "creating %s: %v", outDir, err)
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fatalf(1, "creating scratch dir: %v", err)
	}
	code := runMain(*name, *seed, *seconds, *traceFlag == 1, *setupOnly, scratch)
	os.RemoveAll(scratch)
	os.Exit(code)
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(code)
}

func runMain(name string, seed uint64, seconds float64, traced, setupOnly bool, scratch string) int {
	if setupOnly {
		w, err := newWorkload(name, seed, scratch)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		t0 := time.Now()
		err = w.setup()
		d := time.Since(t0)
		w.close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Printf("setup_s %.9f\n", d.Seconds())
		return 0
	}

	if !slices.Contains(workloadNames, name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", name, strings.Join(workloadNames, ", "))
		return 2
	}
	// Cold set-ups in child processes run first, while this process is idle.
	var setups []float64
	for t0 := time.Now(); len(setups) < minSetupRuns-1 ||
		(len(setups) < maxSetupRuns-1 && time.Since(t0) < setupBudget); {
		s, err := childSetup(name, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup child:", err)
			return 1
		}
		setups = append(setups, s)
	}
	w, err := newWorkload(name, seed, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer w.close()
	t0 := time.Now()
	if err := w.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	setups = append(setups, time.Since(t0).Seconds())

	res := newResult()
	res.e2e["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	ph := startPhase()
	err = w.run(ctx, seconds, tr, res)
	ph.stop(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run:", err)
		return 1
	}
	res.extra["fail_frac"] = metric{Value: failFrac(res), Unit: "ratio", N: res.attempted}
	res.sims.report(res.layer)

	if traced {
		if err := probeLayers(ctx, name, seed, scratch, tr, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: layer probes:", err)
			return 1
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := tr.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		res.note("spans: %d written to %s", len(tr.snapshot()), path)
	}

	printReport(name, seed, seconds, traced, tr, res)
	if res.invalid != "" {
		// A run whose generator fell behind measured the harness, not the
		// system: report it as invalid rather than as slow.
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", res.invalid)
		return 3
	}
	return emitJSON(traced, res)
}

func failFrac(res *result) float64 {
	if res.attempted == 0 {
		return 1
	}
	return float64(res.failed) / float64(res.attempted)
}

// childSetup measures one cold set-up in a fresh process.
func childSetup(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", name,
		"--seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if v, ok := strings.CutPrefix(line, "setup_s "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("no setup_s line in child output %q", out)
}

// phase samples Go runtime statistics over the timed phase. The heap peak
// is the 90th percentile of the live heap sampled every 5 ms: a peak that
// one garbage collection landing on a transient allocation cannot move.
type phase struct {
	before runtime.MemStats
	stopc  chan struct{}
	done   chan float64
}

func startPhase() *phase {
	p := &phase{stopc: make(chan struct{}), done: make(chan float64)}
	runtime.ReadMemStats(&p.before)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var live dist
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			live.add(float64(sample[0].Value.Uint64()))
			select {
			case <-p.stopc:
				p.done <- live.quantile(90)
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *phase) stop(res *result) {
	close(p.stopc)
	peak := <-p.done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.e2e["heap_peak_mb"] = metric{Value: peak / (1 << 20), Unit: "MB"}
	cycles := after.NumGC - p.before.NumGC
	res.layer["go.gc_cycles"] = metric{Value: float64(cycles), Unit: "count"}
	res.layer["go.gc_pause_ms"] = metric{Value: float64(after.PauseTotalNs-p.before.PauseTotalNs) / 1e6, Unit: "ms", N: int(cycles)}
}

// benchmarkFile is the part of BENCHMARK.json a run reads: the names and
// units of the metrics every run must report.
type benchmarkFile struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func describe(m metric) string {
	s := fmt.Sprintf("%.6g %s", m.Value, m.Unit)
	var tags []string
	if m.N > 0 {
		tags = append(tags, fmt.Sprintf("n=%d", m.N))
	}
	if m.P > 0 {
		tags = append(tags, fmt.Sprintf("at p%g", m.P))
	}
	if len(tags) > 0 {
		s += " (" + strings.Join(tags, ", ") + ")"
	}
	return s
}

func printMetrics(title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	fmt.Println("== " + title + " ==")
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %s\n", n, describe(m[n]))
	}
}

func printReport(name string, seed uint64, seconds float64, traced bool, tr *tracer, res *result) {
	fmt.Printf("perfbench %s seed=%d seconds=%g traced=%v go=%s nproc=%d\n",
		name, seed, seconds, traced, runtime.Version(), runtime.NumCPU())
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	printMetrics("end-to-end", res.e2e)
	printMetrics("end-to-end, workload views", res.extra)
	printMetrics("per-layer", res.layer)
	if sums := summarizeSpans(tr.snapshot()); len(sums) > 0 {
		fmt.Println("== spans (self time = duration minus child coverage) ==")
		for _, s := range sums {
			fmt.Printf("  %-28s n=%-6d total %10.3f ms  self %10.3f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	fmt.Printf("== outputs ==\n  fingerprint %s\n  attempted %d failed %d\n", res.fingerprint, res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Println("  FAIL " + f)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emitJSON prints the final result line with the metrics BENCHMARK.json
// lists for this kind of run. A listed metric the run did not measure, or
// measured in another unit, is a bug in the benchmark and fails the run.
func emitJSON(traced bool, res *result) int {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var spec benchmarkFile
	if err := json.Unmarshal(buf, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	want, src := spec.EndToEnd, res.e2e
	if traced {
		want, src = spec.PerLayer, res.layer
	}
	out := jsonResult{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, w := range want {
		m, ok := src[w.Name]
		if !ok || m.Unit != w.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s (%s) was not measured\n", w.Name, w.Unit)
			return 1
		}
		out.Metrics[w.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
