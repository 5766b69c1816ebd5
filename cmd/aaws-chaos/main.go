// Command aaws-chaos sweeps deterministic fault schedules — a lossy/slow
// interrupt network, core fail-stops and thermal throttles, stuck and slow
// voltage regulators — across kernels and runtime variants, verifying that
// every run still produces a correct result and reporting the performance
// and energy degradation against the fault-free baseline.
//
// Every cell of the sweep is bit-reproducible: the workload seed and the
// fault seed fully determine the schedule, so -verify can re-run a cell and
// demand an identical report fingerprint.
//
// Usage:
//
//	aaws-chaos -kernels cilksort -variants base+psm -drop-rates 0.1,0.5,1
//	aaws-chaos -kernels radix-2 -fail 6@40% -verify
//	aaws-chaos -kernels cilksort -vr-stuck 0.2 -csv
//	aaws-chaos -kernels cilksort -cache -cache-dir .aaws-cache   # via the jobs executor
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"

	"aaws/internal/core"
	"aaws/internal/fault"
	"aaws/internal/jobs"
	"aaws/internal/profiling"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// runner executes one sweep cell; forceFresh bypasses the result cache so
// -verify's replay genuinely re-simulates instead of re-reading its own
// cached bytes.
type runner func(spec core.Spec, forceFresh bool) (core.Result, error)

func main() {
	kernelsFlag := flag.String("kernels", "cilksort", "comma-separated kernel names")
	system := flag.String("system", "4B4L", "target system: 4B4L or 1B7L")
	variantsFlag := flag.String("variants", "base+psm", "comma-separated runtime variants")
	scale := flag.Float64("scale", 1.0, "input size multiplier")
	seed := flag.Uint64("seed", 42, "input/scheduling seed")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for probabilistic fault decisions")
	dropRates := flag.String("drop-rates", "0,0.1,0.5,1", "comma-separated mug-interrupt drop probabilities to sweep")
	delayRate := flag.Float64("delay-rate", 0, "mug-interrupt delay probability (applied at every sweep point)")
	delayMax := flag.String("delay-max", "", "max extra interrupt delay, e.g. 500ns (default 10x network latency)")
	vrStuck := flag.Float64("vr-stuck", 0, "probability a regulator transition sticks")
	vrSlow := flag.Float64("vr-slow", 0, "probability a regulator transition is slowed")
	vrSlowMax := flag.Float64("vr-slow-max", 0, "max regulator slow-down factor (default 16)")
	failSpecs := flag.String("fail", "", "comma-separated core fail-stops: CORE@TIME, TIME = 40% of baseline or absolute (120us)")
	throttleSpecs := flag.String("throttle", "", "comma-separated throttles: CORE@TIME:FACTOR:FOR, e.g. 3@40%:0.5:50us")
	maxEvents := flag.Uint64("max-events", 200_000_000, "liveness watchdog: abort after this many simulation events (0 = unlimited)")
	verify := flag.Bool("verify", false, "run every cell twice and require bit-identical reports")
	csv := flag.Bool("csv", false, "emit CSV instead of the human-readable table")
	useCache := flag.Bool("cache", false, "run cells through the jobs executor with a content-addressed result cache")
	cacheDir := flag.String("cache-dir", "", "on-disk result store (implies -cache)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "executor worker-pool size (with -cache)")
	fabricMode := flag.Bool("fabric", false, "run the distributed-fabric chaos scenarios instead of the fault sweep")
	fabricScenario := flag.String("fabric-scenario", "all", "fabric chaos scenario: coord-crash, zombie, reorder, cache-outage, failstop, or all")
	fabricNodes := flag.Int("fabric-nodes", 3, "fabric chaos: in-process worker nodes")
	fabricFP := flag.String("fabric-fingerprint", "", "fabric chaos: committed fingerprint file to gate the reference, coord-crash and failstop against")
	fabricOut := flag.String("fabric-out", "", "fabric chaos: write a JSON report")
	prof := profiling.AddFlags("chaos")
	flag.Parse()

	if *fabricMode {
		os.Exit(runFabricChaos(fabricChaosOptions{
			scenario: *fabricScenario,
			nodes:    *fabricNodes,
			system:   *system,
			seed:     *seed,
			scale:    *scale,
			fpPath:   *fabricFP,
			outPath:  *fabricOut,
		}))
	}

	run := runner(func(spec core.Spec, _ bool) (core.Result, error) { return core.Run(spec) })
	if *useCache || *cacheDir != "" {
		cache, err := jobs.NewCache(4096, *cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
		ex := jobs.NewExecutor(jobs.Config{Workers: *workers, Cache: cache})
		defer ex.Close()
		run = func(spec core.Spec, forceFresh bool) (core.Result, error) {
			res, _, err := ex.Result(context.Background(), spec, jobs.SubmitOptions{NoCache: forceFresh})
			return res, err
		}
	}
	// Count cells and simulation events for the -benchjson summary.
	innerRun := run
	run = func(spec core.Spec, forceFresh bool) (core.Result, error) {
		res, err := innerRun(spec, forceFresh)
		if err == nil {
			prof.Cells++
			prof.Events += res.Report.Events
		}
		return res, err
	}

	sys, ok := core.ParseSystem(*system)
	if !ok {
		fatalf("unknown system %q", *system)
	}
	var variants []wsrt.Variant
	for _, s := range strings.Split(*variantsFlag, ",") {
		v, ok := wsrt.ParseVariant(strings.TrimSpace(s))
		if !ok {
			fatalf("unknown variant %q", s)
		}
		variants = append(variants, v)
	}
	if err := prof.Start(); err != nil {
		fatalf("%v", err)
	}
	kernelList := splitList(*kernelsFlag)
	var rates []float64
	for _, s := range splitList(*dropRates) {
		r, err := strconv.ParseFloat(s, 64)
		if err != nil || r < 0 || r > 1 {
			fatalf("bad drop rate %q", s)
		}
		rates = append(rates, r)
	}
	fails, err := parseFails(*failSpecs)
	if err != nil {
		fatalf("%v", err)
	}
	throttles, err := parseThrottles(*throttleSpecs)
	if err != nil {
		fatalf("%v", err)
	}
	var delayMaxT sim.Time
	if *delayMax != "" {
		if delayMaxT, err = parseTime(*delayMax); err != nil {
			fatalf("bad -delay-max: %v", err)
		}
	}

	if *csv {
		fmt.Println("kernel,variant,system,seed,fault_seed,drop_rate,delay_rate,vr_stuck,vr_slow,fails,throttles," +
			"time_ps,time_ratio,energy,energy_ratio,core_fails,tasks_rescued,msgs_dropped,msgs_delayed," +
			"mug_timeouts,mug_resends,mug_abandoned,mug_stale,stuck_regs,verified")
	}

	exitCode := 0
	for _, kname := range kernelList {
		for _, v := range variants {
			base := core.DefaultSpec(kname, sys, v)
			base.Scale = *scale
			base.Seed = *seed
			base.MaxEvents = *maxEvents
			if err := base.Validate(); err != nil {
				fatalf("%v", err)
			}
			baseRes, err := run(base, false)
			if err != nil {
				fatalf("baseline %s/%s: %v", kname, v, err)
			}
			if err := baseRes.Verify(); err != nil {
				fatalf("baseline %s/%s failed verification: %v", kname, v, err)
			}
			if !*csv {
				fmt.Printf("%s on %s under %s (seed %d, fault seed %d)\n", kname, sys, v, *seed, *faultSeed)
				fmt.Printf("  %-28s time %14v   energy %10.4g   (fault-free baseline, verified OK)\n",
					"baseline", baseRes.Report.ExecTime, baseRes.Report.TotalEnergy)
			}
			for _, rate := range rates {
				fc := &fault.Config{
					Seed:         *faultSeed,
					MugDropRate:  rate,
					MugDelayRate: *delayRate,
					MugDelayMax:  delayMaxT,
					VRStuckRate:  *vrStuck,
					VRSlowRate:   *vrSlow,
					VRSlowMax:    *vrSlowMax,
					Fails:        resolveFails(fails, baseRes.Report.ExecTime),
					Throttles:    resolveThrottles(throttles, baseRes.Report.ExecTime),
				}
				if !fc.Enabled() {
					fc = nil
				}
				spec := base
				spec.Faults = fc
				if err := runCell(run, spec, baseRes, rate, *verify, *csv); err != nil {
					fmt.Fprintf(os.Stderr, "FAIL %s/%s drop=%g: %v\n", kname, v, rate, err)
					exitCode = 1
				}
			}
		}
	}
	// Explicit rather than deferred: os.Exit skips defers.
	prof.Stop()
	os.Exit(exitCode)
}

// runCell runs one sweep point, verifies correctness, optionally re-runs it
// to prove bit-reproducibility, and prints one row.
func runCell(run runner, spec core.Spec, base core.Result, rate float64, verify, csv bool) error {
	res, err := run(spec, false)
	if err != nil {
		return err
	}
	if err := res.Verify(); err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	verified := "-"
	if verify {
		// The replay must bypass the cache — a cache hit would just hand
		// back the first run's bytes and prove nothing.
		res2, err := run(spec, true)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		f1, f2 := fingerprint(res), fingerprint(res2)
		if f1 != f2 {
			return fmt.Errorf("non-deterministic: fingerprints %x != %x across same-seed runs", f1, f2)
		}
		verified = fmt.Sprintf("%x", f1)
	}
	rep := res.Report
	timeRatio := float64(rep.ExecTime) / float64(base.Report.ExecTime)
	energyRatio := rep.TotalEnergy / base.Report.TotalEnergy
	fc := spec.Faults
	if fc == nil {
		fc = &fault.Config{}
	}
	if csv {
		fmt.Printf("%s,%s,%s,%d,%d,%g,%g,%g,%g,%d,%d,%d,%.4f,%.6g,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
			spec.Kernel, spec.Variant, spec.System, spec.Seed, fc.Seed,
			fc.MugDropRate, fc.MugDelayRate, fc.VRStuckRate, fc.VRSlowRate,
			len(fc.Fails), len(fc.Throttles),
			int64(rep.ExecTime), timeRatio, rep.TotalEnergy, energyRatio,
			rep.CoreFails, rep.TasksRescued, rep.MugsDropped, rep.MugsDelayed,
			rep.MugTimeouts, rep.MugResends, rep.MugAbandoned, rep.MugStale,
			rep.StuckRegs, verified)
		return nil
	}
	label := fmt.Sprintf("drop=%.2f", rate)
	if len(fc.Fails) > 0 {
		label += fmt.Sprintf(" fails=%d", len(fc.Fails))
	}
	fmt.Printf("  %-28s time %14v (%+6.1f%%)  energy %10.4g (%+6.1f%%)  verified OK\n",
		label, rep.ExecTime, 100*(timeRatio-1), rep.TotalEnergy, 100*(energyRatio-1))
	fmt.Printf("  %-28s dropped %d, delayed %d, mug timeouts %d, resends %d, abandoned %d, stale %d\n",
		"", rep.MugsDropped, rep.MugsDelayed, rep.MugTimeouts, rep.MugResends, rep.MugAbandoned, rep.MugStale)
	if rep.CoreFails > 0 || rep.TasksRescued > 0 || rep.StuckRegs > 0 {
		fmt.Printf("  %-28s core fails %d, tasks rescued %d, stuck regulators %d\n",
			"", rep.CoreFails, rep.TasksRescued, rep.StuckRegs)
	}
	if verify {
		fmt.Printf("  %-28s replay fingerprint %s (bit-identical)\n", "", verified)
	}
	return nil
}

// fingerprint hashes everything observable about a run: the full report
// (timing, energy breakdowns, every counter) and the injected-fault counts.
func fingerprint(res core.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v|%+v", res.Report, res.Faults, res.Regions, res.SerialInstr)
	return h.Sum64()
}

// failSpec is one parsed -fail entry; the time is either a fraction of the
// fault-free baseline execution time or absolute.
type failSpec struct {
	core int
	frac float64 // valid when pct
	abs  sim.Time
	pct  bool
}

type throttleSpec struct {
	failSpec
	factor float64
	dur    sim.Time
}

// parseFails parses "6@40%,5@120us".
func parseFails(s string) ([]failSpec, error) {
	var out []failSpec
	for _, part := range splitList(s) {
		fs, err := parseFailSpec(part)
		if err != nil {
			return nil, err
		}
		out = append(out, fs)
	}
	return out, nil
}

func parseFailSpec(part string) (failSpec, error) {
	c, at, ok := strings.Cut(part, "@")
	if !ok {
		return failSpec{}, fmt.Errorf("bad fail spec %q (want CORE@TIME)", part)
	}
	id, err := strconv.Atoi(c)
	if err != nil {
		return failSpec{}, fmt.Errorf("bad core in fail spec %q", part)
	}
	fs := failSpec{core: id}
	if strings.HasSuffix(at, "%") {
		p, err := strconv.ParseFloat(strings.TrimSuffix(at, "%"), 64)
		if err != nil || p < 0 {
			return failSpec{}, fmt.Errorf("bad percentage in fail spec %q", part)
		}
		fs.pct, fs.frac = true, p/100
		return fs, nil
	}
	if fs.abs, err = parseTime(at); err != nil {
		return failSpec{}, fmt.Errorf("bad time in fail spec %q: %v", part, err)
	}
	return fs, nil
}

// parseThrottles parses "3@40%:0.5:50us" entries.
func parseThrottles(s string) ([]throttleSpec, error) {
	var out []throttleSpec
	for _, part := range splitList(s) {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad throttle spec %q (want CORE@TIME:FACTOR:FOR)", part)
		}
		fs, err := parseFailSpec(fields[0])
		if err != nil {
			return nil, err
		}
		factor, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || factor <= 0 || factor > 1 {
			return nil, fmt.Errorf("bad factor in throttle spec %q", part)
		}
		dur, err := parseTime(fields[2])
		if err != nil {
			return nil, fmt.Errorf("bad duration in throttle spec %q: %v", part, err)
		}
		out = append(out, throttleSpec{failSpec: fs, factor: factor, dur: dur})
	}
	return out, nil
}

// resolveFails converts parsed specs to absolute-time schedule entries
// using the baseline execution time for percentage specs.
func resolveFails(specs []failSpec, baseline sim.Time) []fault.CoreFail {
	var out []fault.CoreFail
	for _, fs := range specs {
		out = append(out, fault.CoreFail{Core: fs.core, At: fs.resolve(baseline)})
	}
	return out
}

func resolveThrottles(specs []throttleSpec, baseline sim.Time) []fault.Throttle {
	var out []fault.Throttle
	for _, ts := range specs {
		out = append(out, fault.Throttle{
			Core: ts.core, At: ts.resolve(baseline), For: ts.dur, Factor: ts.factor,
		})
	}
	return out
}

func (fs failSpec) resolve(baseline sim.Time) sim.Time {
	if fs.pct {
		return sim.Time(fs.frac * float64(baseline))
	}
	return fs.abs
}

// parseTime parses an absolute simulated duration like "120us", "500ns",
// "3ms" or "1.5s".
func parseTime(s string) (sim.Time, error) {
	units := []struct {
		suffix string
		unit   sim.Time
	}{
		{"ns", sim.Nanosecond}, {"us", sim.Microsecond}, {"ms", sim.Millisecond}, {"s", sim.Second},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil || v < 0 {
				return 0, fmt.Errorf("bad duration %q", s)
			}
			return sim.Time(v * float64(u.unit)), nil
		}
	}
	return 0, fmt.Errorf("bad duration %q (want a ns/us/ms/s suffix)", s)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
