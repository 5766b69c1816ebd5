// Package core is the top-level facade of the AAWS reproduction: it wires
// kernels, the simulated machine, the work-stealing runtime, region
// tracking and activity tracing into single-call experiment drivers used by
// the command-line tools, the examples, and the benchmark harness.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"aaws/internal/dvfs"
	"aaws/internal/fault"
	"aaws/internal/kernels"
	"aaws/internal/machine"
	"aaws/internal/model"
	"aaws/internal/obs"
	"aaws/internal/power"
	"aaws/internal/sim"
	"aaws/internal/stats"
	"aaws/internal/trace"
	"aaws/internal/wsrt"
)

// System identifies one of the paper's two target systems.
type System int

const (
	// Sys4B4L is the four-big/four-little system of Table I.
	Sys4B4L System = iota
	// Sys1B7L is the one-big/seven-little system.
	Sys1B7L
)

// String implements fmt.Stringer.
func (s System) String() string {
	if s == Sys1B7L {
		return "1B7L"
	}
	return "4B4L"
}

// Counts returns the big/little core mix.
func (s System) Counts() (nBig, nLit int) {
	if s == Sys1B7L {
		return 1, 7
	}
	return 4, 4
}

// ParseSystem converts "4B4L"/"1B7L".
func ParseSystem(s string) (System, bool) {
	switch s {
	case "4B4L", "4b4l":
		return Sys4B4L, true
	case "1B7L", "1b7l":
		return Sys1B7L, true
	}
	return 0, false
}

// Spec describes one simulation run.
type Spec struct {
	Kernel  string
	System  System
	Variant wsrt.Variant
	Seed    uint64
	Scale   float64
	// WithTrace records the per-core activity/DVFS profile (Figures 1, 7).
	WithTrace bool
	// MemStall enables the optional frequency-independent memory-stall
	// model derived from the kernel's MPKI (ablation; the paper's
	// first-order model keeps IPC constant).
	MemStall bool
	// Check validates the kernel result against its serial reference.
	Check bool
	// InterruptCycles overrides the mug interrupt latency in nominal
	// cycles (0 = the paper's 20; Section IV-D sweeps to 1000).
	InterruptCycles int
	// TransitionNsPerStep overrides the regulator step latency (0 = the
	// paper's 40 ns; Section IV-D sweeps to 250 ns).
	TransitionNsPerStep float64
	// DisableBiasing turns off work-biasing (ablation; the aggressive
	// baseline keeps it on, Section III-C).
	DisableBiasing bool
	// Victim overrides the steal-victim policy (default occupancy-based).
	Victim wsrt.VictimPolicy
	// AdaptiveDVFS layers the online counter-driven tuner (the paper's
	// future-work adaptive controller) on top of the lookup table.
	AdaptiveDVFS bool
	// LUTAlpha/LUTBeta, when non-zero, generate the offline DVFS lookup
	// table with *these* estimates instead of the kernel's true alpha and
	// beta — emulating a mis-calibrated LUT for the adaptive-DVFS study.
	LUTAlpha, LUTBeta float64
	// NBig/NLit, when both set (NBig >= 1), override System with a custom
	// core mix — the model, LUT generation, runtime, and region tracking
	// all generalize to arbitrary shapes.
	NBig, NLit int
	// Topology, when non-empty, replaces the 2-class core mix with an
	// N-way class list (fastest first; see CoreClass for defaults and for
	// the topologies that resolve to a preset). Mutually exclusive with NBig/NLit, and — like
	// every field added after the seed — omitted from the canonical spec
	// encoding when unset, so existing spec hashes are unchanged.
	Topology []CoreClass `json:",omitempty"`
	// Elastic enables elastic work-stealing: waiting workers park on a
	// simulated semaphore at rest power and are woken by deque surplus,
	// instead of spinning (see wsrt.Config.Elastic).
	Elastic bool `json:",omitempty"`
	// ElasticWakeCycles overrides the park-to-running wake latency in
	// nominal cycles (0 = the default 200; see wsrt.Config.ElasticWakeCycles).
	ElasticWakeCycles float64 `json:",omitempty"`
	// CacheModel switches steal/mug migration penalties from fixed
	// constants to the Table I cache-hierarchy model driven by each
	// task's working-set estimate (high-fidelity mode).
	CacheModel bool
	// Sched selects work stealing (default) or the central-queue
	// work-sharing organization (extension study).
	Sched wsrt.Scheduler
	// Faults, when non-nil and enabled, injects the described deterministic
	// fault schedule into the machine (lossy interrupt network, core
	// fail-stops and throttles, stuck/slow regulators).
	Faults *fault.Config
	// MaxEvents bounds the total simulation events (liveness watchdog): the
	// run returns an error instead of hanging if a fault the runtime cannot
	// recover from livelocks the machine. 0 = no limit.
	MaxEvents uint64
}

// Validate checks the spec before any hardware is built: the kernel must
// exist, the core mix must have at least one big core (core 0 hosts the
// root program) and no negative counts, the scale must be positive, the
// variant must be one of the paper's five, and any fault schedule must be
// consistent with the core mix.
func (s Spec) Validate() error {
	_, err := s.resolve()
	return err
}

// resolve validates the spec and returns its resolved machine.
func (s Spec) resolve() (machineDesc, error) {
	if kernels.Get(s.Kernel) == nil {
		return machineDesc{}, fmt.Errorf("core: unknown kernel %q (have %v)", s.Kernel, kernels.Names())
	}
	if s.NBig < 0 || s.NLit < 0 {
		return machineDesc{}, fmt.Errorf("core: negative core counts %dB%dL", s.NBig, s.NLit)
	}
	if s.NBig == 0 && s.NLit > 0 {
		return machineDesc{}, fmt.Errorf("core: custom mix 0B%dL has no big core (core 0 hosts the root program)", s.NLit)
	}
	if s.NBig == 0 && s.System != Sys4B4L && s.System != Sys1B7L {
		return machineDesc{}, fmt.Errorf("core: unknown system %d", int(s.System))
	}
	if s.Scale <= 0 {
		return machineDesc{}, fmt.Errorf("core: scale %g must be positive", s.Scale)
	}
	known := false
	for _, v := range wsrt.Variants {
		if v == s.Variant {
			known = true
			break
		}
	}
	if !known {
		return machineDesc{}, fmt.Errorf("core: unknown runtime variant %d", int(s.Variant))
	}
	if len(s.Topology) > 0 {
		if s.NBig > 0 || s.NLit > 0 {
			return machineDesc{}, fmt.Errorf("core: Topology and NBig/NLit are mutually exclusive")
		}
		if s.AdaptiveDVFS {
			return machineDesc{}, fmt.Errorf("core: adaptive DVFS is not supported with an N-way topology")
		}
		if s.LUTAlpha > 0 || s.LUTBeta > 0 {
			return machineDesc{}, fmt.Errorf("core: LUTAlpha/LUTBeta overrides are not supported with an N-way topology")
		}
	}
	m, err := resolveMachine(s)
	if err != nil {
		return machineDesc{}, err
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(m.numCores()); err != nil {
			return machineDesc{}, err
		}
	}
	return m, nil
}

// CoreLabels returns the per-core labels trace outputs use for spec's
// machine (see trace.CoreNames): B0…/L0… on a 2-class machine, one label
// per core of each class otherwise. It returns nil for an invalid spec.
func CoreLabels(spec Spec) []string {
	m, err := resolveMachine(spec)
	if err != nil {
		return nil
	}
	return trace.CoreNames(model.NConfig{Classes: m.classes}.Counts()...)
}

// DefaultSpec returns a Spec with the evaluation defaults.
func DefaultSpec(kernel string, sys System, v wsrt.Variant) Spec {
	return Spec{Kernel: kernel, System: sys, Variant: v, Seed: 42, Scale: 1.0, Check: true}
}

// Result is the outcome of one run.
type Result struct {
	Spec    Spec
	Report  wsrt.Report
	Regions stats.Breakdown
	Trace   *trace.Recorder // nil unless Spec.WithTrace
	// SchedTrace is the scheduler/DVFS event flight recorder (steals, mugs,
	// region transitions, voltage commands); nil unless Spec.WithTrace.
	SchedTrace *obs.Trace
	// SerialInstr is the total app+serial instruction count: the cost of
	// an optimized serial implementation doing the same work.
	SerialInstr float64
	CheckErr    error
	// Alpha and Beta echo the kernel's Table III parameters.
	Alpha, Beta float64
	// Faults counts the faults actually injected (zero value when the spec
	// had no fault schedule).
	Faults fault.Stats
}

// Verify runs the post-run correctness checks: the kernel's output matches
// its serial reference (when Spec.Check was set), the scheduler's
// exactly-once and mug-accounting invariants hold, and the per-core energy
// accounting conserved time. These must hold under any fault schedule —
// faults may only degrade performance, never correctness.
func (r Result) Verify() error {
	if r.CheckErr != nil {
		return r.CheckErr
	}
	if err := r.Report.CheckInvariants(); err != nil {
		return err
	}
	return stats.CheckConservation(r.Report.Energy, r.Report.ExecTime)
}

// SerialTimeLittle returns the modelled execution time of the serial
// implementation on one little in-order core at nominal frequency
// (Table III's "Opt IO Cyc" baseline).
func (r Result) SerialTimeLittle() float64 {
	p := power.DefaultParams().WithAlphaBeta(r.Alpha, r.Beta)
	return r.SerialInstr / p.NominalIPS(power.Little)
}

// SerialTimeBig returns the serial time on one big core at nominal
// frequency.
func (r Result) SerialTimeBig() float64 {
	p := power.DefaultParams().WithAlphaBeta(r.Alpha, r.Beta)
	return r.SerialInstr / p.NominalIPS(power.Big)
}

// SpeedupVsLittle returns parallel speedup over the serial little-core run.
func (r Result) SpeedupVsLittle() float64 {
	return r.SerialTimeLittle() / r.Report.ExecTime.Seconds()
}

// SpeedupVsBig returns parallel speedup over the serial big-core run.
func (r Result) SpeedupVsBig() float64 {
	return r.SerialTimeBig() / r.Report.ExecTime.Seconds()
}

// lutKey identifies a DVFS lookup table by everything generation depends
// on: the resolved machine signature (which pins every class's count, side
// and alpha/beta), the mode, and any LUT alpha/beta override.
type lutKey struct {
	sig               string
	mode              model.Mode
	lutAlpha, lutBeta float64 // 0,0 = the machine's own parameters
}

// lutKeyOf returns the table key of spec on machine m. The override
// applies only when both estimates are set.
func lutKeyOf(m machineDesc, spec Spec) lutKey {
	k := lutKey{sig: m.sig, mode: spec.Variant.LUTMode()}
	if spec.LUTAlpha > 0 && spec.LUTBeta > 0 {
		k.lutAlpha, k.lutBeta = spec.LUTAlpha, spec.LUTBeta
	}
	return k
}

// lutNode is one entry in the LRU list (most recently used at head).
type lutNode struct {
	key        lutKey
	lut        *model.LUT
	prev, next *lutNode
}

// lutCache memoizes generated lookup tables across runs with size-capped
// LRU eviction. LUT generation is by far the most expensive part of a
// small simulation (hundreds of bisection-based optimizations), and a
// sweep regenerates the same handful of tables for every cell. A LUT is
// never mutated after generation (the tuner's Adjust returns copies), so
// sharing one across concurrent runs is safe and cannot perturb schedules.
// The cache is size-capped because the jobs service accepts
// caller-supplied LUTAlpha/LUTBeta, which would otherwise grow the key
// space without bound; once full, the least recently used table is
// evicted, so a long-running server with diverse specs keeps serving its
// working set from cache instead of degrading to uncached generation.
var lutCache = struct {
	sync.Mutex
	m          map[lutKey]*lutNode
	head, tail *lutNode
	max        int
}{m: map[lutKey]*lutNode{}, max: lutCacheMax}

const lutCacheMax = 256

// moveToFront makes n the head of the LRU list. Caller holds the lock.
func lutMoveToFront(n *lutNode) {
	c := &lutCache
	if c.head == n {
		return
	}
	// Unlink.
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if c.tail == n {
		c.tail = n.prev
	}
	// Push front.
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// cachedLUT returns the lookup table for machine m under key, generating
// and inserting it on a miss. An override generates the table from every
// class's parameters with the estimated alpha/beta (Validate allows it
// only on the paper's pair, whose classes share one Params).
func cachedLUT(m machineDesc, key lutKey) *model.LUT {
	c := &lutCache
	c.Lock()
	if n, ok := c.m[key]; ok {
		lutMoveToFront(n)
		c.Unlock()
		return n.lut
	}
	c.Unlock()
	// Generate outside the lock: generation takes milliseconds and must not
	// serialize unrelated cache hits. Two goroutines racing on the same key
	// may both generate; the table is deterministic, so either copy is
	// interchangeable and the loser's work is merely wasted.
	cfg := model.NConfig{Classes: m.classes}
	if key.lutAlpha > 0 {
		cfg.Classes = append([]model.NClass(nil), m.classes...)
		for i := range cfg.Classes {
			cfg.Classes[i].Params = cfg.Classes[i].Params.WithAlphaBeta(key.lutAlpha, key.lutBeta)
		}
	}
	lut := model.GenerateNWayLUT(cfg, key.mode)
	c.Lock()
	defer c.Unlock()
	if n, ok := c.m[key]; ok {
		lutMoveToFront(n)
		return n.lut
	}
	n := &lutNode{key: key, lut: lut}
	c.m[key] = n
	lutMoveToFront(n)
	if len(c.m) > c.max {
		// Evict the least recently used entry.
		victim := c.tail
		c.tail = victim.prev
		if c.tail != nil {
			c.tail.next = nil
		} else {
			c.head = nil
		}
		delete(c.m, victim.key)
	}
	return lut
}

// Run executes one simulation per spec and returns the result. A zero
// Scale defaults to 1.0; everything else must pass Spec.Validate. Internal
// invariant violations (simulator or scheduler bugs surfacing as panics)
// are converted to errors carrying the kernel/seed context needed to replay
// them.
func Run(spec Spec) (Result, error) {
	return RunCtx(context.Background(), spec)
}

// cellEnv is the spec-invariant execution state one sweep cell needs: the
// resolved kernel, machine class list, DVFS lookup table, a warm
// simulation engine, and a reusable region tracker. RunCtx builds one per
// call; the batch path builds one per partition, every partition sharing
// the batch's single engine.
type cellEnv struct {
	k       *kernels.Kernel
	classes []model.NClass
	lut     *model.LUT
	eng     *sim.Engine
	tracker *stats.Tracker
}

// newCellEnv builds the environment for a validated spec on its resolved
// machine m and engine eng: the (cached) lookup table and a fresh tracker
// sized for the core mix.
func newCellEnv(spec Spec, m machineDesc, eng *sim.Engine) cellEnv {
	return cellEnv{
		k:       kernels.Get(spec.Kernel),
		classes: m.classes,
		lut:     cachedLUT(m, lutKeyOf(m, spec)),
		eng:     eng,
		tracker: stats.NewTracker(m.trackerClasses()),
	}
}

// RunCtx is Run under a context: cancellation or a deadline aborts the
// simulation promptly (the event loop polls ctx.Err every few thousand
// events — a side-effect-free check, so an uncancelled context never
// perturbs the schedule) and returns an error wrapping ctx.Err().
func RunCtx(ctx context.Context, spec Spec) (Result, error) {
	if spec.Scale == 0 {
		spec.Scale = 1.0
	}
	m, err := spec.resolve()
	if err != nil {
		return Result{}, err
	}
	env := newCellEnv(spec, m, engines.get())
	res, reuse, err := runCell(ctx, spec, &env, env.k.Prepare(spec.Seed, spec.Scale))
	if reuse {
		engines.put(env.eng)
	}
	return res, err
}

// runCell executes one simulation cell in env over in, the kernel input
// prepared for the spec's (seed, scale). The engine is Reset and the
// tracker cleared on entry, and the workload is a fresh instance of in, so
// a pinned env and a shared input run every cell from an identical initial
// state and batch results are bit-identical to serial ones. reuse reports
// whether the engine is safe to return to the warm cache: aborted runs
// leave a drained root-program goroutine that may still briefly reference
// the engine, so they forfeit it.
func runCell(ctx context.Context, spec Spec, env *cellEnv, in kernels.Input) (_ Result, reuse bool, _ error) {
	eng, k := env.eng, env.k
	eng.Reset()
	env.tracker.Reset()
	mcfg := machine.Config{
		Classes: env.classes, LUT: env.lut, InterruptCycles: 20,
		TransitionNsPerStep: spec.TransitionNsPerStep,
	}
	if spec.InterruptCycles > 0 {
		mcfg.InterruptCycles = spec.InterruptCycles
	}
	if spec.MemStall {
		// MPKI misses * 200ns DRAM latency amortized per instruction.
		mcfg.MemStallPsPerInstr = k.MPKI / 1000 * 200e3
	}
	m, err := machine.New(eng, mcfg)
	if err != nil {
		return Result{}, true, err
	}

	tracker := env.tracker
	var rec *trace.Recorder
	var st *obs.Trace
	if spec.WithTrace {
		rec = trace.NewRecorder(m.NumCores())
		st = obs.NewTrace(0)
	}
	if rec != nil {
		m.OnState = func(now sim.Time, id int, stt power.CoreState) {
			tracker.OnState(now, id, stt)
			rec.OnState(now, id, stt)
		}
		m.OnVoltage = func(now sim.Time, id int, v float64) {
			rec.OnVoltage(now, id, v)
			// Arg carries the commanded voltage in millivolts.
			st.Emit(now, obs.KindVoltage, int16(id), int64(v*1000))
		}
		m.Ctl.OnDecision = func(nBA, nLA int) {
			st.Emit(eng.Now(), obs.KindDVFSDecision, -1, int64(nBA)<<32|int64(nLA))
		}
	} else {
		m.OnState = tracker.OnState
	}
	m.OnSerial = tracker.OnSerial

	rcfg := wsrt.DefaultConfig(spec.Variant)
	rcfg.Seed = spec.Seed
	rcfg.Victim = spec.Victim
	rcfg.CacheMigration = spec.CacheModel
	rcfg.Sched = spec.Sched
	rcfg.Elastic = spec.Elastic
	rcfg.ElasticWakeCycles = spec.ElasticWakeCycles
	if spec.DisableBiasing {
		rcfg.Biasing = false
	}
	rcfg.MaxEvents = spec.MaxEvents
	rcfg.Trace = st
	if ctx != nil && ctx.Done() != nil {
		rcfg.Interrupt = ctx.Err
	}
	rcfg.Progress = ProgressFromContext(ctx)
	rt := wsrt.New(m, rcfg)
	if spec.AdaptiveDVFS {
		tuner := dvfs.NewTuner(eng, m.Ctl,
			dvfs.Sensors{Retired: m.TotalRetired, Power: m.InstantPower},
			model.NConfig{Classes: env.classes}.TargetPower(), env.classes[0].Params.VF,
			dvfs.DefaultTunerConfig(), rt.Running)
		m.Ctl.SetTuner(tuner)
		tuner.Start()
	}
	var inj *fault.Injector
	if spec.Faults != nil && spec.Faults.Enabled() {
		inj = fault.New(*spec.Faults)
		if err := inj.Attach(m); err != nil {
			return Result{}, true, err
		}
		// A fault scheduled after the program completes must not fire: the
		// post-run event drain would otherwise flip idle-core states behind
		// the region tracker's back (its clock follows ExecTime).
		inj.SetAlive(rt.Running)
	}
	w := in.Instance()
	rep, err := executeChecked(rt, w.Run, spec)
	if err != nil {
		return Result{}, false, err
	}

	res := Result{
		Spec:        spec,
		Report:      rep,
		Regions:     tracker.Finish(rep.ExecTime),
		Trace:       rec,
		SchedTrace:  st,
		SerialInstr: rep.AppInstr + rep.SerialInstr,
		Alpha:       k.Alpha,
		Beta:        k.Beta,
	}
	if rec != nil {
		rec.Finish(rep.ExecTime)
	}
	if inj != nil {
		res.Faults = inj.Stats()
	}
	if spec.Check {
		res.CheckErr = w.Check()
	}
	return res, true, nil
}

// executeChecked runs the program under the liveness budget and converts
// any internal panic into an error that names the failing configuration —
// the kernel, machine, seed and fault schedule are everything needed to
// replay the run deterministically.
func executeChecked(rt *wsrt.Runtime, program func(r *wsrt.Run), spec Spec) (rep wsrt.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: internal failure running %s/%s/%s seed=%d faults=%+v: %v\n%s",
				spec.Kernel, MachineName(spec), spec.Variant, spec.Seed, spec.Faults, r, debug.Stack())
		}
	}()
	return rt.ExecuteChecked(program)
}

// MustRun is Run that panics on configuration errors (for benches/examples
// with hardcoded specs).
func MustRun(spec Spec) Result {
	r, err := Run(spec)
	if err != nil {
		panic(err)
	}
	if r.CheckErr != nil {
		panic(fmt.Sprintf("core: %s/%s/%s failed validation: %v",
			spec.Kernel, MachineName(spec), spec.Variant, r.CheckErr))
	}
	return r
}
