package dvfs

import (
	"aaws/internal/sim"
	"aaws/internal/vf"
)

// This file implements the paper's explicitly flagged future-work extension
// (Section III-A): "More sophisticated adaptive algorithms that update the
// lookup tables based on performance and energy counters are possible and
// an interesting direction for future work."
//
// The Tuner hill-climbs per-activity-combination voltage offsets on top of
// the offline lookup table. Every tick it reads a retired-instruction
// counter (throughput) and a power sensor, and trials one voltage
// perturbation at a time, keeping changes that raise throughput without
// busting the power target. Because it only consumes counters, it corrects
// for workloads whose true alpha/beta differ from the estimates the offline
// LUT was generated with.

// Sensors exposes the hardware counters the tuner reads.
type Sensors struct {
	// Retired returns cumulative retired instructions across all cores.
	Retired func() float64
	// Power returns the instantaneous total power draw.
	Power func() float64
}

// TunerConfig parameterizes the adaptation loop.
type TunerConfig struct {
	// Interval between adaptation ticks (default 1us: several DVFS
	// transition times, long enough for rates to be meaningful).
	Interval sim.Time
	// Step is the voltage perturbation per trial (default 0.03 V).
	Step float64
	// PowerSlack is the tolerated excursion above the power target when
	// accepting a trial (default 3%).
	PowerSlack float64
	// MinGain is the relative throughput improvement required to accept a
	// trial (default 0.4%).
	MinGain float64
}

// DefaultTunerConfig returns the defaults above.
func DefaultTunerConfig() TunerConfig {
	return TunerConfig{
		Interval:   sim.Microsecond,
		Step:       0.03,
		PowerSlack: 0.03,
		MinGain:    0.004,
	}
}

// tuneEntry is the learned state for one activity combination (one LUT
// table index).
type tuneEntry struct {
	off      []float64 // accepted per-class offsets on top of the LUT entry
	pre      []float64 // offsets to restore on reject
	bestRate float64   // best observed throughput at the accepted offsets
	trial    int       // -1: not trialing; otherwise the direction under trial
	nextDir  int       // round-robin direction cursor
}

// Trial directions run +class0, -class0, +class1, -class1, ...: direction
// d moves class d/2's offset up (even d) or down (odd d) by one step.

// Tuner adapts LUT entries online. Attach with Controller.SetTuner and
// start with Start (which schedules the periodic tick; the tick re-arms
// only while alive() reports true, so the simulation can drain).
type Tuner struct {
	eng     *sim.Engine
	ctl     *Controller
	sensors Sensors
	cfg     TunerConfig
	target  float64 // power budget (the nominal all-busy power)
	vm      vf.Model
	alive   func() bool

	entries map[int]*tuneEntry
	adjBuf  []float64 // Adjust's result, reused across decisions

	// tickFn is t.tick bound once so periodic re-arming does not allocate.
	tickFn func()

	lastRetired float64
	lastTime    sim.Time
	lastCombo   int
	comboStable bool

	adjustments int // accepted trials (stat)
	trials      int // total trials (stat)
}

// NewTuner builds a tuner for ctl. target is the power budget (equation 6);
// alive gates tick re-arming (return false once the program has finished).
func NewTuner(eng *sim.Engine, ctl *Controller, sensors Sensors, target float64, vm vf.Model, cfg TunerConfig, alive func() bool) *Tuner {
	if cfg.Interval <= 0 {
		cfg = DefaultTunerConfig()
	}
	t := &Tuner{
		eng:     eng,
		ctl:     ctl,
		sensors: sensors,
		cfg:     cfg,
		target:  target,
		vm:      vm,
		alive:   alive,
		entries: map[int]*tuneEntry{},
		adjBuf:  make([]float64, len(ctl.actBuf)),
	}
	t.tickFn = t.tick
	return t
}

// Adjustments returns the number of accepted voltage adjustments.
func (t *Tuner) Adjustments() int { return t.adjustments }

// Trials returns the number of perturbations attempted.
func (t *Tuner) Trials() int { return t.trials }

// Adjust implements the controller hook: apply the learned offsets for the
// activity combination at table index idx to its entry e, clamped to the
// feasible range. The result is valid until the next call; e is never
// modified (it is shared table storage).
func (t *Tuner) Adjust(idx int, e []float64) []float64 {
	s := t.entries[idx]
	if s == nil {
		return e
	}
	for k, v := range e {
		t.adjBuf[k] = t.vm.Clamp(v + s.off[k])
	}
	return t.adjBuf
}

// Start arms the periodic tick.
func (t *Tuner) Start() {
	t.lastRetired = t.sensors.Retired()
	t.lastTime = t.eng.Now()
	t.eng.After(t.cfg.Interval, t.tickFn)
}

// tick is one adaptation step.
func (t *Tuner) tick() {
	if !t.alive() {
		return
	}
	defer t.eng.After(t.cfg.Interval, t.tickFn)

	now := t.eng.Now()
	retired := t.sensors.Retired()
	dt := (now - t.lastTime).Seconds()
	rate := 0.0
	if dt > 0 {
		rate = (retired - t.lastRetired) / dt
	}
	t.lastRetired = retired
	t.lastTime = now

	combo, total := t.ctl.activity()
	stable := combo == t.lastCombo
	t.lastCombo = combo
	if !stable || t.ctl.Serial() || total == 0 {
		// The measurement window straddled an activity change (or a serial
		// region, which serial-sprinting already handles): discard it and,
		// if a trial was in flight for the *previous* combo, keep its
		// state for the next stable window there.
		t.comboStable = false
		return
	}
	if !t.comboStable {
		// First stable window for this combo: baseline only.
		t.comboStable = true
		if s := t.entries[combo]; s != nil && s.trial == -1 {
			s.bestRate = rate
		}
		return
	}

	s := t.entries[combo]
	if s == nil {
		n := len(t.adjBuf)
		s = &tuneEntry{off: make([]float64, n), pre: make([]float64, n), trial: -1}
		t.entries[combo] = s
		s.bestRate = rate
		return
	}

	pow := t.sensors.Power()
	if s.trial >= 0 {
		// Judge the in-flight trial.
		if rate > s.bestRate*(1+t.cfg.MinGain) && pow <= t.target*(1+t.cfg.PowerSlack) {
			s.bestRate = rate
			t.adjustments++
		} else {
			copy(s.off, s.pre)
		}
		s.trial = -1
		t.ctl.Reevaluate()
		return
	}

	// Track drift in the accepted rate (workload phases change), then
	// launch the next trial direction.
	if rate > s.bestRate {
		s.bestRate = rate
	} else {
		// Forget stale bests slowly so the climber can re-explore.
		s.bestRate *= 0.999
	}
	dir := s.nextDir % (2 * len(s.off))
	s.nextDir++
	copy(s.pre, s.off)
	if dir%2 == 0 {
		s.off[dir/2] += t.cfg.Step
	} else {
		s.off[dir/2] -= t.cfg.Step
	}
	s.trial = dir
	t.trials++
	t.ctl.Reevaluate()
}
