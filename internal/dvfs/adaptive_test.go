package dvfs

import (
	"testing"

	"aaws/internal/model"
	"aaws/internal/sim"
	"aaws/internal/vf"
)

// fakeSensors lets the test script throughput/power responses.
type fakeSensors struct {
	retired float64
	power   float64
}

func (f *fakeSensors) sensors() Sensors {
	return Sensors{
		Retired: func() float64 { return f.retired },
		Power:   func() float64 { return f.power },
	}
}

func newTunedSystem(t *testing.T) (*sim.Engine, *Controller, *fakeSensors, *Tuner) {
	t.Helper()
	eng, ctl, _ := newSystem(t, model.ModePacingSprinting)
	fs := &fakeSensors{power: 1}
	tuner := NewTuner(eng, ctl, fs.sensors(), 100, vf.Default(), DefaultTunerConfig(),
		func() bool { return eng.Now() < 200*sim.Microsecond })
	ctl.SetTuner(tuner)
	return eng, ctl, fs, tuner
}

func TestTunerAdjustClamps(t *testing.T) {
	_, ctl, _, tuner := newTunedSystem(t)
	idx44 := ctl.LUT().Table.Index([]int{4, 4})
	tuner.entries[idx44] = &tuneEntry{off: []float64{-10, +10}, trial: -1}
	e := tuner.Adjust(idx44, []float64{1.0, 1.0})
	if e[0] != vf.VMin || e[1] != vf.VMax {
		t.Errorf("Adjust did not clamp: %v", e)
	}
	// Unknown combos pass through untouched.
	e = tuner.Adjust(ctl.LUT().Table.Index([]int{1, 2}), []float64{0.93, 1.21})
	if e[0] != 0.93 || e[1] != 1.21 {
		t.Errorf("Adjust modified unknown combo: %v", e)
	}
}

// TestTunerClimbsWhenRewarded scripts a sensor where *lower big voltage*
// yields more throughput (within power): after enough ticks the tuner must
// have accepted at least one adjustment in that direction.
func TestTunerClimbsWhenRewarded(t *testing.T) {
	eng, ctl, fs, tuner := newTunedSystem(t)
	tuner.Start()

	// Throughput improves as the big voltage drops below nominal (the
	// scripted "true" optimum disagrees with the LUT).
	idx44 := ctl.LUT().Table.Index([]int{4, 4})
	step := func() {
		e := tuner.Adjust(idx44, ctl.LUT().Table.Entries[idx44])
		// reward: rate proportional to (1.4 - VBig): lower VBig is better.
		ratePerSec := (1.4 - e[0]) * 1e9
		fs.retired += ratePerSec * sim.Microsecond.Seconds()
	}
	// Drive the simulation manually: advance in 1us ticks, feeding the
	// sensor between tuner ticks.
	for i := 0; i < 150; i++ {
		step()
		eng.RunUntil(eng.Now() + sim.Microsecond)
	}
	if tuner.Trials() == 0 {
		t.Fatal("tuner never trialed a perturbation")
	}
	if tuner.Adjustments() == 0 {
		t.Fatal("tuner never accepted an adjustment despite scripted reward")
	}
	s := tuner.entries[idx44]
	if s == nil || s.off[0] >= 0 {
		t.Errorf("tuner did not lower the big voltage (entry %+v)", s)
	}
}

// TestTunerRespectsPowerTarget: adjustments that would bust the power
// budget are rejected even if throughput improves.
func TestTunerRespectsPowerTarget(t *testing.T) {
	eng, _, fs, tuner := newTunedSystem(t)
	fs.power = 1000 // way over the target of 100
	tuner.Start()
	for i := 0; i < 100; i++ {
		fs.retired += float64(i) * 1e3 // ever-increasing rate
		eng.RunUntil(eng.Now() + sim.Microsecond)
	}
	if tuner.Adjustments() != 0 {
		t.Errorf("tuner accepted %d adjustments while over the power target", tuner.Adjustments())
	}
}

// TestTunerStopsWhenDead: the tick must not re-arm after alive() goes
// false, so the event queue drains.
func TestTunerStopsWhenDead(t *testing.T) {
	eng, ctl, fs, _ := newTunedSystem(t)
	tuner := NewTuner(eng, ctl, fs.sensors(), 100, vf.Default(), DefaultTunerConfig(),
		func() bool { return eng.Now() < 5*sim.Microsecond })
	tuner.Start()
	n := eng.Run(10000)
	if n >= 10000 {
		t.Fatal("tuner tick kept the engine alive past the alive() horizon")
	}
}
