package machine

import (
	"testing"

	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/sim"
)

func new4B4L(t *testing.T, mode model.Mode) (*sim.Engine, *Machine) {
	t.Helper()
	p := power.DefaultParams()
	cfg := model.Config{Params: p, NBig: 4, NLit: 4}
	lut := model.GenerateLUT(cfg, mode)
	eng := sim.NewEngine()
	m, err := New(eng, Config{Classes: cfg.NConfig().Classes, LUT: lut, InterruptCycles: 20})
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestLayout(t *testing.T) {
	_, m := new4B4L(t, model.ModeNominal)
	if m.NumCores() != 8 {
		t.Fatalf("cores = %d", m.NumCores())
	}
	for i := 0; i < 4; i++ {
		if m.Class(i) != power.Big {
			t.Errorf("core %d should be big", i)
		}
	}
	for i := 4; i < 8; i++ {
		if m.Class(i) != power.Little {
			t.Errorf("core %d should be little", i)
		}
	}
}

func TestValidation(t *testing.T) {
	p := power.DefaultParams()
	lut := model.GenerateLUT(model.Config{Params: p, NBig: 4, NLit: 4}, model.ModeNominal)
	eng := sim.NewEngine()
	mix := func(nBig, nLit int) []model.NClass {
		return model.Config{Params: p, NBig: nBig, NLit: nLit}.NConfig().Classes
	}
	if _, err := New(eng, Config{Classes: mix(0, 8), LUT: lut}); err == nil {
		t.Error("accepted a machine with no big core")
	}
	if _, err := New(eng, Config{Classes: mix(2, 6), LUT: lut}); err == nil {
		t.Error("accepted a LUT/machine shape mismatch")
	}
	if _, err := New(eng, Config{Classes: mix(4, 4)}); err == nil {
		t.Error("accepted nil LUT")
	}
}

func TestWaitingDowngradesToResting(t *testing.T) {
	eng, m := new4B4L(t, model.ModePacingSprinting)
	// Core 7 stops finding work: after its hint the controller parks it,
	// and its accounting state becomes Resting.
	m.SetState(7, power.StateWaiting)
	m.HintActivity(7, false)
	eng.Run(0)
	if m.State(7) != power.StateResting {
		t.Errorf("core 7 state = %v, want resting", m.State(7))
	}
	// Reactivation flips it back.
	m.HintActivity(7, true)
	m.SetState(7, power.StateActive)
	if m.State(7) != power.StateActive {
		t.Errorf("core 7 state = %v, want active", m.State(7))
	}
}

func TestNoRestingUnderNominalLUT(t *testing.T) {
	eng, m := new4B4L(t, model.ModeNominal)
	m.SetState(7, power.StateWaiting)
	m.HintActivity(7, false)
	eng.Run(0)
	if m.State(7) != power.StateWaiting {
		t.Errorf("core 7 state = %v under nominal LUT, want waiting", m.State(7))
	}
}

func TestStateSinkFires(t *testing.T) {
	_, m := new4B4L(t, model.ModeNominal)
	var events []int
	m.OnState = func(_ sim.Time, id int, _ power.CoreState) { events = append(events, id) }
	m.SetState(3, power.StateActive)
	m.SetState(3, power.StateActive) // duplicate: no event
	m.SetState(3, power.StateWaiting)
	if len(events) != 2 {
		t.Errorf("events = %v, want 2 transitions", events)
	}
}

func TestEnergyAccumulates(t *testing.T) {
	eng, m := new4B4L(t, model.ModeNominal)
	m.SetState(0, power.StateActive)
	eng.RunUntil(100 * sim.Microsecond)
	m.Finish()
	if m.TotalEnergy() <= 0 {
		t.Error("no energy accumulated")
	}
	bd := m.EnergyBreakdown()
	if len(bd) != 8 {
		t.Fatalf("breakdown for %d cores", len(bd))
	}
	if bd[0].ActiveEnergy <= 0 {
		t.Error("core 0 active energy missing")
	}
	if bd[1].WaitingEnergy <= 0 {
		t.Error("core 1 waiting energy missing")
	}
	// A big active core at the same voltage burns more than a little
	// waiting core... both at nominal with WaitActivity=1 burn per class;
	// check big > little here.
	if bd[0].ActiveEnergy <= bd[5].WaitingEnergy {
		t.Error("big active energy should exceed little waiting energy")
	}
}

func TestInterruptLatencyDefault(t *testing.T) {
	_, m := new4B4L(t, model.ModeNominal)
	// 20 cycles at 333MHz ~ 60ns.
	lat := m.Net.Latency()
	if lat < 55*sim.Nanosecond || lat > 65*sim.Nanosecond {
		t.Errorf("interrupt latency = %v, want ~60ns", lat)
	}
}
