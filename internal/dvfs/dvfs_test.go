package dvfs

import (
	"testing"

	"aaws/internal/model"
	"aaws/internal/sim"
	"aaws/internal/vf"
	"aaws/internal/vr"
)

func newSystem(t *testing.T, mode model.Mode) (*sim.Engine, *Controller, []*vr.Regulator) {
	t.Helper()
	cfg := model.DefaultConfig() // 4B4L
	lut := model.GenerateLUT(cfg, mode)
	eng := sim.NewEngine()
	ranks := make([]int, 8)
	regs := make([]*vr.Regulator, 8)
	for i := 0; i < 8; i++ {
		if i >= 4 {
			ranks[i] = 1 // little
		}
		regs[i] = vr.New(eng, vf.VNominal)
	}
	return eng, New(eng, lut, ranks, regs), regs
}

func TestNominalControllerNeverMoves(t *testing.T) {
	eng, c, regs := newSystem(t, model.ModeNominal)
	for i := 0; i < 8; i++ {
		c.SetActivity(i, i%2 == 0)
	}
	eng.Run(0)
	for i, r := range regs {
		if r.Voltage() != vf.VNominal {
			t.Errorf("core %d at %g, want nominal", i, r.Voltage())
		}
	}
	if c.Transitions() != 0 {
		t.Errorf("%d transitions under the nominal LUT", c.Transitions())
	}
}

func TestPacingAppliesOnlyWhenAllActive(t *testing.T) {
	eng, c, regs := newSystem(t, model.ModePacing)
	// Everything starts active -> all-active entry applies immediately on
	// the first decision (triggered here by a no-op toggle pair).
	c.SetActivity(0, false)
	c.SetActivity(0, true)
	eng.Run(0)
	if !(regs[0].Voltage() < vf.VNominal) {
		t.Errorf("big core at %g under pacing all-active, want < nominal", regs[0].Voltage())
	}
	if !(regs[4].Voltage() > vf.VNominal) {
		t.Errorf("little core at %g under pacing all-active, want > nominal", regs[4].Voltage())
	}
	// Drop one core from the active set: pacing LUT reverts to nominal.
	c.SetActivity(7, false)
	eng.Run(0)
	for i, r := range regs {
		if r.Voltage() != vf.VNominal {
			t.Errorf("core %d at %g after activity drop, want nominal", i, r.Voltage())
		}
	}
}

func TestSprintingRestsInactive(t *testing.T) {
	eng, c, regs := newSystem(t, model.ModePacingSprinting)
	// 2B2L active.
	for _, id := range []int{2, 3, 6, 7} {
		c.SetActivity(id, false)
	}
	eng.Run(0)
	for _, id := range []int{2, 3, 6, 7} {
		if regs[id].Voltage() != vf.VMin {
			t.Errorf("inactive core %d at %g, want VMin", id, regs[id].Voltage())
		}
	}
	// Active cores pick up the slack: little sprints above nominal.
	if !(regs[4].Voltage() > vf.VNominal) {
		t.Errorf("active little at %g, want sprinting above nominal", regs[4].Voltage())
	}
	if !(regs[0].Voltage() > regs[2].Voltage()) {
		t.Error("active big not above rested big")
	}
}

func TestSerialSprint(t *testing.T) {
	eng, c, regs := newSystem(t, model.ModePacingSprinting)
	c.SetSerial(0, true)
	eng.Run(0)
	if regs[0].Voltage() != vf.VMax {
		t.Errorf("serial core at %g, want VMax", regs[0].Voltage())
	}
	for i := 1; i < 8; i++ {
		if regs[i].Voltage() != vf.VMin {
			t.Errorf("core %d at %g during serial region, want VMin", i, regs[i].Voltage())
		}
	}
	c.SetSerial(0, false)
	eng.Run(0)
	if regs[0].Voltage() == vf.VMax {
		t.Error("serial sprint not released")
	}
}

func TestDeferredDecisionDuringTransition(t *testing.T) {
	eng, c, _ := newSystem(t, model.ModePacingSprinting)
	// First decision starts transitions.
	c.SetActivity(7, false)
	before := c.Decisions()
	// Second change arrives while regulators are still settling: the
	// controller must defer it.
	c.SetActivity(6, false)
	if c.Decisions() != before {
		t.Error("controller decided during an in-flight transition")
	}
	eng.Run(0)
	if c.Decisions() <= before {
		t.Error("deferred decision never executed")
	}
}

func TestActivityBitIdempotent(t *testing.T) {
	_, c, _ := newSystem(t, model.ModePacingSprinting)
	d := c.Decisions()
	c.SetActivity(3, true) // already true
	if c.Decisions() != d {
		t.Error("redundant activity toggle caused a decision")
	}
}
