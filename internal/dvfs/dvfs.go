// Package dvfs implements the lookup-table-based global DVFS controller of
// Section III-A / IV-D.
//
// The runtime toggles per-core activity bits with lightweight hint
// instructions; the controller maps the per-class active-core counts
// through a lookup table generated offline by the marginal-utility model
// and commands the per-core integrated regulators. Per the paper, cores
// keep executing through transitions at the lower frequency, and the
// controller makes no new decision until the previous transition has fully
// settled.
package dvfs

import (
	"aaws/internal/model"
	"aaws/internal/sim"
	"aaws/internal/vr"
)

// Controller is the global DVFS controller.
type Controller struct {
	eng  *sim.Engine
	lut  *model.LUT
	regs []*vr.Regulator

	active  []bool // activity bits as toggled by hint instructions
	serial  bool   // serial-region bit
	serCore int    // core executing the serial region

	// ranks maps core id to its class rank, which indexes the table's
	// per-class voltage vectors; actBuf is the reusable per-class activity
	// vector.
	ranks  []int
	actBuf []int

	inFlight    int  // regulators still settling from the current decision
	pendingEval bool // an activity change arrived during a transition

	// offline[i] marks regulator i as no longer commanded: its core
	// fail-stopped, or the regulator itself missed a transition deadline
	// (stuck/slow fault) and was abandoned at its last safe voltage. The
	// controller re-derives operating points for the surviving mix only.
	offline []bool
	// deadlineEv[i] is the pending transition-deadline event, if any.
	deadlineEv []sim.Event
	// deadlineFns[i] is the deadline callback for regulator i, built once
	// at construction so arming a deadline does not allocate.
	deadlineFns []func()

	// tuner, when set, adjusts LUT entries online using performance and
	// power counters (the paper's future-work adaptive controller).
	tuner *Tuner

	// OnDecision, when non-nil, observes every committed controller
	// decision with the active-core counts that drove the LUT lookup:
	// nBA in the fastest class, nLA in all others. It must not mutate
	// controller or simulation state.
	OnDecision func(nBA, nLA int)

	// Stats.
	decisions   int
	transitions int
	stuckRegs   int
}

// deadlineMargin sizes the transition deadline as a multiple of the
// nominal settle latency; deadlineFloor guards tiny transitions against
// spurious detection. A healthy regulator settles at 1x nominal, the
// slow-regulator fault inflates up to ~16x, so 4x + floor cleanly
// separates healthy from faulty.
const deadlineMargin = 4

const deadlineFloor = sim.Microsecond

// New returns a controller for the given cores. ranks[i] (the index of
// core i's class in the LUT's class list) and regs[i] describe core i.
// Cores start flagged active (they boot into the parallel runtime holding
// work or probing for it; the runtime corrects the bits immediately).
func New(eng *sim.Engine, lut *model.LUT, ranks []int, regs []*vr.Regulator) *Controller {
	c := &Controller{
		eng:         eng,
		lut:         lut,
		regs:        regs,
		ranks:       ranks,
		actBuf:      make([]int, len(lut.Table.Counts)),
		active:      make([]bool, len(ranks)),
		offline:     make([]bool, len(ranks)),
		deadlineEv:  make([]sim.Event, len(ranks)),
		deadlineFns: make([]func(), len(ranks)),
		serCore:     -1,
	}
	for i := range c.active {
		c.active[i] = true
	}
	for i, r := range regs {
		i := i
		r.OnSettle = func() { c.settled(i) }
		c.deadlineFns[i] = func() { c.onDeadline(i) }
	}
	return c
}

// LUT returns the controller's lookup table.
func (c *Controller) LUT() *model.LUT { return c.lut }

// ActivityBit returns core id's activity bit as last toggled by a hint.
func (c *Controller) ActivityBit(id int) bool { return c.active[id] }

// Serial reports whether the serial-region bit is set.
func (c *Controller) Serial() bool { return c.serial }

// Decisions returns the number of times the controller re-evaluated targets.
func (c *Controller) Decisions() int { return c.decisions }

// Transitions returns the number of regulator transitions commanded.
func (c *Controller) Transitions() int { return c.transitions }

// StuckRegs returns the number of regulators abandoned after missing a
// transition deadline.
func (c *Controller) StuckRegs() int { return c.stuckRegs }

// Offline reports whether regulator id has been taken out of service
// (fail-stopped core or stuck regulator).
func (c *Controller) Offline(id int) bool { return c.offline[id] }

// MarkOffline permanently stops commanding regulator id (used when its
// core fail-stops). An in-flight transition keeps settling on its own; the
// controller simply never issues another command to it.
func (c *Controller) MarkOffline(id int) { c.offline[id] = true }

// RestsInactive reports whether this controller parks inactive cores at
// VMin (work-sprinting semantics).
func (c *Controller) RestsInactive() bool { return c.lut.RestInactive }

// SetActivity is the hint-instruction entry point: core id toggles its
// activity bit to active.
func (c *Controller) SetActivity(id int, active bool) {
	if c.active[id] == active {
		return
	}
	c.active[id] = active
	c.evaluate()
}

// SetSerial flags (or clears) a truly serial region executing on core id.
func (c *Controller) SetSerial(id int, on bool) {
	if c.serial == on {
		return
	}
	c.serial = on
	if on {
		c.serCore = id
	} else {
		c.serCore = -1
	}
	c.evaluate()
}

// activity rolls the activity bits up into the per-class activity vector
// (left in actBuf) and returns its table index and the total active count.
func (c *Controller) activity() (idx, total int) {
	for k := range c.actBuf {
		c.actBuf[k] = 0
	}
	for i, a := range c.active {
		if a {
			c.actBuf[c.ranks[i]]++
			total++
		}
	}
	return c.lut.Table.Index(c.actBuf), total
}

// evaluate recomputes regulator targets. If a transition is still settling
// the evaluation is deferred until it completes (Section IV-D: "new
// decisions cannot be made until the previous transition completes").
// Each core is commanded by its class rank from the table entry for the
// current activity vector.
func (c *Controller) evaluate() {
	if c.inFlight > 0 {
		c.pendingEval = true
		return
	}
	c.decisions++
	idx, total := c.activity()
	if c.OnDecision != nil {
		c.OnDecision(c.actBuf[0], total-c.actBuf[0])
	}
	entry := c.lut.Table.Entries[idx]
	if c.tuner != nil {
		entry = c.tuner.Adjust(idx, entry)
	}
	for i, r := range c.regs {
		if c.offline[i] {
			continue
		}
		t := c.targetFor(i, entry)
		if t != r.Target() {
			c.transitions++
			c.inFlight++
			c.command(i, t)
		}
	}
}

// targetFor computes the commanded voltage for core id from a table entry
// under the current bits.
func (c *Controller) targetFor(id int, entry []float64) float64 {
	if c.serial && c.lut.SerialSprint {
		if id == c.serCore {
			return c.lut.SerialV
		}
		return c.lut.VRest
	}
	if !c.active[id] {
		return c.lut.VRest
	}
	return entry[c.ranks[id]]
}

// command issues one regulator transition and arms its deadline. The
// deadline is sized from the *nominal* settle latency, so a stuck or
// pathologically slow regulator (fault injection) is detected and
// abandoned instead of deferring controller decisions forever.
func (c *Controller) command(i int, t float64) {
	r := c.regs[i]
	deadline := deadlineMargin*r.NominalLatency(t) + deadlineFloor
	r.Set(t)
	// At most one command is ever outstanding per regulator (evaluate is
	// gated on inFlight == 0), so any previous deadline has already fired
	// or been cancelled on settle; Cancel here is a defensive no-op.
	c.deadlineEv[i].Cancel()
	c.deadlineEv[i] = c.eng.After(deadline, c.deadlineFns[i])
}

// onDeadline fires when a commanded transition overstays its deadline.
// A cancelled deadline never fires and only the current command's deadline
// can be armed, so a firing always refers to the outstanding command; if
// the regulator somehow settled at the same instant the Transitioning
// check makes this a no-op. Otherwise the regulator is aborted at its
// current safe voltage, taken offline, and the decision pipeline
// unblocked.
func (c *Controller) onDeadline(i int) {
	c.deadlineEv[i] = sim.Event{}
	if !c.regs[i].Transitioning() {
		return
	}
	c.regs[i].Abort()
	c.offline[i] = true
	c.stuckRegs++
	c.settleOne()
}

// SetTuner installs an online LUT tuner (see adaptive.go).
func (c *Controller) SetTuner(t *Tuner) { c.tuner = t }

// Reevaluate re-runs the decision with the current bits (used by the tuner
// after changing its offsets). Deferred like any decision if a transition
// is in flight.
func (c *Controller) Reevaluate() { c.evaluate() }

// settled is invoked by regulator i when its transition completes.
func (c *Controller) settled(i int) {
	c.deadlineEv[i].Cancel()
	c.deadlineEv[i] = sim.Event{}
	c.settleOne()
}

// settleOne retires one in-flight transition (normal settle or deadline
// abandonment) and re-runs any deferred decision once all have resolved.
func (c *Controller) settleOne() {
	c.inFlight--
	if c.inFlight == 0 && c.pendingEval {
		c.pendingEval = false
		c.evaluate()
	}
}
