// Package machine assembles the simulated hardware of Figure 6: big and
// little cores, per-core integrated voltage regulators, the global DVFS
// controller, the inter-core interrupt network, and per-core energy
// accounting.
//
// The runtime (internal/wsrt) drives the machine: it starts computations on
// cores, toggles activity/serial hints, reports scheduling states for
// energy and region accounting, and sends mug interrupts.
package machine

import (
	"fmt"

	"aaws/internal/cpu"
	"aaws/internal/dvfs"
	"aaws/internal/icn"
	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/sim"
	"aaws/internal/vf"
	"aaws/internal/vr"
)

// Config describes a machine instance.
type Config struct {
	// Classes is the static core mix, fastest class first. Cores are laid
	// out class by class, so core 0 is in class 0 (the runtime pins logical
	// thread 0 there; see Section III-B on keeping the sequential region on
	// a big core). Each class's cores run its Params read from its Side();
	// model.Config.NConfig gives the paper's big.LITTLE pair.
	Classes []model.NClass
	// LUT is the DVFS lookup table implementing the runtime variant; its
	// table must be generated for the same class counts.
	LUT *model.LUT
	// InterruptCycles is the one-way user-level interrupt latency in
	// nominal-frequency cycles (paper: ~an L2 access, 20 cycles).
	InterruptCycles int
	// MemStallPsPerInstr is the optional frequency-independent memory
	// stall per instruction in picoseconds (0 = paper's compute-bound
	// first-order model).
	MemStallPsPerInstr float64
	// TransitionNsPerStep overrides the regulators' per-0.15V transition
	// latency (0 = the paper's 40 ns). Section IV-D's sensitivity study
	// sweeps this to 250 ns.
	TransitionNsPerStep float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Classes) == 0 || c.Classes[0].Count < 1 {
		return fmt.Errorf("machine: class 0 needs at least one core (logical thread 0 lives there)")
	}
	for i, cl := range c.Classes {
		if cl.Count < 0 {
			return fmt.Errorf("machine: class %d has negative count %d", i, cl.Count)
		}
	}
	if c.LUT == nil {
		return fmt.Errorf("machine: nil DVFS LUT")
	}
	counts := c.LUT.Table.Counts
	if len(counts) != len(c.Classes) {
		return fmt.Errorf("machine: LUT has %d classes but machine has %d", len(counts), len(c.Classes))
	}
	for i, cl := range c.Classes {
		if counts[i] != cl.Count {
			return fmt.Errorf("machine: LUT class %d count %d but machine has %d", i, counts[i], cl.Count)
		}
	}
	return nil
}

// StateSink observes true core scheduling-state changes (for region
// classification and activity profiles). now is the transition instant.
type StateSink func(now sim.Time, coreID int, state power.CoreState)

// VoltageSink observes effective-voltage changes (for activity profiles).
type VoltageSink func(now sim.Time, coreID int, volts float64)

// Machine is the assembled simulated hardware.
type Machine struct {
	Eng    *sim.Engine
	Cfg    Config
	Cores  []*cpu.Core
	Regs   []*vr.Regulator
	Ctl    *dvfs.Controller
	Net    *icn.Network
	Acc    []*power.Accountant
	states []power.CoreState
	failed []bool
	parked []bool
	// ranks maps core id to its class rank (0 = fastest).
	ranks []int
	// accParams/accClass are each core's class Params and side, used for
	// instantaneous power.
	accParams []power.Params
	accClass  []power.CoreClass

	// Optional observers.
	OnState   StateSink
	OnVoltage VoltageSink
	// OnSerial observes serial-region flag changes.
	OnSerial func(now sim.Time, on bool)
	// OnCoreFail, if non-nil, is consulted before a fail-stop is applied.
	// The runtime uses it to reclaim the dying core's scheduler state
	// (deque, in-flight task). Returning false defers the failure: the
	// machine does nothing now and the runtime calls FailCore again at the
	// next safe point (e.g. after an in-flight mug swap completes).
	OnCoreFail func(id int) bool
}

// New builds a machine. All cores boot waiting at nominal voltage with
// their activity bits set (the runtime corrects them as workers start).
func New(eng *sim.Engine, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := 0
	for _, cl := range cfg.Classes {
		n += cl.Count
	}
	m := &Machine{
		Eng:       eng,
		Cfg:       cfg,
		Cores:     make([]*cpu.Core, n),
		Regs:      make([]*vr.Regulator, n),
		Acc:       make([]*power.Accountant, n),
		states:    make([]power.CoreState, n),
		failed:    make([]bool, n),
		parked:    make([]bool, n),
		ranks:     make([]int, 0, n),
		accParams: make([]power.Params, 0, n),
		accClass:  make([]power.CoreClass, 0, n),
	}
	for rank, cl := range cfg.Classes {
		for k := 0; k < cl.Count; k++ {
			m.ranks = append(m.ranks, rank)
			m.accParams = append(m.accParams, cl.Params)
			m.accClass = append(m.accClass, cl.Side())
		}
	}
	for i := 0; i < n; i++ {
		reg := vr.New(eng, vf.VNominal)
		if cfg.TransitionNsPerStep > 0 {
			reg.SetStepLatencyNs(cfg.TransitionNsPerStep)
		}
		core := cpu.New(eng, i, m.accClass[i], m.accParams[i], reg)
		core.SetMemStallPs(cfg.MemStallPsPerInstr)
		acct := power.NewAccountant(m.accParams[i], m.accClass[i], eng.Now())
		i := i
		reg.OnChange = func() {
			core.Retime()
			acct.Transition(eng.Now(), acct.State(), reg.Effective())
			if m.OnVoltage != nil {
				m.OnVoltage(eng.Now(), i, reg.Effective())
			}
		}
		m.Regs[i] = reg
		m.Cores[i] = core
		m.Acc[i] = acct
		m.states[i] = power.StateWaiting
	}
	intLat := sim.Time(float64(cfg.InterruptCycles) / vf.FNominal * float64(sim.Second))
	m.Net = icn.New(eng, n, intLat)
	m.Ctl = dvfs.New(eng, cfg.LUT, m.ranks, m.Regs)
	return m, nil
}

// NumCores returns the total core count.
func (m *Machine) NumCores() int { return len(m.Cores) }

// Class returns the side of its class's Params that core id runs: Big or
// Little on the paper's pair, Big for every topology class. Use Rank for
// scheduling decisions.
func (m *Machine) Class(id int) power.CoreClass { return m.Cores[id].Class }

// Rank returns core id's class rank: 0 is the fastest class.
func (m *Machine) Rank(id int) int { return m.ranks[id] }

// SetParked marks core id as parked on the elastic semaphore (or unparks
// it). A parked core draws rest power regardless of controller state — the
// simulated analog of blocking on a kernel futex rather than spinning.
func (m *Machine) SetParked(id int, on bool) {
	if m.parked[id] == on {
		return
	}
	m.parked[id] = on
	m.RefreshState(id)
}

// State returns the true scheduling state of core id.
func (m *Machine) State(id int) power.CoreState { return m.states[id] }

// SetState records core id's true scheduling state for energy accounting
// and region tracking. The runtime reports StateActive while a task (or
// scheduler code) runs and StateWaiting while in the steal loop; the
// machine downgrades Waiting to Resting when the DVFS controller has
// parked the core (work-sprinting).
func (m *Machine) SetState(id int, s power.CoreState) {
	eff := m.effectiveState(id, s)
	if m.states[id] == eff {
		return
	}
	m.states[id] = eff
	m.Acc[id].Transition(m.Eng.Now(), eff, m.Regs[id].Effective())
	if m.OnState != nil {
		m.OnState(m.Eng.Now(), id, eff)
	}
}

// RefreshState re-derives core id's accounting state after a controller
// decision may have parked or unparked it.
func (m *Machine) RefreshState(id int) {
	if m.states[id] == power.StateActive {
		return
	}
	m.SetState(id, power.StateWaiting)
}

func (m *Machine) effectiveState(id int, s power.CoreState) power.CoreState {
	// A fail-stopped or elastically parked core draws leakage only,
	// whatever the runtime reports.
	if m.failed[id] || m.parked[id] {
		return power.StateResting
	}
	if s != power.StateWaiting {
		return s
	}
	// A waiting core whose controller has parked it at VRest with
	// sprinting semantics is resting (clock-gated steal loop).
	if m.Ctl.RestsInactive() && !m.Ctl.ActivityBit(id) {
		return power.StateResting
	}
	return power.StateWaiting
}

// HintActivity is the runtime's hint-instruction entry point.
func (m *Machine) HintActivity(id int, active bool) {
	m.Ctl.SetActivity(id, active)
	// Parking may change the accounting state of this or other cores.
	for i := range m.states {
		m.RefreshState(i)
	}
}

// HintSerial flags a truly serial region on core id.
func (m *Machine) HintSerial(id int, on bool) {
	m.Ctl.SetSerial(id, on)
	for i := range m.states {
		m.RefreshState(i)
	}
	if m.OnSerial != nil {
		m.OnSerial(m.Eng.Now(), on)
	}
}

// ---- fault injection ----

// Failed reports whether core id has fail-stopped.
func (m *Machine) Failed(id int) bool { return m.failed[id] }

// FailCore fail-stops core id: the scheduler reclaims its state (via
// OnCoreFail), the core stops retiring instructions permanently, its
// regulator is taken out of the DVFS decision loop, and the controller
// re-derives the operating point for the surviving core mix. Core 0 cannot
// fail: the runtime pins the root program (logical thread 0) there, and
// the paper's machine keeps the sequential region on a big core by
// construction. Failing an already-failed core is a no-op.
func (m *Machine) FailCore(id int) error {
	if id <= 0 || id >= len(m.Cores) {
		return fmt.Errorf("machine: cannot fail core %d (valid: 1..%d; core 0 hosts the root program)",
			id, len(m.Cores)-1)
	}
	if m.failed[id] {
		return nil
	}
	if m.OnCoreFail != nil && !m.OnCoreFail(id) {
		// The runtime is at an unsafe point (mid mug-swap); it re-invokes
		// FailCore at the next scheduling boundary.
		return nil
	}
	m.failed[id] = true
	m.Cores[id].Fail()
	m.Ctl.MarkOffline(id)
	// Drop the dead core's activity bit so the controller re-derives the
	// surviving mix's operating point, then pin its accounting at rest.
	m.HintActivity(id, false)
	m.SetState(id, power.StateResting)
	return nil
}

// ThrottleCore sets core id's thermal-throttle factor (1 restores full
// speed). In-flight work is retimed at the new effective rate. Throttling
// a failed core is a no-op.
func (m *Machine) ThrottleCore(id int, factor float64) error {
	if id < 0 || id >= len(m.Cores) {
		return fmt.Errorf("machine: throttle of invalid core %d", id)
	}
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("machine: throttle factor %g outside (0, 1]", factor)
	}
	m.Cores[id].SetThrottle(factor)
	return nil
}

// Finish closes all energy accounting at the current simulated time.
func (m *Machine) Finish() {
	for _, a := range m.Acc {
		a.Finish(m.Eng.Now())
	}
}

// TotalRetired returns the cumulative retired instructions across cores —
// the "performance counter" an adaptive DVFS controller reads.
func (m *Machine) TotalRetired() float64 {
	var n float64
	for _, c := range m.Cores {
		n += c.Retired()
	}
	return n
}

// InstantPower returns the current modeled total power draw — the "power
// sensor" an adaptive DVFS controller reads. It reflects each core's true
// state and effective voltage right now.
func (m *Machine) InstantPower() float64 {
	p := 0.0
	for i := range m.Cores {
		v := m.Regs[i].Effective()
		switch m.states[i] {
		case power.StateActive:
			p += m.accParams[i].ActivePower(m.accClass[i], v)
		case power.StateWaiting:
			p += m.accParams[i].WaitPower(m.accClass[i], v)
		default:
			p += m.accParams[i].RestPower(m.accClass[i])
		}
	}
	return p
}

// TotalEnergy returns the machine's total accumulated energy.
func (m *Machine) TotalEnergy() float64 {
	e := 0.0
	for _, a := range m.Acc {
		e += a.Breakdown().Total()
	}
	return e
}

// EnergyBreakdown returns the per-core energy/time splits.
func (m *Machine) EnergyBreakdown() []power.Breakdown {
	out := make([]power.Breakdown, len(m.Acc))
	for i, a := range m.Acc {
		out[i] = a.Breakdown()
	}
	return out
}
