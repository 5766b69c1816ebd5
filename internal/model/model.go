// Package model implements the marginal-utility optimization of Section II:
// choose per-class voltages for the active cores of an asymmetric multicore
// so that aggregate instruction throughput is maximized subject to a total
// power budget (the nominal all-cores-busy power, equation 6).
//
// At the optimum the marginal power cost per unit of throughput is equal
// across core classes (equation 7, the Law of Equi-Marginal Utility). A
// closed-form solution is awkward (cubic polynomials with leakage terms), so
// the package solves the problem numerically: a bisection solves the little
// voltage from the power constraint for a candidate big voltage, and a
// bracketed golden-section search maximizes throughput over the big voltage.
//
// The same machinery generates the lookup tables used by the DVFS
// controller (Section III-A): one per-class voltage vector per activity
// vector (#active cores of each class). OptimizeN extends the optimization
// from the paper's big.LITTLE pair to any ordered class list.
package model

import (
	"fmt"
	"math"

	"aaws/internal/power"
	"aaws/internal/vf"
)

// Config describes the system being optimized.
type Config struct {
	Params power.Params
	NBig   int // total big cores
	NLit   int // total little cores
}

// DefaultConfig returns the paper's 4B4L system with default parameters.
func DefaultConfig() Config {
	return Config{Params: power.DefaultParams(), NBig: 4, NLit: 4}
}

// Point is one operating point: per-class voltages for the active cores
// plus the resulting aggregate throughput and total power.
type Point struct {
	VBig float64 // voltage of each active big core (0 if none active)
	VLit float64 // voltage of each active little core (0 if none active)
	IPS  float64 // aggregate throughput of active cores
	Pow  float64 // total system power including inactive cores
}

// Result carries both the unconstrained optimum (ignoring the feasible
// voltage range) and the best feasible point within [VMin, VMax].
type Result struct {
	NBigActive int
	NLitActive int
	// RestInactive records whether inactive cores were modelled as resting
	// at VMin (work-sprinting) or spinning at nominal (baseline).
	RestInactive bool

	Optimal  Point
	Feasible Point
	// SpeedupOptimal and SpeedupFeasible are IPS improvements relative to
	// running the same active cores at nominal voltage.
	SpeedupOptimal  float64
	SpeedupFeasible float64
}

// searchRange is the voltage range explored for the unconstrained optimum.
// The lower bound sits above the f=0 crossing of the linear VF model; the
// upper bound comfortably exceeds the paper's largest reported optimum
// (2.59 V for a lone sprinting little core).
const (
	searchLo = 0.56
	searchHi = 4.0
)

// inactivePower returns the power drawn by the inactive cores.
func (c Config) inactivePower(nBA, nLA int, rest bool) float64 {
	p := c.Params
	nBW := c.NBig - nBA
	nLW := c.NLit - nLA
	if rest {
		return float64(nBW)*p.RestPower(power.Big) + float64(nLW)*p.RestPower(power.Little)
	}
	return float64(nBW)*p.WaitPower(power.Big, vf.VNominal) + float64(nLW)*p.WaitPower(power.Little, vf.VNominal)
}

// nominalIPS returns the aggregate throughput of the active set at V_N.
func (c Config) nominalIPS(nBA, nLA int) float64 {
	return float64(nBA)*c.Params.NominalIPS(power.Big) + float64(nLA)*c.Params.NominalIPS(power.Little)
}

// hotModel caches the per-class power-model constants, so the inner
// optimization loops (hundreds of bisection iterations per candidate
// voltage, millions of power evaluations per lookup table) evaluate small
// polynomials instead of re-deriving leakage currents from Params — and
// re-copying the full Params struct — on every call. The arithmetic is
// kept in exactly the order power.Params uses, so results are
// bit-identical to calling ActivePower/IPS directly.
type hotModel struct {
	vfm    vf.Model
	aB, aL float64 // alpha_c * IPC_c per class (dynamic-power coefficient)
	iB, iL float64 // leakage current per class
	ipcB   float64
	ipcL   float64
}

func (c *Config) hot() hotModel {
	p := &c.Params
	return hotModel{
		vfm:  p.VF,
		aB:   p.Alpha * p.IPC(power.Big),
		aL:   1 * p.IPC(power.Little),
		iB:   p.LeakCurrent(power.Big),
		iL:   p.LeakCurrent(power.Little),
		ipcB: p.IPC(power.Big),
		ipcL: p.IPC(power.Little),
	}
}

// corePower is power.Params.ActivePower with the class constants hoisted:
// dynamic (a*f*v*v) plus leakage (v*i).
func (h *hotModel) corePower(a, i, v float64) float64 {
	f := h.vfm.Freq(v)
	return a*f*v*v + v*i
}

// activePower returns the power of the active set at the given voltages.
func (h *hotModel) activePower(nBA, nLA int, vb, vl float64) float64 {
	p := 0.0
	if nBA > 0 {
		p += float64(nBA) * h.corePower(h.aB, h.iB, vb)
	}
	if nLA > 0 {
		p += float64(nLA) * h.corePower(h.aL, h.iL, vl)
	}
	return p
}

// activeIPS returns the throughput of the active set at the given voltages.
func (h *hotModel) activeIPS(nBA, nLA int, vb, vl float64) float64 {
	s := 0.0
	if nBA > 0 {
		s += float64(nBA) * (h.ipcB * h.vfm.Freq(vb))
	}
	if nLA > 0 {
		s += float64(nLA) * (h.ipcL * h.vfm.Freq(vl))
	}
	return s
}

// classCoef returns the (a, i) coefficient pair for a class.
func (h *hotModel) classCoef(cl power.CoreClass) (a, i float64) {
	if cl == power.Big {
		return h.aB, h.iB
	}
	return h.aL, h.iL
}

// solveVoltage finds v such that n cores of class cl draw budget power in
// total, searching [lo, hi]. Returns (v, true) on success; (0, false) if the
// budget is outside the bracketed range. ActivePower is monotonically
// increasing in v over the search range, so bisection applies.
func (h *hotModel) solveVoltage(cl power.CoreClass, n int, budget, lo, hi float64) (float64, bool) {
	if n <= 0 {
		return 0, false
	}
	a, ic := h.classCoef(cl)
	f := func(v float64) float64 {
		return float64(n)*h.corePower(a, ic, v) - budget
	}
	if f(lo) > 0 || f(hi) < 0 {
		return 0, false
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2, true
}

// Optimize solves the marginal-utility problem for a system with nBA big
// and nLA little cores active. When rest is true, inactive cores are rested
// at VMin (work-sprinting semantics: their power slack is reallocated);
// otherwise they spin at nominal voltage (baseline work-pacing semantics).
//
// It panics if the active counts are out of range; it returns a zero Result
// with Speedup* == 1 when no cores are active.
func Optimize(c Config, nBA, nLA int, rest bool) Result {
	if nBA < 0 || nBA > c.NBig || nLA < 0 || nLA > c.NLit {
		panic(fmt.Sprintf("model: active counts %dB %dL out of range for %dB%dL system",
			nBA, nLA, c.NBig, c.NLit))
	}
	res := Result{NBigActive: nBA, NLitActive: nLA, RestInactive: rest}
	if nBA == 0 && nLA == 0 {
		res.SpeedupOptimal, res.SpeedupFeasible = 1, 1
		return res
	}

	target := c.Params.TargetPower(c.NBig, c.NLit)
	budget := target - c.inactivePower(nBA, nLA, rest)
	base := c.nominalIPS(nBA, nLA)

	res.Optimal = c.best(nBA, nLA, budget, false)
	res.Feasible = c.best(nBA, nLA, budget, true)
	res.SpeedupOptimal = res.Optimal.IPS / base
	res.SpeedupFeasible = res.Feasible.IPS / base
	// Report total system power, not just the active set.
	inact := c.inactivePower(nBA, nLA, rest)
	res.Optimal.Pow += inact
	res.Feasible.Pow += inact
	return res
}

// best maximizes active-set IPS subject to activePower == budget. In
// feasible mode voltages are restricted to [VMin, VMax] and the budget
// becomes an upper bound (<= budget) because clamping can leave headroom.
func (c Config) best(nBA, nLA int, budget float64, feasible bool) Point {
	h := c.hot()
	vm := c.Params.VF
	lo, hi := searchLo, searchHi
	if feasible {
		lo, hi = vm.VMin, vm.VMax
	}

	// Single-class cases: solve directly from the power budget.
	if nBA == 0 || nLA == 0 {
		cl, n := power.Big, nBA
		if nBA == 0 {
			cl, n = power.Little, nLA
		}
		v, ok := h.solveVoltage(cl, n, budget, searchLo, searchHi)
		if !ok {
			// Budget exceeds even searchHi; pin at the top of the range.
			v = searchHi
		}
		if feasible {
			v = vm.Clamp(v)
		}
		vb, vl := v, 0.0
		if cl == power.Little {
			vb, vl = 0.0, v
		}
		return Point{VBig: vb, VLit: vl,
			IPS: h.activeIPS(nBA, nLA, vb, vl),
			Pow: h.activePower(nBA, nLA, vb, vl)}
	}

	// score returns the achievable IPS for a candidate big voltage, with
	// the little voltage derived from the power budget (clamped in
	// feasible mode). Invalid candidates (budget overdrawn even at the
	// little core's minimum voltage) score -Inf.
	eval := func(vb float64) (Point, float64) {
		rem := budget - h.activePower(nBA, 0, vb, 0)
		minP := h.activePower(0, nLA, 0, searchLo)
		maxP := h.activePower(0, nLA, 0, searchHi)
		var vl float64
		switch {
		case rem < minP:
			// The little cores cannot run slow enough to meet the budget.
			return Point{}, math.Inf(-1)
		case rem > maxP:
			vl = searchHi // more budget than the bracket: pin high
		default:
			var ok bool
			vl, ok = h.solveVoltage(power.Little, nLA, rem, searchLo, searchHi)
			if !ok {
				return Point{}, math.Inf(-1)
			}
		}
		if feasible {
			vl = vm.Clamp(vl)
			// Clamping down leaves headroom (fine: budget is an upper
			// bound). Clamping *up* to VMin would overdraw the budget.
			if h.activePower(nBA, nLA, vb, vl) > budget*(1+1e-9) {
				return Point{}, math.Inf(-1)
			}
		}
		pt := Point{VBig: vb, VLit: vl,
			IPS: h.activeIPS(nBA, nLA, vb, vl),
			Pow: h.activePower(nBA, nLA, vb, vl)}
		return pt, pt.IPS
	}

	// Dense scan to bracket the maximum (the -Inf region makes pure
	// golden-section unreliable), then golden-section refinement.
	const scanN = 400
	bestPt, bestScore := Point{}, math.Inf(-1)
	bestV := lo
	for i := 0; i <= scanN; i++ {
		vb := lo + (hi-lo)*float64(i)/scanN
		pt, s := eval(vb)
		if s > bestScore {
			bestPt, bestScore, bestV = pt, s, vb
		}
	}
	if math.IsInf(bestScore, -1) {
		// No valid point (budget too small even at minimum voltages).
		// Pin everything at the lowest allowed voltage.
		vb, vl := lo, lo
		return Point{VBig: vb, VLit: vl,
			IPS: h.activeIPS(nBA, nLA, vb, vl),
			Pow: h.activePower(nBA, nLA, vb, vl)}
	}
	span := (hi - lo) / scanN
	a := math.Max(lo, bestV-span)
	b := math.Min(hi, bestV+span)
	const phi = 0.6180339887498949
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	_, f1 := eval(x1)
	_, f2 := eval(x2)
	for i := 0; i < 80; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			_, f2 = eval(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			_, f1 = eval(x1)
		}
	}
	pt, s := eval((a + b) / 2)
	if s < bestScore {
		return bestPt
	}
	return pt
}
