package model

import (
	"fmt"

	"aaws/internal/power"
	"aaws/internal/vf"
)

// N-way generalization of the marginal-utility optimization: instead of the
// paper's fixed big/little pair, the system is a list of core classes, each
// with its own count and power parameters. A topology class is the "big"
// side of its own power.Params (IPC(Big) = speed_c, alpha = power_c, with
// the leakage current derived from the class's own nominal power); the
// paper's pair is the big and little side of one shared Params.
//
// The optimum still equalizes marginal power cost per unit throughput
// across classes (equation 7). With N classes the scan+golden search over
// one free voltage no longer applies, so the solver works directly on the
// multiplier: for a candidate mu, each class's voltage solves
// MU_c(v) = mu (clamped to [VMin, VMax]); total power is monotone in mu,
// so an outer bisection finds the mu that meets the power budget.

// NClass is one core class: Count cores whose performance and power are
// Params read from the Side() class.
type NClass struct {
	Count  int
	Params power.Params
	// Little reads the class from the power.Little side of Params: the
	// little half of the paper's pair. Every other class is the power.Big
	// side of its own Params (IPC(Big) = class speed, Alpha = class dynamic
	// coefficient, LeakCurrent(Big) = class leakage).
	Little bool
}

// Side returns the power.CoreClass the class's Params are read from.
func (c NClass) Side() power.CoreClass {
	if c.Little {
		return power.Little
	}
	return power.Big
}

// NConfig describes a heterogeneous system as its class list, ordered
// fastest first (rank 0 = fastest, hosting logical thread 0).
type NConfig struct {
	Classes []NClass
}

// NConfig returns the paper's big.LITTLE system as a class list: the big
// and the little side of the shared Params.
func (c Config) NConfig() NConfig {
	return NConfig{Classes: []NClass{
		{Count: c.NBig, Params: c.Params},
		{Count: c.NLit, Params: c.Params, Little: true},
	}}
}

// pair reports whether the class list is the paper's big.LITTLE pair (a
// big and a little class of one shared Params) and returns it as a Config.
func (c NConfig) pair() (Config, bool) {
	cl := c.Classes
	if len(cl) != 2 || cl[0].Little || !cl[1].Little || cl[0].Params != cl[1].Params {
		return Config{}, false
	}
	return Config{Params: cl[0].Params, NBig: cl[0].Count, NLit: cl[1].Count}, true
}

// Counts returns the per-class core counts.
func (c NConfig) Counts() []int {
	counts := make([]int, len(c.Classes))
	for i, cl := range c.Classes {
		counts[i] = cl.Count
	}
	return counts
}

// nHot caches the per-class polynomial constants, mirroring hotModel.
type nHot struct {
	vfm  vf.Model
	a    []float64 // alpha_c * IPC_c
	leak []float64
	ipc  []float64
}

func (c NConfig) hot() nHot {
	h := nHot{
		vfm:  c.Classes[0].Params.VF,
		a:    make([]float64, len(c.Classes)),
		leak: make([]float64, len(c.Classes)),
		ipc:  make([]float64, len(c.Classes)),
	}
	for i := range c.Classes {
		p, side := &c.Classes[i].Params, c.Classes[i].Side()
		h.ipc[i] = p.IPC(side)
		h.a[i] = h.ipc[i] // alpha_L = 1
		if side == power.Big {
			h.a[i] = p.Alpha * h.ipc[i]
		}
		h.leak[i] = p.LeakCurrent(side)
	}
	return h
}

// corePower is one core's power at voltage v for class k.
func (h *nHot) corePower(k int, v float64) float64 {
	f := h.vfm.Freq(v)
	return h.a[k]*f*v*v + v*h.leak[k]
}

// marginalUtility is dP/dv divided by dIPS/dv for class k at voltage v:
// the power cost of the next unit of throughput.
func (h *nHot) marginalUtility(k int, v float64) float64 {
	k1, k2 := h.vfm.K1, h.vfm.K2
	return (h.a[k]*(3*k1*v*v+2*k2*v) + h.leak[k]) / (h.ipc[k] * k1)
}

// voltageForMU solves MU_k(v) = mu on [lo, hi] by bisection, clamping to
// the bracket ends when mu falls outside. MU is monotone increasing over
// the feasible voltage range (v > -K2/(3*K1) ~ 0.18 V).
func (h *nHot) voltageForMU(k int, mu, lo, hi float64) float64 {
	if h.marginalUtility(k, lo) >= mu {
		return lo
	}
	if h.marginalUtility(k, hi) <= mu {
		return hi
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if h.marginalUtility(k, mid) > mu {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// NPoint is one N-way operating point.
type NPoint struct {
	V   []float64 // per-class voltage for active cores (VRest-style pin for idle classes is applied by the LUT generator)
	IPS float64   // aggregate throughput of active cores
	Pow float64   // total system power including inactive cores
}

// NResult mirrors Result for the N-way solver. Only the feasible
// ([VMin, VMax]-clamped) point is produced: the unconstrained optimum is a
// 2-class diagnostic the paper reports, not something the runtime consumes.
type NResult struct {
	Active       []int
	RestInactive bool
	Feasible     NPoint
	// SpeedupFeasible is the IPS improvement relative to running the same
	// active cores at nominal voltage.
	SpeedupFeasible float64
}

// TargetPower is the nominal all-cores-busy power (equation 6 generalized).
func (c NConfig) TargetPower() float64 {
	total := 0.0
	for _, cl := range c.Classes {
		total += float64(cl.Count) * cl.Params.NominalPower(cl.Side())
	}
	return total
}

// inactivePowerN returns the power drawn by the inactive cores.
func (c NConfig) inactivePowerN(act []int, rest bool) float64 {
	total := 0.0
	for i, cl := range c.Classes {
		idle := float64(cl.Count - act[i])
		if rest {
			total += idle * cl.Params.RestPower(cl.Side())
		} else {
			total += idle * cl.Params.WaitPower(cl.Side(), vf.VNominal)
		}
	}
	return total
}

// nominalIPSN returns the aggregate throughput of the active set at V_N.
func (c NConfig) nominalIPSN(act []int) float64 {
	total := 0.0
	for i, cl := range c.Classes {
		total += float64(act[i]) * cl.Params.NominalIPS(cl.Side())
	}
	return total
}

// OptimizeN solves the marginal-utility problem for an N-way system with
// act[c] cores of class c active. Semantics mirror Optimize: when rest is
// true inactive cores rest at VMin, otherwise they spin at nominal. It
// panics if the active counts are out of range and returns Speedup == 1
// with no voltages when nothing is active.
func OptimizeN(c NConfig, act []int, rest bool) NResult {
	if len(act) != len(c.Classes) {
		panic(fmt.Sprintf("model: activity vector length %d for %d classes", len(act), len(c.Classes)))
	}
	total := 0
	for i, n := range act {
		if n < 0 || n > c.Classes[i].Count {
			panic(fmt.Sprintf("model: active count %d out of range for class %d (count %d)",
				n, i, c.Classes[i].Count))
		}
		total += n
	}
	res := NResult{Active: append([]int(nil), act...), RestInactive: rest}
	if total == 0 {
		res.SpeedupFeasible = 1
		return res
	}

	budget := c.TargetPower() - c.inactivePowerN(act, rest)
	base := c.nominalIPSN(act)
	h := c.hot()
	vm := h.vfm
	lo, hi := vm.VMin, vm.VMax

	// Total active power as a function of the shared multiplier mu.
	voltages := make([]float64, len(act))
	powerAt := func(mu float64) float64 {
		p := 0.0
		for k, n := range act {
			if n == 0 {
				voltages[k] = 0
				continue
			}
			v := h.voltageForMU(k, mu, lo, hi)
			voltages[k] = v
			p += float64(n) * h.corePower(k, v)
		}
		return p
	}

	// Bracket mu across every active class's reachable range, then bisect
	// the monotone powerAt to the budget. The degenerate cases (budget
	// below all-VMin power, or above all-VMax power) pin at the bracket.
	muLo, muHi := 0.0, 0.0
	first := true
	for k, n := range act {
		if n == 0 {
			continue
		}
		mlo, mhi := h.marginalUtility(k, lo), h.marginalUtility(k, hi)
		if first {
			muLo, muHi, first = mlo, mhi, false
			continue
		}
		if mlo < muLo {
			muLo = mlo
		}
		if mhi > muHi {
			muHi = mhi
		}
	}
	switch {
	case powerAt(muLo) >= budget:
		// Even all-VMin overdraws (or exactly meets) the budget: pin low.
		powerAt(muLo)
	case powerAt(muHi) <= budget:
		// Budget exceeds all-VMax power: pin high.
		powerAt(muHi)
	default:
		for i := 0; i < 200; i++ {
			mid := (muLo + muHi) / 2
			if powerAt(mid) > budget {
				muHi = mid
			} else {
				muLo = mid
			}
		}
		powerAt(muLo) // final voltages from the feasible side of the bracket
	}

	pt := NPoint{V: append([]float64(nil), voltages...)}
	for k, n := range act {
		if n == 0 {
			continue
		}
		pt.IPS += float64(n) * h.ipc[k] * vm.Freq(voltages[k])
		pt.Pow += float64(n) * h.corePower(k, voltages[k])
	}
	pt.Pow += c.inactivePowerN(act, rest)
	res.Feasible = pt
	res.SpeedupFeasible = pt.IPS / base
	return res
}
