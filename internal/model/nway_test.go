package model

import (
	"math"
	"testing"

	"aaws/internal/power"
	"aaws/internal/vf"
)

// nway4B4L is the paper's default 4B4L system expressed as an N-way config:
// each class carries its own Params with the class encoded as power.Big.
// Note the little class's leakage derives from its *own* nominal power
// (lambda rule), not from Gamma times the big core's, so the two encodings
// agree on dynamic power exactly and on leakage to within the lambda scale.
func nway4B4L() NConfig {
	return NConfig{Classes: []NClass{
		{Count: 4, Params: power.DefaultParams().WithAlphaBeta(3, 2)},
		{Count: 4, Params: power.DefaultParams().WithAlphaBeta(1, 1)},
	}}
}

// relClose reports |a-b|/|b| <= tol.
func relClose(a, b, tol float64) bool {
	if b == 0 {
		return a == 0
	}
	return math.Abs(a-b)/math.Abs(b) <= tol
}

// TestOptimizeNMatchesLegacyOn4B4L cross-checks the N-way solver against
// the 2-class scan+golden-search optimizer on the paper's default system
// over every activity combination and both rest semantics. The encodings
// differ only in the little-class leakage derivation (own-nominal-power
// rule versus Gamma), a sub-2% effect on the budget, so feasible voltages
// and speedups must agree within a few percent.
func TestOptimizeNMatchesLegacyOn4B4L(t *testing.T) {
	cfg := DefaultConfig()
	ncfg := nway4B4L()
	for _, rest := range []bool{false, true} {
		for nBA := 0; nBA <= 4; nBA++ {
			for nLA := 0; nLA <= 4; nLA++ {
				if nBA == 0 && nLA == 0 {
					continue
				}
				legacy := Optimize(cfg, nBA, nLA, rest)
				nw := OptimizeN(ncfg, []int{nBA, nLA}, rest)
				if !relClose(nw.SpeedupFeasible, legacy.SpeedupFeasible, 0.04) {
					t.Errorf("act=%d,%d rest=%v: N-way speedup %.4f, legacy %.4f",
						nBA, nLA, rest, nw.SpeedupFeasible, legacy.SpeedupFeasible)
				}
				if nBA > 0 && !relClose(nw.Feasible.V[0], legacy.Feasible.VBig, 0.04) {
					t.Errorf("act=%d,%d rest=%v: N-way VBig %.4f, legacy %.4f",
						nBA, nLA, rest, nw.Feasible.V[0], legacy.Feasible.VBig)
				}
				if nLA > 0 && !relClose(nw.Feasible.V[1], legacy.Feasible.VLit, 0.04) {
					t.Errorf("act=%d,%d rest=%v: N-way VLit %.4f, legacy %.4f",
						nBA, nLA, rest, nw.Feasible.V[1], legacy.Feasible.VLit)
				}
			}
		}
	}
}

// TestOptimizeNPowerBudget checks the generalized power constraint: the
// feasible point never exceeds the nominal all-busy budget (beyond the
// all-VMin floor, where the budget is unreachable from below).
func TestOptimizeNPowerBudget(t *testing.T) {
	ncfg := NConfig{Classes: []NClass{
		{Count: 1, Params: power.DefaultParams().WithAlphaBeta(4, 3)},
		{Count: 2, Params: power.DefaultParams().WithAlphaBeta(2.2, 1.7)},
		{Count: 3, Params: power.DefaultParams().WithAlphaBeta(1, 1)},
	}}
	target := ncfg.TargetPower()
	act := make([]int, 3)
	for a0 := 0; a0 <= 1; a0++ {
		for a1 := 0; a1 <= 2; a1++ {
			for a2 := 0; a2 <= 3; a2++ {
				if a0+a1+a2 == 0 {
					continue
				}
				act[0], act[1], act[2] = a0, a1, a2
				r := OptimizeN(ncfg, act, true)
				if r.Feasible.Pow > target*(1+1e-9) {
					// All-VMin can still overdraw only when even the floor
					// exceeds the budget; verify that is the case.
					floor := ncfg.inactivePowerN(act, true)
					h := ncfg.hot()
					for k, n := range act {
						floor += float64(n) * h.corePower(k, vf.VMin)
					}
					if floor <= target {
						t.Errorf("act=%v: feasible power %.4f exceeds budget %.4f without a VMin floor excuse",
							act, r.Feasible.Pow, target)
					}
				}
				if r.SpeedupFeasible <= 0 {
					t.Errorf("act=%v: non-positive speedup %.4f", act, r.SpeedupFeasible)
				}
				for k, n := range act {
					if n == 0 {
						continue
					}
					v := r.Feasible.V[k]
					if v < vf.VMin-1e-9 || v > vf.VMax+1e-9 {
						t.Errorf("act=%v: class %d voltage %.4f outside [%.2f, %.2f]",
							act, k, v, vf.VMin, vf.VMax)
					}
				}
			}
		}
	}
}

// TestNTableIndexRoundTrip checks the mixed-radix flattening against a
// hand-rolled odometer enumeration, plus clamping at the edges.
func TestNTableIndexRoundTrip(t *testing.T) {
	nt := &NTable{Counts: []int{1, 2, 3}}
	idx := 0
	for a0 := 0; a0 <= 1; a0++ {
		for a1 := 0; a1 <= 2; a1++ {
			for a2 := 0; a2 <= 3; a2++ {
				got := nt.Index([]int{a0, a1, a2})
				if got != idx {
					t.Fatalf("Index(%d,%d,%d) = %d, want %d", a0, a1, a2, got, idx)
				}
				idx++
			}
		}
	}
	if got := nt.Index([]int{5, -1, 99}); got != nt.Index([]int{1, 0, 3}) {
		t.Errorf("clamped index = %d, want %d", got, nt.Index([]int{1, 0, 3}))
	}
}

// TestGenerateNWayLUTShape checks table sizing, resting-voltage semantics
// per mode, and that sprinting entries pin inactive classes at VMin.
func TestGenerateNWayLUTShape(t *testing.T) {
	ncfg := nway4B4L()
	for _, mode := range []Mode{ModeNominal, ModePacing, ModePacingSprinting} {
		lut := GenerateNWayLUT(ncfg, mode)
		if lut.Table == nil {
			t.Fatalf("mode %v: nil table", mode)
		}
		nt := lut.Table
		if len(nt.Entries) != 25 {
			t.Fatalf("mode %v: %d entries, want 25", mode, len(nt.Entries))
		}
		wantRest := vf.VNominal
		if mode == ModePacingSprinting {
			wantRest = vf.VMin
		}
		if lut.VRest != wantRest {
			t.Errorf("mode %v: VRest = %.2f, want %.2f", mode, lut.VRest, wantRest)
		}
		if !lut.SerialSprint || lut.SerialV != vf.VMax {
			t.Errorf("mode %v: serial sprint %v at %.2f, want true at VMax", mode, lut.SerialSprint, lut.SerialV)
		}
		switch mode {
		case ModeNominal:
			for i, e := range nt.Entries {
				for c, v := range e {
					if v != vf.VNominal {
						t.Fatalf("nominal entry %d class %d = %.3f", i, c, v)
					}
				}
			}
		case ModePacingSprinting:
			// One big core active, littles idle: the little class rests at
			// VMin while the big sprints above nominal.
			e := nt.Lookup([]int{1, 0})
			if e[1] != vf.VMin {
				t.Errorf("sprinting idle-class voltage = %.3f, want VMin", e[1])
			}
			if e[0] <= vf.VNominal {
				t.Errorf("lone sprinting big at %.3f, want > nominal", e[0])
			}
		}
	}
}
