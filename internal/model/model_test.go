package model

import (
	"math"
	"testing"

	"aaws/internal/power"
	"aaws/internal/vf"
)

// close reports |a-b| <= tol.
func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestFigure3OperatingPoints validates the HP-region optimum against the
// paper: "The optimal operating point is VBi = 0.86V and VLj = 1.44V with a
// theoretical speedup of 1.12x ... the best feasible operating point is
// VBi = 0.93V and VLj = Vmax with a theoretical speedup of 1.10x."
// Tolerances allow for the paper's rounding and unpublished fit details.
func TestFigure3OperatingPoints(t *testing.T) {
	r := Optimize(DefaultConfig(), 4, 4, false)

	if !close(r.Optimal.VBig, 0.86, 0.03) {
		t.Errorf("optimal VBig = %.3f, paper reports 0.86", r.Optimal.VBig)
	}
	// The optimal little voltage is the quantity most sensitive to the
	// unpublished leakage-fit details; we accept a wider band here (the
	// speedups, which the paper's conclusions rest on, match tightly).
	if !close(r.Optimal.VLit, 1.44, 0.08) {
		t.Errorf("optimal VLit = %.3f, paper reports 1.44", r.Optimal.VLit)
	}
	if !close(r.SpeedupOptimal, 1.12, 0.02) {
		t.Errorf("optimal speedup = %.3f, paper reports 1.12", r.SpeedupOptimal)
	}
	if !close(r.Feasible.VLit, vf.VMax, 1e-6) {
		t.Errorf("feasible VLit = %.3f, want VMax=%.2f", r.Feasible.VLit, vf.VMax)
	}
	if !close(r.Feasible.VBig, 0.93, 0.03) {
		t.Errorf("feasible VBig = %.3f, paper reports 0.93", r.Feasible.VBig)
	}
	if !close(r.SpeedupFeasible, 1.10, 0.02) {
		t.Errorf("feasible speedup = %.3f, paper reports 1.10", r.SpeedupFeasible)
	}
}

// TestFigure5OperatingPoints validates the LP-region optimum with 2B2L
// active and the rest of the cores resting at VMin: "The resulting optimal
// operating point is VBi = 1.02V and VLj = 1.70V with a theoretical speedup
// of 1.55x ... the best feasible operating point is VBi = 1.16V and
// VLj = Vmax with a theoretical speedup of 1.45x."
func TestFigure5OperatingPoints(t *testing.T) {
	r := Optimize(DefaultConfig(), 2, 2, true)

	if !close(r.Optimal.VBig, 1.02, 0.04) {
		t.Errorf("optimal VBig = %.3f, paper reports 1.02", r.Optimal.VBig)
	}
	if !close(r.Optimal.VLit, 1.70, 0.05) {
		t.Errorf("optimal VLit = %.3f, paper reports 1.70", r.Optimal.VLit)
	}
	if !close(r.SpeedupOptimal, 1.55, 0.03) {
		t.Errorf("optimal speedup = %.3f, paper reports 1.55", r.SpeedupOptimal)
	}
	if !close(r.Feasible.VBig, 1.16, 0.04) {
		t.Errorf("feasible VBig = %.3f, paper reports 1.16", r.Feasible.VBig)
	}
	if !close(r.SpeedupFeasible, 1.45, 0.03) {
		t.Errorf("feasible speedup = %.3f, paper reports 1.45", r.SpeedupFeasible)
	}
}

// TestSingleTaskAnalysis validates the Section II-D lone-task numbers:
// little-core optimum V = 2.59, feasible speedup 1.6x; big-core optimum
// V = 1.51, feasible speedup 3.3x (all relative to little@VN).
func TestSingleTaskAnalysis(t *testing.T) {
	st := SingleTask(DefaultConfig())

	if !close(st.LittleOptimalV, 2.59, 0.08) {
		t.Errorf("little optimal V = %.3f, paper reports 2.59", st.LittleOptimalV)
	}
	if !close(st.LittleFeasibleSpeedup, 1.6, 0.08) {
		t.Errorf("little feasible speedup = %.3f, paper reports 1.6", st.LittleFeasibleSpeedup)
	}
	if !close(st.BigOptimalV, 1.51, 0.05) {
		t.Errorf("big optimal V = %.3f, paper reports 1.51", st.BigOptimalV)
	}
	if !close(st.BigFeasibleSpeedup, 3.3, 0.1) {
		t.Errorf("big feasible speedup = %.3f, paper reports 3.3", st.BigFeasibleSpeedup)
	}
}

// TestEquiMarginalUtility checks equation 7 at the unconstrained optimum:
// the marginal power cost per unit throughput must match across classes.
func TestEquiMarginalUtility(t *testing.T) {
	cfg := DefaultConfig()
	for _, tc := range []struct {
		nBA, nLA int
		rest     bool
	}{{4, 4, false}, {2, 2, true}, {3, 1, true}, {1, 3, true}} {
		r := Optimize(cfg, tc.nBA, tc.nLA, tc.rest)
		mb := cfg.Params.MarginalUtility(power.Big, r.Optimal.VBig)
		ml := cfg.Params.MarginalUtility(power.Little, r.Optimal.VLit)
		if math.Abs(mb-ml) > 0.02*math.Abs(mb) {
			t.Errorf("%dB%dL rest=%v: marginal utilities differ: big=%.4g little=%.4g",
				tc.nBA, tc.nLA, tc.rest, mb, ml)
		}
	}
}

// TestPowerConstraintHolds checks the optimizer respects its budget: the
// unconstrained optimum meets the target exactly; the feasible point never
// exceeds it.
func TestPowerConstraintHolds(t *testing.T) {
	cfg := DefaultConfig()
	target := cfg.Params.TargetPower(cfg.NBig, cfg.NLit)
	for nBA := 0; nBA <= cfg.NBig; nBA++ {
		for nLA := 0; nLA <= cfg.NLit; nLA++ {
			if nBA == 0 && nLA == 0 {
				continue
			}
			for _, rest := range []bool{false, true} {
				r := Optimize(cfg, nBA, nLA, rest)
				if r.Optimal.Pow > target*1.001 || r.Optimal.Pow < target*0.95 {
					t.Errorf("%dB%dL rest=%v: optimal power %.4g vs target %.4g",
						nBA, nLA, rest, r.Optimal.Pow, target)
				}
				if r.Feasible.Pow > target*1.001 {
					t.Errorf("%dB%dL rest=%v: feasible power %.4g exceeds target %.4g",
						nBA, nLA, rest, r.Feasible.Pow, target)
				}
			}
		}
	}
}

// TestFeasibleWithinRange ensures feasible voltages are inside [VMin, VMax].
func TestFeasibleWithinRange(t *testing.T) {
	cfg := DefaultConfig()
	vm := cfg.Params.VF
	for nBA := 0; nBA <= cfg.NBig; nBA++ {
		for nLA := 0; nLA <= cfg.NLit; nLA++ {
			if nBA == 0 && nLA == 0 {
				continue
			}
			r := Optimize(cfg, nBA, nLA, true)
			if nBA > 0 && !vm.Feasible(r.Feasible.VBig) {
				t.Errorf("%dB%dL: feasible VBig %.3f out of range", nBA, nLA, r.Feasible.VBig)
			}
			if nLA > 0 && !vm.Feasible(r.Feasible.VLit) {
				t.Errorf("%dB%dL: feasible VLit %.3f out of range", nBA, nLA, r.Feasible.VLit)
			}
		}
	}
}

// TestFigure4Monotonicity checks the Figure 4 observation: a marginal-
// utility approach is most effective when alpha/beta > 1; with alpha==beta
// ==1 there is no asymmetry to exploit and speedup collapses to ~1.
func TestFigure4Monotonicity(t *testing.T) {
	g := Figure4(DefaultConfig(), []float64{1, 2, 3, 4, 6}, []float64{1, 2, 3})
	// Speedup at alpha=1, beta=1 should be ~1 (homogeneous system).
	if g.Optimal[0][0] > 1.02 {
		t.Errorf("alpha=beta=1 speedup = %.3f, want ~1", g.Optimal[0][0])
	}
	// Fixing beta=2, speedup should not decrease with alpha.
	for i := 1; i < len(g.Alphas); i++ {
		if g.Optimal[i][1]+1e-9 < g.Optimal[i-1][1] {
			t.Errorf("optimal speedup not monotone in alpha: %.4f -> %.4f (alpha %.1f -> %.1f)",
				g.Optimal[i-1][1], g.Optimal[i][1], g.Alphas[i-1], g.Alphas[i])
		}
	}
	// Feasible speedup never exceeds optimal.
	for i := range g.Alphas {
		for j := range g.Betas {
			if g.Feasible[i][j] > g.Optimal[i][j]+1e-9 {
				t.Errorf("feasible %.4f exceeds optimal %.4f at alpha=%.1f beta=%.1f",
					g.Feasible[i][j], g.Optimal[i][j], g.Alphas[i], g.Betas[j])
			}
		}
	}
}

// TestParetoContainsWinWin checks Figure 2's upper-right quadrant: some
// feasible (VB, VL) pair improves both performance and energy efficiency
// relative to nominal.
func TestParetoContainsWinWin(t *testing.T) {
	pts := Pareto(DefaultConfig(), 24)
	found := false
	for _, p := range pts {
		if p.Perf > 1.01 && p.EnergyEff > 1.01 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no (VB,VL) point improves both performance and energy efficiency")
	}
}

// TestLUTGeneration sanity-checks table shapes and entries per mode.
func TestLUTGeneration(t *testing.T) {
	cfg := DefaultConfig()
	at := func(l *LUT, nBA, nLA int) []float64 { return l.Table.Lookup([]int{nBA, nLA}) }

	base := GenerateLUT(cfg, ModeNominal)
	if got := base.Table.Counts; len(got) != 2 || got[0] != 4 || got[1] != 4 || len(base.Table.Entries) != 25 {
		t.Fatalf("4B4L LUT should be 5x5, got counts %v with %d entries", got, len(base.Table.Entries))
	}
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			e := at(base, i, j)
			if e[0] != vf.VNominal || e[1] != vf.VNominal {
				t.Errorf("nominal LUT entry [%d][%d] = %v, want nominal", i, j, e)
			}
		}
	}

	pace := GenerateLUT(cfg, ModePacing)
	allActive := at(pace, 4, 4)
	if !(allActive[0] < vf.VNominal && allActive[1] > vf.VNominal) {
		t.Errorf("pacing all-active entry = %v, want VBig<1<VLit", allActive)
	}
	if e := at(pace, 2, 2); e[0] != vf.VNominal || e[1] != vf.VNominal {
		t.Errorf("pacing partial-activity entry should stay nominal, got %v", e)
	}

	ps := GenerateLUT(cfg, ModePacingSprinting)
	// With fewer active cores there is more slack, so the little voltage
	// should not decrease as activity drops (until it hits VMax).
	if at(ps, 2, 2)[1] < at(ps, 4, 4)[1]-1e-9 {
		t.Errorf("sprinting 2B2L little voltage %.3f below all-active %.3f",
			at(ps, 2, 2)[1], at(ps, 4, 4)[1])
	}
	if !ps.RestInactive {
		t.Error("sprinting LUT should mark RestInactive")
	}
	// Lone big core should sprint to VMax (section II-D).
	if got := at(ps, 1, 0)[0]; !close(got, vf.VMax, 1e-6) {
		t.Errorf("lone big core voltage = %.3f, want VMax", got)
	}
}

// TestLookupClamping verifies out-of-range activity counts clamp into the
// table instead of panicking.
func TestLookupClamping(t *testing.T) {
	lut := GenerateLUT(DefaultConfig(), ModeNominal)
	_ = lut.Table.Lookup([]int{-1, 99})
	_ = lut.Table.Lookup([]int{99, -1})
}

// TestThroughputCurvePeaksAtOptimum verifies the Figure 3(b) IPS_tot curve
// attains its maximum at the optimizer's reported VBig.
func TestThroughputCurvePeaksAtOptimum(t *testing.T) {
	cfg := DefaultConfig()
	r := Optimize(cfg, 4, 4, false)
	curve := ThroughputCurve(cfg, 4, 4, false, 0.7, 1.1, 200)
	bestV, bestIPS := 0.0, 0.0
	for _, s := range curve {
		if s.Valid && s.IPSTot > bestIPS {
			bestIPS, bestV = s.IPSTot, s.VBig
		}
	}
	if !close(bestV, r.Optimal.VBig, 0.01) {
		t.Errorf("curve peak at VBig=%.3f, optimizer reports %.3f", bestV, r.Optimal.VBig)
	}
}
