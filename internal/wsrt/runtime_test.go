package wsrt

import (
	"math"
	"sync/atomic"
	"testing"

	"aaws/internal/machine"
	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/sim"
)

// newTestRuntime builds a 4B4L (or custom) runtime with a fresh engine.
func newTestRuntime(t testing.TB, v Variant, nBig, nLit int) *Runtime {
	t.Helper()
	p := power.DefaultParams()
	cfg := model.Config{Params: p, NBig: nBig, NLit: nLit}
	lut := model.GenerateLUT(cfg, v.LUTMode())
	eng := sim.NewEngine()
	mc := machine.Config{Classes: cfg.NConfig().Classes, LUT: lut, InterruptCycles: 20}
	m, err := machine.New(eng, mc)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, DefaultConfig(v))
}

func TestSerialOnly(t *testing.T) {
	rt := newTestRuntime(t, Base, 4, 4)
	rep := rt.Execute(func(r *Run) {
		r.SerialWork(1e6)
	})
	if rep.ExecTime <= 0 {
		t.Fatal("no time elapsed")
	}
	// Serial-sprinting runs the serial region on the big core at VMax:
	// rate = beta * f(1.3). Allow slack for the DVFS transition window.
	beta := 2.0
	fMax := 7.38e8*1.3 - 4.05e8
	ideal := 1e6 / (beta * fMax)
	got := rep.ExecTime.Seconds()
	if got < ideal || got > ideal*1.2 {
		t.Errorf("serial time %.4g s, want ~%.4g (sprinted)", got, ideal)
	}
	if rep.SerialInstr != 1e6 {
		t.Errorf("serial instr = %g", rep.SerialInstr)
	}
}

func TestParallelForRunsAllIterations(t *testing.T) {
	rt := newTestRuntime(t, Base, 4, 4)
	const n = 10000
	var hits [n]int32
	rt.Execute(func(r *Run) {
		r.ParallelFor(0, n, 16, func(c *Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			c.Work(float64(hi-lo) * 10)
		})
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times", i, h)
		}
	}
}

func TestEveryTaskExecutesExactlyOnce(t *testing.T) {
	for _, v := range Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := newTestRuntime(t, v, 4, 4)
			var leaves int64
			rep := rt.Execute(func(r *Run) {
				r.Parallel(func(c *Ctx) {
					var rec func(c *Ctx, depth int)
					rec = func(c *Ctx, depth int) {
						if depth == 0 {
							leaves++
							c.Work(3000)
							return
						}
						c.Work(50)
						c.Spawn(func(cc *Ctx) { rec(cc, depth-1) })
						c.Spawn(func(cc *Ctx) { rec(cc, depth-1) })
					}
					rec(c, 8)
				})
			})
			if leaves != 256 {
				t.Errorf("leaves = %d, want 256", leaves)
			}
			// 2^9-1 tree nodes plus the root wrapper task... the root *is*
			// the depth-8 node, so 511 tasks total.
			if rep.TasksExecuted != 511 {
				t.Errorf("tasks executed = %d, want 511", rep.TasksExecuted)
			}
			if rep.TasksSpawned != 510 {
				t.Errorf("tasks spawned = %d, want 510", rep.TasksSpawned)
			}
		})
	}
}

func TestFinishContinuationOrdering(t *testing.T) {
	rt := newTestRuntime(t, Base, 4, 4)
	var order []string
	rt.Execute(func(r *Run) {
		r.Parallel(func(c *Ctx) {
			c.Spawn(func(cc *Ctx) {
				cc.Work(5000)
				order = append(order, "childA")
			})
			c.Spawn(func(cc *Ctx) {
				cc.Work(5000)
				order = append(order, "childB")
			})
			c.Finish(func(cc *Ctx) {
				cc.Work(100)
				order = append(order, "cont")
			})
			c.Work(100)
		})
	})
	if len(order) != 3 || order[2] != "cont" {
		t.Errorf("continuation did not run last: %v", order)
	}
}

func TestFinishWithoutChildren(t *testing.T) {
	rt := newTestRuntime(t, Base, 4, 4)
	ran := false
	rt.Execute(func(r *Run) {
		r.Parallel(func(c *Ctx) {
			c.Work(1000)
			c.Finish(func(cc *Ctx) { ran = true; cc.Work(10) })
		})
	})
	if !ran {
		t.Error("degenerate Finish (no children) never ran")
	}
}

func TestNestedParallelRange(t *testing.T) {
	rt := newTestRuntime(t, BasePSM, 4, 4)
	const n = 64
	var sum int64
	rt.Execute(func(r *Run) {
		r.Parallel(func(c *Ctx) {
			c.ParallelRange(0, n, 4, func(cc *Ctx, lo, hi int) {
				// Nested loop parallelism (as in sampsort/uts).
				cc.ParallelRange(0, 8, 2, func(c3 *Ctx, l2, h2 int) {
					atomic.AddInt64(&sum, int64((hi-lo)*(h2-l2)))
					c3.Work(2000)
				}, nil)
				cc.Work(100)
			}, nil)
		})
	})
	if sum != n*8 {
		t.Errorf("nested sum = %d, want %d", sum, n*8)
	}
}

func TestMultiplePhasesAndSerialGlue(t *testing.T) {
	rt := newTestRuntime(t, BasePS, 4, 4)
	var phase1Done, phase2Done bool
	rep := rt.Execute(func(r *Run) {
		r.SerialWork(10000)
		r.ParallelFor(0, 1000, 10, func(c *Ctx, lo, hi int) { c.Work(float64(hi-lo) * 100) })
		phase1Done = true
		r.SerialWork(5000)
		r.ParallelFor(0, 500, 10, func(c *Ctx, lo, hi int) { c.Work(float64(hi-lo) * 200) })
		phase2Done = true
		r.SerialWork(2000)
	})
	if !phase1Done || !phase2Done {
		t.Fatal("phases did not complete")
	}
	if rep.SerialInstr != 17000 {
		t.Errorf("serial instr = %g, want 17000", rep.SerialInstr)
	}
	if rep.AppInstr != 1000*100+500*200 {
		t.Errorf("app instr = %g, want 200000", rep.AppInstr)
	}
}

func TestDeterminism(t *testing.T) {
	for _, v := range Variants {
		run := func() (sim.Time, float64, Stats) {
			rt := newTestRuntime(t, v, 4, 4)
			rep := rt.Execute(func(r *Run) {
				r.SerialWork(5000)
				r.ParallelFor(0, 2000, 7, func(c *Ctx, lo, hi int) {
					c.Work(float64((hi - lo) * (500 + (lo%13)*40)))
				})
			})
			return rep.ExecTime, rep.TotalEnergy, rep.Stats
		}
		t1, e1, s1 := run()
		t2, e2, s2 := run()
		if t1 != t2 || e1 != e2 || s1 != s2 {
			t.Errorf("%v: nondeterministic: (%v,%g,%+v) vs (%v,%g,%+v)", v, t1, e1, s1, t2, e2, s2)
		}
	}
}

// TestWorkConservation: the total app instructions charged are identical
// across runtime variants (scheduling moves work, never loses or invents
// it).
func TestWorkConservation(t *testing.T) {
	var want float64
	for i, v := range Variants {
		rt := newTestRuntime(t, v, 4, 4)
		rep := rt.Execute(func(r *Run) {
			r.ParallelFor(0, 3000, 11, func(c *Ctx, lo, hi int) {
				c.Work(float64((hi - lo) * (200 + lo%77)))
			})
		})
		if i == 0 {
			want = rep.AppInstr
			continue
		}
		if rep.AppInstr != want {
			t.Errorf("%v: app instr %g != base %g", v, rep.AppInstr, want)
		}
	}
}

// TestStealsHappen: with an imbalanced spawn-everything-on-one-worker
// start, other workers must steal.
func TestStealsHappen(t *testing.T) {
	rt := newTestRuntime(t, Base, 4, 4)
	rep := rt.Execute(func(r *Run) {
		r.ParallelFor(0, 4000, 8, func(c *Ctx, lo, hi int) { c.Work(float64(hi-lo) * 1000) })
	})
	if rep.Steals == 0 {
		t.Error("no steals in an 8-core parallel-for")
	}
}

// TestMuggingHappens: the PSM variant must mug when a little core lags.
func TestMuggingHappens(t *testing.T) {
	rt := newTestRuntime(t, BasePSM, 4, 4)
	rep := rt.Execute(func(r *Run) {
		// A wide phase followed by a few huge straggler tasks: stragglers
		// land on littles often enough to trigger mugging.
		r.ParallelFor(0, 64, 1, func(c *Ctx, lo, hi int) {
			base := 10000.0
			if lo%8 == 0 {
				base = 3e6 // stragglers
			}
			c.Work(base)
		})
	})
	if rep.Mugs == 0 {
		t.Error("no mugs in a straggler-heavy workload under base+psm")
	}
	if rep.MuggedTasksFinished == 0 {
		t.Error("mugged tasks never finished")
	}
}

// TestNoMuggingInBase ensures base/p/ps never mug.
func TestNoMuggingInBase(t *testing.T) {
	for _, v := range []Variant{Base, BaseP, BasePS} {
		rt := newTestRuntime(t, v, 4, 4)
		rep := rt.Execute(func(r *Run) {
			r.ParallelFor(0, 64, 1, func(c *Ctx, lo, hi int) { c.Work(1e5) })
		})
		if rep.Mugs != 0 || rep.MugAttempts != 0 {
			t.Errorf("%v: mugging occurred (%d attempts)", v, rep.MugAttempts)
		}
	}
}

// TestVariantSpeedups: on a straggler workload the AAWS variants should
// not be slower than base, and base+psm should beat base outright.
func TestVariantSpeedups(t *testing.T) {
	times := map[Variant]sim.Time{}
	for _, v := range Variants {
		rt := newTestRuntime(t, v, 4, 4)
		rep := rt.Execute(func(r *Run) {
			r.ParallelFor(0, 256, 1, func(c *Ctx, lo, hi int) {
				base := 20000.0
				if lo%16 == 0 {
					base = 2e6
				}
				c.Work(base)
			})
		})
		times[v] = rep.ExecTime
	}
	if times[BasePSM] >= times[Base] {
		t.Errorf("base+psm (%v) not faster than base (%v)", times[BasePSM], times[Base])
	}
	if f := float64(times[BasePS]) / float64(times[Base]); f > 1.02 {
		t.Errorf("base+ps noticeably slower than base: ratio %.3f", f)
	}
}

// TestEnergyAccountingCoversRun: per-core energy time splits must sum to
// the execution time.
func TestEnergyAccountingCoversRun(t *testing.T) {
	rt := newTestRuntime(t, BasePS, 4, 4)
	rep := rt.Execute(func(r *Run) {
		r.SerialWork(20000)
		r.ParallelFor(0, 512, 4, func(c *Ctx, lo, hi int) { c.Work(float64(hi-lo) * 5000) })
	})
	for i, b := range rep.Energy {
		total := b.ActiveTime + b.WaitingTime + b.RestingTime
		// The accounting closes at machine.Finish time, which may trail
		// ExecTime by in-flight regulator settles; allow tiny slack.
		diff := float64(total-rep.ExecTime) / float64(rep.ExecTime)
		if math.Abs(diff) > 0.01 {
			t.Errorf("core %d: accounted time %v vs exec time %v", i, total, rep.ExecTime)
		}
		if b.Total() <= 0 {
			t.Errorf("core %d: non-positive energy", i)
		}
	}
}

// TestRestingEnergyOnlyWithSprinting: resting state requires a sprinting
// LUT.
func TestRestingEnergyOnlyWithSprinting(t *testing.T) {
	prog := func(r *Run) {
		r.ParallelFor(0, 8, 1, func(c *Ctx, lo, hi int) {
			if lo == 0 {
				c.Work(5e6) // one long task; everyone else waits
			} else {
				c.Work(1000)
			}
		})
	}
	rtBase := newTestRuntime(t, Base, 4, 4)
	repBase := rtBase.Execute(prog)
	var baseResting sim.Time
	for _, b := range repBase.Energy {
		baseResting += b.RestingTime
	}
	if baseResting != 0 {
		t.Errorf("base variant rested cores for %v", baseResting)
	}

	rtPS := newTestRuntime(t, BasePS, 4, 4)
	repPS := rtPS.Execute(prog)
	var psResting sim.Time
	for _, b := range repPS.Energy {
		psResting += b.RestingTime
	}
	if psResting == 0 {
		t.Error("base+ps never rested a waiting core")
	}
	if repPS.TotalEnergy >= repBase.TotalEnergy {
		t.Errorf("base+ps energy %.4g not below base %.4g on an LP-heavy run",
			repPS.TotalEnergy, repBase.TotalEnergy)
	}
}

// TestDVFSTransitionsBounded: the controller should make few transitions
// (the paper reports ~0.2 per 10us on average).
func TestDVFSTransitionsHappen(t *testing.T) {
	rt := newTestRuntime(t, BasePS, 4, 4)
	rep := rt.Execute(func(r *Run) {
		r.ParallelFor(0, 128, 1, func(c *Ctx, lo, hi int) { c.Work(50000) })
	})
	if rep.DVFSTransitions == 0 {
		t.Error("no DVFS transitions under base+ps")
	}
}

// Test1B7LWorks exercises the second target system.
func Test1B7LWorks(t *testing.T) {
	for _, v := range []Variant{Base, BasePSM} {
		rt := newTestRuntime(t, v, 1, 7)
		var n int64
		rep := rt.Execute(func(r *Run) {
			r.ParallelFor(0, 1000, 4, func(c *Ctx, lo, hi int) {
				atomic.AddInt64(&n, int64(hi-lo))
				c.Work(float64(hi-lo) * 2000)
			})
		})
		if n != 1000 {
			t.Errorf("%v: iterations = %d", v, n)
		}
		if rep.ExecTime <= 0 {
			t.Errorf("%v: no time elapsed", v)
		}
	}
}

// TestBiasingHoldsLittles: with biasing on and an underloaded system, the
// littles should steal strictly less often than the bigs steal.
func TestBiasingReducesLittleSteals(t *testing.T) {
	countLittleWork := func(bias bool) int {
		p := power.DefaultParams()
		cfgM := model.Config{Params: p, NBig: 4, NLit: 4}
		lut := model.GenerateLUT(cfgM, model.ModeNominal)
		eng := sim.NewEngine()
		m, err := machine.New(eng, machine.Config{Classes: cfgM.NConfig().Classes, LUT: lut, InterruptCycles: 20})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(Base)
		cfg.Biasing = bias
		rt := New(m, cfg)
		littleTasks := 0
		rt.Execute(func(r *Run) {
			// Few, chunky tasks: fewer tasks than cores at times.
			r.ParallelFor(0, 6, 1, func(c *Ctx, lo, hi int) {
				if c.WorkerID() >= 4 {
					littleTasks++
				}
				c.Work(1e5)
			})
		})
		return littleTasks
	}
	biased := countLittleWork(true)
	unbiased := countLittleWork(false)
	if biased > unbiased {
		t.Errorf("biasing increased little-core tasks: %d > %d", biased, unbiased)
	}
}

func TestMultipleFinishPanics(t *testing.T) {
	rt := newTestRuntime(t, Base, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic from double Finish")
		}
	}()
	rt.Execute(func(r *Run) {
		r.Parallel(func(c *Ctx) {
			c.Finish(func(*Ctx) {})
			c.Finish(func(*Ctx) {})
		})
	})
}

func TestInvoke(t *testing.T) {
	rt := newTestRuntime(t, BasePSM, 4, 4)
	var ran [3]bool
	contLast := false
	rt.Execute(func(r *Run) {
		r.Parallel(func(c *Ctx) {
			c.Invoke(func(cc *Ctx) {
				contLast = ran[0] && ran[1] && ran[2]
				cc.Work(10)
			},
				func(cc *Ctx) { ran[0] = true; cc.Work(5000) },
				func(cc *Ctx) { ran[1] = true; cc.Work(7000) },
				func(cc *Ctx) { ran[2] = true; cc.Work(3000) },
			)
		})
	})
	if !ran[0] || !ran[1] || !ran[2] {
		t.Fatalf("invoke branches ran: %v", ran)
	}
	if !contLast {
		t.Error("continuation ran before all invoke branches")
	}
}

func TestParallelInvoke(t *testing.T) {
	rt := newTestRuntime(t, Base, 4, 4)
	var a, b int
	rt.Execute(func(r *Run) {
		r.ParallelInvoke(
			func(c *Ctx) { a = 1; c.Work(4000) },
			func(c *Ctx) { b = 2; c.Work(4000) },
		)
	})
	if a != 1 || b != 2 {
		t.Errorf("a=%d b=%d", a, b)
	}
}
