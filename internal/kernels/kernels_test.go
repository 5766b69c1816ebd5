package kernels

import (
	"testing"

	"aaws/internal/machine"
	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// runKernel executes one workload on a fresh simulated system.
func runKernel(t testing.TB, k *Kernel, v wsrt.Variant, nBig, nLit int, scale float64) (Workload, wsrt.Report) {
	t.Helper()
	w := k.New(42, scale)
	return w, runWorkload(t, k, w, v, nBig, nLit)
}

// runWorkload executes w, a workload of kernel k, on a fresh simulated
// system.
func runWorkload(t testing.TB, k *Kernel, w Workload, v wsrt.Variant, nBig, nLit int) wsrt.Report {
	t.Helper()
	p := power.DefaultParams().WithAlphaBeta(k.Alpha, k.Beta)
	cfg := model.Config{Params: p, NBig: nBig, NLit: nLit}
	lut := model.GenerateLUT(cfg, v.LUTMode())
	eng := sim.NewEngine()
	m, err := machine.New(eng, machine.Config{
		Classes: cfg.NConfig().Classes, LUT: lut, InterruptCycles: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := wsrt.New(m, wsrt.DefaultConfig(v))
	return rt.Execute(w.Run)
}

// TestAllKernelsCorrectUnderAllVariants validates every kernel's parallel
// result against its serial reference under every runtime variant (at a
// reduced input scale to keep the suite fast).
func TestAllKernelsCorrectUnderAllVariants(t *testing.T) {
	if len(All()) < 20 {
		t.Fatalf("only %d kernels registered, want >= 20", len(All()))
	}
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			for _, v := range wsrt.Variants {
				w, rep := runKernel(t, k, v, 4, 4, 0.25)
				if err := w.Check(); err != nil {
					t.Errorf("%v: %v", v, err)
				}
				if rep.ExecTime <= 0 {
					t.Errorf("%v: no simulated time elapsed", v)
				}
				if rep.AppInstr <= 0 {
					t.Errorf("%v: no app instructions charged", v)
				}
			}
		})
	}
}

// TestKernelsOn1B7L validates the second target system on a subset of
// kernels spanning the parallelization methods.
func TestKernelsOn1B7L(t *testing.T) {
	for _, name := range []string{"cilksort", "bfs-nd", "uts", "bscholes", "hull"} {
		k := Get(name)
		if k == nil {
			t.Fatalf("kernel %s not registered", name)
		}
		t.Run(name, func(t *testing.T) {
			for _, v := range []wsrt.Variant{wsrt.Base, wsrt.BasePSM} {
				w, _ := runKernel(t, k, v, 1, 7, 0.25)
				if err := w.Check(); err != nil {
					t.Errorf("%v: %v", v, err)
				}
			}
		})
	}
}

// TestKernelDeterminism: same seed and variant => identical simulated time.
func TestKernelDeterminism(t *testing.T) {
	for _, name := range []string{"qsort-1", "mis", "radix-2"} {
		k := Get(name)
		_, rep1 := runKernel(t, k, wsrt.BasePSM, 4, 4, 0.25)
		_, rep2 := runKernel(t, k, wsrt.BasePSM, 4, 4, 0.25)
		if rep1.ExecTime != rep2.ExecTime || rep1.TotalEnergy != rep2.TotalEnergy {
			t.Errorf("%s: nondeterministic: %v/%g vs %v/%g",
				name, rep1.ExecTime, rep1.TotalEnergy, rep2.ExecTime, rep2.TotalEnergy)
		}
	}
}

// TestKernelsProduceParallelSpeedup: running on 8 cores must beat the
// single-big-core time for every kernel (paper Table III shows speedups
// on both systems for all kernels).
func TestKernelsProduceParallelSpeedup(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			_, rep := runKernel(t, k, wsrt.Base, 4, 4, 0.25)
			// Serial time on one big core ~ (app + serial instr) / (beta * fN).
			serial := (rep.AppInstr + rep.SerialInstr) / (k.Beta * 3.33e8)
			speedup := serial / rep.ExecTime.Seconds()
			if speedup < 1.2 {
				t.Errorf("speedup vs big serial = %.2f; parallelization is not paying off", speedup)
			}
		})
	}
}

// TestRegistryMetadata sanity-checks Table III parameters.
func TestRegistryMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range All() {
		if seen[k.Name] {
			t.Errorf("duplicate kernel %s", k.Name)
		}
		seen[k.Name] = true
		if k.Alpha < 1.5 || k.Alpha > 4.5 {
			t.Errorf("%s: alpha %.2f out of Table III range", k.Name, k.Alpha)
		}
		if k.Beta < 1.2 || k.Beta > 4.0 {
			t.Errorf("%s: beta %.2f out of Table III range", k.Name, k.Beta)
		}
		if k.Suite == "" || k.PM == "" || k.Input == "" {
			t.Errorf("%s: missing metadata", k.Name)
		}
	}
	for _, want := range []string{
		"bfs-d", "bfs-nd", "qsort-1", "qsort-2", "sampsort", "dict", "hull",
		"radix-1", "radix-2", "knn", "mis", "nbody", "rdups", "sarray",
		"sptree", "clsky", "cilksort", "heat", "ksack", "matmul", "bscholes", "uts",
	} {
		if !seen[want] {
			t.Errorf("kernel %s missing from registry", want)
		}
	}
}
