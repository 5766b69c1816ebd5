package core_test

// The parallel batch gates: RunBatch fans its input groups out across
// GOMAXPROCS goroutines, and nothing about that may show in its output —
// not in the result bytes, not in which failure is reported, not in how
// promptly a cancellation stops it.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/fault"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// withGOMAXPROCS runs fn with GOMAXPROCS set to n and restores the old
// setting afterwards.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// canonicalCells encodes results the way the services store them.
func canonicalCells(t *testing.T, results []core.Result) [][]byte {
	t.Helper()
	cells := make([][]byte, len(results))
	for i, res := range results {
		b, err := jobs.CanonicalJSON(jobs.NewOutcome("", res))
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		cells[i] = b
	}
	return cells
}

// mixedMatrix is a shared-input batch over 4B4L, 1B7L and a 3-way
// topology, each cell plain, elastic or under a fault mix, with Check on:
// every input group spans machines, partitions and runtime modes, and
// group costs differ by kernel, so workers finish groups out of order.
func mixedMatrix() []core.Spec {
	machines := []core.Spec{
		{System: core.Sys4B4L},
		{System: core.Sys1B7L},
		{Topology: []core.CoreClass{{Count: 1, Speed: 4, Power: 3}, {Count: 3, Speed: 2, Power: 1.8}, {Count: 4}}},
	}
	faults := &fault.Config{
		Seed: 3, MugDropRate: 0.2, VRSlowRate: 0.3,
		Fails:     []fault.CoreFail{{Core: 5, At: 20 * sim.Microsecond}},
		Throttles: []fault.Throttle{{Core: 2, At: 5 * sim.Microsecond, For: 30 * sim.Microsecond, Factor: 0.5}},
	}
	var specs []core.Spec
	for _, kn := range []string{"cilksort", "bfs-nd", "heat", "rdups"} {
		for _, seed := range []uint64{7, 8} {
			for _, m := range machines {
				for _, v := range []wsrt.Variant{wsrt.Base, wsrt.BasePSM} {
					for mode := 0; mode < 3; mode++ {
						s := m
						s.Kernel, s.Variant, s.Seed, s.Scale, s.Check = kn, v, seed, 0.05, true
						switch mode {
						case 1:
							s.Elastic = true
						case 2:
							s.Faults = faults
						}
						specs = append(specs, s)
					}
				}
			}
		}
	}
	return specs
}

// TestBatchIndependentOfGOMAXPROCS: at every width the batch's canonical
// bytes equal per-cell Run's, cell for cell.
func TestBatchIndependentOfGOMAXPROCS(t *testing.T) {
	specs := mixedMatrix()
	want := make([]core.Result, len(specs))
	for i, spec := range specs {
		res, err := core.Run(spec)
		if err != nil {
			t.Fatalf("cell %d: Run: %v", i, err)
		}
		want[i] = res
	}
	wantCells := canonicalCells(t, want)
	for _, procs := range []int{1, 2, 4, 8} {
		var results []core.Result
		var err error
		withGOMAXPROCS(procs, func() {
			results, err = core.RunBatch(append([]core.Spec(nil), specs...))
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i, got := range canonicalCells(t, results) {
			if !bytes.Equal(got, wantCells[i]) {
				s := specs[i]
				t.Errorf("GOMAXPROCS=%d: cell %d (%s/%s/%s elastic=%v faults=%v) differs from Run",
					procs, i, s.Kernel, s.System, s.Variant, s.Elastic, s.Faults != nil)
			}
		}
	}
}

// TestBatchParallelErrorMatchesSerial: with failing cells in two groups,
// every width reports the failure a serial run meets first — the last cell
// of the earlier group — even though a parallel worker reaches the later
// group's failure (its first cell) sooner. The failing cells run on a 2B6L
// machine, which the error must name.
func TestBatchParallelErrorMatchesSerial(t *testing.T) {
	var specs []core.Spec
	for seed := uint64(1); seed <= 8; seed++ {
		for _, v := range []wsrt.Variant{wsrt.Base, wsrt.BasePSM, wsrt.BaseM} {
			specs = append(specs, core.Spec{Kernel: "cilksort", Variant: v, Seed: seed, Scale: 0.05})
		}
	}
	for _, i := range []int{2*3 + 2, 5 * 3} { // group 2's last cell, group 5's first
		specs[i].MaxEvents = 100
		specs[i].NBig, specs[i].NLit = 2, 6
	}
	errs := map[int]string{}
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			results, err := core.RunBatch(append([]core.Spec(nil), specs...))
			if err == nil || results != nil {
				t.Fatalf("GOMAXPROCS=%d: batch with failing cells returned %d results, err %v", procs, len(results), err)
			}
			errs[procs] = err.Error()
		})
	}
	if !strings.Contains(errs[1], "batch cell 8 (cilksort/2B6L/") {
		t.Errorf("serial batch error does not name cell 8 and its 2B6L machine: %s", errs[1])
	}
	if errs[4] != errs[1] {
		t.Errorf("GOMAXPROCS=4 error differs from serial:\n  got  %s\n  want %s", errs[4], errs[1])
	}
}

// TestBatchParallelCancel: cancelling a parallel batch mid-run stops every
// worker promptly — RunBatchCtx returns only after all of them — with an
// error wrapping ctx.Err().
func TestBatchParallelCancel(t *testing.T) {
	var specs []core.Spec
	for seed := uint64(1); seed <= 16; seed++ {
		specs = append(specs, core.Spec{Kernel: "cilksort", Variant: wsrt.BasePSM, Seed: seed, Scale: 1})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	var canceledAt time.Time
	ctx = core.WithProgress(ctx, func(uint64) {
		once.Do(func() {
			canceledAt = time.Now()
			cancel()
		})
	})
	withGOMAXPROCS(4, func() {
		results, err := core.RunBatchCtx(ctx, specs)
		if !errors.Is(err, context.Canceled) || results != nil {
			t.Fatalf("canceled batch returned %d results, err %v; want context.Canceled", len(results), err)
		}
		if d := time.Since(canceledAt); d > 5*time.Second {
			t.Errorf("batch took %v to return after cancel", d)
		}
	})
}

// TestBatchParallelPanicReraised: a panic on a worker goroutine (here from
// an input's Prepare) does not kill the process; it is re-raised in the
// caller, where the jobs executor's panic isolation can catch it.
func TestBatchParallelPanicReraised(t *testing.T) {
	k := kernels.Get("heat")
	prepare := k.Prepare
	defer func() { k.Prepare = prepare }()
	k.Prepare = func(seed uint64, scale float64) kernels.Input {
		if seed == 6 {
			panic("prepare boom")
		}
		return prepare(seed, scale)
	}
	var specs []core.Spec
	for seed := uint64(1); seed <= 8; seed++ {
		specs = append(specs, core.Spec{Kernel: "heat", Variant: wsrt.BasePSM, Seed: seed, Scale: 0.05})
	}
	withGOMAXPROCS(4, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic in a batch worker was swallowed")
			}
			if msg, _ := r.(string); !strings.Contains(msg, "prepare boom") {
				t.Errorf("re-raised panic lost the original value: %v", r)
			}
		}()
		core.RunBatch(specs)
	})
}
