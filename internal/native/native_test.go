package native

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func executors(t *testing.T, n int) map[string]Executor {
	t.Helper()
	return map[string]Executor{
		"stealing": NewStealing(n),
		"central":  NewCentral(n),
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for name, ex := range executors(t, 4) {
		t.Run(name, func(t *testing.T) {
			defer ex.Shutdown()
			const n = 100000
			var hits [n]int32
			ex.ParallelFor(0, n, 64, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("iteration %d ran %d times", i, h)
				}
			}
		})
	}
}

func TestNestedParallelForFromBody(t *testing.T) {
	ex := NewStealing(4)
	defer ex.Shutdown()
	var total atomic.Int64
	// An outer loop whose bodies are heavy: executed via the same pool by
	// the submitting goroutine pattern (outer bodies run on workers; inner
	// ParallelFor from a worker must not deadlock the pool).
	ex.ParallelFor(0, 8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total.Add(1)
		}
	})
	if total.Load() != 8 {
		t.Fatalf("total = %d", total.Load())
	}
}

func TestEmptyAndTinyRanges(t *testing.T) {
	ex := NewStealing(2)
	defer ex.Shutdown()
	ran := false
	ex.ParallelFor(5, 5, 10, func(lo, hi int) { ran = true })
	if ran {
		t.Error("body ran for empty range")
	}
	var n atomic.Int32
	ex.ParallelFor(0, 1, 100, func(lo, hi int) { n.Add(int32(hi - lo)) })
	if n.Load() != 1 {
		t.Error("single-element range mishandled")
	}
}

func TestMultipleJobsSequential(t *testing.T) {
	ex := NewStealing(4)
	defer ex.Shutdown()
	for round := 0; round < 20; round++ {
		var sum atomic.Int64
		ex.ParallelFor(0, 1000, 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sum.Add(int64(i))
			}
		})
		if sum.Load() != 999*1000/2 {
			t.Fatalf("round %d: sum = %d", round, sum.Load())
		}
	}
}

// TestStealsActuallyHappen: the first leaf holds its goroutine until a
// steal is observed (bounded, so a pool that never steals fails instead of
// hanging), so the run is imbalanced by construction rather than by timing:
// the rest of the range can only finish through idle workers taking the
// blocked goroutine's splits or the leftovers of busier workers.
func TestStealsActuallyHappen(t *testing.T) {
	p := NewStealing(4)
	defer p.Shutdown()
	var spin atomic.Int64
	var first atomic.Bool
	p.ParallelFor(0, 4096, 1, func(lo, hi int) {
		if first.CompareAndSwap(false, true) {
			deadline := time.Now().Add(10 * time.Second)
			for p.Steals() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
		for i := 0; i < 2000; i++ {
			spin.Add(1)
		}
	})
	if p.Steals() == 0 {
		t.Error("no steals in an imbalanced run")
	}
}

// TestTable2KernelsCorrect runs all five kernels on both executors and
// validates results (small inputs; the timing table is exercised by the
// cmd and bench).
func TestTable2KernelsCorrect(t *testing.T) {
	for _, k := range Table2Kernels(7, 1<<15) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			k.Prepare()
			k.Serial()
			if err := k.Check(); err != nil {
				t.Fatalf("serial: %v", err)
			}
			for name, ex := range executors(t, runtime.GOMAXPROCS(0)) {
				k.Prepare()
				k.Parallel(ex)
				if err := k.Check(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				ex.Shutdown()
			}
		})
	}
}

func TestTable2SmallMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	rows, err := Table2(Table2Options{Seed: 7, N: 1 << 16, Workers: 4, Trials: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.StealingSpeedup <= 0 || r.CentralSpeedup <= 0 {
			t.Errorf("%s: degenerate speedups %+v", r.Kernel, r)
		}
	}
}

func TestInvokeForkJoin(t *testing.T) {
	ex := NewStealing(4)
	defer ex.Shutdown()
	var a, b, c atomic.Int32
	Invoke(ex,
		func() { a.Store(1) },
		func() { b.Store(2) },
		func() {
			// nested fork-join from inside a branch
			Invoke(ex, func() { c.Add(1) }, func() { c.Add(2) })
		},
	)
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Errorf("a=%d b=%d c=%d", a.Load(), b.Load(), c.Load())
	}
}

// TestNestedInvokeSingleWorker: nested fork-join must not deadlock even
// when the pool has a single worker (the caller helps).
func TestNestedInvokeSingleWorker(t *testing.T) {
	for name, ex := range map[string]Executor{
		"stealing": NewStealing(1),
		"central":  NewCentral(1),
	} {
		t.Run(name, func(t *testing.T) {
			defer ex.Shutdown()
			var total atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				Invoke(ex,
					func() { Invoke(ex, func() { total.Add(1) }, func() { total.Add(2) }) },
					func() { Invoke(ex, func() { total.Add(4) }, func() { total.Add(8) }) },
				)
			}()
			select {
			case <-done:
			case <-timeAfter(5):
				t.Fatal("nested Invoke deadlocked with one worker")
			}
			if total.Load() != 15 {
				t.Errorf("total = %d", total.Load())
			}
		})
	}
}

// timeAfter returns a channel firing after n seconds (test helper that
// avoids importing time at each site).
func timeAfter(sec int) <-chan time.Time {
	return time.After(time.Duration(sec) * time.Second)
}
