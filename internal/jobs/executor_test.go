package jobs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// testSpec returns a valid spec whose seed distinguishes it from its
// siblings. Fake runners never simulate it, so any kernel name works as long
// as it passes validation.
func testSpec(seed uint64) core.Spec {
	return core.Spec{Kernel: "cilksort", System: core.Sys4B4L, Variant: wsrt.BasePSM, Seed: seed, Scale: 1.0}
}

// fakeResult derives a deterministic result from the spec so cache bytes are
// reproducible without running the simulator.
func fakeResult(spec core.Spec) core.Result {
	// Alpha/Beta/SerialInstr must be plausible: NewOutcome derives speedups
	// from them, and NaN would be unencodable.
	return core.Result{
		Spec: spec,
		Report: wsrt.Report{
			ExecTime:    sim.Time(spec.Seed+1) * sim.Microsecond,
			TotalEnergy: float64(spec.Seed+1) * 0.25,
		},
		SerialInstr: 1e6,
		Alpha:       1.5,
		Beta:        0.5,
	}
}

func waitDone(t *testing.T, ex *jobs.Executor, id string) jobs.Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snap, err := ex.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return snap
}

// TestSingleflightCollapse submits the same spec five times while the first
// submission is still in flight: the four duplicates must coalesce onto one
// simulation and complete with the primary's bytes.
func TestSingleflightCollapse(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	var runs atomic.Int64
	cache, _ := jobs.NewCache(16, "")
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 4,
		Cache:   cache,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			runs.Add(1)
			started <- struct{}{}
			<-release
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()

	primary, err := ex.Submit(testSpec(7), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the primary is now running
	var dups []*jobs.Job
	for i := 0; i < 4; i++ {
		j, err := ex.Submit(testSpec(7), jobs.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dups = append(dups, j)
	}
	close(release)

	first := waitDone(t, ex, primary.ID)
	if first.State != jobs.StateDone {
		t.Fatalf("primary state = %s, err = %v", first.State, first.Err)
	}
	for _, d := range dups {
		snap := waitDone(t, ex, d.ID)
		if snap.State != jobs.StateDone {
			t.Fatalf("dup %s state = %s, err = %v", d.ID, snap.State, snap.Err)
		}
		if !snap.Coalesced {
			t.Fatalf("dup %s not marked coalesced", d.ID)
		}
		if !bytes.Equal(snap.Data, first.Data) {
			t.Fatalf("coalesced bytes differ from primary's")
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner invoked %d times for 5 identical submissions, want 1", got)
	}
	m := ex.Metrics()
	if m.Submitted != 5 || m.Coalesced != 4 || m.Completed != 5 {
		t.Fatalf("metrics submitted/coalesced/completed = %d/%d/%d, want 5/4/5",
			m.Submitted, m.Coalesced, m.Completed)
	}
}

// TestCacheHitBitIdentical resubmits a completed spec: the second job must be
// served from the cache, without re-running, with byte-identical data.
func TestCacheHitBitIdentical(t *testing.T) {
	var runs atomic.Int64
	cache, _ := jobs.NewCache(16, "")
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 2,
		Cache:   cache,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			runs.Add(1)
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()

	j1, err := ex.Submit(testSpec(3), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, ex, j1.ID)

	j2, err := ex.Submit(testSpec(3), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second := waitDone(t, ex, j2.ID)
	if !second.CacheHit {
		t.Fatal("second submission was not a cache hit")
	}
	if !bytes.Equal(first.Data, second.Data) {
		t.Fatal("cache hit bytes differ from the original run")
	}
	if jobs.ResultHash(first.Data) != jobs.ResultHash(second.Data) {
		t.Fatal("result hashes differ")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner invoked %d times, want 1", got)
	}

	// NoCache forces a fresh simulation even with a warm cache.
	j3, err := ex.Submit(testSpec(3), jobs.SubmitOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	third := waitDone(t, ex, j3.ID)
	if third.CacheHit || third.Coalesced {
		t.Fatal("NoCache submission should not be served from the cache")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runner invoked %d times after NoCache, want 2", got)
	}
	if !bytes.Equal(third.Data, first.Data) {
		t.Fatal("fresh re-run bytes differ: determinism broken")
	}
}

func TestTransientRetry(t *testing.T) {
	var calls atomic.Int64
	ex := jobs.NewExecutor(jobs.Config{
		Workers:    1,
		MaxRetries: 2,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			if calls.Add(1) <= 2 {
				return core.Result{}, fmt.Errorf("backend hiccup: %w", jobs.ErrTransient)
			}
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()

	j, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, ex, j.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("state = %s, err = %v", snap.State, snap.Err)
	}
	if snap.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", snap.Attempts)
	}
	if m := ex.Metrics(); m.Retries != 2 {
		t.Fatalf("retries = %d, want 2", m.Retries)
	}
}

func TestPermanentFailureNotRetried(t *testing.T) {
	var calls atomic.Int64
	ex := jobs.NewExecutor(jobs.Config{
		Workers:    1,
		MaxRetries: 3,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			calls.Add(1)
			return core.Result{}, errors.New("deterministic failure")
		},
	})
	defer ex.Close()

	j, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, ex, j.ID)
	if snap.State != jobs.StateFailed {
		t.Fatalf("state = %s, want failed", snap.State)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("non-transient error retried %d times", got-1)
	}
}

// TestPanicIsolation: a panicking job must fail cleanly without killing the
// worker, which keeps serving later jobs.
func TestPanicIsolation(t *testing.T) {
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			if spec.Seed == 666 {
				panic("poisoned job")
			}
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()

	bad, err := ex.Submit(testSpec(666), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, ex, bad.ID)
	if snap.State != jobs.StateFailed {
		t.Fatalf("panicked job state = %s, want failed", snap.State)
	}
	if snap.Err == nil || !strings.Contains(snap.Err.Error(), "panicked") {
		t.Fatalf("panic not surfaced in error: %v", snap.Err)
	}

	good, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, ex, good.ID); snap.State != jobs.StateDone {
		t.Fatalf("worker did not survive the panic: %s (%v)", snap.State, snap.Err)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			<-ctx.Done()
			return core.Result{}, ctx.Err()
		},
	})
	defer ex.Close()

	j, err := ex.Submit(testSpec(1), jobs.SubmitOptions{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, ex, j.ID)
	if snap.State != jobs.StateFailed {
		t.Fatalf("state = %s, want failed on deadline", snap.State)
	}
	if !errors.Is(snap.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", snap.Err)
	}
}

func TestCancelRunningAndQueued(t *testing.T) {
	started := make(chan struct{}, 1)
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return core.Result{}, ctx.Err()
		},
	})
	defer ex.Close()

	running, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := ex.Submit(testSpec(2), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job first: it must resolve without ever running.
	if _, err := ex.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, ex, queued.ID); snap.State != jobs.StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", snap.State)
	}

	if _, err := ex.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, ex, running.ID); snap.State != jobs.StateCanceled {
		t.Fatalf("running job state = %s, want canceled", snap.State)
	}
	if m := ex.Metrics(); m.Canceled != 2 {
		t.Fatalf("canceled = %d, want 2", m.Canceled)
	}
}

// TestPriorityOrdering: with one worker pinned, a high-priority submission
// must jump the queue ahead of an earlier low-priority one.
func TestPriorityOrdering(t *testing.T) {
	started := make(chan uint64, 16)
	release := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- spec.Seed
			<-release
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()

	filler, err := ex.Submit(testSpec(100), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker is pinned on the filler
	low, err := ex.Submit(testSpec(1), jobs.SubmitOptions{Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	high, err := ex.Submit(testSpec(2), jobs.SubmitOptions{Priority: 10})
	if err != nil {
		t.Fatal(err)
	}
	close(release)

	for _, j := range []*jobs.Job{filler, low, high} {
		if snap := waitDone(t, ex, j.ID); snap.State != jobs.StateDone {
			t.Fatalf("%s: %s (%v)", j.ID, snap.State, snap.Err)
		}
	}
	order := []uint64{<-started, <-started}
	if order[0] != 2 || order[1] != 1 {
		t.Fatalf("execution order %v, want high-priority seed 2 before seed 1", order)
	}
}

func TestQueueFull(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{
		Workers:    1,
		QueueDepth: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()
	defer close(release)

	if _, err := ex.Submit(testSpec(1), jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; queue empty
	if _, err := ex.Submit(testSpec(2), jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err := ex.Submit(testSpec(3), jobs.SubmitOptions{})
	if !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// TestDrain: draining lets in-flight jobs finish, rejects new submissions,
// and Drain returns once the executor is idle.
func TestDrain(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 2,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()

	inflight, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	drained := make(chan error, 1)
	go func() { drained <- ex.Drain(context.Background()) }()
	for !ex.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := ex.Submit(testSpec(2), jobs.SubmitOptions{}); !errors.Is(err, jobs.ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if snap := waitDone(t, ex, inflight.ID); snap.State != jobs.StateDone {
		t.Fatalf("in-flight job did not finish during drain: %s (%v)", snap.State, snap.Err)
	}
}

// TestDrainTimeoutCancelsStragglers: if the drain context expires, running
// jobs are canceled rather than waited on forever.
func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	started := make(chan struct{}, 1)
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- struct{}{}
			<-ctx.Done() // never finishes voluntarily
			return core.Result{}, ctx.Err()
		},
	})
	defer ex.Close()

	j, err := ex.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := ex.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	if snap := waitDone(t, ex, j.ID); snap.State != jobs.StateCanceled {
		t.Fatalf("straggler state = %s, want canceled", snap.State)
	}
}

// TestBatchRunnerOrdering: results come back in submission order even though
// cells complete out of order across the pool.
func TestBatchRunnerOrdering(t *testing.T) {
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 4,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			// Later seeds finish first.
			time.Sleep(time.Duration(10-spec.Seed) * time.Millisecond)
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()

	var specs []core.Spec
	for seed := uint64(1); seed <= 8; seed++ {
		specs = append(specs, testSpec(seed))
	}
	results, err := ex.BatchRunner(context.Background())(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, res := range results {
		if res.Spec.Seed != specs[i].Seed {
			t.Fatalf("result %d has seed %d, want %d", i, res.Spec.Seed, specs[i].Seed)
		}
		if res.Report.ExecTime != fakeResult(specs[i]).Report.ExecTime {
			t.Fatalf("result %d payload mismatch", i)
		}
	}
}

// TestForget: Forget drops terminal jobs only, and a forgotten ID answers
// ErrUnknownJob.
func TestForget(t *testing.T) {
	gate := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		<-gate
		return core.Result{Spec: spec}, nil
	}})
	defer ex.Close()
	job, err := ex.Submit(core.Spec{Kernel: "cilksort", Variant: wsrt.BasePSM, Scale: 0.05}, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Forget(job.ID); !errors.Is(err, jobs.ErrJobActive) {
		t.Fatalf("Forget of an unfinished job = %v, want jobs.ErrJobActive", err)
	}
	close(gate)
	if _, err := ex.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	if err := ex.Forget(job.ID); err != nil {
		t.Fatalf("Forget of a done job: %v", err)
	}
	if _, err := ex.Get(job.ID); !errors.Is(err, jobs.ErrUnknownJob) {
		t.Errorf("Get after Forget = %v, want jobs.ErrUnknownJob", err)
	}
	if err := ex.Forget(job.ID); !errors.Is(err, jobs.ErrUnknownJob) {
		t.Errorf("second Forget = %v, want jobs.ErrUnknownJob", err)
	}
}
