package jobs_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aaws/internal/core"
	"aaws/internal/jobs"
)

// TestSubmitBatchGang: fresh members of a batch execute through one batch
// runner invocation (the gang), not one executor round-trip per cell, and
// every member completes with its own spec's result bytes.
func TestSubmitBatchGang(t *testing.T) {
	var batchCalls, cellsSeen atomic.Int64
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 2,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			t.Error("per-cell runner invoked; gang must use the batch runner")
			return fakeResult(spec), nil
		},
		BatchRunner: func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
			batchCalls.Add(1)
			cellsSeen.Add(int64(len(specs)))
			results := make([]core.Result, len(specs))
			for i, spec := range specs {
				results[i] = fakeResult(spec)
			}
			return results, nil
		},
	})
	defer ex.Close()

	specs := []core.Spec{testSpec(1), testSpec(2), testSpec(3)}
	batch, err := ex.SubmitBatch(specs, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(specs) {
		t.Fatalf("SubmitBatch returned %d jobs for %d specs", len(batch), len(specs))
	}
	for i, job := range batch {
		snap := waitDone(t, ex, job.ID)
		if snap.State != jobs.StateDone {
			t.Fatalf("member %d state = %s, err = %v", i, snap.State, snap.Err)
		}
		if len(snap.Data) == 0 {
			t.Fatalf("member %d completed without result bytes", i)
		}
	}
	if got := batchCalls.Load(); got != 1 {
		t.Errorf("batch runner invoked %d times for one gang, want 1", got)
	}
	if got := cellsSeen.Load(); got != int64(len(specs)) {
		t.Errorf("batch runner saw %d cells, want %d", got, len(specs))
	}
}

// TestSubmitBatchCacheHit: a member whose result is already cached resolves
// from the cache and stays out of the gang — the batch runner sees only the
// fresh cells.
func TestSubmitBatchCacheHit(t *testing.T) {
	var gangCells atomic.Int64
	cache, _ := jobs.NewCache(16, "")
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 2,
		Cache:   cache,
		BatchRunner: func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
			gangCells.Add(int64(len(specs)))
			results := make([]core.Result, len(specs))
			for i, spec := range specs {
				results[i] = fakeResult(spec)
			}
			return results, nil
		},
	})
	defer ex.Close()

	// Prime the cache with spec 1 via a single-member batch.
	warm, err := ex.SubmitBatch([]core.Spec{testSpec(1)}, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ex, warm[0].ID)

	batch, err := ex.SubmitBatch([]core.Spec{testSpec(1), testSpec(2)}, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hit := waitDone(t, ex, batch[0].ID)
	if !hit.CacheHit {
		t.Error("cached member not served from cache")
	}
	fresh := waitDone(t, ex, batch[1].ID)
	if fresh.State != jobs.StateDone {
		t.Fatalf("fresh member state = %s, err = %v", fresh.State, fresh.Err)
	}
	if got := gangCells.Load(); got != 2 { // 1 warm + 1 fresh; the hit never re-runs
		t.Errorf("batch runner saw %d cells total, want 2 (cache hit must not re-run)", got)
	}
}

// TestSubmitBatchAtomicRejection: if a later cell is rejected at admission,
// the whole batch fails and earlier fresh members are canceled — a batch
// starts fully formed or not at all.
func TestSubmitBatchAtomicRejection(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{
		Workers:    1,
		QueueDepth: 2,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()
	defer close(release)

	// Occupy the worker so queued members stay queued.
	blocker, err := ex.Submit(testSpec(99), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Three fresh cells against a depth-2 queue: cell 2 must reject, and
	// the earlier members must come back canceled rather than linger.
	batch, err := ex.SubmitBatch(
		[]core.Spec{testSpec(1), testSpec(2), testSpec(3)}, jobs.SubmitOptions{})
	if !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if batch != nil {
		t.Fatal("failed SubmitBatch returned jobs")
	}
	m := ex.Metrics()
	if m.Canceled != 2 {
		t.Errorf("canceled = %d after atomic batch rejection, want 2", m.Canceled)
	}
	_ = blocker
}

// TestSubmitBatchRejectedCellNamesMachine: a cell rejected at validation
// fails the batch with an error naming that cell's own machine — here an
// N-way topology — not the spec's default System.
func TestSubmitBatchRejectedCellNamesMachine(t *testing.T) {
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()

	bad := testSpec(2)
	bad.Topology = []core.CoreClass{{Count: 2, Speed: 2, Power: 3}, {Count: 70}} // 72 cores: over the limit
	_, err := ex.SubmitBatch([]core.Spec{testSpec(1), bad}, jobs.SubmitOptions{})
	if err == nil {
		t.Fatal("batch with an invalid topology cell was accepted")
	}
	if !strings.Contains(err.Error(), "batch cell 1 (cilksort/2x2/3,70/") {
		t.Fatalf("error does not name cell 1's machine 2x2/3,70: %v", err)
	}
}

// TestSubmitBatchMemberCancel: canceling a queued gang member skips that
// cell; the rest of the gang still runs.
func TestSubmitBatchMemberCancel(t *testing.T) {
	var cells atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(spec), nil
		},
		BatchRunner: func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
			cells.Add(int64(len(specs)))
			results := make([]core.Result, len(specs))
			for i, spec := range specs {
				results[i] = fakeResult(spec)
			}
			return results, nil
		},
	})
	defer ex.Close()

	blocker, err := ex.Submit(testSpec(99), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is pinned; the gang stays queued

	batch, err := ex.SubmitBatch([]core.Spec{testSpec(1), testSpec(2)}, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Cancel(batch[0].ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitDone(t, ex, blocker.ID)

	snap := waitDone(t, ex, batch[1].ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("surviving member state = %s, err = %v", snap.State, snap.Err)
	}
	if got := cells.Load(); got != 1 {
		t.Errorf("batch runner saw %d cells, want 1 (canceled member must be skipped)", got)
	}
	canceled := waitDone(t, ex, batch[0].ID)
	if canceled.State != jobs.StateCanceled {
		t.Errorf("canceled member state = %s, want canceled", canceled.State)
	}
}

// TestGangProgressConcurrentCells drives a gang's progress sink the way a
// parallel batch runner does: several cells report their own event counts
// concurrently. Journaled progress must stay a monotone stride — each
// record at least ProgressEvents above the last — instead of journaling on
// every call whenever a smaller count interleaves with a larger one.
func TestGangProgressConcurrentCells(t *testing.T) {
	const (
		stride = 100
		cells  = 4
		calls  = 2000
	)
	dir := t.TempDir()
	journal, _ := openJournal(t, dir, 1<<30)
	ex := jobs.NewExecutor(jobs.Config{
		Workers:        1,
		Journal:        journal,
		ProgressEvents: stride,
		BatchRunner: func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
			sink := core.ProgressFromContext(ctx)
			var wg sync.WaitGroup
			for c := 0; c < cells; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 1; i <= calls; i++ {
						sink(uint64(i * (c + 1))) // cells advance at different rates
					}
				}(c)
			}
			wg.Wait()
			results := make([]core.Result, len(specs))
			for i, spec := range specs {
				results[i] = fakeResult(spec)
			}
			return results, nil
		},
	})
	batch, err := ex.SubmitBatch([]core.Spec{testSpec(1), testSpec(2)}, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range batch {
		if snap := waitDone(t, ex, job.ID); snap.State != jobs.StateDone {
			t.Fatalf("%s: state %s, err %v", job.ID, snap.State, snap.Err)
		}
	}
	ex.Close()
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("journal segments %v (err %v), want one", segs, err)
	}
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var journaled []uint64
	for _, line := range bytes.Split(bytes.TrimSuffix(blob, []byte("\n")), []byte("\n")) {
		rec, err := jobs.DecodeRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == "progress" {
			journaled = append(journaled, rec.Events)
		}
	}
	if len(journaled) == 0 {
		t.Fatal("no progress journaled")
	}
	last := uint64(0)
	for _, ev := range journaled {
		if ev < last+stride {
			t.Fatalf("progress record %d follows %d: stride %d broken (records %v)", ev, last, stride, journaled)
		}
		last = ev
	}
	if max := uint64(calls * cells / stride); uint64(len(journaled)) > max {
		t.Errorf("%d progress records, want at most %d", len(journaled), max)
	}
}
