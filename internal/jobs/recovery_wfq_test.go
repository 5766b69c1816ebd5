package jobs_test

import (
	"context"
	"sync"
	"testing"

	"aaws/internal/core"
	"aaws/internal/jobs"
)

// TestRecoveryPreservesTenantWFQ crashes an executor with two tenants'
// backlogs journaled and asserts that after replay the WFQ scheduler still
// sees the tenants: recovery must carry Tenant through the journal, and the
// rebuilt queue must serve the tenants fairly rather than collapsing into
// one anonymous FIFO backlog (which would drain a,a,a,b,b,b).
func TestRecoveryPreservesTenantWFQ(t *testing.T) {
	dir := t.TempDir()
	j1, pending := openJournal(t, dir, 1<<20)
	if len(pending) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(pending))
	}

	// ex1: the only worker is held by a sentinel so the tenant backlogs are
	// journaled but still queued at the crash.
	hold := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	ex1 := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Journal: j1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			once.Do(func() { close(started) })
			select {
			case <-hold:
			case <-ctx.Done():
			}
			return fakeResult(spec), nil
		},
	})
	if _, err := ex1.Submit(testSpec(1), jobs.SubmitOptions{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	<-started
	// Tenant a's full backlog arrives before tenant b's: FIFO replay order.
	for ti, tenant := range []string{"a", "b"} {
		for i := 0; i < 3; i++ {
			_, err := ex1.Submit(testSpec(seedFor(ti, i)), jobs.SubmitOptions{Tenant: tenant, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash: abandon ex1 without Close or Drain — the journal on disk is all
	// that survives.

	j2, pending := openJournal(t, dir, 1<<20)
	defer j2.Close()
	if len(pending) != 7 {
		t.Fatalf("replayed %d jobs, want 7 (sentinel + 6 tenant jobs)", len(pending))
	}
	tenants := map[string]int{}
	for _, p := range pending {
		tenants[p.Tenant]++
	}
	if tenants["a"] != 3 || tenants["b"] != 3 {
		t.Fatalf("journal lost tenant attribution: %v", tenants)
	}

	// ex2: recovery target. The start gate holds every replayed job until
	// Recover has queued the full backlog, so the dispatch order below is
	// purely the scheduler's choice, not replay timing.
	rec := &dispatchRecorder{}
	startGate := make(chan struct{})
	ex2 := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Journal: j2,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			select {
			case <-startGate:
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			}
			if spec.Seed == 1 { // the replayed sentinel is not part of the order
				return fakeResult(spec), nil
			}
			return rec.run(ctx, spec)
		},
	})
	defer ex2.Close()
	n, err := ex2.Recover(pending)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("recovered %d jobs, want 7", n)
	}
	close(startGate)
	for _, p := range pending {
		waitDone(t, ex2, p.ID)
	}

	order := rec.order()
	if len(order) != 6 {
		t.Fatalf("dispatched %d tenant jobs, want 6", len(order))
	}
	// WFQ over a replayed two-tenant backlog must interleave: in every
	// prefix the tenants stay within 2 dispatches of each other. A recovery
	// path that dropped Tenant would replay arrival order a,a,a,b,b,b and
	// skew to 3 by the third dispatch.
	counts := [2]int{}
	for i, seed := range order {
		counts[tenantOf(seed)]++
		diff := counts[0] - counts[1]
		if diff < 0 {
			diff = -diff
		}
		if diff > 2 {
			t.Fatalf("after %d dispatches tenant split %d/%d — recovery lost WFQ fairness; order: %v",
				i+1, counts[0], counts[1], order[:i+1])
		}
	}
}
