package jobs_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
)

// dispatchRecorder is a Runner that logs the seed of every spec it executes,
// in dispatch order. With Workers:1 the order is exactly the scheduler's
// dispatch sequence.
type dispatchRecorder struct {
	mu    sync.Mutex
	seeds []uint64
	gate  chan struct{} // when non-nil, each run consumes one token first
}

func (r *dispatchRecorder) run(ctx context.Context, spec core.Spec) (core.Result, error) {
	if r.gate != nil {
		select {
		case <-r.gate:
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	r.mu.Lock()
	r.seeds = append(r.seeds, spec.Seed)
	r.mu.Unlock()
	return fakeResult(spec), nil
}

func (r *dispatchRecorder) order() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.seeds...)
}

// seedFor maps (tenant index, job index) onto a unique seed so dispatch
// order can be attributed to tenants: tenant t owns seeds [1000*(t+1), ...).
func seedFor(tenant, i int) uint64 { return uint64(1000*(tenant+1) + i) }

func tenantOf(seed uint64) int { return int(seed)/1000 - 1 }

// queueThenRun blocks the single worker with a sentinel job, queues per-tenant
// backlogs while it is held, then releases everything and returns the
// dispatch order of the queued jobs (sentinel excluded).
func queueThenRun(t *testing.T, qos jobs.QoSConfig, tenants []string, perTenant int) []uint64 {
	t.Helper()
	rec := &dispatchRecorder{}
	hold := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		QoS:     qos,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			if spec.Seed == 1 { // sentinel: hold the only worker
				once.Do(func() { close(started) })
				<-hold
				return fakeResult(spec), nil
			}
			return rec.run(ctx, spec)
		},
	})
	defer ex.Close()

	sentinel, err := ex.Submit(testSpec(1), jobs.SubmitOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var ids []string
	// Interleave tenants round-robin so arrival order cannot fake fairness.
	for i := 0; i < perTenant; i++ {
		for ti, tenant := range tenants {
			j, err := ex.Submit(testSpec(seedFor(ti, i)), jobs.SubmitOptions{Tenant: tenant, NoCache: true})
			if err != nil {
				t.Fatalf("queueing tenant %s job %d: %v", tenant, i, err)
			}
			ids = append(ids, j.ID)
		}
	}
	close(hold)
	waitDone(t, ex, sentinel.ID)
	for _, id := range ids {
		waitDone(t, ex, id)
	}
	return rec.order()
}

// TestWFQEqualWeightsFairShare checks the core fairness property: with equal
// weights, every prefix of the dispatch sequence serves the two tenants
// within 10% of equally.
func TestWFQEqualWeightsFairShare(t *testing.T) {
	order := queueThenRun(t, jobs.QoSConfig{}, []string{"alice", "bob"}, 20)
	if len(order) != 40 {
		t.Fatalf("dispatched %d jobs, want 40", len(order))
	}
	counts := [2]int{}
	for i, seed := range order {
		counts[tenantOf(seed)]++
		if n := i + 1; n >= 10 {
			diff := counts[0] - counts[1]
			if diff < 0 {
				diff = -diff
			}
			// Allow an absolute slack of 2: while the cost EWMA is still
			// decaying from the sentinel's run, alternation can transiently
			// skew by one extra dispatch.
			if diff > 2 && float64(diff) > 0.1*float64(n) {
				t.Fatalf("after %d dispatches tenant split %d/%d (>10%% skew); order: %v",
					n, counts[0], counts[1], order[:n])
			}
		}
	}
}

// TestWFQWeightedShare checks weight proportionality: a weight-2 tenant gets
// ~2x the dispatches of a weight-1 tenant in every sufficiently long prefix.
func TestWFQWeightedShare(t *testing.T) {
	qos := jobs.QoSConfig{Weights: map[string]float64{"heavy": 2, "light": 1}}
	order := queueThenRun(t, qos, []string{"heavy", "light"}, 24)
	counts := [2]int{}
	for i, seed := range order {
		counts[tenantOf(seed)]++
		// Skip prefixes where the light tenant has drained (tail is all
		// heavy) and early prefixes where rounding dominates.
		n := i + 1
		if n < 12 || counts[1] >= 24 || counts[0] >= 24 {
			continue
		}
		ratio := float64(counts[0]) / float64(counts[1])
		if ratio < 1.6 || ratio > 2.5 {
			t.Fatalf("after %d dispatches heavy/light = %d/%d (ratio %.2f, want ~2)",
				n, counts[0], counts[1], ratio)
		}
	}
	if counts[0]+counts[1] != 48 {
		t.Fatalf("dispatched %d jobs, want 48", counts[0]+counts[1])
	}
}

// TestWFQStarvationBound checks the interactive latency bound: a victim
// tenant's single job submitted behind another tenant's deep backlog is
// dispatched almost immediately (it waits at most the one job already
// committed to the worker), not behind the whole flood.
func TestWFQStarvationBound(t *testing.T) {
	rec := &dispatchRecorder{gate: make(chan struct{})}
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Runner:  rec.run,
	})
	defer ex.Close()

	const flood = 30
	var ids []string
	for i := 0; i < flood; i++ {
		j, err := ex.Submit(testSpec(seedFor(0, i)), jobs.SubmitOptions{Tenant: "flood", NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Let 5 flood jobs run so the flood has accumulated virtual service.
	for i := 0; i < 5; i++ {
		rec.gate <- struct{}{}
	}
	victim, err := ex.Submit(testSpec(seedFor(1, 0)), jobs.SubmitOptions{Tenant: "victim", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flood-5+1; i++ {
		rec.gate <- struct{}{}
	}
	waitDone(t, ex, victim.ID)
	for _, id := range ids {
		waitDone(t, ex, id)
	}

	order := rec.order()
	pos := -1
	for i, seed := range order {
		if seed == seedFor(1, 0) {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatalf("victim job never dispatched; order %v", order)
	}
	// The victim arrived while ~2 flood jobs could already be committed
	// (one running, one popped and blocked on the gate). Anything later
	// means the flood's backlog starved it.
	if pos > 7 {
		t.Fatalf("victim dispatched at position %d (flood starved it); order %v", pos, order)
	}
}

// TestDrainCompletesWFQBacklog checks the Drain x WFQ interaction: draining
// an executor with backlogs across several tenants runs every queued job to
// completion, regardless of which per-tenant queue holds it.
func TestDrainCompletesWFQBacklog(t *testing.T) {
	ex := jobs.NewExecutor(jobs.Config{
		Workers: 2,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			time.Sleep(time.Millisecond)
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()

	var ids []string
	for ti := 0; ti < 3; ti++ {
		for i := 0; i < 8; i++ {
			j, err := ex.Submit(testSpec(seedFor(ti, i)), jobs.SubmitOptions{
				Tenant:  fmt.Sprintf("tenant-%d", ti),
				NoCache: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ex.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		snap, err := ex.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != jobs.StateDone {
			t.Fatalf("job %s state = %s after drain, want done", id, snap.State)
		}
	}
	m := ex.Metrics()
	if m.Completed != 24 || m.QueueDepth != 0 {
		t.Fatalf("completed/depth = %d/%d after drain, want 24/0", m.Completed, m.QueueDepth)
	}
}

// TestPerTenantQueueQuota checks AdmissionConfig.PerTenantDepth: one tenant's
// flood hits its own queue quota while another tenant still submits freely.
func TestPerTenantQueueQuota(t *testing.T) {
	hold := make(chan struct{})
	started := make(chan struct{}, 1)
	ex := jobs.NewExecutor(jobs.Config{
		Workers:    1,
		QueueDepth: 100,
		Admission:  jobs.AdmissionConfig{PerTenantDepth: 5},
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-hold
			return fakeResult(spec), nil
		},
	})
	defer ex.Close()
	defer close(hold) // LIFO: release held workers before Close joins them

	if _, err := ex.Submit(testSpec(1), jobs.SubmitOptions{Tenant: "flood", NoCache: true}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 5; i++ {
		if _, err := ex.Submit(testSpec(seedFor(0, i)), jobs.SubmitOptions{Tenant: "flood", NoCache: true}); err != nil {
			t.Fatalf("flood job %d within quota rejected: %v", i, err)
		}
	}
	if _, err := ex.Submit(testSpec(seedFor(0, 99)), jobs.SubmitOptions{Tenant: "flood", NoCache: true}); err == nil {
		t.Fatal("6th queued flood job admitted past PerTenantDepth=5")
	}
	if _, err := ex.Submit(testSpec(seedFor(1, 0)), jobs.SubmitOptions{Tenant: "victim", NoCache: true}); err != nil {
		t.Fatalf("victim submission rejected while flood at quota: %v", err)
	}
	m := ex.Metrics()
	if got := m.PerTenant["flood"].Rejected; got != 1 {
		t.Fatalf("flood Rejected = %d, want 1", got)
	}
	if got := m.PerTenant["victim"].Rejected; got != 0 {
		t.Fatalf("victim Rejected = %d, want 0", got)
	}
}

// TestWFQSingleTenantSubmissionOrder pins what a lone tenant gets: within
// one class (every job here is interactive, equal priority) WFQ dispatches in
// submission order.
func TestWFQSingleTenantSubmissionOrder(t *testing.T) {
	order := queueThenRun(t, jobs.QoSConfig{}, []string{"alice"}, 8)
	if len(order) != 8 {
		t.Fatalf("dispatched %d jobs, want 8", len(order))
	}
	for i, seed := range order {
		if seed != seedFor(0, i) {
			t.Fatalf("single-tenant dispatch order %v, want submission order", order)
		}
	}
}
