package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
	"aaws/internal/wsrt"
)

// startNode boots a coordinator node — an executor whose backend is a
// coordinator (fabric.NewNode) — with a live fabric listener and the jobs
// API plus fleet endpoints on one HTTP server. It returns the executor's
// server, the coordinator, the fabric address and the HTTP base URL.
func startNode(t *testing.T, cfg jobs.Config, cc fabric.CoordConfig) (*jobs.Server, *jobs.Executor, *fabric.Coordinator, string, string) {
	t.Helper()
	ex, coord, err := fabric.NewNode(cfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-registered first: the coordinator closes before the
	// executor, releasing any job still parked on the fleet.
	t.Cleanup(ex.Close)
	t.Cleanup(coord.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	api := jobs.NewServerWithOptions(ex, jobs.ServerOptions{Degraded: coord.Degraded})
	hs := httptest.NewServer(fabric.Mount(api, coord))
	t.Cleanup(hs.Close)
	return api, ex, coord, ln.Addr().String(), hs.URL
}

// TestFabricTenantIsolation: a coordinator node schedules fleet work through
// the executor's tenant WFQ. With one job in flight at a time (Workers: 1)
// and a one-slot fleet, a flood tenant queues a backlog of slow jobs; a
// victim tenant's single job must dispatch after at most one further flood
// job, not behind the whole backlog as a FIFO would run it.
func TestFabricTenantIsolation(t *testing.T) {
	_, ex, _, addr, _ := startNode(t, jobs.Config{Workers: 1}, fabric.CoordConfig{HedgeDelay: -1})
	var mu sync.Mutex
	var order []uint64 // seeds in the order the fleet ran them
	startWorker(t, addr, "w", jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		mu.Lock()
		order = append(order, spec.Seed)
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		return stubResult(spec), nil
	}})

	const floodJobs = 8
	var ids []string
	for i := 0; i < floodJobs; i++ {
		job, err := ex.Submit(fabricSpec(uint64(100+i)), jobs.SubmitOptions{Tenant: "flood"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	const victimSeed = 1
	victim, err := ex.Submit(fabricSpec(victimSeed), jobs.SubmitOptions{Tenant: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range append(ids, victim.ID) {
		if snap, err := ex.Wait(ctx, id); err != nil || snap.State != jobs.StateDone {
			t.Fatalf("job %s: %v %v", id, snap.State, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, seed := range order {
		if seed == victimSeed {
			pos = i
		}
	}
	// At the victim's arrival at most one flood job is in flight; WFQ may
	// let one more flood job go first, never the backlog behind it.
	if pos < 0 || pos > 2 {
		t.Fatalf("victim ran at position %d of %v, want within the first 3", pos, order)
	}
}

// TestHTTPSubmitAndPoll drives a job through a coordinator node's HTTP API
// the way aaws-loadgen does: POST /v1/jobs then poll with ?wait_ms. The
// report the node serves is byte-identical to a local run's.
func TestHTTPSubmitAndPoll(t *testing.T) {
	_, _, _, fabricAddr, base := startNode(t, jobs.Config{Workers: 1}, fabric.CoordConfig{HedgeDelay: -1})
	startWorker(t, fabricAddr, "w", jobs.Config{Workers: 1})

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kernel":"cilksort","variant":"base+psm","seed":7,"scale":0.25}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/jobs/" + sub.ID + "?wait_ms=10000")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		State      string `json:"state"`
		ResultHash string `json:"result_hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "done" {
		t.Fatalf("job state %q", st.State)
	}
	if st.ResultHash == "" {
		t.Fatalf("status missing result hash: %+v", st)
	}

	rep, err := http.Get(base + "/v1/jobs/" + sub.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rep.Body)
	rep.Body.Close()
	if err != nil || rep.StatusCode != http.StatusOK {
		t.Fatalf("report: %d %v", rep.StatusCode, err)
	}
	spec := core.Spec{Kernel: "cilksort", System: core.Sys4B4L, Variant: wsrt.BasePSM, Seed: 7, Scale: 0.25, Check: true}
	res, err := core.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := jobs.CanonicalJSON(jobs.NewOutcome(specHash(t, spec), res))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("node report bytes differ from a local RunCtx run")
	}
}

// TestReadyzDegradedUntilWorker: a coordinator node with no fleet must
// advertise degraded readiness, flipping to ready on first registration.
func TestReadyzDegradedUntilWorker(t *testing.T) {
	_, _, _, fabricAddr, base := startNode(t, jobs.Config{Workers: 1}, fabric.CoordConfig{HedgeDelay: -1})

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet readyz: %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "no workers registered") {
		t.Fatalf("degraded readyz body: %s", body)
	}

	startWorker(t, fabricAddr, "w", jobs.Config{Workers: 1})
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz still %d after registration", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplayPhaseRejectsSubmissions pins the journal-replay contract: while
// a node replays its journal, submissions get 503 + Retry-After and
// readiness reports the phase; both clear when replay finishes (and work is
// accepted even before any worker registers).
func TestReplayPhaseRejectsSubmissions(t *testing.T) {
	api, _, _, _, base := startNode(t, jobs.Config{Workers: 1}, fabric.CoordConfig{HedgeDelay: -1})

	api.SetReady(false)
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep during replay: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during replay carries no Retry-After")
	}
	ready, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode == http.StatusOK {
		t.Fatal("/readyz reports ready mid-replay")
	}

	api.SetReady(true)
	resp2, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader([]byte(`{"kernels":["cilksort"],"variants":["base"],"scale":0.01}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep after replay: %d, want 202", resp2.StatusCode)
	}
}

// TestNodeTenantCacheQuotas: a coordinator node charges fleet-computed
// results to the submitting tenant's cache quota, even though the result
// reaches the shared tier (from the coordinator's commit) before the job's
// own store. A flood tenant's results are evicted by its own quota while
// the victim's entries stay.
func TestNodeTenantCacheQuotas(t *testing.T) {
	cache, err := jobs.NewCache(1024, "")
	if err != nil {
		t.Fatal(err)
	}
	cache.SetTenantQuotas(0, 2)
	_, ex, _, addr, _ := startNode(t, jobs.Config{Workers: 1, Cache: cache}, fabric.CoordConfig{HedgeDelay: -1})
	startWorker(t, addr, "w", jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		return stubResult(spec), nil
	}})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	run := func(seed uint64, tenant string) {
		job, err := ex.Submit(fabricSpec(seed), jobs.SubmitOptions{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		if snap, err := ex.Wait(ctx, job.ID); err != nil || snap.State != jobs.StateDone {
			t.Fatalf("job %s: %v %v", job.ID, snap.State, err)
		}
	}
	run(1, "victim")
	run(2, "victim")
	for seed := uint64(100); seed < 110; seed++ {
		run(seed, "flood")
	}

	s := cache.Stats()
	if got := s.PerTenant["flood"].Entries; got != 2 {
		t.Fatalf("flood owns %d cache entries, want its quota of 2", got)
	}
	if got := s.PerTenant["victim"].Entries; got != 2 {
		t.Fatalf("victim owns %d cache entries, want 2", got)
	}
	if s.TenantEvictions != 8 {
		t.Fatalf("TenantEvictions = %d, want 8", s.TenantEvictions)
	}
	for _, seed := range []uint64{1, 2} {
		if _, ok := cache.Get(specHash(t, fabricSpec(seed))); !ok {
			t.Fatalf("victim entry for seed %d evicted by the flood", seed)
		}
	}
}

// TestNodeParkedTimeNotCharged: a job parked on an empty fleet outlives its
// deadline and runs once a worker registers; with a worker present the
// deadline still bounds the job.
func TestNodeParkedTimeNotCharged(t *testing.T) {
	const timeout = 200 * time.Millisecond
	_, ex, _, addr, _ := startNode(t, jobs.Config{Workers: 2, DefaultTimeout: timeout},
		fabric.CoordConfig{HedgeDelay: -1})
	parked, err := ex.Submit(fabricSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * timeout)
	if snap, _ := ex.Get(parked.ID); snap.State.Terminal() {
		t.Fatalf("parked job ended %s (%v) while no worker was registered", snap.State, snap.Err)
	}

	stuck := make(chan struct{})
	defer close(stuck)
	startWorker(t, addr, "w", jobs.Config{Workers: 2, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		if spec.Seed == 2 {
			<-stuck
		}
		return stubResult(spec), nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if snap, err := ex.Wait(ctx, parked.ID); err != nil || snap.State != jobs.StateDone {
		t.Fatalf("parked job: %v %v, want done once a worker registered", snap.State, err)
	}
	slow, err := ex.Submit(fabricSpec(2), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ex.Wait(ctx, slow.ID)
	if err != nil || snap.State != jobs.StateFailed || !errors.Is(snap.Err, context.DeadlineExceeded) {
		t.Fatalf("job stuck on a live worker: %v %v (err %v), want failed by its deadline", snap.State, snap.Err, err)
	}
}

// TestNodeTracksFleetSlots: a node built without a Workers bound keeps one
// job in flight per registered worker slot, following the fleet as workers
// join and leave.
func TestNodeTracksFleetSlots(t *testing.T) {
	_, ex, _, addr, _ := startNode(t, jobs.Config{}, fabric.CoordConfig{HedgeDelay: -1, HeartbeatTimeout: 10 * time.Second})
	waitWorkers := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ex.Metrics().Workers != want; {
			if time.Now().After(deadline) {
				t.Fatalf("executor pool %d, want %d", ex.Metrics().Workers, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitWorkers(1) // empty fleet: one job parks at a time
	stopA := startWorker(t, addr, "a", jobs.Config{Workers: 3})
	waitWorkers(3)
	startWorker(t, addr, "b", jobs.Config{Workers: 2})
	waitWorkers(5)
	stopA()
	waitWorkers(2)
}
