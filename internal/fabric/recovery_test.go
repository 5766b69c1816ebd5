package fabric_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
)

// startReconnectingWorker is startWorker with a crash-tolerant reconnect
// policy: short capped backoff so the worker survives a coordinator restart
// within the test's patience.
func startReconnectingWorker(t *testing.T, coordAddr, name string, cfg jobs.Config) {
	t.Helper()
	ex := jobs.NewExecutor(cfg)
	t.Cleanup(ex.Close)
	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Name:           name,
		CoordAddr:      coordAddr,
		Executor:       ex,
		HeartbeatEvery: 50 * time.Millisecond,
		ReconnectDelay: 25 * time.Millisecond,
		ReconnectMax:   250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go w.Run(ctx)
	select {
	case <-w.Ready():
	case <-time.After(10 * time.Second):
		t.Fatalf("worker %s never registered", name)
	}
}

// TestCoordinatorCrashRecoveryBitIdentity is the crash drill at test
// granularity: a coordinator node — executor over coordinator — is killed
// mid-sweep (the executor abandoned, the coordinator Killed: no graceful
// journal finalization), a fresh pair replays the executor's journal on the
// same address with the same disk cache, the fleet reconnects on its own,
// and the drained sweep is bit-identical to the uninterrupted run — with job
// IDs preserved across the crash and no duplicate shard commits.
func TestCoordinatorCrashRecoveryBitIdentity(t *testing.T) {
	dir := t.TempDir()
	journalDir := filepath.Join(dir, "journal")
	cacheDir := filepath.Join(dir, "cache")

	specs := make([]core.Spec, 24)
	direct := make([][]byte, len(specs))
	for i := range specs {
		specs[i] = fabricSpec(uint64(i + 1))
		direct[i] = stubBytes(t, specs[i])
	}

	store1, pend0, err := jobs.OpenJournal(journalDir, jobs.JournalConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pend0) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(pend0))
	}
	cache1, err := jobs.NewCache(1024, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	coordCfg := fabric.CoordConfig{
		HedgeDelay:       -1, // no hedging: zero duplicates is assertable
		HeartbeatTimeout: 2 * time.Second,
		RetryBackoff:     20 * time.Millisecond,
	}
	ex1, coord1, err := fabric.NewNode(jobs.Config{Workers: 4, Cache: cache1, Journal: store1}, coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go coord1.Serve(ln)

	// A deliberately slow stub runner guarantees the kill lands mid-sweep.
	slowStub := func(ctx context.Context, spec core.Spec) (core.Result, error) {
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
		return stubResult(spec), nil
	}
	for i := 0; i < 2; i++ {
		startReconnectingWorker(t, addr, fmt.Sprintf("node-%d", i), jobs.Config{Workers: 1, Runner: slowStub})
	}

	ids := make([]string, len(specs))
	for i, spec := range specs {
		job, err := ex1.Submit(spec, jobs.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
	}
	deadline := time.Now().Add(30 * time.Second)
	for coord1.Metrics().ShardsCompleted < 5 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached 5 committed shards")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The crash: connections drop, no job resolution, no terminal journal
	// records — exactly what SIGKILL leaves behind. The first executor is
	// abandoned with its jobs still waiting on the dead coordinator, and the
	// journal file handle stays open (harmless on POSIX) just as a real
	// kill would leave it.
	coord1.Kill()
	killedAt := coord1.Metrics().ShardsCompleted

	store2, pending, err := jobs.OpenJournal(journalDir, jobs.JournalConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if len(pending) == 0 {
		t.Fatal("journal replay found nothing pending — the kill did not land mid-sweep")
	}
	if got := store2.Metrics().Replayed; got == 0 {
		t.Fatalf("journal metrics report %d replayed", got)
	}
	cache2, err := jobs.NewCache(1024, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	ex2, coord2, err := fabric.NewNode(jobs.Config{Workers: 4, Cache: cache2, Journal: store2}, coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex2.Close)
	t.Cleanup(coord2.Close)
	var ln2 net.Listener
	for rebind := time.Now().Add(10 * time.Second); ; {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(rebind) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go coord2.Serve(ln2)

	n, err := ex2.Recover(pending)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pending) {
		t.Fatalf("recovered %d of %d pending jobs", n, len(pending))
	}
	if ex2.Metrics().Replayed != uint64(n) {
		t.Fatalf("replay counter %d, want %d", ex2.Metrics().Replayed, n)
	}

	// Drain under the original IDs. Jobs that finished before the crash are
	// unknown to the new executor; resubmitting their specs must be
	// answered by the surviving disk cache, not recomputed by a worker.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	replayed, rehit := 0, 0
	recovered := make([][]byte, len(ids))
	for i, id := range ids {
		snap, err := ex2.Wait(ctx, id)
		if errors.Is(err, jobs.ErrUnknownJob) {
			job, serr := ex2.Submit(specs[i], jobs.SubmitOptions{})
			if serr != nil {
				t.Fatal(serr)
			}
			snap, err = ex2.Wait(ctx, job.ID)
			if err == nil && snap.CacheHit {
				rehit++
			}
		} else if err == nil && snap.Replayed {
			replayed++
		}
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if snap.State != jobs.StateDone {
			t.Fatalf("cell %d ended %s: %v", i, snap.State, snap.Err)
		}
		if !bytes.Equal(snap.Data, direct[i]) {
			t.Fatalf("cell %d differs from uninterrupted run", i)
		}
		recovered[i] = snap.Data
	}
	if replayed == 0 {
		t.Fatal("no awaited job carried the replayed marker")
	}
	if killedAt > 0 && rehit == 0 {
		t.Fatal("no pre-crash result was served from the surviving disk cache")
	}

	// Bit-identity is the headline: same fingerprint as the direct run.
	if fabric.Fingerprint(recovered) != fabric.Fingerprint(direct) {
		t.Fatal("recovered fingerprint differs from uninterrupted run")
	}

	if m := coord2.Metrics(); m.Duplicates != 0 {
		t.Fatalf("recovery committed %d duplicate results with hedging disabled", m.Duplicates)
	}
	m := ex2.Metrics()
	if !m.Journaled {
		t.Fatal("journaled executor reports no journal metrics")
	}
	if m.Journal.OpenJobs != 0 {
		t.Fatalf("journal invariant violated: %d jobs still open after the sweep drained", m.Journal.OpenJobs)
	}
	_ = ex1 // abandoned: its workers stay parked on the killed coordinator
}

// TestRecoverOnCleanJournal pins the no-op path: a coordinator node
// recovering zero pending jobs touches nothing.
func TestRecoverOnCleanJournal(t *testing.T) {
	store, pending, err := jobs.OpenJournal(t.TempDir(), jobs.JournalConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ex, coord, err := fabric.NewNode(jobs.Config{Workers: 1, Journal: store}, fabric.CoordConfig{HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	t.Cleanup(coord.Close)
	n, err := ex.Recover(pending)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("recovered %d jobs from an empty journal", n)
	}
	if m := ex.Metrics(); m.Replayed != 0 {
		t.Fatalf("replay counter %d after empty recovery", m.Replayed)
	}
}
