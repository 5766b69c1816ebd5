package jobs

import (
	"context"
	"errors"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// TestExecutorRetentionBound: past maxTerminalJobs terminal jobs the oldest
// IDs answer ErrUnknownJob, queued, running and coalesced jobs are never
// evicted, the jobs map stays bounded, and BatchRunner and Result still
// return outcomes whose IDs were evicted before they were read.
func TestExecutorRetentionBound(t *testing.T) {
	cache, err := NewCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	ex := NewExecutor(Config{Workers: 1, Cache: cache, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		if spec.Seed == 1 {
			<-gate
		}
		return core.Result{Spec: spec, Report: wsrt.Report{ExecTime: sim.Microsecond}}, nil
	}})
	defer ex.Close()
	defer close(gate)

	spec := func(seed uint64) core.Spec {
		return core.Spec{Kernel: "cilksort", Variant: wsrt.BasePSM, Seed: seed, Scale: 1}
	}
	running, err := ex.Submit(spec(1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if snap, _ := ex.Get(running.ID); snap.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	coalesced, err := ex.Submit(spec(1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := ex.Submit(spec(2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Terminal jobs are cheap to make: every submission of a cached spec
	// completes inline as a cache hit.
	hot := Normalize(spec(3))
	hash, err := SpecHash(hot)
	if err != nil {
		t.Fatal(err)
	}
	data, err := CanonicalJSON(NewOutcome(hash, core.Result{
		Spec: hot, Report: wsrt.Report{ExecTime: sim.Microsecond, TotalEnergy: 1},
		SerialInstr: 1e6, Alpha: 1.5, Beta: 0.5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(hash, data)
	const extra = 100
	ids := make([]string, maxTerminalJobs+extra)
	for i := range ids {
		job, err := ex.Submit(hot, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
	}

	for _, id := range ids[:extra] {
		if _, err := ex.Get(id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("oldest terminal job %s: err %v, want ErrUnknownJob", id, err)
		}
	}
	for _, id := range ids[extra:] {
		if snap, err := ex.Get(id); err != nil || snap.State != StateDone {
			t.Fatalf("retained job %s: %v %v", id, snap.State, err)
		}
	}
	for name, job := range map[string]*Job{"running": running, "coalesced": coalesced, "queued": queued} {
		snap, err := ex.Get(job.ID)
		if err != nil || snap.State.Terminal() {
			t.Fatalf("%s job %s evicted or finished: %v %v", name, job.ID, snap.State, err)
		}
	}
	ex.mu.Lock()
	n := len(ex.jobs)
	ex.mu.Unlock()
	if n != maxTerminalJobs+3 {
		t.Fatalf("jobs map holds %d entries, want %d terminal + 3 live", n, maxTerminalJobs)
	}

	// Callers holding the jobs they submitted keep their outcomes even when
	// retention forgets the IDs first: a batch whose cache-hit cells alone
	// overflow the bound finish (and evict each other) inside SubmitBatch.
	batch := make([]core.Spec, maxTerminalJobs+extra)
	for i := range batch {
		batch[i] = hot
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	results, err := ex.BatchRunner(ctx)(batch)
	if err != nil || len(results) != len(batch) {
		t.Fatalf("BatchRunner over an evicting batch: %d results, err %v", len(results), err)
	}
	if _, cached, err := ex.Result(ctx, hot, SubmitOptions{}); err != nil || !cached {
		t.Fatalf("Result: cached %v, err %v", cached, err)
	}
}
