package fabric_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// fabricSpec returns a valid spec whose seed distinguishes it from its
// siblings; stub runners never simulate it.
func fabricSpec(seed uint64) core.Spec {
	return core.Spec{Kernel: "cilksort", System: core.Sys4B4L, Variant: wsrt.BasePSM, Seed: seed, Scale: 1.0}
}

// stubResult derives a deterministic result from the spec without running
// the simulator (mirrors the jobs package's test idiom).
func stubResult(spec core.Spec) core.Result {
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

// stubBytes is the canonical outcome encoding of stubResult — what a worker
// built on the stub runner streams back.
func stubBytes(t *testing.T, spec core.Spec) []byte {
	t.Helper()
	spec = jobs.Normalize(spec)
	hash, err := jobs.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := jobs.CanonicalJSON(jobs.NewOutcome(hash, stubResult(spec)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func specHash(t *testing.T, spec core.Spec) string {
	t.Helper()
	h, err := jobs.SpecHash(jobs.Normalize(spec))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// seedRoutedTo finds a seed whose spec content-address routes to index want
// in a fleet of n sorted worker names.
func seedRoutedTo(t *testing.T, want, n int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10_000; seed++ {
		if fabric.RouteIndex(specHash(t, fabricSpec(seed)), n) == want {
			return seed
		}
	}
	t.Fatal("no seed routes to the wanted worker")
	return 0
}

// startCoord boots a coordinator with a live fabric listener.
func startCoord(t *testing.T, cfg fabric.CoordConfig) (*fabric.Coordinator, string) {
	t.Helper()
	coord, err := fabric.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	t.Cleanup(coord.Close)
	return coord, ln.Addr().String()
}

// startWorker connects a named worker with its own executor to the
// coordinator and waits for registration. The returned cancel kills the
// worker's connection (fail-stop).
func startWorker(t *testing.T, coordAddr, name string, cfg jobs.Config) context.CancelFunc {
	t.Helper()
	ex := jobs.NewExecutor(cfg)
	t.Cleanup(ex.Close)
	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Name:           name,
		CoordAddr:      coordAddr,
		Executor:       ex,
		HeartbeatEvery: 50 * time.Millisecond,
		ReconnectDelay: 24 * time.Hour, // a canceled worker must stay dead
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
	return cancel
}

// startFailstopProxy forwards TCP connections to target and severs every
// conn (and the listener) abruptly on kill — a true fail-stop from the
// coordinator's point of view: nothing the dying node writes after the cut
// is ever seen, unlike a context cancel, which lets in-flight executor
// waits race their retryable rejections onto the socket before it closes.
func startFailstopProxy(t *testing.T, target string) (addr string, kill func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, down, up)
			mu.Unlock()
			go func() { _, _ = io.Copy(up, down); up.Close() }()
			go func() { _, _ = io.Copy(down, up); down.Close() }()
		}
	}()
	kill = func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
	t.Cleanup(kill)
	return ln.Addr().String(), kill
}

func defaultMatrix() []core.Spec {
	var specs []core.Spec
	for _, name := range kernels.Names() {
		for _, v := range wsrt.Variants {
			specs = append(specs, core.Spec{Kernel: name, System: core.Sys4B4L, Variant: v, Seed: 42, Scale: 1.0})
		}
	}
	return specs
}

// TestFabricBitIdentity is the tentpole acceptance check: the default sweep
// matrix sharded across three workers (real simulations) must merge to bytes
// bit-identical to a single-node run, and a second pass must be answered
// entirely from the shared cache tier.
func TestFabricBitIdentity(t *testing.T) {
	specs := defaultMatrix()
	direct := make([][]byte, len(specs))
	for i, spec := range specs {
		hash := specHash(t, spec)
		res, err := core.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		direct[i], err = jobs.CanonicalJSON(jobs.NewOutcome(hash, res))
		if err != nil {
			t.Fatal(err)
		}
	}

	coord, addr := startCoord(t, fabric.CoordConfig{
		HedgeDelay:       500 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Second,
	})
	for i := 0; i < 3; i++ {
		startWorker(t, addr, fmt.Sprintf("node-%d", i), jobs.Config{Workers: 2})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cells, err := coord.CellBytes(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !bytes.Equal(cells[i], direct[i]) {
			t.Fatalf("cell %d (%s/%s) differs from single-node run", i, specs[i].Kernel, specs[i].Variant)
		}
	}
	if fabric.Fingerprint(cells) != fabric.Fingerprint(direct) {
		t.Fatal("merged fingerprint differs from single-node")
	}

	// Second pass: shared-tier hits, same bytes, zero new dispatches.
	before := coord.Metrics()
	cells2, err := coord.CellBytes(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if fabric.Fingerprint(cells2) != fabric.Fingerprint(direct) {
		t.Fatal("second-pass fingerprint differs")
	}
	after := coord.Metrics()
	if hits := after.RemoteHits - before.RemoteHits; hits != uint64(len(specs)) {
		t.Fatalf("second pass: %d remote hits, want %d", hits, len(specs))
	}
	if after.Dispatched != before.Dispatched {
		t.Fatalf("second pass dispatched %d new shards", after.Dispatched-before.Dispatched)
	}
}

// TestFabricFailstopBitIdentity kills one worker mid-sweep: the coordinator
// must re-dispatch its uncommitted shards and still merge bit-identical.
func TestFabricFailstopBitIdentity(t *testing.T) {
	specs := defaultMatrix()[:40]
	direct := make([][]byte, len(specs))
	for i, spec := range specs {
		res, err := core.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		direct[i], _ = jobs.CanonicalJSON(jobs.NewOutcome(specHash(t, spec), res))
	}

	coord, addr := startCoord(t, fabric.CoordConfig{
		HedgeDelay:       -1, // recovery must come from fail-stop handling alone
		HeartbeatTimeout: 30 * time.Second,
		RetryBackoff:     20 * time.Millisecond,
	})
	// The doomed worker commits at most two cells and then parks until the
	// kill lands, so it is guaranteed to hold uncommitted shards when it
	// dies — no scheduler interleaving can drain it first. The generous
	// heartbeat timeout keeps the monitor out of the picture: recovery here
	// must come from the connection teardown alone.
	killed := make(chan struct{})
	var doomedRuns atomic.Int64
	slowRunner := func(ctx context.Context, spec core.Spec) (core.Result, error) {
		if doomedRuns.Add(1) > 2 {
			select {
			case <-killed:
			case <-ctx.Done():
			}
			return core.Result{}, errors.New("doomed worker parked")
		}
		select {
		case <-time.After(30 * time.Millisecond):
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
		return core.RunCtx(ctx, spec)
	}
	proxyAddr, killWire := startFailstopProxy(t, addr)
	startWorker(t, proxyAddr, "doomed", jobs.Config{Workers: 1, Runner: slowRunner})
	startWorker(t, addr, "survivor", jobs.Config{Workers: 2})

	// Cut the wire once some shards committed but the sweep is clearly
	// mid-flight; the parked doomed worker means the sweep cannot drain
	// before this fires, so the dead node provably holds uncommitted shards
	// and recovery must flow through the fail-stop re-dispatch path.
	go func() {
		for coord.Metrics().ShardsCompleted < 5 {
			time.Sleep(2 * time.Millisecond)
		}
		killWire()
		close(killed)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cells, err := coord.CellBytes(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if fabric.Fingerprint(cells) != fabric.Fingerprint(direct) {
		t.Fatal("fingerprint differs after worker fail-stop")
	}
	m := coord.Metrics()
	if m.WorkerFailures == 0 {
		t.Fatal("coordinator never registered the fail-stop")
	}
	if m.Redispatches == 0 {
		t.Fatalf("no shards were re-dispatched off the dead worker: %+v", m)
	}
	if m.TasksCompleted != uint64(len(specs)) {
		t.Fatalf("completed %d tasks, want %d", m.TasksCompleted, len(specs))
	}
}

// TestFabricHedgeFirstResultWins pins one shard to a stalled worker: the
// hedge must fire, the fast worker's result commits, and the straggler's
// late result is suppressed as a duplicate — exactly one commit.
func TestFabricHedgeFirstResultWins(t *testing.T) {
	coord, addr := startCoord(t, fabric.CoordConfig{
		HedgeDelay:       30 * time.Millisecond,
		HedgeJitter:      -1, // deterministic delay
		HeartbeatTimeout: 10 * time.Second,
	})
	stall := make(chan struct{})
	defer func() {
		select {
		case <-stall:
		default:
			close(stall)
		}
	}()
	// Sorted fleet: [fast slow] — index 1 is the straggler.
	startWorker(t, addr, "fast", jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		return stubResult(spec), nil
	}})
	startWorker(t, addr, "slow", jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		select {
		case <-stall:
		case <-ctx.Done():
		}
		return stubResult(spec), nil
	}})

	spec := fabricSpec(seedRoutedTo(t, 1, 2)) // primary = slow
	task, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snap, err := coord.Wait(ctx, task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateDone {
		t.Fatalf("task %s: %v", snap.State, snap.Err)
	}
	if snap.Worker != "fast" {
		t.Fatalf("committed by %q, want the hedge target", snap.Worker)
	}
	if !bytes.Equal(snap.Data, stubBytes(t, spec)) {
		t.Fatal("hedged result bytes differ")
	}
	m := coord.Metrics()
	if m.HedgesFired == 0 || m.HedgeWins == 0 {
		t.Fatalf("hedge not recorded: fired=%d wins=%d", m.HedgesFired, m.HedgeWins)
	}

	// Release the straggler: its late result must suppress, not re-commit.
	close(stall)
	deadline := time.Now().Add(5 * time.Second)
	for coord.Metrics().Duplicates == 0 {
		if time.Now().After(deadline) {
			t.Fatal("straggler's late result never arrived as a duplicate")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m := coord.Metrics(); m.ShardsCompleted != 1 {
		t.Fatalf("shard committed %d times", m.ShardsCompleted)
	}
}

// TestFabricPartitionRedispatch registers a protocol-level fake worker that
// accepts a dispatch and then goes silent (no heartbeats, no result): the
// heartbeat monitor must fail it and re-dispatch to the live worker, with no
// duplicate commit.
func TestFabricPartitionRedispatch(t *testing.T) {
	coord, addr := startCoord(t, fabric.CoordConfig{
		HedgeDelay:       -1, // isolate the partition path from hedging
		HeartbeatTimeout: 250 * time.Millisecond,
	})

	// Fake worker "a": hello, hello_ack, swallow one dispatch, then silence.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := fabric.EncodeFrame(fabric.Frame{Kind: fabric.KindHello, Worker: "a", Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 32<<20)
	if !sc.Scan() {
		t.Fatal("no hello_ack")
	}
	if f, err := fabric.DecodeFrame(sc.Bytes()); err != nil || f.Kind != fabric.KindHelloAck {
		t.Fatalf("expected hello_ack, got %v %v", f.Kind, err)
	}
	dispatched := make(chan fabric.Frame, 1)
	go func() {
		for sc.Scan() {
			f, err := fabric.DecodeFrame(sc.Bytes())
			if err != nil {
				return
			}
			if f.Kind == fabric.KindDispatch {
				dispatched <- f
			}
		}
	}()

	startWorker(t, addr, "b", jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		return stubResult(spec), nil
	}})

	spec := fabricSpec(seedRoutedTo(t, 0, 2)) // primary = the fake worker "a"
	task, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-dispatched:
		if f.Shard != specHash(t, spec) {
			t.Fatalf("fake worker got shard %s, want %s", f.Shard, specHash(t, spec))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard never dispatched to the partitioned worker")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snap, err := coord.Wait(ctx, task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateDone {
		t.Fatalf("task %s: %v", snap.State, snap.Err)
	}
	if snap.Worker != "b" {
		t.Fatalf("committed by %q, want the live worker", snap.Worker)
	}
	if !bytes.Equal(snap.Data, stubBytes(t, spec)) {
		t.Fatal("re-dispatched result bytes differ")
	}
	m := coord.Metrics()
	if m.WorkerFailures == 0 {
		t.Fatal("partitioned worker never failed")
	}
	if m.Redispatches == 0 {
		t.Fatal("shard never re-dispatched")
	}
	if m.Duplicates != 0 {
		t.Fatalf("%d duplicate commits (want 0: the partitioned worker never answered)", m.Duplicates)
	}
	if m.ShardsCompleted != 1 {
		t.Fatalf("shard committed %d times", m.ShardsCompleted)
	}
}

// TestFabricParksWithNoWorkers submits into an empty fleet: the shard must
// wait (not fail) and dispatch as soon as the first worker registers.
func TestFabricParksWithNoWorkers(t *testing.T) {
	coord, addr := startCoord(t, fabric.CoordConfig{
		HedgeDelay:       -1,
		HeartbeatTimeout: 10 * time.Second,
	})
	spec := fabricSpec(1)
	task, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := coord.Get(task.ID); snap.State.Terminal() {
		t.Fatalf("task terminal (%s) with no workers", snap.State)
	}
	startWorker(t, addr, "late", jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		return stubResult(spec), nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snap, err := coord.Wait(ctx, task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateDone {
		t.Fatalf("parked task %s: %v", snap.State, snap.Err)
	}
}

// TestFabricSingleflight submits the same spec twice while the only worker
// is stalled: both tasks must coalesce onto one shard and complete together
// from one execution.
func TestFabricSingleflight(t *testing.T) {
	coord, addr := startCoord(t, fabric.CoordConfig{
		HedgeDelay:       -1,
		HeartbeatTimeout: 10 * time.Second,
	})
	gate := make(chan struct{})
	startWorker(t, addr, "w", jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return stubResult(spec), nil
	}})
	spec := fabricSpec(9)
	t1, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m := coord.Metrics(); m.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", m.Coalesced)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{t1.ID, t2.ID} {
		snap, err := coord.Wait(ctx, id)
		if err != nil || snap.State != jobs.StateDone {
			t.Fatalf("coalesced task %s: %v %v", id, snap.State, err)
		}
	}
	if m := coord.Metrics(); m.ShardsCompleted != 1 {
		t.Fatalf("one spec executed %d shards", m.ShardsCompleted)
	}
}

// TestWorkerForgetsReportedShards: a worker's executor must not keep the
// job records of shards it has reported — no client can address their IDs,
// so a long-running worker would otherwise grow without bound. The shard's
// job is visible while it runs and unknown once its result is reported.
func TestWorkerForgetsReportedShards(t *testing.T) {
	coord, addr := startCoord(t, fabric.CoordConfig{
		HedgeDelay:       -1,
		HeartbeatTimeout: 10 * time.Second,
	})
	gate := make(chan struct{})
	ex := jobs.NewExecutor(jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		<-gate
		return stubResult(spec), nil
	}})
	t.Cleanup(ex.Close)
	w, err := fabric.NewWorker(fabric.WorkerConfig{Name: "w", CoordAddr: addr, Executor: ex, HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go w.Run(ctx)
	<-w.Ready()

	spec := fabricSpec(3)
	task, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The fresh executor's first job is the shard: hash prefix, sequence 1.
	id := specHash(t, spec)[:12] + "-1"
	for {
		if snap, err := ex.Get(id); err == nil && snap.State == jobs.StateRunning {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("shard job %s never ran on the worker", id)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if snap, err := coord.Wait(ctx, task.ID); err != nil || snap.State != jobs.StateDone {
		t.Fatalf("task: %v %v", snap.State, err)
	}
	// The result frame is written before the job is forgotten, so the
	// coordinator can see the result a moment before the worker forgets.
	for {
		_, err := ex.Get(id)
		if errors.Is(err, jobs.ErrUnknownJob) {
			return
		}
		if ctx.Err() != nil {
			t.Fatalf("reported shard job %s still known to the worker: %v", id, err)
		}
		time.Sleep(time.Millisecond)
	}
}
