// Fabric chaos scenarios: deterministic, seeded adversarial drills for the
// distributed sweep fabric, run fully in-process over loopback TCP.
//
//	coord-crash   kill a coordinator node (executor over coordinator)
//	              mid-sweep (journal + disk cache survive), restart a fresh
//	              pair on the same address, replay the journal, and require
//	              the merged fingerprint bit-identical to a single-node run
//	zombie        partition a worker mid-shard, let its replacement register
//	              (new epoch), then heal the partition and inject a stale-
//	              epoch result carrying corrupted data — the epoch fence must
//	              reject it with no duplicate shard commit
//	reorder       route every worker through a proxy that delays each wire
//	              frame by a seeded 0–8ms, so heartbeats, results, and
//	              dispatches interleave out of order — fingerprint must hold
//	cache-outage  kill the shared remote-cache tier mid-sweep — workers must
//	              degrade to local compute and the fingerprint must hold
//	failstop      fail-stop worker node-0 mid-sweep — its shards must be
//	              re-dispatched, and a second pass must reproduce the same
//	              bytes with answers served from the shared cache tier
//
// Every scenario verifies the merged fingerprint against an uninterrupted
// single-node reference computed in the same process, so any -system/-seed/
// -scale works; -fabric-fingerprint additionally gates the reference,
// coord-crash recovery and the failstop merge against the committed value.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/wsrt"
)

type fabricChaosOptions struct {
	scenario string
	nodes    int
	system   string
	seed     uint64
	scale    float64
	fpPath   string
	outPath  string
}

type scenarioResult struct {
	Name     string   `json:"name"`
	Pass     bool     `json:"pass"`
	WallMs   float64  `json:"wall_ms"`
	Notes    []string `json:"notes,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

func (r *scenarioResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *scenarioResult) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

type fabricChaosReport struct {
	System      string           `json:"system"`
	Seed        uint64           `json:"seed"`
	Scale       float64          `json:"scale"`
	Cells       int              `json:"cells"`
	Nodes       int              `json:"nodes"`
	Reference   string           `json:"reference_fingerprint"`
	Scenarios   []scenarioResult `json:"scenarios"`
	Pass        bool             `json:"pass"`
	TotalWallMs float64          `json:"total_wall_ms"`
}

// maxWireFrame mirrors the fabric's frame bound for the proxy scanners.
const maxWireFrame = 32 << 20

func runFabricChaos(o fabricChaosOptions) int {
	sys, ok := core.ParseSystem(o.system)
	if !ok {
		fatalf("unknown system %q", o.system)
	}
	if o.nodes < 2 {
		o.nodes = 2
	}
	var specs []core.Spec
	for _, name := range kernels.Names() {
		for _, v := range wsrt.Variants {
			specs = append(specs, core.Spec{
				Kernel: name, System: sys, Variant: v,
				Seed: o.seed, Scale: o.scale,
			})
		}
	}

	fmt.Fprintf(os.Stderr, "fabric-chaos: reference pass (%d cells, %s, seed %d, scale %g)\n",
		len(specs), o.system, o.seed, o.scale)
	ref, err := referenceCells(specs)
	if err != nil {
		fatalf("reference pass: %v", err)
	}
	refFP := fabric.Fingerprint(ref)

	var committedFP string
	if o.fpPath != "" {
		blob, err := os.ReadFile(o.fpPath)
		if err != nil {
			fatalf("reading fingerprint file: %v", err)
		}
		var want struct {
			System      string  `json:"system"`
			Seed        uint64  `json:"seed"`
			Scale       float64 `json:"scale"`
			Fingerprint string  `json:"fingerprint"`
		}
		if err := json.Unmarshal(blob, &want); err != nil {
			fatalf("parsing fingerprint file: %v", err)
		}
		if want.System != o.system || want.Seed != o.seed || want.Scale != o.scale {
			fatalf("fingerprint file is for %s/seed=%d/scale=%g, running %s/seed=%d/scale=%g",
				want.System, want.Seed, want.Scale, o.system, o.seed, o.scale)
		}
		committedFP = want.Fingerprint
		if committedFP != refFP {
			fatalf("single-node reference %s does not match committed fingerprint %s", refFP, committedFP)
		}
	}

	scenarios := []struct {
		name string
		run  func() scenarioResult
	}{
		{"coord-crash", func() scenarioResult { return scenarioCoordCrash(o, specs, ref, refFP, committedFP) }},
		{"zombie", func() scenarioResult { return scenarioZombie(o, specs) }},
		{"reorder", func() scenarioResult { return scenarioReorder(o, specs, refFP) }},
		{"cache-outage", func() scenarioResult { return scenarioCacheOutage(o, specs, refFP) }},
		{"failstop", func() scenarioResult { return scenarioFailstop(o, specs, refFP, committedFP) }},
	}

	report := fabricChaosReport{
		System: o.system, Seed: o.seed, Scale: o.scale,
		Cells: len(specs), Nodes: o.nodes,
		Reference: refFP, Pass: true,
	}
	t0 := time.Now()
	ran := 0
	for _, sc := range scenarios {
		if o.scenario != "all" && o.scenario != sc.name {
			continue
		}
		ran++
		fmt.Fprintf(os.Stderr, "fabric-chaos: scenario %s\n", sc.name)
		t := time.Now()
		res := sc.run()
		res.Name = sc.name
		res.Pass = len(res.Failures) == 0
		res.WallMs = float64(time.Since(t)) / float64(time.Millisecond)
		for _, n := range res.Notes {
			fmt.Fprintf(os.Stderr, "fabric-chaos:   %s\n", n)
		}
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "fabric-chaos:   FAIL: %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "fabric-chaos: scenario %s: %s (%.0f ms)\n",
			sc.name, passStr(res.Pass), res.WallMs)
		report.Scenarios = append(report.Scenarios, res)
		if !res.Pass {
			report.Pass = false
		}
	}
	if ran == 0 {
		fatalf("unknown fabric scenario %q (coord-crash, zombie, reorder, cache-outage, failstop, all)", o.scenario)
	}
	report.TotalWallMs = float64(time.Since(t0)) / float64(time.Millisecond)

	if o.outPath != "" {
		blob, _ := json.MarshalIndent(report, "", "  ")
		if err := os.WriteFile(o.outPath, append(blob, '\n'), 0o644); err != nil {
			fatalf("writing report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "fabric-chaos: report written to %s\n", o.outPath)
	}
	if report.Pass {
		fmt.Fprintln(os.Stderr, "fabric-chaos: PASS")
		return 0
	}
	fmt.Fprintln(os.Stderr, "fabric-chaos: FAIL")
	return 1
}

func passStr(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// referenceCells runs every spec through a plain single-node loop, producing
// the canonical outcome bytes the fabric must reproduce bit-identically.
func referenceCells(specs []core.Spec) ([][]byte, error) {
	cells := make([][]byte, 0, len(specs))
	for _, spec := range specs {
		data, err := canonicalCell(spec)
		if err != nil {
			return nil, err
		}
		cells = append(cells, data)
	}
	return cells, nil
}

func canonicalCell(spec core.Spec) ([]byte, error) {
	hash, err := jobs.SpecHash(spec)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("running %s/%s: %w", spec.Kernel, spec.Variant, err)
	}
	return jobs.CanonicalJSON(jobs.NewOutcome(hash, res))
}

// chaosWorker is one in-process fabric worker node plus its executor.
type chaosWorker struct {
	w      *fabric.Worker
	ex     *jobs.Executor
	cancel context.CancelFunc
}

// startChaosWorkers boots n worker nodes against coordAddr. tierFor may be
// nil (plain local caches) or supply a per-node cache tier.
func startChaosWorkers(ctx context.Context, n int, coordAddr string, tierFor func(i int) (jobs.CacheTier, error)) ([]*chaosWorker, error) {
	workers := make([]*chaosWorker, 0, n)
	for i := 0; i < n; i++ {
		var tier jobs.CacheTier
		if tierFor != nil {
			t, err := tierFor(i)
			if err != nil {
				return workers, err
			}
			tier = t
		} else {
			c, err := jobs.NewCache(1024, "")
			if err != nil {
				return workers, err
			}
			tier = c
		}
		ex := jobs.NewExecutor(jobs.Config{Workers: 2, Cache: tier})
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			Name:           fmt.Sprintf("chaos-node-%d", i),
			CoordAddr:      coordAddr,
			Executor:       ex,
			HeartbeatEvery: 100 * time.Millisecond,
			ReconnectDelay: 50 * time.Millisecond,
			ReconnectMax:   400 * time.Millisecond,
		})
		if err != nil {
			ex.Close()
			return workers, err
		}
		wctx, cancel := context.WithCancel(ctx)
		cw := &chaosWorker{w: w, ex: ex, cancel: cancel}
		go func() { _ = w.Run(wctx) }()
		workers = append(workers, cw)
		select {
		case <-w.Ready():
		case <-time.After(10 * time.Second):
			return workers, fmt.Errorf("worker %d never registered", i)
		}
	}
	return workers, nil
}

func stopChaosWorkers(ws []*chaosWorker) {
	for _, cw := range ws {
		cw.cancel()
	}
	for _, cw := range ws {
		cw.ex.Close()
	}
}

// chaosCoord is a bare coordinator serving the fabric wire on a loopback
// listener and, when booted with its HTTP API, the shared result-cache tier
// on another.
type chaosCoord struct {
	*fabric.Coordinator
	addr     string // fabric wire address
	httpAddr string // HTTP API address ("" when booted without it)
	hsrv     *http.Server
}

func startChaosCoord(cfg fabric.CoordConfig, withHTTP bool) (*chaosCoord, error) {
	coord, err := fabric.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	go func() { _ = coord.Serve(ln) }()
	c := &chaosCoord{Coordinator: coord, addr: ln.Addr().String()}
	if withHTTP {
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			coord.Close()
			return nil, err
		}
		c.httpAddr = hln.Addr().String()
		c.hsrv = &http.Server{Handler: fabric.NewHTTP(coord, fabric.HTTPOptions{})}
		go func() { _ = c.hsrv.Serve(hln) }()
	}
	return c, nil
}

func (c *chaosCoord) Close() {
	if c.hsrv != nil {
		_ = c.hsrv.Close()
	}
	c.Coordinator.Close()
}

// awaitThird blocks until a third of n shards have committed on coord: the
// mid-sweep point where the drills inject their fault.
func awaitThird(coord *fabric.Coordinator, n int) error {
	threshold := uint64(n / 3)
	if threshold == 0 {
		threshold = 1
	}
	deadline := time.Now().Add(2 * time.Minute)
	for coord.Metrics().ShardsCompleted < threshold {
		if time.Now().After(deadline) {
			return fmt.Errorf("sweep never reached %d committed shards", threshold)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// scenarioCoordCrash kills a coordinator node — an executor over a
// coordinator (fabric.NewNode) — mid-sweep: the executor is abandoned and
// the coordinator Killed, so no terminal journal record is written. A fresh
// pair restarts on the same address with the same journal and disk cache
// and replays the journal. The recovered sweep — replayed jobs recomputed by
// the reconnecting fleet, pre-crash results answered from the surviving disk
// cache — must fingerprint bit-identical to the single-node reference (and
// the committed value, when given).
func scenarioCoordCrash(o fabricChaosOptions, specs []core.Spec, ref [][]byte, refFP, committedFP string) (r scenarioResult) {
	tmp, err := os.MkdirTemp("", "aaws-fabric-chaos-")
	if err != nil {
		r.failf("tempdir: %v", err)
		return r
	}
	defer os.RemoveAll(tmp)
	journalDir := filepath.Join(tmp, "journal")
	cacheDir := filepath.Join(tmp, "cache")
	coordCfg := fabric.CoordConfig{
		HedgeDelay:       -1, // single dispatch path: duplicates must be zero
		HeartbeatTimeout: 2 * time.Second,
		RetryBackoff:     25 * time.Millisecond,
	}
	// startNode opens the journal and disk cache and builds a node over
	// them; every incarnation sees what the previous one left on disk.
	startNode := func() (*jobs.Journal, []jobs.Pending, *jobs.Executor, *fabric.Coordinator, error) {
		store, pending, err := jobs.OpenJournal(journalDir, jobs.JournalConfig{})
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("opening journal: %w", err)
		}
		cache, err := jobs.NewCache(8192, cacheDir)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("disk cache: %w", err)
		}
		ex, coord, err := fabric.NewNode(jobs.Config{Workers: 2 * o.nodes, Cache: cache, Journal: store}, coordCfg)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("node: %w", err)
		}
		return store, pending, ex, coord, nil
	}

	_, pend0, ex1, coord1, err := startNode()
	if err != nil {
		r.failf("%v", err)
		return r
	}
	if len(pend0) != 0 {
		r.failf("fresh journal replayed %d jobs", len(pend0))
		return r
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.failf("listener: %v", err)
		return r
	}
	addr := ln.Addr().String()
	go func() { _ = coord1.Serve(ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	workers, err := startChaosWorkers(ctx, o.nodes, addr, nil)
	defer stopChaosWorkers(workers)
	if err != nil {
		r.failf("workers: %v", err)
		return r
	}

	// Cells go in one job each, so those that finish before the kill leave
	// terminal journal records and the rest stay pending; every cell is
	// journaled before Submit returns.
	ids := make([]string, len(specs))
	for i, spec := range specs {
		job, err := ex1.Submit(spec, jobs.SubmitOptions{})
		if err != nil {
			r.failf("submit %d: %v", i, err)
			return r
		}
		ids[i] = job.ID
	}

	// SIGKILL analog once a third of the shards have committed: abrupt, no
	// journal finalization, no job resolution. The first executor is
	// abandoned with its running jobs still waiting on the dead coordinator.
	if err := awaitThird(coord1, len(specs)); err != nil {
		r.failf("%v", err)
		return r
	}
	coord1.Kill()
	r.notef("killed coordinator node after %d/%d shards committed", coord1.Metrics().ShardsCompleted, len(specs))

	// Restart: fresh journal replay, fresh node on the same address (the
	// fleet is still retrying it), same disk cache directory.
	store2, pending, ex2, coord2, err := startNode()
	if err != nil {
		r.failf("restart: %v", err)
		return r
	}
	defer store2.Close()
	defer ex2.Close()
	defer coord2.Close()
	if len(pending) == 0 {
		r.failf("journal replay found no pending jobs — the kill did not land mid-sweep")
		return r
	}
	var ln2 net.Listener
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			r.failf("rebinding %s: %v", addr, err)
			return r
		}
		time.Sleep(10 * time.Millisecond)
	}
	go func() { _ = coord2.Serve(ln2) }()

	n, err := ex2.Recover(pending)
	if err != nil {
		r.failf("recover: %v", err)
		return r
	}
	if n != len(pending) {
		r.failf("recovered %d of %d pending jobs", n, len(pending))
		return r
	}
	r.notef("replayed %d journaled jobs", n)

	// Drain the sweep through the restarted node: replayed IDs are awaited
	// directly (preserved across the crash); jobs that finished pre-crash
	// are unknown to the new executor and resubmitted — the surviving disk
	// cache must answer those without recompute.
	replayed, rehit := 0, 0
	cells := make([][]byte, len(specs))
	for i, id := range ids {
		snap, err := ex2.Wait(ctx, id)
		if errors.Is(err, jobs.ErrUnknownJob) {
			job, serr := ex2.Submit(specs[i], jobs.SubmitOptions{})
			if serr != nil {
				r.failf("resubmit %d: %v", i, serr)
				return r
			}
			snap, err = ex2.Wait(ctx, job.ID)
			if err == nil && snap.CacheHit {
				rehit++
			}
		} else if err == nil && snap.Replayed {
			replayed++
		}
		if err != nil {
			r.failf("awaiting cell %d: %v", i, err)
			return r
		}
		if snap.State != jobs.StateDone {
			r.failf("cell %d ended %s: %v", i, snap.State, snap.Err)
			return r
		}
		cells[i] = snap.Data
	}
	if replayed == 0 {
		r.failf("no awaited job carried the replayed marker")
	}
	if rehit == 0 {
		r.failf("no pre-crash result was answered from the surviving disk cache")
	}
	r.notef("%d jobs recomputed after replay, %d pre-crash results served from disk cache", replayed, rehit)

	fp := fabric.Fingerprint(cells)
	if fp != refFP {
		r.failf("recovered fingerprint %s != single-node %s", fp, refFP)
	}
	if committedFP != "" && fp != committedFP {
		r.failf("recovered fingerprint %s != committed %s", fp, committedFP)
	}
	if m := coord2.Metrics(); m.Duplicates != 0 {
		r.failf("restarted coordinator committed duplicates: %d suppressed results with hedging disabled", m.Duplicates)
	}
	if m := ex2.Metrics(); !m.Journaled {
		r.failf("restarted executor reports no journal")
	} else if m.Journal.OpenJobs != 0 {
		r.failf("journal invariant: %d jobs still open after the sweep drained", m.Journal.OpenJobs)
	}
	r.notef("fingerprint %s matches reference", fp)
	return r
}

// wireConn is the harness's raw frame connection for impersonating workers.
type wireConn struct {
	c  net.Conn
	sc *bufio.Scanner
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 64<<10), maxWireFrame)
	return &wireConn{c: c, sc: sc}, nil
}

func (wc *wireConn) write(f fabric.Frame) error {
	buf, err := fabric.EncodeFrame(f)
	if err != nil {
		return err
	}
	_, err = wc.c.Write(buf)
	return err
}

func (wc *wireConn) read() (fabric.Frame, error) {
	if !wc.sc.Scan() {
		if err := wc.sc.Err(); err != nil {
			return fabric.Frame{}, err
		}
		return fabric.Frame{}, fmt.Errorf("connection closed")
	}
	return fabric.DecodeFrame(wc.sc.Bytes())
}

// scenarioZombie partitions a worker holding a dispatched shard, lets a
// replacement registration take its name (new epoch), then heals the
// partition and replays the zombie's result — stamped with the superseded
// epoch and carrying deliberately wrong bytes. The fence must reject it; the
// shard must commit exactly once, from the current epoch, with correct data.
func scenarioZombie(o fabricChaosOptions, specs []core.Spec) (r scenarioResult) {
	ex, coord, err := fabric.NewNode(jobs.Config{Workers: 1}, fabric.CoordConfig{
		HedgeDelay: -1,
		// Generous timeout: the partition is explicit, not heartbeat-driven.
		HeartbeatTimeout: 60 * time.Second,
	})
	if err != nil {
		r.failf("coordinator node: %v", err)
		return r
	}
	defer ex.Close()
	defer coord.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.failf("listener: %v", err)
		return r
	}
	go func() { _ = coord.Serve(ln) }()
	addr := ln.Addr().String()

	spec := specs[0]
	correct, err := canonicalCell(spec)
	if err != nil {
		r.failf("computing reference cell: %v", err)
		return r
	}
	// The poison payload decodes as a perfectly valid canonical outcome —
	// of a different cell. Nothing on the result path checks content
	// against the shard hash (workers are trusted); only the epoch fence
	// stands between this and a corrupted merge.
	poison, err := canonicalCell(specs[1])
	if err != nil {
		r.failf("computing poison cell: %v", err)
		return r
	}

	zombie, err := dialWire(addr)
	if err != nil {
		r.failf("zombie dial: %v", err)
		return r
	}
	defer zombie.c.Close()
	if err := zombie.write(fabric.Frame{Kind: fabric.KindHello, Worker: "chaos-z", Slots: 1}); err != nil {
		r.failf("zombie hello: %v", err)
		return r
	}
	ack, err := zombie.read()
	if err != nil || ack.Kind != fabric.KindHelloAck {
		r.failf("zombie ack: %v (kind %q)", err, ack.Kind)
		return r
	}
	e1 := ack.Epoch

	job, err := ex.Submit(spec, jobs.SubmitOptions{})
	if err != nil {
		r.failf("submit: %v", err)
		return r
	}
	disp, err := zombie.read()
	if err != nil || disp.Kind != fabric.KindDispatch {
		r.failf("zombie dispatch: %v (kind %q)", err, disp.Kind)
		return r
	}
	// Partition: the zombie holds the shard and goes silent.

	replacement, err := dialWire(addr)
	if err != nil {
		r.failf("replacement dial: %v", err)
		return r
	}
	defer replacement.c.Close()
	if err := replacement.write(fabric.Frame{Kind: fabric.KindHello, Worker: "chaos-z", Slots: 1}); err != nil {
		r.failf("replacement hello: %v", err)
		return r
	}
	ack2, err := replacement.read()
	if err != nil || ack2.Kind != fabric.KindHelloAck {
		r.failf("replacement ack: %v (kind %q)", err, ack2.Kind)
		return r
	}
	e2 := ack2.Epoch
	if e2 <= e1 {
		r.failf("replacement epoch %d is not newer than zombie epoch %d", e2, e1)
		return r
	}
	redisp, err := replacement.read()
	if err != nil || redisp.Kind != fabric.KindDispatch || redisp.Shard != disp.Shard {
		r.failf("replacement re-dispatch: %v (kind %q shard %q, want %q)", err, redisp.Kind, redisp.Shard, disp.Shard)
		return r
	}
	r.notef("zombie epoch %d superseded by %d; shard re-dispatched", e1, e2)

	// Heal: the zombie's stale result arrives (over the replacement's
	// healed path) stamped with the superseded epoch and poisoned data.
	stale := fabric.Frame{
		Kind: fabric.KindResult, Worker: "chaos-z", Epoch: e1,
		Shard: disp.Shard, Data: poison,
	}
	if err := replacement.write(stale); err != nil {
		r.failf("writing stale result: %v", err)
		return r
	}
	fenceDeadline := time.Now().Add(5 * time.Second)
	for coord.Metrics().StaleEpochFrames == 0 {
		if time.Now().After(fenceDeadline) {
			r.failf("stale-epoch frame was never counted as rejected")
			return r
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap, err := ex.Get(job.ID); err != nil {
		r.failf("job lookup after stale frame: %v", err)
		return r
	} else if snap.State.Terminal() {
		r.failf("stale-epoch result committed the shard (state %s)", snap.State)
		return r
	}
	r.notef("stale-epoch result rejected; shard still in flight")

	// The current epoch commits the real result.
	good := fabric.Frame{
		Kind: fabric.KindResult, Worker: "chaos-z", Epoch: e2,
		Shard: disp.Shard, Data: correct,
	}
	if err := replacement.write(good); err != nil {
		r.failf("writing good result: %v", err)
		return r
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := ex.Wait(ctx, job.ID)
	if err != nil {
		r.failf("awaiting job: %v", err)
		return r
	}
	if snap.State != jobs.StateDone {
		r.failf("job ended %s: %v", snap.State, snap.Err)
		return r
	}
	if string(snap.Data) != string(correct) {
		r.failf("committed bytes are not the correct cell (%d bytes vs %d)", len(snap.Data), len(correct))
	}
	m := coord.Metrics()
	if m.ShardsCompleted != 1 {
		r.failf("expected exactly 1 shard commit, got %d", m.ShardsCompleted)
	}
	if m.Duplicates != 0 {
		r.failf("expected 0 duplicate commits, got %d", m.Duplicates)
	}
	if m.StaleEpochFrames == 0 {
		r.failf("stale-epoch counter is zero")
	}
	r.notef("correct-epoch result committed once (stale frames rejected: %d)", m.StaleEpochFrames)
	return r
}

// delayPipe scans wire frames from src and forwards each to dst after a
// seeded 0–8ms delay; because each frame waits independently, later frames
// routinely overtake earlier ones — deterministic, adversarial reordering
// at the transport the protocol must tolerate.
func delayPipe(src, dst net.Conn, seed int64, wg *sync.WaitGroup) {
	defer wg.Done()
	rng := rand.New(rand.NewSource(seed))
	var wmu sync.Mutex
	var frames sync.WaitGroup
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64<<10), maxWireFrame)
	for sc.Scan() {
		line := append(append([]byte{}, sc.Bytes()...), '\n')
		delay := time.Duration(rng.Int63n(int64(8 * time.Millisecond)))
		frames.Add(1)
		time.AfterFunc(delay, func() {
			defer frames.Done()
			wmu.Lock()
			defer wmu.Unlock()
			_, _ = dst.Write(line)
		})
	}
	frames.Wait()
	_ = dst.Close()
	_ = src.Close()
}

// startReorderProxy listens on loopback and forwards each accepted
// connection to target with per-frame delays in both directions.
func startReorderProxy(target string, seed int64) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go func() {
		for connSeed := seed; ; connSeed += 2 {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			srv, err := net.DialTimeout("tcp", target, 5*time.Second)
			if err != nil {
				_ = cli.Close()
				continue
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go delayPipe(cli, srv, connSeed, &wg)
			go delayPipe(srv, cli, connSeed+1, &wg)
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close() }, nil
}

// scenarioReorder runs the full matrix with every worker connected through
// the frame-delaying proxy, with hedging enabled so duplicate results race
// commits. First-result-wins plus duplicate suppression must keep the merge
// exact no matter how frames interleave.
func scenarioReorder(o fabricChaosOptions, specs []core.Spec, refFP string) (r scenarioResult) {
	coord, err := startChaosCoord(fabric.CoordConfig{
		HedgeDelay:       100 * time.Millisecond,
		HeartbeatTimeout: 3 * time.Second,
		RetryBackoff:     25 * time.Millisecond,
	}, false)
	if err != nil {
		r.failf("coordinator: %v", err)
		return r
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	var workers []*chaosWorker
	defer func() { stopChaosWorkers(workers) }()
	for i := 0; i < o.nodes; i++ {
		proxyAddr, stop, err := startReorderProxy(coord.addr, int64(o.seed)+int64(i)*1000)
		if err != nil {
			r.failf("proxy %d: %v", i, err)
			return r
		}
		stops = append(stops, stop)
		ws, err := startChaosWorkers(ctx, 1, proxyAddr, nil)
		workers = append(workers, ws...)
		if err != nil {
			r.failf("worker %d: %v", i, err)
			return r
		}
	}

	cells, err := coord.CellBytes(ctx, specs)
	if err != nil {
		r.failf("sweep: %v", err)
		return r
	}
	fp := fabric.Fingerprint(cells)
	if fp != refFP {
		r.failf("fingerprint %s != single-node %s under frame reordering", fp, refFP)
	}
	m := coord.Metrics()
	if m.ShardsFailed != 0 {
		r.failf("%d shards failed under reordering", m.ShardsFailed)
	}
	r.notef("fingerprint held under 0–8ms frame delays (hedges=%d duplicates suppressed=%d)",
		m.HedgesFired, m.Duplicates)
	return r
}

// killableProxy forwards TCP bytes to a target until Kill, which drops the
// listener and every open connection at once — the remote-cache-tier outage.
type killableProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	dead  bool
}

func startKillableProxy(target string) (*killableProxy, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	p := &killableProxy{ln: ln}
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			srv, err := net.DialTimeout("tcp", target, 5*time.Second)
			if err != nil {
				_ = cli.Close()
				continue
			}
			p.mu.Lock()
			if p.dead {
				p.mu.Unlock()
				_ = cli.Close()
				_ = srv.Close()
				return
			}
			p.conns = append(p.conns, cli, srv)
			p.mu.Unlock()
			go func() { _, _ = io.Copy(srv, cli); _ = srv.Close() }()
			go func() { _, _ = io.Copy(cli, srv); _ = cli.Close() }()
		}
	}()
	return p, ln.Addr().String(), nil
}

func (p *killableProxy) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return
	}
	p.dead = true
	_ = p.ln.Close()
	for _, c := range p.conns {
		_ = c.Close()
	}
}

// scenarioCacheOutage kills the shared remote-cache tier mid-sweep. Workers
// must degrade lookups and fills to local-only (counted transport errors,
// no stalls beyond the configured timeout) and the merge must stay exact.
func scenarioCacheOutage(o fabricChaosOptions, specs []core.Spec, refFP string) (r scenarioResult) {
	coord, err := startChaosCoord(fabric.CoordConfig{
		HedgeDelay:       -1,
		HeartbeatTimeout: 3 * time.Second,
		RetryBackoff:     25 * time.Millisecond,
	}, true)
	if err != nil {
		r.failf("coordinator: %v", err)
		return r
	}
	defer coord.Close()

	proxy, proxyAddr, err := startKillableProxy(coord.httpAddr)
	if err != nil {
		r.failf("cache proxy: %v", err)
		return r
	}
	defer proxy.Kill()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var remotes []*fabric.RemoteCache
	workers, err := startChaosWorkers(ctx, o.nodes, coord.addr, func(i int) (jobs.CacheTier, error) {
		local, err := jobs.NewCache(1024, "")
		if err != nil {
			return nil, err
		}
		remote := fabric.NewRemoteCacheWith("http://"+proxyAddr, fabric.RemoteCacheOptions{
			Timeout: 500 * time.Millisecond,
		})
		remotes = append(remotes, remote)
		return jobs.NewTieredCache(local, remote), nil
	})
	defer stopChaosWorkers(workers)
	if err != nil {
		r.failf("workers: %v", err)
		return r
	}

	done := make(chan struct{})
	var cells [][]byte
	var sweepErr error
	go func() {
		cells, sweepErr = coord.CellBytes(ctx, specs)
		close(done)
	}()
	if err := awaitThird(coord.Coordinator, len(specs)); err != nil {
		r.failf("%v", err)
		return r
	}
	proxy.Kill()
	r.notef("remote cache tier killed after %d/%d shards", coord.Metrics().ShardsCompleted, len(specs))

	<-done
	if sweepErr != nil {
		r.failf("sweep after outage: %v", sweepErr)
		return r
	}
	fp := fabric.Fingerprint(cells)
	if fp != refFP {
		r.failf("fingerprint %s != single-node %s after cache outage", fp, refFP)
	}
	var tierErrs uint64
	for _, rc := range remotes {
		tierErrs += rc.TierErrors()
	}
	if tierErrs == 0 {
		r.failf("no remote-tier transport errors recorded — the outage never bit")
	}
	r.notef("fingerprint held; %d remote-tier errors degraded to local compute", tierErrs)
	return r
}

// scenarioFailstop is the fabric's acceptance drill: a coordinator with its
// HTTP cache tier runs the full matrix on N workers, each over a tiered
// local+remote cache, and node-0 is fail-stopped once a third of the shards
// have committed. The coordinator must re-dispatch the dead node's shards
// without disturbing the merge, which must equal the single-node reference
// (and the committed fingerprint, when given). A second pass must reproduce
// the same bytes with answers served from the shared tier.
func scenarioFailstop(o fabricChaosOptions, specs []core.Spec, refFP, committedFP string) (r scenarioResult) {
	coord, err := startChaosCoord(fabric.CoordConfig{
		HedgeDelay:       500 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
		RetryBackoff:     25 * time.Millisecond,
	}, true)
	if err != nil {
		r.failf("coordinator: %v", err)
		return r
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	workers, err := startChaosWorkers(ctx, o.nodes, coord.addr, func(int) (jobs.CacheTier, error) {
		local, err := jobs.NewCache(1024, "")
		if err != nil {
			return nil, err
		}
		return jobs.NewTieredCache(local, fabric.NewRemoteCache("http://"+coord.httpAddr)), nil
	})
	defer stopChaosWorkers(workers)
	if err != nil {
		r.failf("workers: %v", err)
		return r
	}

	done := make(chan struct{})
	var cells [][]byte
	var sweepErr error
	go func() {
		cells, sweepErr = coord.CellBytes(ctx, specs)
		close(done)
	}()
	if err := awaitThird(coord.Coordinator, len(specs)); err != nil {
		r.failf("%v", err)
		return r
	}
	workers[0].cancel()
	select {
	case <-done:
		r.failf("fail-stop of node-0 landed after the sweep had finished")
	default:
		r.notef("fail-stopped node-0 after %d/%d shards", coord.Metrics().ShardsCompleted, len(specs))
	}

	<-done
	if sweepErr != nil {
		r.failf("sweep after fail-stop: %v", sweepErr)
		return r
	}
	fp := fabric.Fingerprint(cells)
	if fp != refFP {
		r.failf("fabric fingerprint %s != single-node %s", fp, refFP)
	}
	if committedFP != "" && fp != committedFP {
		r.failf("fabric fingerprint %s != committed %s", fp, committedFP)
	}

	cells, err = coord.CellBytes(ctx, specs)
	if err != nil {
		r.failf("second pass: %v", err)
		return r
	}
	if fp2 := fabric.Fingerprint(cells); fp2 != refFP {
		r.failf("second-pass fingerprint %s != single-node %s", fp2, refFP)
	}
	m := coord.Metrics()
	if m.RemoteHits == 0 {
		r.failf("second pass produced no shared-cache hits")
	}
	r.notef("shards=%d redispatches=%d hedges=%d duplicates=%d remote_hits=%d",
		m.ShardsCompleted, m.Redispatches, m.HedgesFired, m.Duplicates, m.RemoteHits)
	lats := coord.ShardLatencies()
	if len(lats) > 0 {
		sort.Float64s(lats)
		q := func(p float64) float64 { return lats[int(p*float64(len(lats)-1))] * 1e3 }
		r.notef("shard latency p50=%.1fms p99=%.1fms max=%.1fms over %d commits",
			q(0.50), q(0.99), q(1), len(lats))
	}
	if len(r.Failures) == 0 {
		r.notef("fingerprint %s matches reference on both passes", fp)
	}
	return r
}
