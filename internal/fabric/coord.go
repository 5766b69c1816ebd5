package fabric

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
	"aaws/internal/obs"
)

// ErrClosed is returned for cells routed into a closed coordinator.
var ErrClosed = errors.New("fabric: coordinator closed")

// ErrNoWorkers fails a cell whose shard was still waiting for a worker when
// the coordinator shut down.
var ErrNoWorkers = errors.New("fabric: no workers available")

// CoordConfig parameterizes a Coordinator.
type CoordConfig struct {
	// Cache is the shared remote result tier every cell consults before any
	// worker computes (nil = a default in-memory cache). Workers both read
	// it (via the coordinator's HTTP cache endpoints) and fill it (every
	// committed result is stored). A coordinator node shares it with the
	// executor in front of the coordinator (see NewNode).
	Cache jobs.CacheTier
	// HedgeDelay is how long a dispatched shard may go uncommitted before a
	// hedged duplicate is dispatched to a second worker (default 1s;
	// negative disables hedging).
	HedgeDelay time.Duration
	// HedgeJitter spreads hedge firings: each shard's delay is HedgeDelay
	// plus a deterministic fraction of HedgeJitter derived from its content
	// address (default HedgeDelay/2), so a stalled worker's backlog does
	// not hedge in lockstep yet reruns hedge identically.
	HedgeJitter time.Duration
	// HeartbeatTimeout fails a worker that hasn't been heard from for this
	// long and re-dispatches its uncommitted shards (default 5s).
	HeartbeatTimeout time.Duration
	// RetryBackoff delays re-dispatch after a retryable worker error —
	// queue full, draining — so a saturated fleet isn't hammered (default
	// 100ms).
	RetryBackoff time.Duration
	// WriteTimeout bounds every coordinator→worker frame send (default 5s):
	// a worker that stops draining its socket fails fast instead of wedging
	// the sending goroutine until the heartbeat monitor notices.
	WriteTimeout time.Duration
	// Registry receives the aaws_fabric_* metrics (nil = a private one).
	Registry *obs.Registry
}

// Coordinator is the fabric's shard router: it shards content-addressed
// cells across registered workers and hands each cell's canonical bytes back
// to the caller (CellBytes). It keeps no record of a cell once its bytes are
// returned; job identity, queueing, journaling and retention belong to the
// jobs.Executor it serves as a backend (NewNode).
//
// Routing is rendezvous-free and deterministic: the shard's spec hash
// indexes the sorted list of live workers, so identical cells always route
// to the same node while its local cache stays warm. Every cell first
// consults the shared cache tier; in-flight shards coalesce by content
// address (fabric-wide singleflight); committed results are duplicate-
// suppressed (first result wins) so hedges and re-dispatches never commit
// twice.
type Coordinator struct {
	cfg  CoordConfig
	reg  *obs.Registry
	inst *instruments

	mu        sync.Mutex
	workers   map[string]*remoteWorker
	epochs    map[string]uint64 // highest epoch ever assigned per worker name
	shards    map[string]*shard // uncommitted work by content address
	waiting   []*shard          // shards with no live worker to run on
	latencies []float64
	epochSeq  uint64 // monotonic registration counter (never reused)
	closed    bool
	killed    bool
	lns       []net.Listener
	stopMon   chan struct{}
	// emptySince is when the fleet last became empty (zero while a worker
	// is registered); emptyTotal sums the earlier empty spells. Together
	// they are the time cells spent parked, which no deadline counts.
	emptySince time.Time
	emptyTotal time.Duration
	// onSlots, when set (NewNode), receives the fleet's total registered
	// slots whenever membership changes. Called with c.mu held.
	onSlots func(int)
}

// remoteWorker is one registered worker connection.
type remoteWorker struct {
	name       string
	epoch      uint64 // fence: frames must echo this registration's epoch
	fc         *frameConn
	acked      chan struct{} // closed once the hello_ack is sent (or failed)
	slots      int
	running    int
	lastBeat   time.Time
	registered time.Time
	shards     *obs.Counter
	up         *obs.IntGauge
}

// shard is one uncommitted unit of fabric work: a content-addressed cell
// every concurrent caller of that cell waits on.
type shard struct {
	hash string
	spec core.Spec
	// done closes when the shard commits (data) or fails (err).
	done chan struct{}
	data []byte
	err  error
	// assigned maps worker name → dispatch time for every outstanding
	// dispatch (primary + hedge).
	assigned      map[string]time.Time
	primary       string
	firstDispatch time.Time
	hedgeTimer    *time.Timer
	hedged        bool
	retryTimer    *time.Timer
	parked        bool // on the waiting list (no live worker to run on)
}

// WorkerInfo is one worker's liveness snapshot.
type WorkerInfo struct {
	Name      string  `json:"name"`
	Slots     int     `json:"slots"`
	Running   int     `json:"running"`
	LastBeat  float64 `json:"last_beat_ago_ms"`
	Connected float64 `json:"connected_ms"`
}

// NewCoordinator returns a running coordinator (heartbeat monitor started).
// Call Close to stop it.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Cache == nil {
		cache, err := jobs.NewCache(4096, "")
		if err != nil {
			return nil, err
		}
		cfg.Cache = cache
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = time.Second
	}
	if cfg.HedgeJitter == 0 {
		cfg.HedgeJitter = cfg.HedgeDelay / 2
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     reg,
		inst:    newInstruments(reg),
		workers: make(map[string]*remoteWorker),
		epochs:  make(map[string]uint64),
		shards:  make(map[string]*shard),
		stopMon: make(chan struct{}),
		// The fleet starts empty.
		emptySince: time.Now(),
	}
	go c.monitor()
	return c, nil
}

// Metrics returns the programmatic fabric-health snapshot.
func (c *Coordinator) Metrics() Metrics { return c.inst.snapshot() }

// ShardLatencies returns the recorded dispatch→commit latencies in seconds
// (bounded; the first 8192 commits).
func (c *Coordinator) ShardLatencies() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.latencies))
	copy(out, c.latencies)
	return out
}

// Degraded is a coordinator node's readiness check (jobs.ServerOptions.
// Degraded): "no workers registered" while the fleet is empty — work is
// still accepted and parks until a worker registers — else "".
func (c *Coordinator) Degraded() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.workers) == 0 {
		return "no workers registered"
	}
	return ""
}

// Workers returns a liveness snapshot of every registered worker.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{
			Name:      w.name,
			Slots:     w.slots,
			Running:   w.running,
			LastBeat:  float64(now.Sub(w.lastBeat)) / float64(time.Millisecond),
			Connected: float64(now.Sub(w.registered)) / float64(time.Millisecond),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Serve accepts worker registrations on ln until it closes. Run one per
// fabric listener; Close closes every served listener.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	c.lns = append(c.lns, ln)
	c.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go c.handleConn(conn)
	}
}

// handleConn runs one worker connection: hello, then heartbeats and results
// until the connection drops.
func (c *Coordinator) handleConn(conn net.Conn) {
	fc := newFrameConn(conn)
	fc.writeTimeout = c.cfg.WriteTimeout
	// A connection that never completes registration must not hold a slot.
	_ = conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout * 2))
	hello, err := fc.read()
	if err != nil || hello.Kind != KindHello {
		_ = fc.close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	w := &remoteWorker{
		name:       hello.Worker,
		fc:         fc,
		acked:      make(chan struct{}),
		slots:      hello.Slots,
		lastBeat:   time.Now(),
		registered: time.Now(),
		shards:     c.reg.Counter(obs.Label("aaws_fabric_worker_shards_total", "worker", hello.Worker)),
		up:         c.reg.IntGauge(obs.Label("aaws_fabric_worker_up", "worker", hello.Worker)),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = fc.close()
		return
	}
	if old := c.workers[w.name]; old != nil {
		// A reconnecting worker replaces its old (dead) connection.
		c.failWorkerLocked(old)
	}
	// Fence the registration: this connection owns a fresh epoch, so frames
	// still in flight from any superseded connection for the same name are
	// identifiable — and rejectable — by their stale epoch.
	c.epochSeq++
	w.epoch = c.epochSeq
	c.epochs[w.name] = w.epoch
	c.workers[w.name] = w
	w.up.Set(1)
	c.fleetChangedLocked()
	// A new worker unblocks anything that had nowhere to run.
	blocked := c.waiting
	c.waiting = nil
	for _, sh := range blocked {
		c.dispatchLocked(sh)
	}
	c.mu.Unlock()

	err = fc.write(Frame{Kind: KindHelloAck, Epoch: w.epoch})
	close(w.acked)
	if err != nil {
		c.failWorker(w)
		return
	}
	for {
		f, err := fc.read()
		if err != nil {
			c.failWorker(w)
			return
		}
		switch f.Kind {
		case KindHeartbeat:
			c.mu.Lock()
			if c.workers[w.name] != w || f.Epoch != w.epoch {
				// Superseded registration (or an epoch the worker never
				// owned): the frame must not refresh the replacement's
				// liveness. Drop it; the connection itself dies when the
				// replacement registered.
				c.inst.staleEpochFrames.Inc()
				c.mu.Unlock()
				continue
			}
			w.lastBeat = time.Now()
			w.running = f.Running
			c.mu.Unlock()
		case KindResult:
			c.handleResult(w, f)
		default:
			// hello twice, or a dispatch echoed back: protocol violation.
			c.failWorker(w)
			return
		}
	}
}

// route sends one cell into the fabric: the shared cache tier first (a hit
// returns the bytes), then coalescing onto the in-flight shard for the same
// content address, then a fresh dispatch. A miss returns the shard to wait
// on; after Kill every cell gets a shard that never finishes.
func (c *Coordinator) route(spec core.Spec) ([]byte, *shard, error) {
	spec = jobs.Normalize(spec)
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	hash, err := jobs.SpecHash(spec)
	if err != nil {
		return nil, nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed {
		return nil, &shard{done: make(chan struct{})}, nil
	}
	if c.closed {
		return nil, nil, ErrClosed
	}
	if data, ok := c.cfg.Cache.Get(hash); ok {
		c.inst.remoteHits.Inc()
		return data, nil, nil
	}
	c.inst.remoteMisses.Inc()
	// Fabric-wide singleflight: coalesce onto the in-flight shard.
	if sh := c.shards[hash]; sh != nil {
		c.inst.coalesced.Inc()
		return nil, sh, nil
	}
	sh := &shard{
		hash:     hash,
		spec:     spec,
		done:     make(chan struct{}),
		assigned: make(map[string]time.Time),
	}
	c.shards[hash] = sh
	c.inst.shardsInflight.Set(int64(len(c.shards)))
	c.dispatchLocked(sh)
	return nil, sh, nil
}

// liveNamesLocked returns the sorted live worker names.
func (c *Coordinator) liveNamesLocked() []string {
	names := make([]string, 0, len(c.workers))
	for n := range c.workers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RouteIndex is the shard routing function: the content address indexes the
// sorted live-worker list, so a given cell deterministically prefers one
// node (whose local cache it warms) while any change in fleet membership
// only moves 1/n of the keyspace.
func RouteIndex(hash string, n int) int {
	if n <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(hash))
	return int(h.Sum64() % uint64(n))
}

// hedgeDelay returns this shard's deterministic hedge delay: the base plus
// a content-address-derived fraction of the jitter window.
func (c *Coordinator) hedgeDelay(hash string) time.Duration {
	d := c.cfg.HedgeDelay
	if c.cfg.HedgeJitter <= 0 {
		return d
	}
	h := fnv.New64a()
	h.Write([]byte(hash))
	h.Write([]byte("hedge"))
	return d + time.Duration(h.Sum64()%uint64(c.cfg.HedgeJitter))
}

// dispatchLocked sends sh to the next preferred worker it isn't already
// running on. With no live workers the shard parks on the waiting list
// until one registers. Caller holds c.mu.
func (c *Coordinator) dispatchLocked(sh *shard) {
	if c.shards[sh.hash] != sh {
		return // already committed or failed
	}
	names := c.liveNamesLocked()
	if len(names) == 0 {
		if !sh.parked {
			sh.parked = true
			c.waiting = append(c.waiting, sh)
		}
		return
	}
	sh.parked = false
	start := RouteIndex(sh.hash, len(names))
	var w *remoteWorker
	for i := range names {
		name := names[(start+i)%len(names)]
		if _, dup := sh.assigned[name]; !dup {
			w = c.workers[name]
			break
		}
	}
	if w == nil {
		return // already outstanding on every live worker
	}
	now := time.Now()
	sh.assigned[w.name] = now
	if sh.firstDispatch.IsZero() {
		sh.firstDispatch = now
		sh.primary = w.name
	}
	c.inst.dispatched.Inc()
	w.shards.Inc()
	if sh.hedgeTimer == nil && c.cfg.HedgeDelay >= 0 {
		hash := sh.hash
		sh.hedgeTimer = time.AfterFunc(c.hedgeDelay(hash), func() { c.hedge(hash) })
	}
	// The TCP write can block; never under the lock. A failed write fails
	// the whole worker — its reader goroutine is about to find out anyway.
	frame := Frame{Kind: KindDispatch, Shard: sh.hash, Spec: &sh.spec}
	go func() {
		// A worker expects its hello_ack before anything else; shards
		// unparked by its own registration must not overtake it.
		<-w.acked
		if err := w.fc.write(frame); err != nil {
			c.failWorker(w)
		}
	}()
}

// hedge fires the shard's straggler mitigation: if it is still uncommitted,
// dispatch a duplicate to the next distinct worker. First result wins;
// the loser is suppressed by content address.
func (c *Coordinator) hedge(hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shards[hash]
	if sh == nil || c.closed {
		return
	}
	if len(c.workers) <= len(sh.assigned) {
		return // nowhere distinct to hedge to
	}
	sh.hedged = true
	c.inst.hedgesFired.Inc()
	c.dispatchLocked(sh)
}

// handleResult commits or suppresses one worker result frame.
func (c *Coordinator) handleResult(w *remoteWorker, f Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return // a killed router commits nothing more
	}
	if c.workers[w.name] != w || f.Epoch != w.epoch {
		// Epoch fence: a result from a superseded registration — a zombie
		// behind a healed partition racing its replacement — must not
		// commit, refresh liveness, or count as a duplicate. Results are
		// deterministic, but the zombie may have been dispatched stale work
		// or its frame may interleave with the replacement's; rejecting the
		// whole superseded epoch is the only ordering-free rule.
		c.inst.staleEpochFrames.Inc()
		return
	}
	w.lastBeat = time.Now()
	sh := c.shards[f.Shard]
	if sh == nil {
		// Committed (or failed) already: a hedge loser or a re-dispatch
		// duplicate. First result won; suppress.
		c.inst.duplicates.Inc()
		return
	}

	if f.Error != "" {
		if f.Retryable {
			// Substrate rejection (queue full, draining): take this worker
			// out of the shard's assignment set and try elsewhere after a
			// backoff, unless a hedge is still outstanding somewhere.
			c.inst.workerRetries.Inc()
			delete(sh.assigned, w.name)
			if len(sh.assigned) == 0 && sh.retryTimer == nil {
				hash := sh.hash
				sh.retryTimer = time.AfterFunc(c.cfg.RetryBackoff, func() {
					c.mu.Lock()
					defer c.mu.Unlock()
					if sh := c.shards[hash]; sh != nil {
						sh.retryTimer = nil
						c.dispatchLocked(sh)
					}
				})
			}
			return
		}
		// Simulation failure: deterministic, so every node would fail the
		// same way. Fail the shard.
		c.inst.shardsFailed.Inc()
		c.finishShardLocked(sh, nil, fmt.Errorf("fabric: worker %s: %s", w.name, f.Error))
		return
	}

	// First result wins.
	if f.CacheHit {
		c.inst.workerCacheHits.Inc()
	}
	if sh.hedged && w.name != sh.primary {
		c.inst.hedgeWins.Inc()
	}
	c.inst.shardsCompleted.Inc()
	if !sh.firstDispatch.IsZero() {
		lat := time.Since(sh.firstDispatch).Seconds()
		c.inst.shardLatency.Observe(lat)
		if len(c.latencies) < 8192 {
			c.latencies = append(c.latencies, lat)
		}
	}
	// Fill the shared tier so every future cell — from any node — is a
	// remote hit.
	c.cfg.Cache.Put(sh.hash, f.Data)
	c.finishShardLocked(sh, f.Data, nil)
}

// removeShardLocked takes sh out of the in-flight map and stops its timers.
// Caller holds c.mu.
func (c *Coordinator) removeShardLocked(sh *shard) {
	delete(c.shards, sh.hash)
	c.inst.shardsInflight.Set(int64(len(c.shards)))
	if sh.hedgeTimer != nil {
		sh.hedgeTimer.Stop()
	}
	if sh.retryTimer != nil {
		sh.retryTimer.Stop()
		sh.retryTimer = nil
	}
}

// finishShardLocked removes sh and releases every caller waiting on it.
// Caller holds c.mu.
func (c *Coordinator) finishShardLocked(sh *shard, data []byte, err error) {
	c.removeShardLocked(sh)
	sh.data, sh.err = data, err
	close(sh.done)
}

// failWorker drops w from the fleet (if it is still the registered
// connection for its name) and re-dispatches its uncommitted shards.
func (c *Coordinator) failWorker(w *remoteWorker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failWorkerLocked(w)
}

func (c *Coordinator) failWorkerLocked(w *remoteWorker) {
	if c.workers[w.name] != w {
		return // a reconnect already replaced this connection
	}
	delete(c.workers, w.name)
	w.up.Set(0)
	c.fleetChangedLocked()
	c.inst.workerFailures.Inc()
	_ = w.fc.close()
	// Anything outstanding on the dead worker re-routes. Shards that were
	// hedged to a still-live worker keep that assignment and need nothing.
	for _, sh := range c.shards {
		if _, ok := sh.assigned[w.name]; !ok {
			continue
		}
		delete(sh.assigned, w.name)
		if len(sh.assigned) == 0 {
			c.inst.redispatches.Inc()
			c.dispatchLocked(sh)
		}
	}
}

// fleetChangedLocked follows a change in fleet membership: the connected
// gauge, the empty-fleet clock, and the node's slot count. Caller holds c.mu.
func (c *Coordinator) fleetChangedLocked() {
	c.inst.workersConnected.Set(int64(len(c.workers)))
	switch empty := len(c.workers) == 0; {
	case empty && c.emptySince.IsZero():
		c.emptySince = time.Now()
	case !empty && !c.emptySince.IsZero():
		c.emptyTotal += time.Since(c.emptySince)
		c.emptySince = time.Time{}
	}
	if c.onSlots != nil {
		slots := 0
		for _, w := range c.workers {
			slots += w.slots
		}
		c.onSlots(slots)
	}
}

// parkedTime returns how long the fleet has been empty in total: the time
// any cell waiting on it spent parked.
func (c *Coordinator) parkedTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.emptyTotal
	if !c.emptySince.IsZero() {
		d += time.Since(c.emptySince)
	}
	return d
}

// monitor fails workers that stop heartbeating.
func (c *Coordinator) monitor() {
	tick := c.cfg.HeartbeatTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stopMon:
			return
		case <-t.C:
			c.mu.Lock()
			var stale []*remoteWorker
			cutoff := time.Now().Add(-c.cfg.HeartbeatTimeout)
			for _, w := range c.workers {
				if w.lastBeat.Before(cutoff) {
					stale = append(stale, w)
				}
			}
			for _, w := range stale {
				c.failWorkerLocked(w)
			}
			c.mu.Unlock()
		}
	}
}

// WorkerEpoch returns the current registration epoch for a worker name, and
// whether the name has ever registered. HTTP cache fills are fenced with it:
// a fill stamped with a lower epoch comes from a superseded connection.
func (c *Coordinator) WorkerEpoch(name string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.epochs[name]
	return e, ok
}

// CellBytes runs every spec through the fabric and returns each cell's
// canonical outcome bytes in input order — the merge primitive: determinism
// plus canonical encoding make the concatenation bit-identical to a
// single-node run. Every cell is routed before any is awaited, so one call
// spreads its cells across the whole fleet. Nothing of a call outlives it:
// a canceled wait leaves its shards running, and their results still fill
// the shared tier.
//
// Time the fleet spends empty — cells parked for want of a worker — does
// not count against a jobs.Executor job's deadline: for a job's context
// the wait ends on cancellation (jobs.CancelOnly) or once the job has spent
// its timeout with workers present. Any other ctx bounds the wait as is.
func (c *Coordinator) CellBytes(ctx context.Context, specs []core.Spec) ([][]byte, error) {
	out := make([][]byte, len(specs))
	pending := make([]*shard, len(specs))
	for i, spec := range specs {
		data, sh, err := c.route(spec)
		if err != nil {
			return nil, fmt.Errorf("fabric: routing cell %d: %w", i, err)
		}
		out[i], pending[i] = data, sh
	}
	canceled := jobs.CancelOnly(ctx)
	deadline, hasDeadline := ctx.Deadline()
	var parked time.Duration
	if hasDeadline {
		parked = c.parkedTime()
	}
	for i, sh := range pending {
		if sh == nil {
			continue
		}
		for waiting := true; waiting; {
			var expire <-chan time.Time
			var timer *time.Timer
			if hasDeadline {
				left := time.Until(deadline.Add(c.parkedTime() - parked))
				if left <= 0 {
					return nil, context.DeadlineExceeded
				}
				timer = time.NewTimer(left)
				expire = timer.C
			}
			select {
			case <-sh.done:
				waiting = false
			case <-canceled.Done():
				return nil, canceled.Err()
			case <-expire:
				// Re-check: the fleet may have been empty meanwhile.
			}
			if timer != nil {
				timer.Stop()
			}
		}
		if sh.err != nil {
			return nil, fmt.Errorf("fabric: cell %d: %w", i, sh.err)
		}
		out[i] = sh.data
	}
	return out, nil
}

// RunBatch is CellBytes decoded back into results (each reconstructed from
// its canonical bytes), so its output is interchangeable with a local
// core.RunBatchCtx: the executor backend of a coordinator node (NewNode),
// and a core.SweepOptions.RunAll through a closure over ctx.
func (c *Coordinator) RunBatch(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
	cells, err := c.CellBytes(ctx, specs)
	if err != nil {
		return nil, err
	}
	results := make([]core.Result, len(specs))
	for i, data := range cells {
		out, err := jobs.DecodeOutcome(data)
		if err != nil {
			return nil, fmt.Errorf("fabric: decoding cell %d: %w", i, err)
		}
		results[i] = out.ToResult(jobs.Normalize(specs[i]))
	}
	return results, nil
}

// Close stops the coordinator: listeners close, workers disconnect, and
// every caller still waiting on a shard fails with ErrNoWorkers.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.shutdownLocked() {
		return
	}
	c.waiting = nil // every parked shard is in c.shards too
	for _, sh := range c.shards {
		c.finishShardLocked(sh, nil, ErrNoWorkers)
	}
}

// Kill crashes the coordinator in place: listeners and worker connections
// close and the monitor stops, but — unlike Close — no waiting caller is
// released, no late result commits, and every later cell waits like one
// sent to a dead process: until its caller gives up, with no deadline
// running (the fleet is empty). It models SIGKILL for in-process chaos
// drills and ends a coordinator node's drain: the executor in front of it
// writes nothing more to its journal, leaving it exactly as a real crash
// would.
func (c *Coordinator) Kill() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.shutdownLocked() {
		return
	}
	c.killed = true
	for _, sh := range c.shards {
		if sh.hedgeTimer != nil {
			sh.hedgeTimer.Stop()
		}
		if sh.retryTimer != nil {
			sh.retryTimer.Stop()
		}
	}
}

// shutdownLocked marks the coordinator closed and drops the fleet; it
// reports false when the coordinator was already closed. Caller holds c.mu.
func (c *Coordinator) shutdownLocked() bool {
	if c.closed {
		return false
	}
	c.closed = true
	close(c.stopMon)
	for _, ln := range c.lns {
		_ = ln.Close()
	}
	for _, w := range c.workers {
		_ = w.fc.close()
		w.up.Set(0)
	}
	c.workers = make(map[string]*remoteWorker)
	c.fleetChangedLocked()
	return true
}
