package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
)

// WorkerConfig parameterizes a fabric worker.
type WorkerConfig struct {
	// Name identifies this node to the coordinator; a reconnect under the
	// same name replaces the old registration. Required.
	Name string
	// CoordAddr is the coordinator's fabric listener (host:port). Required.
	CoordAddr string
	// Executor runs dispatched shards through the node's bounded pool,
	// admission-exempt paths excluded — shards queue like any other sweep
	// work. Required.
	Executor *jobs.Executor
	// Tenant is the identity shard executions run under (default "fabric"),
	// so fabric work is visible in per-tenant metrics and WFQ-schedulable
	// against interactive traffic.
	Tenant string
	// HeartbeatEvery paces liveness frames (default 1s; keep well under the
	// coordinator's HeartbeatTimeout).
	HeartbeatEvery time.Duration
	// ReconnectDelay is the base re-registration delay after a lost
	// coordinator connection (default 1s). Consecutive failures back off
	// exponentially from it — capped at ReconnectMax, scaled by a
	// deterministic per-name jitter (jobs.RetryDelay) — and a successful
	// registration resets the backoff.
	ReconnectDelay time.Duration
	// ReconnectMax caps the reconnect backoff (default 30s, never below
	// ReconnectDelay).
	ReconnectMax time.Duration
	// DialTimeout bounds one connection attempt and each frame write on an
	// established session (default 5s), so a wedged coordinator socket
	// surfaces as a session error instead of a stuck goroutine.
	DialTimeout time.Duration
}

// Worker registers a node with the coordinator and executes dispatched
// shards through the local executor, streaming results back. It reconnects
// (and re-registers) until its context is canceled, so a coordinator
// restart heals without operator action.
type Worker struct {
	cfg WorkerConfig

	readyOnce sync.Once
	ready     chan struct{}
	// epoch is the current registration's fence, assigned by the
	// coordinator on the hello_ack and echoed on every heartbeat and
	// result. Read outside the session goroutine by EpochInfo (HTTP cache
	// fills stamp it), hence atomic.
	epoch atomic.Uint64
}

// NewWorker validates cfg and returns a worker; call Run to connect.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, errors.New("fabric: worker needs a name")
	}
	if cfg.CoordAddr == "" {
		return nil, errors.New("fabric: worker needs a coordinator address")
	}
	if cfg.Executor == nil {
		return nil, errors.New("fabric: worker needs an executor")
	}
	if cfg.Tenant == "" {
		cfg.Tenant = "fabric"
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.ReconnectDelay <= 0 {
		cfg.ReconnectDelay = time.Second
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 30 * time.Second
	}
	if cfg.ReconnectMax < cfg.ReconnectDelay {
		// A deliberately huge base delay (tests park dead workers this way)
		// must not be cut down by the default cap.
		cfg.ReconnectMax = cfg.ReconnectDelay
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	return &Worker{cfg: cfg, ready: make(chan struct{})}, nil
}

// Ready is closed after the first successful registration (hello_ack) —
// the signal /readyz waits on before routing traffic to a worker node.
func (w *Worker) Ready() <-chan struct{} { return w.ready }

// EpochInfo returns the worker's name and current registration epoch (0
// before the first hello_ack). Cache fills to the coordinator stamp both so
// the fence covers the HTTP path too, not just the wire protocol.
func (w *Worker) EpochInfo() (string, uint64) { return w.cfg.Name, w.epoch.Load() }

// Run connects, registers, and serves dispatches until ctx is canceled,
// reconnecting on any connection loss with capped-exponential backoff
// (deterministic per-name jitter; reset by a successful registration).
func (w *Worker) Run(ctx context.Context) error {
	attempt := 0
	for {
		registered, err := w.session(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_ = err // transient: log-free by design; the coordinator tracks liveness
		if registered {
			attempt = 0
		}
		delay := jobs.RetryDelay(w.cfg.ReconnectDelay, w.cfg.ReconnectMax, attempt, w.cfg.Name)
		attempt++
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// session runs one coordinator connection to failure, reporting whether
// registration completed (the backoff reset signal).
func (w *Worker) session(ctx context.Context) (registered bool, err error) {
	conn, err := net.DialTimeout("tcp", w.cfg.CoordAddr, w.cfg.DialTimeout)
	if err != nil {
		return false, err
	}
	fc := newFrameConn(conn)
	fc.writeTimeout = w.cfg.DialTimeout
	defer fc.close()
	// Cancelation unblocks the reader by closing the connection.
	stop := context.AfterFunc(ctx, func() { _ = fc.close() })
	defer stop()

	slots := w.cfg.Executor.Metrics().Workers
	if err := fc.write(Frame{Kind: KindHello, Worker: w.cfg.Name, Slots: slots}); err != nil {
		return false, err
	}
	ack, err := fc.read()
	if err != nil {
		return false, err
	}
	if ack.Kind != KindHelloAck {
		return false, fmt.Errorf("fabric: expected hello_ack, got %q", ack.Kind)
	}
	epoch := ack.Epoch
	w.epoch.Store(epoch)
	w.readyOnce.Do(func() { close(w.ready) })

	// Heartbeats ride their own goroutine so a long dispatch backlog never
	// looks like death. A failed write closes the conn, unblocking the
	// reader below.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(w.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				running := w.cfg.Executor.Metrics().Running
				if err := fc.write(Frame{Kind: KindHeartbeat, Worker: w.cfg.Name, Epoch: epoch, Running: running}); err != nil {
					_ = fc.close()
					return
				}
			}
		}
	}()

	// Dispatch frames funnel through a micro-batching loop: shards that
	// arrive together (the coordinator keeps a multi-shard window open per
	// worker) are submitted as one executor gang, so their cells share the
	// partitioned batch path's pinned engines instead of paying a full
	// executor round-trip each. The channel is buffered well past the
	// coordinator's dispatch window so the session reader never blocks.
	dispatches := make(chan Frame, 64)
	defer close(dispatches)
	go w.dispatchLoop(ctx, fc, dispatches, epoch)

	for {
		f, err := fc.read()
		if err != nil {
			return true, err
		}
		switch f.Kind {
		case KindDispatch:
			dispatches <- f
		case KindHelloAck:
			// Benign duplicate; ignore.
		default:
			return true, fmt.Errorf("fabric: unexpected %q frame from coordinator", f.Kind)
		}
	}
}

// maxShardBatch caps one micro-batch: enough to absorb a dispatch burst,
// small enough that a slow cell cannot delay reporting a whole window.
const maxShardBatch = 16

// dispatchLoop gathers dispatch frames into micro-batches: it blocks for
// the first frame, then greedily drains whatever else is already queued
// (up to maxShardBatch) before submitting. A lone shard ships immediately —
// batching only ever groups frames that were already waiting.
func (w *Worker) dispatchLoop(ctx context.Context, fc *frameConn, dispatches <-chan Frame, epoch uint64) {
	for {
		f, ok := <-dispatches
		if !ok {
			return
		}
		batch := []Frame{f}
	gather:
		for len(batch) < maxShardBatch {
			select {
			case g, ok := <-dispatches:
				if !ok {
					break gather
				}
				batch = append(batch, g)
			default:
				break gather
			}
		}
		w.executeBatch(ctx, fc, batch, epoch)
	}
}

// executeBatch submits a micro-batch of shards as one executor gang and
// spawns a reporter per shard; Executor.Wait blocks until a shard
// finishes, so reporting rides its own goroutine and the dispatch loop
// keeps draining.
func (w *Worker) executeBatch(ctx context.Context, fc *frameConn, frames []Frame, epoch uint64) {
	specs := make([]core.Spec, len(frames))
	for i := range frames {
		specs[i] = *frames[i].Spec
	}
	batch, err := w.cfg.Executor.SubmitBatch(specs, jobs.SubmitOptions{
		Class:  jobs.ClassSweep,
		Tenant: w.cfg.Tenant,
	})
	if err != nil {
		// Queue-full / draining / shed rejections are substrate conditions:
		// the coordinator should try another node, not fail the shard. A
		// batch submission fails atomically, so every shard in it reports
		// the same outcome.
		_, retryable := jobs.RetryAfterOf(err)
		retryable = retryable || errors.Is(err, jobs.ErrQueueFull) || errors.Is(err, jobs.ErrDraining)
		for _, f := range frames {
			_ = fc.write(Frame{
				Kind: KindResult, Worker: w.cfg.Name, Epoch: epoch, Shard: f.Shard,
				Error: err.Error(), Retryable: retryable,
			})
		}
		return
	}
	for i, job := range batch {
		go w.report(ctx, fc, frames[i], job, epoch)
	}
}

// report waits for one shard's job and streams the result (or a typed
// failure) back, stamped with the session's epoch. No client can address
// the job's ID, so once the result frame is written the executor forgets
// the job rather than keep its outcome bytes for the life of the process.
func (w *Worker) report(ctx context.Context, fc *frameConn, f Frame, job *jobs.Job, epoch uint64) {
	result := Frame{Kind: KindResult, Worker: w.cfg.Name, Epoch: epoch, Shard: f.Shard}
	snap, err := w.cfg.Executor.Wait(ctx, job.ID)
	if err != nil {
		// Node shutting down mid-shard: best-effort retryable signal; the
		// dropped connection re-dispatches it regardless.
		result.Error = err.Error()
		result.Retryable = true
		_ = fc.write(result)
		return
	}
	switch snap.State {
	case jobs.StateDone:
		result.Data = snap.Data
		result.CacheHit = snap.CacheHit || snap.Coalesced
	case jobs.StateCanceled:
		result.Error = "canceled on worker"
		result.Retryable = true
	default:
		if snap.Err != nil {
			result.Error = snap.Err.Error()
		} else {
			result.Error = "failed on worker"
		}
	}
	_ = fc.write(result)
	_ = w.cfg.Executor.Forget(job.ID)
}
