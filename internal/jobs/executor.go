package jobs

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"time"

	"aaws/internal/core"
	"aaws/internal/obs"
	"aaws/internal/trace"
)

// Runner executes one validated spec. The default is core.RunCtx; tests and
// remote backends (a fabric coordinator node) substitute their own.
type Runner func(ctx context.Context, spec core.Spec) (core.Result, error)

// ErrTransient marks an error worth retrying: wrap (or errors.Join) it into
// a Runner error to signal a failure of the execution substrate rather than
// of the simulation itself. The deterministic local runner never produces
// one; remote/sharded backends and tests do.
var ErrTransient = errors.New("jobs: transient failure")

// ErrDraining is returned by Submit once Drain has been called.
var ErrDraining = errors.New("jobs: executor is draining; not accepting jobs")

// ErrQueueFull is returned by Submit when the bounded queue (or the
// submission's per-priority share of it) is at capacity.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrUnknownJob is returned for job IDs the executor has never seen or has
// forgotten (Forget, or retention past maxTerminalJobs).
var ErrUnknownJob = errors.New("jobs: unknown job")

// ErrJobActive is returned by Forget for a job that is not yet terminal.
var ErrJobActive = errors.New("jobs: job is still queued or running")

// Config parameterizes an Executor.
type Config struct {
	// Workers is the simulation concurrency bound (default 4).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs (default 1024).
	QueueDepth int
	// DefaultTimeout is applied to jobs submitted without their own
	// deadline (0 = none).
	DefaultTimeout time.Duration
	// MaxRetries is how many times a transient failure is retried (the
	// job runs at most 1+MaxRetries times).
	MaxRetries int
	// RetryBaseDelay seeds the capped exponential backoff between
	// transient-failure retries (default 50ms). Each retry waits
	// base·2^attempt with deterministic per-job jitter, capped at
	// RetryMaxDelay, and aborts early if the job's context is canceled.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the retry backoff (default 2s).
	RetryMaxDelay time.Duration
	// Cache, when non-nil, short-circuits identical submissions. Any
	// CacheTier works: the local memory+disk *Cache, or a TieredCache
	// layering a shared remote tier beneath it.
	Cache CacheTier
	// Journal, when non-nil, write-ahead-logs every accepted submission
	// (fsync before Submit returns) and each job's lifecycle, making
	// queued and running jobs survive a process crash: open the journal
	// with OpenJournal and hand its pending jobs to Recover on startup.
	// Any Store works; *Journal is the segmented-WAL implementation.
	Journal Store
	// ProgressEvents is the stride, in simulation events, between
	// journaled progress records for a running job (default 8M events;
	// only meaningful with Journal set).
	ProgressEvents uint64
	// Admission tunes overload protection (zero value = none beyond
	// QueueDepth).
	Admission AdmissionConfig
	// QoS tunes the multi-tenant scheduler (zero value = weighted-fair
	// queueing with every tenant at weight 1; Policy PolicyFIFO restores
	// the legacy global priority+FIFO queue).
	QoS QoSConfig
	// Runner overrides how specs execute (default core.RunCtx).
	Runner Runner
	// BatchRunner overrides how SubmitBatch gangs execute (default
	// core.RunBatchCtx, the partitioned batch path that pins one engine
	// and LUT per partition signature).
	BatchRunner func(ctx context.Context, specs []core.Spec) ([]core.Result, error)
}

// SubmitOptions customize one submission.
type SubmitOptions struct {
	// Priority orders the queue (higher first; FIFO within a level).
	Priority int
	// Class selects the admission/scheduling class (default interactive;
	// ClassSweep is concurrency-limited so batch matrices cannot starve
	// single jobs).
	Class Class
	// Tenant is the submitting client's identity (from admission). It keys
	// weighted-fair scheduling, per-tenant metrics, and result-cache
	// quotas; empty means the shared anonymous tenant.
	Tenant string
	// Timeout overrides Config.DefaultTimeout (0 = inherit).
	Timeout time.Duration
	// NoCache bypasses the cache entirely — no lookup, no in-flight
	// coalescing, no store-back — forcing a fresh simulation whose
	// in-memory artifacts (the trace recorder) stay with this job.
	NoCache bool
}

// Metrics is a point-in-time view of executor health for /metrics.
type Metrics struct {
	Submitted  uint64
	Completed  uint64
	Failed     uint64
	Canceled   uint64
	CacheHits  uint64 // submissions answered from the cache
	Coalesced  uint64 // submissions collapsed onto an in-flight twin
	Retries    uint64
	Shed       uint64 // submissions rejected by queue-deadline shedding
	Replayed   uint64 // jobs resubmitted from the journal after a crash
	QueueDepth int
	Running    int
	Workers    int
	Draining   bool
	// SweepRunning / SweepDeferred report the concurrency-limited sweep
	// class: running batch jobs and batch jobs holding for a free slot.
	SweepRunning  int
	SweepDeferred int
	// AvgRunMs is the EWMA of fresh simulation wall-clock latencies;
	// AvgRunMsByClass splits it per scheduling class — the split is what
	// drives queue-wait estimation for shedding, so a slow sweep backlog
	// cannot doom cheap interactive arrivals.
	AvgRunMs        float64
	AvgRunMsByClass map[string]float64
	// QoSPolicy names the active scheduler ("wfq" or "fifo"); PerTenant
	// breaks the service down by tenant identity.
	QoSPolicy string
	PerTenant map[string]TenantMetrics
	Cache     CacheStats
	// Journal is the zero value unless the executor is journaled.
	Journal   JournalMetrics
	Journaled bool
	PerKernel map[string]KernelMetrics
}

// TenantMetrics aggregates one tenant's service: admission outcomes, queue
// occupancy, scheduler state, and its slice of the result cache.
type TenantMetrics struct {
	Submitted uint64
	Completed uint64
	Shed      uint64 // queue-deadline sheds (503s)
	Rejected  uint64 // queue-full rejections (429s)
	CacheHits uint64
	Coalesced uint64
	Queued    int
	Weight    float64
	// VLag is the tenant's virtual-service lead over the scheduler's
	// global virtual time (WFQ only; 0 = least-served backlogged tenant).
	VLag float64
	// CacheBytes / CacheEntries are the tenant's owned share of the
	// in-memory result cache.
	CacheBytes   int64
	CacheEntries int
}

// KernelMetrics aggregates wall-clock latency per kernel (simulated runs
// only; cache hits are free and excluded).
type KernelMetrics struct {
	Runs     uint64
	TotalSec float64
	MaxSec   float64
}

// Executor runs jobs on a bounded worker pool over a tenant-aware
// weighted-fair queue (or the legacy priority+FIFO queue in PolicyFIFO mode).
type Executor struct {
	cfg Config

	mu               sync.Mutex
	cond             *sync.Cond
	sched            scheduler
	jobs             map[string]*Job
	doneOrder        []string        // terminal job IDs, oldest first (retention)
	inflight         map[string]*Job // spec-hash → primary job (for coalescing)
	queuedByPrio     map[int]int
	queuedByClass    [2]int
	queuedByTenant   map[string]int
	gangQueued       int // fresh gang-member cells awaiting dispatch
	sweepRunning     int
	sweepWait        []*Job // sweep jobs holding for a free slot
	avgRunSec        float64
	avgRunSecByClass [2]float64
	seq              uint64
	draining         bool
	closed           bool
	running          int
	nworkers         int // live worker goroutines (cfg.Workers is the target)
	wg               sync.WaitGroup

	m         Metrics
	perKernel map[string]KernelMetrics
	perTenant map[string]*tenantCounters

	// reg is the executor's unified metrics registry; inst holds the live
	// instruments updated on the job lifecycle path (see metrics.go).
	reg  *obs.Registry
	inst *instruments
}

// NewExecutor starts cfg.Workers workers and returns the executor. Call
// Close (optionally after Drain) to stop them; SetWorkers resizes the pool.
func NewExecutor(cfg Config) *Executor {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 50 * time.Millisecond
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = 2 * time.Second
	}
	if cfg.ProgressEvents == 0 {
		cfg.ProgressEvents = 8 << 20
	}
	if cfg.BatchRunner == nil {
		if cfg.Runner != nil {
			// A substituted single-spec runner (tests, remote backends)
			// keeps authority over gang cells too.
			runner := cfg.Runner
			cfg.BatchRunner = func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
				results := make([]core.Result, len(specs))
				for i, spec := range specs {
					res, err := runner(ctx, spec)
					if err != nil {
						return nil, err
					}
					results[i] = res
				}
				return results, nil
			}
		} else {
			cfg.BatchRunner = core.RunBatchCtx
		}
	}
	if cfg.Runner == nil {
		cfg.Runner = core.RunCtx
	}
	ex := &Executor{
		cfg:            cfg,
		jobs:           make(map[string]*Job),
		inflight:       make(map[string]*Job),
		queuedByPrio:   make(map[int]int),
		queuedByTenant: make(map[string]int),
		perKernel:      make(map[string]KernelMetrics),
		perTenant:      make(map[string]*tenantCounters),
		reg:            obs.NewRegistry(),
	}
	if cfg.QoS.Policy == PolicyFIFO {
		ex.sched = newFIFOSched()
	} else {
		ex.sched = newWFQSched(cfg.QoS, ex.estCostLocked)
	}
	if cfg.Journal != nil {
		// Job IDs embed the submission sequence; starting past the
		// journal's high-water mark means no submission — not even one
		// accepted before Recover replays the backlog — reuses a journaled
		// ID.
		ex.seq = cfg.Journal.MaxSeq()
	}
	ex.inst = newInstruments(ex.reg)
	ex.cond = sync.NewCond(&ex.mu)
	ex.mu.Lock()
	ex.startWorkersLocked()
	ex.mu.Unlock()
	return ex
}

// SetWorkers resizes the worker pool — the simulation concurrency bound —
// to n (minimum 1): growing starts workers at once, shrinking retires
// workers as they finish their current job. A coordinator node tracks its
// fleet's registered slots with it.
func (ex *Executor) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.closed {
		return
	}
	ex.cfg.Workers = n
	ex.startWorkersLocked()
	ex.cond.Broadcast() // surplus idle workers retire
}

// startWorkersLocked starts workers up to cfg.Workers. Caller holds ex.mu.
func (ex *Executor) startWorkersLocked() {
	for ; ex.nworkers < ex.cfg.Workers; ex.nworkers++ {
		ex.wg.Add(1)
		go ex.worker()
	}
}

// Submit validates and enqueues spec. The returned job may already be done
// (cache hit). Duplicate in-flight submissions coalesce onto one simulation
// unless opts.NoCache is set. Overload rejections (ErrQueueFull,
// ErrOverloaded, both possibly wrapped in a RetryAfterError) tell the caller
// when to come back.
func (ex *Executor) Submit(spec core.Spec, opts SubmitOptions) (*Job, error) {
	return ex.submit(spec, opts, nil)
}

// Recover resubmits the journal's pending jobs — everything queued or
// running when the previous process died — preserving their original IDs so
// clients can keep polling across the crash. Replay bypasses admission
// control (the work was admitted once already) and re-executes nothing the
// result cache already holds: determinism makes a re-run bit-identical, and
// content addressing makes a completed run a cache hit. Call once, before
// serving traffic.
func (ex *Executor) Recover(pending []Pending) (int, error) {
	for i := range pending {
		p := &pending[i]
		opts := SubmitOptions{
			Priority: p.Priority,
			Class:    p.Class,
			Tenant:   p.Tenant,
			Timeout:  time.Duration(p.TimeoutMs) * time.Millisecond,
			NoCache:  p.NoCache,
		}
		if _, err := ex.submit(p.Spec, opts, p); err != nil {
			return i, fmt.Errorf("jobs: replaying %s: %w", p.ID, err)
		}
	}
	return len(pending), nil
}

// submit is the shared path for fresh submissions and journal replay
// (rep != nil). Replayed jobs keep their journaled identity and skip both
// admission control and the durable submit record (the compacted journal
// already holds one).
func (ex *Executor) submit(spec core.Spec, opts SubmitOptions, rep *Pending) (*Job, error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	job, fresh, err := ex.submitLocked(spec, opts, rep)
	if err != nil {
		return nil, err
	}
	if fresh {
		ex.enqueueLocked(job)
		ex.cond.Signal()
	}
	return job, nil
}

// submitLocked validates, admits, journals and registers one submission.
// fresh reports that the job still needs dispatching — the caller either
// enqueues it directly (Submit) or folds it into a gang (SubmitBatch).
// Caller holds ex.mu.
func (ex *Executor) submitLocked(spec core.Spec, opts SubmitOptions, rep *Pending) (*Job, bool, error) {
	spec = Normalize(spec)
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	hash, err := SpecHash(spec)
	if err != nil {
		return nil, false, err
	}

	if ex.draining || ex.closed {
		return nil, false, ErrDraining
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = ex.cfg.DefaultTimeout
	}
	var id string
	var seq uint64
	if rep != nil {
		id, seq = rep.ID, rep.Seq
	} else {
		ex.seq++
		seq = ex.seq
		id = fmt.Sprintf("%s-%d", hash[:12], seq)
	}
	job := &Job{
		ID:        id,
		SpecHash:  hash,
		Spec:      spec,
		priority:  opts.Priority,
		class:     opts.Class,
		tenant:    opts.Tenant,
		seq:       seq,
		timeout:   timeout,
		noCache:   opts.NoCache,
		replayed:  rep != nil,
		journaled: rep != nil,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if rep != nil {
		ex.m.Replayed++
	}
	tc := ex.tenantLocked(job.tenant)

	if !opts.NoCache && ex.cfg.Cache != nil {
		if data, ok := ex.cfg.Cache.Get(hash); ok {
			ex.jobs[job.ID] = job
			ex.m.Submitted++
			tc.Submitted++
			job.cacheHit = true
			ex.m.CacheHits++
			tc.CacheHits++
			ex.completeLocked(job, data, nil)
			return job, false, nil
		}
	}
	if !opts.NoCache {
		if primary, ok := ex.inflight[hash]; ok {
			if err := ex.journalSubmitLocked(job); err != nil {
				return nil, false, err
			}
			ex.jobs[job.ID] = job
			ex.m.Submitted++
			tc.Submitted++
			job.coalesced = true
			ex.m.Coalesced++
			tc.Coalesced++
			primary.dups = append(primary.dups, job)
			return job, false, nil
		}
	}
	if rep == nil { // replay bypasses admission: the work was admitted once
		if err := ex.admitLocked(job, timeout); err != nil {
			return nil, false, err
		}
	}
	if err := ex.journalSubmitLocked(job); err != nil {
		return nil, false, err
	}
	ex.jobs[job.ID] = job
	ex.m.Submitted++
	tc.Submitted++
	if !opts.NoCache {
		ex.inflight[hash] = job
	}
	return job, true, nil
}

// SubmitBatch validates and enqueues a gang of specs with shared options,
// returning one job per spec in input order. Cache hits and coalesced
// duplicates resolve per spec exactly as with Submit; the remaining fresh
// jobs are dispatched together — one worker executes them all through the
// batch runner (core.RunBatchCtx by default), so cells sharing a partition
// signature run on one pinned engine with the LUT resolved once. The gang
// is a single scheduler entry and a single sweep-class concurrency slot,
// but every fresh member still counts against the admission bounds (queue
// depth, per-tenant and per-priority shares), so a large batch is rejected
// exactly where the same cells submitted one by one would be.
// A rejected cell (admission, journal) cancels the batch's earlier fresh
// members and fails the whole submission — a batch starts fully formed or
// not at all. Canceling one queued member skips just that cell; canceling
// a running member cancels the gang's shared context and with it the
// remaining cells of the batch run.
func (ex *Executor) SubmitBatch(specs []core.Spec, opts SubmitOptions) ([]*Job, error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	out := make([]*Job, len(specs))
	var gang []*Job
	for i, spec := range specs {
		job, fresh, err := ex.submitLocked(spec, opts, nil)
		if err != nil {
			for _, g := range gang {
				ex.memberDequeuedLocked(g)
				ex.completeLocked(g, nil, context.Canceled)
			}
			return nil, fmt.Errorf("jobs: batch cell %d (%s/%s/%s): %w",
				i, spec.Kernel, spec.System, spec.Variant, err)
		}
		out[i] = job
		if fresh {
			gang = append(gang, job)
			ex.memberQueuedLocked(job)
		}
	}
	if len(gang) > 0 {
		ex.seq++
		d := &Job{
			ID:       fmt.Sprintf("batch-%d", ex.seq),
			priority: opts.Priority,
			class:    opts.Class,
			tenant:   opts.Tenant,
			seq:      ex.seq,
			timeout:  gang[0].timeout,
			state:    StateQueued,
			gang:     gang,
		}
		// The dispatch job is the gang's single scheduler entry and single
		// class entry; the members carry the depth and share accounting.
		ex.queuedByClass[classIdx(d.class)]++
		ex.sched.Push(d)
		ex.cond.Signal()
	}
	return out, nil
}

// admitLocked applies overload protection to a fresh submission: the shared
// queue bound, the per-priority and per-tenant shares, and queue-deadline
// shedding — if the estimated wait behind the current queue already exceeds
// the job's deadline (or the configured ceiling), admitting it would burn a
// worker slot on a result nobody can use, so it is rejected now with a
// come-back hint.
func (ex *Executor) admitLocked(job *Job, timeout time.Duration) error {
	adm := ex.cfg.Admission
	est := ex.estWaitLocked(job.tenant, job.class)
	tc := ex.tenantLocked(job.tenant)
	// Occupancy counts cells, not scheduler entries: gang members never
	// enter the scheduler themselves, but each one is queued work, so a
	// large batch fills the queue bound exactly as the same cells would
	// submitted one by one.
	if ex.sched.Len()+ex.gangQueued >= ex.cfg.QueueDepth {
		tc.Rejected++
		return &RetryAfterError{Err: ErrQueueFull, RetryAfter: maxDuration(est, time.Second)}
	}
	if adm.PerTenantDepth > 0 && ex.queuedByTenant[job.tenant] >= adm.PerTenantDepth {
		tc.Rejected++
		return &RetryAfterError{
			Err:        fmt.Errorf("tenant queue quota (%d): %w", adm.PerTenantDepth, ErrQueueFull),
			RetryAfter: maxDuration(est, time.Second),
		}
	}
	if adm.PerPriorityDepth > 0 && ex.queuedByPrio[job.priority] >= adm.PerPriorityDepth {
		tc.Rejected++
		return &RetryAfterError{
			Err:        fmt.Errorf("priority %d: %w", job.priority, ErrQueueFull),
			RetryAfter: maxDuration(est, time.Second),
		}
	}
	limit := timeout
	if adm.MaxWait > 0 && (limit == 0 || adm.MaxWait < limit) {
		limit = adm.MaxWait
	}
	if limit > 0 && est > limit {
		ex.m.Shed++
		tc.Shed++
		return &RetryAfterError{Err: ErrOverloaded, RetryAfter: est}
	}
	return nil
}

// journalSubmitLocked durably records an accepted submission; failure to
// journal rejects the submission (accepting un-journaled work would break
// the crash-safety promise).
func (ex *Executor) journalSubmitLocked(job *Job) error {
	if ex.cfg.Journal == nil || job.journaled {
		return nil
	}
	err := ex.cfg.Journal.Submit(Pending{
		ID: job.ID, Seq: job.seq, SpecHash: job.SpecHash, Spec: job.Spec,
		Priority: job.priority, Class: job.class, Tenant: job.tenant,
		TimeoutMs: int64(job.timeout / time.Millisecond), NoCache: job.noCache,
	})
	if err != nil {
		return fmt.Errorf("jobs: journaling submission: %w", err)
	}
	job.journaled = true
	return nil
}

// enqueueLocked pushes job into the scheduler with admission accounting.
func (ex *Executor) enqueueLocked(job *Job) {
	job.inQueue = true
	ex.queuedByPrio[job.priority]++
	ex.queuedByClass[classIdx(job.class)]++
	ex.queuedByTenant[job.tenant]++
	ex.sched.Push(job)
}

// memberQueuedLocked counts a fresh gang member against admission
// occupancy — queue depth, per-tenant and per-priority shares — without
// entering the scheduler; the gang's dispatch job is the only scheduler
// entry (and the only class entry: the batch runs as one unit on one
// worker, matching the per-batch wait-estimate cost).
func (ex *Executor) memberQueuedLocked(g *Job) {
	g.inQueue = true
	ex.gangQueued++
	ex.queuedByPrio[g.priority]++
	ex.queuedByTenant[g.tenant]++
}

// memberDequeuedLocked releases one gang member's admission accounting.
func (ex *Executor) memberDequeuedLocked(g *Job) {
	if !g.inQueue {
		return
	}
	g.inQueue = false
	ex.gangQueued--
	ex.queuedByPrio[g.priority]--
	if ex.queuedByPrio[g.priority] <= 0 {
		delete(ex.queuedByPrio, g.priority)
	}
	ex.queuedByTenant[g.tenant]--
	if ex.queuedByTenant[g.tenant] <= 0 {
		delete(ex.queuedByTenant, g.tenant)
	}
}

// dequeuedLocked undoes enqueue accounting for a popped job. For a gang
// dispatch job that means the class entry plus every member's share.
func (ex *Executor) dequeuedLocked(job *Job) {
	if job.gang != nil {
		ex.queuedByClass[classIdx(job.class)]--
		for _, g := range job.gang {
			ex.memberDequeuedLocked(g)
		}
		return
	}
	if job.inQueue {
		job.inQueue = false
		ex.queuedByPrio[job.priority]--
		if ex.queuedByPrio[job.priority] <= 0 {
			delete(ex.queuedByPrio, job.priority)
		}
		ex.queuedByClass[classIdx(job.class)]--
		ex.queuedByTenant[job.tenant]--
		if ex.queuedByTenant[job.tenant] <= 0 {
			delete(ex.queuedByTenant, job.tenant)
		}
	}
}

// maxTenantStats bounds the per-tenant counters map; past it new tenants
// aggregate under "other" so metric cardinality cannot grow without bound.
const maxTenantStats = 1024

// tenantCounters is the executor's per-tenant tally (guarded by ex.mu).
type tenantCounters struct {
	Submitted, Completed, Shed, Rejected, CacheHits, Coalesced uint64
}

// tenantLocked returns the counters bucket for a tenant key, creating it on
// first use. The empty key (anonymous submitters) reports as "default".
func (ex *Executor) tenantLocked(tenant string) *tenantCounters {
	if tenant == "" {
		tenant = "default"
	}
	tc := ex.perTenant[tenant]
	if tc == nil {
		if len(ex.perTenant) >= maxTenantStats {
			tenant = "other"
			if tc = ex.perTenant[tenant]; tc != nil {
				return tc
			}
		}
		tc = &tenantCounters{}
		ex.perTenant[tenant] = tc
	}
	return tc
}

// Get returns a snapshot of the job with the given ID.
func (ex *Executor) Get(id string) (Snapshot, error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	job, ok := ex.jobs[id]
	if !ok {
		return Snapshot{}, ErrUnknownJob
	}
	return ex.snapshotLocked(job), nil
}

// TraceRecorder returns the trace recorder captured by the job's own
// simulation. It is nil for jobs submitted without Spec.WithTrace and for
// cache hits / coalesced duplicates, which never simulated locally.
func (ex *Executor) TraceRecorder(id string) (*trace.Recorder, Snapshot, error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	job, ok := ex.jobs[id]
	if !ok {
		return nil, Snapshot{}, ErrUnknownJob
	}
	return job.trace, ex.snapshotLocked(job), nil
}

// SchedTrace returns the scheduler/DVFS event ring captured by the job's own
// simulation, under the same availability rules as TraceRecorder.
func (ex *Executor) SchedTrace(id string) (*obs.Trace, Snapshot, error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	job, ok := ex.jobs[id]
	if !ok {
		return nil, Snapshot{}, ErrUnknownJob
	}
	return job.sched, ex.snapshotLocked(job), nil
}

// Registry exposes the executor's metrics registry so the HTTP layer (and
// tests) can render /metrics from one place.
func (ex *Executor) Registry() *obs.Registry { return ex.reg }

// Cancel cancels a queued or running job. Canceling a terminal job is a
// no-op returning its state.
func (ex *Executor) Cancel(id string) (State, error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	job, ok := ex.jobs[id]
	if !ok {
		return 0, ErrUnknownJob
	}
	switch job.state {
	case StateQueued:
		// Lazily skipped by workers; resolve it (and any coalesced
		// duplicates) now.
		ex.completeLocked(job, nil, context.Canceled)
	case StateRunning:
		if job.cancel != nil {
			job.cancel()
		}
	}
	return job.state, nil
}

// Forget drops a terminal job's record; its ID then answers ErrUnknownJob.
// The executor otherwise keeps the latest maxTerminalJobs terminal jobs, so
// a caller that consumes outcomes itself and never hands the ID to a client
// (a fabric worker reporting shards over the wire) forgets each job once it
// is done with it. The result cache is unaffected.
func (ex *Executor) Forget(id string) error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	job, ok := ex.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	if !job.state.Terminal() {
		return ErrJobActive
	}
	delete(ex.jobs, id)
	return nil
}

// Wait blocks until the job is terminal or ctx expires, then returns its
// snapshot.
func (ex *Executor) Wait(ctx context.Context, id string) (Snapshot, error) {
	ex.mu.Lock()
	job, ok := ex.jobs[id]
	ex.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrUnknownJob
	}
	return ex.await(ctx, job)
}

// await blocks until job is terminal or ctx expires, then snapshots it. It
// works on the held job, so retention evicting the job's ID meanwhile does
// not lose the outcome.
func (ex *Executor) await(ctx context.Context, job *Job) (Snapshot, error) {
	select {
	case <-job.done:
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.snapshotLocked(job), nil
}

// Result submits spec, waits for completion, and reconstructs the
// core.Result from the canonical bytes. It reports whether the answer came
// from the cache (or was coalesced) rather than a fresh simulation.
func (ex *Executor) Result(ctx context.Context, spec core.Spec, opts SubmitOptions) (core.Result, bool, error) {
	job, err := ex.Submit(spec, opts)
	if err != nil {
		return core.Result{}, false, err
	}
	snap, err := ex.await(ctx, job)
	if err != nil {
		return core.Result{}, false, err
	}
	if snap.State != StateDone {
		return core.Result{}, false, fmt.Errorf("jobs: job %s %s: %w", job.ID, snap.State, snap.Err)
	}
	out, err := DecodeOutcome(snap.Data)
	if err != nil {
		return core.Result{}, false, err
	}
	return out.ToResult(snap.Spec), snap.CacheHit || snap.Coalesced, nil
}

// BatchRunner adapts the executor to core.SweepOptions.RunAll: the whole
// matrix is submitted as one gang (cache hits and duplicates still resolve
// per cell), a worker runs the fresh cells through the partitioned batch
// path, and results come back in submission order.
func (ex *Executor) BatchRunner(ctx context.Context) func([]core.Spec) ([]core.Result, error) {
	return func(specs []core.Spec) ([]core.Result, error) {
		batch, err := ex.SubmitBatch(specs, SubmitOptions{})
		if err != nil {
			return nil, err
		}
		results := make([]core.Result, len(specs))
		for i, job := range batch {
			snap, err := ex.await(ctx, job)
			if err != nil {
				return nil, err
			}
			if snap.State != StateDone {
				return nil, fmt.Errorf("jobs: job %s %s: %w", job.ID, snap.State, snap.Err)
			}
			out, err := DecodeOutcome(snap.Data)
			if err != nil {
				return nil, err
			}
			results[i] = out.ToResult(snap.Spec)
		}
		return results, nil
	}
}

// Drain stops accepting submissions and waits for every queued and running
// job to reach a terminal state, or for ctx to expire — in which case the
// still-running jobs are canceled before returning ctx's error.
func (ex *Executor) Drain(ctx context.Context) error {
	ex.mu.Lock()
	ex.draining = true
	ex.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		ex.mu.Lock()
		for ex.sched.Len() > 0 || ex.running > 0 || len(ex.sweepWait) > 0 {
			ex.cond.Wait()
		}
		ex.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		ex.mu.Lock()
		cancelQueued := func(job *Job) {
			for _, g := range job.gang { // gang members never sit in the queue themselves
				if g.state == StateQueued {
					ex.completeLocked(g, nil, context.Canceled)
				}
			}
			if job.gang == nil && job.state == StateQueued {
				ex.completeLocked(job, nil, context.Canceled)
			}
		}
		for job := ex.sched.Pop(); job != nil; job = ex.sched.Pop() {
			ex.dequeuedLocked(job)
			cancelQueued(job)
		}
		for _, job := range ex.sweepWait {
			cancelQueued(job)
		}
		ex.sweepWait = nil
		for _, job := range ex.jobs {
			if job.state == StateRunning && job.cancel != nil {
				job.cancel()
			}
		}
		ex.mu.Unlock()
		<-idle
		return ctx.Err()
	}
}

// Draining reports whether Drain has been called.
func (ex *Executor) Draining() bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.draining
}

// Close stops the workers after the queue empties. Typically preceded by
// Drain; safe to call twice.
func (ex *Executor) Close() {
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return
	}
	ex.closed = true
	ex.cond.Broadcast()
	ex.mu.Unlock()
	ex.wg.Wait()
}

// Metrics returns a consistent snapshot of the executor counters.
func (ex *Executor) Metrics() Metrics {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	m := ex.m
	m.QueueDepth = ex.sched.Len() + ex.gangQueued
	m.Running = ex.running
	m.Workers = ex.cfg.Workers
	m.Draining = ex.draining
	m.SweepRunning = ex.sweepRunning
	m.SweepDeferred = len(ex.sweepWait)
	m.AvgRunMs = ex.avgRunSec * 1e3
	m.AvgRunMsByClass = map[string]float64{
		ClassInteractive.String(): ex.avgRunSecByClass[0] * 1e3,
		ClassSweep.String():       ex.avgRunSecByClass[1] * 1e3,
	}
	m.QoSPolicy = ex.cfg.QoS.Policy.String()
	if ex.cfg.Cache != nil {
		m.Cache = ex.cfg.Cache.Stats()
	}
	m.PerTenant = make(map[string]TenantMetrics, len(ex.perTenant))
	for name, tc := range ex.perTenant {
		m.PerTenant[name] = TenantMetrics{
			Submitted: tc.Submitted, Completed: tc.Completed,
			Shed: tc.Shed, Rejected: tc.Rejected,
			CacheHits: tc.CacheHits, Coalesced: tc.Coalesced,
		}
	}
	for _, qs := range ex.sched.Tenants() {
		name := qs.Tenant
		if name == "" {
			name = "default"
		}
		tm := m.PerTenant[name]
		tm.Queued, tm.Weight, tm.VLag = qs.Queued, qs.Weight, qs.VLag
		m.PerTenant[name] = tm
	}
	for name, cs := range m.Cache.PerTenant {
		if name == "" {
			name = "default"
		}
		tm := m.PerTenant[name]
		tm.CacheBytes, tm.CacheEntries = cs.Bytes, cs.Entries
		m.PerTenant[name] = tm
	}
	if ex.cfg.Journal != nil {
		m.Journal = ex.cfg.Journal.Metrics()
		m.Journaled = true
	}
	m.PerKernel = make(map[string]KernelMetrics, len(ex.perKernel))
	for k, v := range ex.perKernel {
		m.PerKernel[k] = v
	}
	return m
}

// ---- internals ----

func (ex *Executor) worker() {
	defer ex.wg.Done()
	for {
		ex.mu.Lock()
		var job *Job
		for job == nil {
			for ex.sched.Len() == 0 && !ex.closed && ex.nworkers <= ex.cfg.Workers {
				ex.cond.Wait()
			}
			if ex.nworkers > ex.cfg.Workers || (ex.sched.Len() == 0 && ex.closed) {
				ex.nworkers--
				ex.mu.Unlock()
				return
			}
			j := ex.sched.Pop()
			ex.dequeuedLocked(j)
			if j.gang == nil && j.state != StateQueued { // canceled while queued
				continue
			}
			if j.gang != nil && !gangLive(j.gang) {
				continue // every member canceled while queued
			}
			// The sweep class is concurrency-limited: batch jobs past
			// the slot bound hold aside until a running one finishes,
			// leaving workers free for interactive submissions.
			if slots := ex.cfg.Admission.SweepSlots; slots > 0 &&
				j.class == ClassSweep && ex.sweepRunning >= slots {
				ex.sweepWait = append(ex.sweepWait, j)
				continue
			}
			job = j
		}
		// Charge the tenant's fair-queue account at dispatch (not at
		// pop) so sweep jobs held for a slot are not double-billed.
		ex.sched.Dispatched(job, ex.estCostLocked(job.class))
		if job.class == ClassSweep {
			ex.sweepRunning++
		}
		if job.gang != nil {
			ex.runGang(job) // unlocks ex.mu
			continue
		}
		job.state = StateRunning
		job.started = time.Now()
		ex.inst.queueSeconds.Observe(job.started.Sub(job.submitted).Seconds())
		ex.running++
		ctx, cancel := jobContext(job.timeout)
		job.cancel = cancel
		ex.mu.Unlock()

		data, res, err := ex.runJob(ex.withProgress(ctx, job), job)
		cancel()

		ex.mu.Lock()
		job.trace = res.Trace
		job.sched = res.SchedTrace
		if err == nil && !job.noCache && ex.cfg.Cache != nil {
			ex.cfg.Cache.PutOwned(job.SpecHash, data, job.tenant)
		}
		dur := time.Since(job.started).Seconds()
		if ex.avgRunSec == 0 {
			ex.avgRunSec = dur
		} else {
			ex.avgRunSec = 0.8*ex.avgRunSec + 0.2*dur
		}
		ci := classIdx(job.class)
		if ex.avgRunSecByClass[ci] == 0 {
			ex.avgRunSecByClass[ci] = dur
		} else {
			ex.avgRunSecByClass[ci] = 0.8*ex.avgRunSecByClass[ci] + 0.2*dur
		}
		if err == nil {
			km := ex.perKernel[job.Spec.Kernel]
			km.Runs++
			km.TotalSec += dur
			if dur > km.MaxSec {
				km.MaxSec = dur
			}
			ex.perKernel[job.Spec.Kernel] = km
			ex.inst.observeRun(&res, dur)
		}
		ex.running--
		if job.class == ClassSweep {
			ex.sweepRunning--
			ex.releaseSweepLocked()
		}
		ex.completeLocked(job, data, err)
		ex.mu.Unlock()
	}
}

// cancelOnlyKey carries a running job's cancel-only context (CancelOnly).
type cancelOnlyKey struct{}

// jobContext returns the context a job runs under: canceled by Cancel and
// Drain through the returned func, with the job's timeout (if any) layered
// on top.
func jobContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	base, cancel := context.WithCancel(context.Background())
	if timeout <= 0 {
		return base, cancel
	}
	ctx, stop := context.WithTimeout(context.WithValue(base, cancelOnlyKey{}, base), timeout)
	return ctx, func() { stop(); cancel() }
}

// CancelOnly returns the context a running job's deadline is layered on: it
// ends when the job is canceled (Cancel, Drain) but not when the deadline
// passes. A backend that charges only part of a job's wall-clock time to
// ctx.Deadline() — a coordinator not counting the time a cell waits for a
// worker to exist — waits on it and enforces the deadline itself. For a
// context not made by the executor it returns ctx.
func CancelOnly(ctx context.Context) context.Context {
	if base, ok := ctx.Value(cancelOnlyKey{}).(context.Context); ok {
		return base
	}
	return ctx
}

// withProgress attaches a progress sink that tracks the job's simulation
// event count and journals it at the configured stride, so a crash leaves a
// record of how far the run got.
func (ex *Executor) withProgress(ctx context.Context, job *Job) context.Context {
	stride := ex.cfg.ProgressEvents
	var lastJournaled uint64
	return core.WithProgress(ctx, func(events uint64) {
		job.events.Store(events)
		if ex.cfg.Journal != nil && events-lastJournaled >= stride {
			lastJournaled = events
			ex.cfg.Journal.Progress(job.ID, events)
		}
	})
}

// gangLive reports whether any gang member is still dispatchable.
func gangLive(gang []*Job) bool {
	for _, j := range gang {
		if j.state == StateQueued {
			return true
		}
	}
	return false
}

// runGang executes a batch-dispatch job: every still-queued member runs in
// one batch-runner call on this worker. The gang shares one context (and
// one cancel), counts as one running job and one sweep-class slot, and its
// wall-clock feeds the class cost EWMA as a single unit — matching how the
// scheduler queued and billed it. Per-kernel latency is attributed as an
// equal share of the batch duration. The local batch runner is
// deterministic, so gangs do not retry transient failures the way single
// jobs do. Called with ex.mu held; returns with it released.
func (ex *Executor) runGang(d *Job) {
	now := time.Now()
	var live []*Job
	for _, j := range d.gang {
		if j.state == StateQueued {
			live = append(live, j)
		}
	}
	ctx, cancel := jobContext(d.timeout)
	specs := make([]core.Spec, len(live))
	for i, j := range live {
		j.state = StateRunning
		j.started = now
		j.cancel = cancel
		j.attempts = 1
		ex.inst.queueSeconds.Observe(now.Sub(j.submitted).Seconds())
		specs[i] = j.Spec
	}
	ex.running++
	ex.mu.Unlock()

	if jl := ex.cfg.Journal; jl != nil {
		for _, j := range live {
			jl.Start(j.ID, 1)
		}
	}
	results, err := ex.safeRunBatch(ex.withGangProgress(ctx, live), specs)
	cancel()
	if err == nil && len(results) != len(specs) {
		err = fmt.Errorf("jobs: batch runner returned %d results for %d specs", len(results), len(specs))
	}

	ex.mu.Lock()
	dur := time.Since(now).Seconds()
	if ex.avgRunSec == 0 {
		ex.avgRunSec = dur
	} else {
		ex.avgRunSec = 0.8*ex.avgRunSec + 0.2*dur
	}
	ci := classIdx(d.class)
	if ex.avgRunSecByClass[ci] == 0 {
		ex.avgRunSecByClass[ci] = dur
	} else {
		ex.avgRunSecByClass[ci] = 0.8*ex.avgRunSecByClass[ci] + 0.2*dur
	}
	ex.running--
	if d.class == ClassSweep {
		ex.sweepRunning--
		ex.releaseSweepLocked()
	}
	if err != nil {
		for _, j := range live {
			if !j.state.Terminal() {
				ex.completeLocked(j, nil, err)
			}
		}
		ex.mu.Unlock()
		return
	}
	share := dur / float64(len(live))
	for i, j := range live {
		res := results[i]
		j.trace = res.Trace
		j.sched = res.SchedTrace
		data, derr := CanonicalJSON(NewOutcome(j.SpecHash, res))
		if derr != nil {
			ex.completeLocked(j, nil, derr)
			continue
		}
		if !j.noCache && ex.cfg.Cache != nil {
			ex.cfg.Cache.PutOwned(j.SpecHash, data, j.tenant)
		}
		km := ex.perKernel[j.Spec.Kernel]
		km.Runs++
		km.TotalSec += share
		if share > km.MaxSec {
			km.MaxSec = share
		}
		ex.perKernel[j.Spec.Kernel] = km
		ex.inst.observeRun(&res, share)
		ex.completeLocked(j, data, nil)
	}
	ex.mu.Unlock()
}

// safeRunBatch isolates panics escaping the batch runner, mirroring
// safeRun for single jobs.
func (ex *Executor) safeRunBatch(ctx context.Context, specs []core.Spec) (res []core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: batch runner panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return ex.cfg.BatchRunner(ctx, specs)
}

// withGangProgress mirrors withProgress for a gang: every member reports
// the running cell's event count, and the journal strides on the first
// member's ID (progress records are advisory; the members' submit records
// are what crash recovery replays).
func (ex *Executor) withGangProgress(ctx context.Context, live []*Job) context.Context {
	stride := ex.cfg.ProgressEvents
	var lastJournaled uint64
	return core.WithProgress(ctx, func(events uint64) {
		for _, j := range live {
			j.events.Store(events)
		}
		if ex.cfg.Journal != nil && events-lastJournaled >= stride {
			lastJournaled = events
			ex.cfg.Journal.Progress(live[0].ID, events)
		}
	})
}

// releaseSweepLocked moves one held-aside sweep job back into the queue now
// that a slot freed up. Caller holds ex.mu.
func (ex *Executor) releaseSweepLocked() {
	if len(ex.sweepWait) == 0 {
		return
	}
	job := ex.sweepWait[0]
	ex.sweepWait = ex.sweepWait[1:]
	ex.enqueueLocked(job)
	ex.cond.Signal()
}

// runJob executes one job with panic isolation and transient-failure
// retries (capped exponential backoff, deterministic jitter, canceled
// promptly by ctx), returning the canonical result bytes alongside the
// in-memory result (traces, report) of the successful attempt.
func (ex *Executor) runJob(ctx context.Context, job *Job) (data []byte, res core.Result, err error) {
	for attempt := 0; ; attempt++ {
		ex.mu.Lock()
		job.attempts = attempt + 1
		ex.mu.Unlock()
		if j := ex.cfg.Journal; j != nil {
			j.Start(job.ID, attempt+1)
		}
		res, err = ex.safeRun(ctx, job.Spec)
		if err == nil {
			out := NewOutcome(job.SpecHash, res)
			data, err = CanonicalJSON(out)
			return data, res, err
		}
		if !IsTransient(err) || attempt >= ex.cfg.MaxRetries || ctx.Err() != nil {
			return nil, core.Result{}, err
		}
		ex.mu.Lock()
		ex.m.Retries++
		ex.mu.Unlock()
		select {
		case <-time.After(RetryDelay(ex.cfg.RetryBaseDelay, ex.cfg.RetryMaxDelay, attempt, job.ID)):
		case <-ctx.Done():
			return nil, core.Result{}, fmt.Errorf("jobs: canceled waiting to retry %q: %w", err, ctx.Err())
		}
	}
}

// RetryDelay returns base·2^attempt capped at max, scaled by a
// deterministic jitter in [0.5, 1.0) derived from the id and attempt —
// reproducible (no global randomness) yet decorrelated across ids, so a
// burst of simultaneous transient failures does not retry in lockstep. It
// backs both the executor's transient-error retries and the fabric worker's
// reconnect loop (id = worker name there, so a mass disconnect doesn't
// reconnect in lockstep either).
func RetryDelay(base, max time.Duration, attempt int, id string) time.Duration {
	if attempt > 20 {
		attempt = 20 // 2^20·base is already past any sane cap
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{byte(attempt)})
	frac := 0.5 + float64(h.Sum64()%1024)/2048.0
	return time.Duration(float64(d) * frac)
}

// safeRun isolates panics escaping the runner so one poisoned job cannot
// take down the pool.
func (ex *Executor) safeRun(ctx context.Context, spec core.Spec) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: runner panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return ex.cfg.Runner(ctx, spec)
}

// completeLocked finalizes a job and its coalesced duplicates. Caller holds
// ex.mu.
func (ex *Executor) completeLocked(job *Job, data []byte, err error) {
	if job.state.Terminal() {
		return
	}
	now := time.Now()
	var resultHash string
	if err == nil && ex.cfg.Journal != nil {
		resultHash = ResultHash(data)
	}
	finalize := func(j *Job) {
		j.finished = now
		j.data = data
		j.err = err
		switch {
		case err == nil:
			j.state = StateDone
			ex.m.Completed++
			ex.tenantLocked(j.tenant).Completed++
		case errors.Is(err, context.Canceled):
			j.state = StateCanceled
			ex.m.Canceled++
		default:
			j.state = StateFailed
			ex.m.Failed++
		}
		if jl := ex.cfg.Journal; jl != nil && j.journaled {
			switch j.state {
			case StateDone:
				jl.Done(j.ID, resultHash)
			case StateCanceled:
				jl.Cancel(j.ID)
			default:
				jl.Fail(j.ID, err.Error())
			}
		}
		close(j.done)
		ex.retainLocked(j.ID)
	}
	finalize(job)
	for _, d := range job.dups {
		if !d.state.Terminal() {
			finalize(d)
		}
	}
	job.dups = nil
	if ex.inflight[job.SpecHash] == job {
		delete(ex.inflight, job.SpecHash)
	}
	ex.cond.Broadcast() // wake Drain's idle watcher
}

// maxTerminalJobs bounds the terminal jobs the executor remembers. Past it
// the oldest are forgotten first: their IDs answer ErrUnknownJob while
// their results stay in the cache. Queued and running jobs (coalesced
// duplicates included) are never evicted, so the jobs map holds at most
// this many terminal jobs plus the live ones.
const maxTerminalJobs = 16384

// retainLocked records a newly terminal job and evicts the oldest terminal
// jobs past maxTerminalJobs. Caller holds ex.mu.
func (ex *Executor) retainLocked(id string) {
	ex.doneOrder = append(ex.doneOrder, id)
	for len(ex.doneOrder) > maxTerminalJobs {
		delete(ex.jobs, ex.doneOrder[0])
		ex.doneOrder = ex.doneOrder[1:]
	}
}

func (ex *Executor) snapshotLocked(job *Job) Snapshot {
	s := Snapshot{
		ID:        job.ID,
		SpecHash:  job.SpecHash,
		Spec:      job.Spec,
		State:     job.state,
		Priority:  job.priority,
		Class:     job.class,
		Tenant:    job.tenant,
		CacheHit:  job.cacheHit,
		Coalesced: job.coalesced,
		Replayed:  job.replayed,
		Attempts:  job.attempts,
		Events:    job.events.Load(),
		Err:       job.err,
		Submitted: job.submitted,
		Started:   job.started,
		Finished:  job.finished,
	}
	if job.state == StateDone {
		s.Data = job.data
	}
	return s
}

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient)
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// ---- priority + FIFO heap ----

// jobQueue orders by (priority desc, seq asc): strict priority levels with
// FIFO fairness inside each level.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*Job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	job := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return job
}
