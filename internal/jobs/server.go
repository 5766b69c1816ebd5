package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"aaws/internal/core"
	"aaws/internal/fault"
	"aaws/internal/kernels"
	"aaws/internal/obs"
	"aaws/internal/trace"
	"aaws/internal/wsrt"
)

// Server exposes an Executor over HTTP JSON:
//
//	POST   /v1/jobs            submit one job
//	GET    /v1/jobs/{id}       job status (+ inline report when done);
//	                           ?wait=1 or ?wait_ms=N long-polls for completion,
//	                           &cancel_on_disconnect=1 cancels if the client goes away
//	GET    /v1/jobs/{id}/report     raw canonical result bytes (ETag = result hash)
//	GET    /v1/jobs/{id}/trace      structured run trace: lifecycle stages +
//	                                scheduler/DVFS events (WithTrace jobs);
//	                                ?format=csv for the raw event stream
//	GET    /v1/jobs/{id}/trace.svg  activity/DVFS profile (WithTrace jobs)
//	GET    /v1/jobs/{id}/trace.csv  profile samples as CSV
//	DELETE /v1/jobs/{id}       cancel
//	POST   /v1/sweeps          submit a kernel × variant × system matrix
//	GET    /metrics            Prometheus-style counters
//	GET    /healthz            200 ok / 503 draining (liveness)
//	GET    /readyz             200 only after crash recovery finishes (readiness)
//
// Overload responses carry a Retry-After header: 429 when a client exhausts
// its token bucket, 503 when admission control sheds the job. Bodies past
// the configured cap are rejected with 413.
type Server struct {
	ex      *Executor
	mux     *http.ServeMux
	limiter *RateLimiter
	opts    ServerOptions
	// phase is the current startup phase ("" = ready). While non-empty,
	// /readyz reports degraded with the phase as the reason, so load
	// balancers don't route to a node still replaying its journal or
	// registering with a fabric coordinator.
	phase atomic.Value // string
}

// ServerOptions tunes the HTTP-layer protections. The zero value disables
// rate limiting and uses the default body cap.
type ServerOptions struct {
	// RatePerSec grants each client this many submissions per second
	// (<= 0 disables rate limiting).
	RatePerSec float64
	// Burst is the token-bucket depth per client (minimum 1 when
	// limiting is on).
	Burst int
	// MaxBodyBytes caps POST bodies (default 1 MiB). Oversized requests
	// get 413 without reading the excess.
	MaxBodyBytes int64
}

// NewServer wraps ex in the HTTP API with default options and readiness
// already set (single-process uses that never replay a journal).
func NewServer(ex *Executor) *Server {
	return NewServerWithOptions(ex, ServerOptions{})
}

// NewServerWithOptions wraps ex with explicit HTTP-layer protections. The
// server starts ready; callers that replay a journal should SetReady(false)
// before listening and SetReady(true) once Recover returns.
func NewServerWithOptions(ex *Executor, opts ServerOptions) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	s := &Server{ex: ex, mux: http.NewServeMux(), opts: opts}
	if opts.RatePerSec > 0 {
		s.limiter = NewRateLimiter(opts.RatePerSec, opts.Burst)
	}
	s.phase.Store("")
	s.mux.HandleFunc("POST /v1/jobs", s.submitJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.getReport)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.getTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace.svg", s.getTraceSVG)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace.csv", s.getTraceCSV)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancelJob)
	s.mux.HandleFunc("POST /v1/sweeps", s.submitSweep)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	return s
}

// SetReady flips the /readyz signal. Keep it false while replaying the
// journal so load balancers don't route traffic to a server still rebuilding
// its queue. Equivalent to SetPhase("journal replay") / SetPhase("").
func (s *Server) SetReady(ready bool) {
	if ready {
		s.SetPhase("")
	} else {
		s.SetPhase("journal replay")
	}
}

// SetPhase names the startup work still in progress ("" = done). While a
// phase is set, /readyz answers 503 with {"status":"degraded","reason":phase}
// — distinct from draining — so orchestrators can tell a cold node from a
// dying one. Used for journal replay and fabric worker registration.
func (s *Server) SetPhase(phase string) { s.phase.Store(phase) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// JobRequest is the JSON submission body. Zero values take the evaluation
// defaults (seed 42, scale 1.0, 4B4L, base+psm).
type JobRequest struct {
	Kernel  string  `json:"kernel"`
	System  string  `json:"system,omitempty"`
	Variant string  `json:"variant,omitempty"`
	Seed    *uint64 `json:"seed,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Check   *bool   `json:"check,omitempty"`
	NBig    int     `json:"nbig,omitempty"`
	NLit    int     `json:"nlit,omitempty"`
	// Elastic turns on elastic work-stealing; Topology replaces the
	// system's 2-class core mix with an N-way class list.
	Elastic  bool             `json:"elastic,omitempty"`
	Topology []core.CoreClass `json:"topology,omitempty"`

	WithTrace      bool          `json:"with_trace,omitempty"`
	MemStall       bool          `json:"mem_stall,omitempty"`
	AdaptiveDVFS   bool          `json:"adaptive_dvfs,omitempty"`
	CacheModel     bool          `json:"cache_model,omitempty"`
	DisableBiasing bool          `json:"disable_biasing,omitempty"`
	MaxEvents      uint64        `json:"max_events,omitempty"`
	Faults         *fault.Config `json:"faults,omitempty"`

	Priority  int   `json:"priority,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	NoCache   bool  `json:"no_cache,omitempty"`
}

// ToSpec resolves the request into a validated core.Spec.
func (req JobRequest) ToSpec() (core.Spec, error) {
	sysName := req.System
	if sysName == "" {
		sysName = "4B4L"
	}
	sys, ok := core.ParseSystem(sysName)
	if !ok && req.NBig == 0 {
		return core.Spec{}, fmt.Errorf("unknown system %q", req.System)
	}
	variant := req.Variant
	if variant == "" {
		variant = "base+psm"
	}
	v, ok := wsrt.ParseVariant(variant)
	if !ok {
		return core.Spec{}, fmt.Errorf("unknown variant %q", req.Variant)
	}
	spec := core.Spec{
		Kernel:         req.Kernel,
		System:         sys,
		Variant:        v,
		Seed:           42,
		Scale:          req.Scale,
		WithTrace:      req.WithTrace,
		MemStall:       req.MemStall,
		Check:          true,
		AdaptiveDVFS:   req.AdaptiveDVFS,
		CacheModel:     req.CacheModel,
		DisableBiasing: req.DisableBiasing,
		NBig:           req.NBig,
		NLit:           req.NLit,
		Elastic:        req.Elastic,
		Topology:       req.Topology,
		MaxEvents:      req.MaxEvents,
		Faults:         req.Faults,
	}
	if req.Seed != nil {
		spec.Seed = *req.Seed
	}
	if req.Check != nil {
		spec.Check = *req.Check
	}
	return Normalize(spec), nil
}

func (req JobRequest) submitOptions() SubmitOptions {
	return SubmitOptions{
		Priority: req.Priority,
		Timeout:  time.Duration(req.TimeoutMs) * time.Millisecond,
		NoCache:  req.NoCache,
	}
}

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID         string          `json:"id"`
	SpecHash   string          `json:"spec_hash"`
	State      string          `json:"state"`
	Tenant     string          `json:"tenant,omitempty"`
	Kernel     string          `json:"kernel"`
	System     string          `json:"system"`
	Variant    string          `json:"variant"`
	Seed       uint64          `json:"seed"`
	CacheHit   bool            `json:"cache_hit"`
	Coalesced  bool            `json:"coalesced"`
	Attempts   int             `json:"attempts,omitempty"`
	Error      string          `json:"error,omitempty"`
	ElapsedMs  float64         `json:"elapsed_ms,omitempty"`
	ResultHash string          `json:"result_hash,omitempty"`
	Report     json.RawMessage `json:"report,omitempty"`
}

func statusOf(s Snapshot) JobStatus {
	js := JobStatus{
		ID:        s.ID,
		SpecHash:  s.SpecHash,
		State:     s.State.String(),
		Tenant:    s.Tenant,
		Kernel:    s.Spec.Kernel,
		System:    s.Spec.System.String(),
		Variant:   s.Spec.Variant.String(),
		Seed:      s.Spec.Seed,
		CacheHit:  s.CacheHit,
		Coalesced: s.Coalesced,
		Attempts:  s.Attempts,
	}
	if s.Err != nil {
		js.Error = s.Err.Error()
	}
	if d := s.Elapsed(); d > 0 {
		js.ElapsedMs = float64(d) / float64(time.Millisecond)
	}
	if s.State == StateDone {
		js.ResultHash = ResultHash(s.Data)
		js.Report = json.RawMessage(s.Data)
	}
	return js
}

// maxTenantKeyLen bounds the accepted tenant identity; longer keys are
// rejected rather than truncated (truncation would silently merge tenants).
const maxTenantKeyLen = 128

// tenantFrom extracts the caller's tenant identity: the X-AAWS-Client header
// when present (multi-tenant proxies), else the remote host. The one helper
// feeds rate limiting, weighted-fair scheduling, and cache quotas, so every
// layer agrees on who a request belongs to. An explicitly empty or oversized
// header is a client error (400) — silently bucketing malformed identities
// together would let them share (and exhaust) one tenant's quota.
func tenantFrom(r *http.Request) (string, error) {
	if vals, ok := r.Header["X-Aaws-Client"]; ok {
		k := vals[0]
		switch {
		case k == "":
			return "", errors.New("X-AAWS-Client header present but empty")
		case len(k) > maxTenantKeyLen:
			return "", fmt.Errorf("X-AAWS-Client header exceeds %d bytes", maxTenantKeyLen)
		}
		return k, nil
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host, nil
	}
	return r.RemoteAddr, nil
}

// decodeBody parses a capped JSON body into v, writing the appropriate
// error response (413 for oversized, 400 for malformed) on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// rateLimit enforces the per-tenant token bucket, answering 429 with a
// Retry-After header when the bucket is dry.
func (s *Server) rateLimit(w http.ResponseWriter, tenant string) bool {
	ok, wait := s.limiter.Allow(tenant)
	if !ok {
		writeRetryError(w, http.StatusTooManyRequests,
			&RetryAfterError{Err: ErrRateLimited, RetryAfter: wait})
		return false
	}
	return true
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.rateLimit(w, tenant) {
		return
	}
	var req JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	spec, err := req.ToSpec()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opts := req.submitOptions()
	opts.Tenant = tenant
	job, err := s.ex.Submit(spec, opts)
	if err != nil {
		s.submitError(w, err)
		return
	}
	snap, _ := s.ex.Get(job.ID)
	code := http.StatusAccepted
	if snap.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, statusOf(snap))
}

// SweepRequest submits the cross product kernels × systems × variants ×
// seeds as one batch. Empty lists default to all kernels / 4B4L / all five
// variants / seed 42.
type SweepRequest struct {
	Kernels  []string `json:"kernels,omitempty"`
	Systems  []string `json:"systems,omitempty"`
	Variants []string `json:"variants,omitempty"`
	Seeds    []uint64 `json:"seeds,omitempty"`
	Scale    float64  `json:"scale,omitempty"`
	Check    bool     `json:"check,omitempty"`
	// Elastic turns on elastic work-stealing for every cell; Topology
	// replaces each system's 2-class core mix with an N-way class list.
	Elastic  bool             `json:"elastic,omitempty"`
	Topology []core.CoreClass `json:"topology,omitempty"`

	Priority  int   `json:"priority,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	NoCache   bool  `json:"no_cache,omitempty"`
}

// SweepResponse lists the submitted jobs in matrix order.
type SweepResponse struct {
	Count int      `json:"count"`
	IDs   []string `json:"ids"`
}

// Specs expands the request into its cell specs in matrix order, applying
// the defaults (all kernels / 4B4L / all five variants / seed 42). The same
// expansion serves the single-node sweep endpoint and the fabric
// coordinator's, so a matrix shards into exactly the cells it would run
// locally.
func (req SweepRequest) Specs() ([]core.Spec, error) {
	kernelNames := req.Kernels
	if len(kernelNames) == 0 {
		kernelNames = kernels.Names()
	}
	systems := req.Systems
	if len(systems) == 0 {
		systems = []string{"4B4L"}
	}
	variantNames := req.Variants
	if len(variantNames) == 0 {
		for _, v := range wsrt.Variants {
			variantNames = append(variantNames, v.String())
		}
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{42}
	}
	var specs []core.Spec
	for _, kname := range kernelNames {
		for _, sysName := range systems {
			sys, ok := core.ParseSystem(sysName)
			if !ok {
				return nil, fmt.Errorf("unknown system %q", sysName)
			}
			for _, vname := range variantNames {
				v, ok := wsrt.ParseVariant(vname)
				if !ok {
					return nil, fmt.Errorf("unknown variant %q", vname)
				}
				for _, seed := range seeds {
					specs = append(specs, core.Spec{
						Kernel: kname, System: sys, Variant: v,
						Seed: seed, Scale: req.Scale, Check: req.Check,
						Elastic: req.Elastic, Topology: req.Topology,
					})
				}
			}
		}
	}
	return specs, nil
}

func (s *Server) submitSweep(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.rateLimit(w, tenant) {
		return
	}
	var req SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	specs, err := req.Specs()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Sweep matrices run in the concurrency-limited sweep class so a big
	// batch cannot occupy every worker and starve interactive jobs.
	opts := SubmitOptions{
		Priority: req.Priority,
		Class:    ClassSweep,
		Tenant:   tenant,
		Timeout:  time.Duration(req.TimeoutMs) * time.Millisecond,
		NoCache:  req.NoCache,
	}
	// The matrix goes down as one gang: fresh cells run together through
	// the partitioned batch path on a single worker (and a single
	// sweep-class slot), while cache hits and duplicates still resolve per
	// cell.
	batch, err := s.ex.SubmitBatch(specs, opts)
	if err != nil {
		s.submitError(w, err)
		return
	}
	var resp SweepResponse
	for _, job := range batch {
		resp.IDs = append(resp.IDs, job.ID)
	}
	resp.Count = len(resp.IDs)
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	if q.Get("wait") != "" || q.Get("wait_ms") != "" {
		// Long-poll: block on the request context so a disconnecting
		// client releases the handler immediately — and, on request,
		// cancels the job it was waiting for (nobody left to read the
		// result).
		ctx := r.Context()
		if ms, err := strconv.Atoi(q.Get("wait_ms")); err == nil && ms > 0 {
			var cancel func()
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}
		snap, err := s.ex.Wait(ctx, id)
		switch {
		case errors.Is(err, ErrUnknownJob):
			httpError(w, http.StatusNotFound, err)
			return
		case err != nil:
			if r.Context().Err() != nil && q.Get("cancel_on_disconnect") != "" {
				_, _ = s.ex.Cancel(id)
				return // client is gone; nothing to write
			}
			// wait_ms elapsed: report current state like a plain GET.
			snap, err = s.ex.Get(id)
			if err != nil {
				httpError(w, http.StatusNotFound, err)
				return
			}
		}
		writeJSON(w, http.StatusOK, statusOf(snap))
		return
	}
	snap, err := s.ex.Get(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, statusOf(snap))
}

func (s *Server) getReport(w http.ResponseWriter, r *http.Request) {
	snap, err := s.ex.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	if snap.State != StateDone {
		httpError(w, http.StatusConflict, fmt.Errorf("job is %s, report not available", snap.State))
		return
	}
	etag := `"` + ResultHash(snap.Data) + `"`
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap.Data)
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	state, err := s.ex.Cancel(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": state.String()})
}

// traceRecorder fetches a job's recorder, writing the appropriate HTTP
// error when unavailable.
func (s *Server) traceRecorder(w http.ResponseWriter, r *http.Request) (*trace.Recorder, Snapshot, bool) {
	rec, snap, err := s.ex.TraceRecorder(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return nil, Snapshot{}, false
	}
	if !snap.State.Terminal() {
		httpError(w, http.StatusConflict, fmt.Errorf("job is %s, trace not available yet", snap.State))
		return nil, Snapshot{}, false
	}
	if rec == nil {
		httpError(w, http.StatusNotFound, errors.New(
			"no trace: submit with with_trace=true and no_cache=true (cached/coalesced results carry no recorder)"))
		return nil, Snapshot{}, false
	}
	return rec, snap, true
}

// TraceStage is one wall-clock lifecycle segment in the /trace response,
// with bounds in milliseconds since submission.
type TraceStage struct {
	Stage   string  `json:"stage"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// TraceResponse is the JSON body of GET /v1/jobs/{id}/trace: the job's
// wall-clock lifecycle (submit → queue → execute) plus the simulation's
// scheduler/DVFS event ring.
type TraceResponse struct {
	ID       string          `json:"id"`
	Kernel   string          `json:"kernel"`
	System   string          `json:"system"`
	Variant  string          `json:"variant"`
	Seed     uint64          `json:"seed"`
	Attempts int             `json:"attempts,omitempty"`
	Stages   []TraceStage    `json:"stages"`
	Sched    json.RawMessage `json:"sched"`
}

// getTrace serves the structured run trace. Like the SVG/CSV profile
// endpoints it requires a job that simulated locally with with_trace=true
// (cache hits and coalesced duplicates carry no ring).
func (s *Server) getTrace(w http.ResponseWriter, r *http.Request) {
	sched, snap, err := s.ex.SchedTrace(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	if !snap.State.Terminal() {
		httpError(w, http.StatusConflict, fmt.Errorf("job is %s, trace not available yet", snap.State))
		return
	}
	if sched == nil {
		httpError(w, http.StatusNotFound, errors.New(
			"no trace: submit with with_trace=true and no_cache=true (cached/coalesced results carry no event ring)"))
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		_ = sched.WriteCSV(w)
		return
	}
	ms := func(t time.Time) float64 {
		return float64(t.Sub(snap.Submitted)) / float64(time.Millisecond)
	}
	resp := TraceResponse{
		ID:       snap.ID,
		Kernel:   snap.Spec.Kernel,
		System:   snap.Spec.System.String(),
		Variant:  snap.Spec.Variant.String(),
		Seed:     snap.Spec.Seed,
		Attempts: snap.Attempts,
		Stages: []TraceStage{
			{Stage: "queued", StartMs: 0, EndMs: ms(snap.Started)},
			{Stage: "running", StartMs: ms(snap.Started), EndMs: ms(snap.Finished)},
		},
	}
	var buf bytes.Buffer
	if err := sched.WriteJSON(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	resp.Sched = buf.Bytes()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) getTraceSVG(w http.ResponseWriter, r *http.Request) {
	rec, snap, ok := s.traceRecorder(w, r)
	if !ok {
		return
	}
	marks := schedMarks(s.ex, snap.ID)
	w.Header().Set("Content-Type", "image/svg+xml")
	if err := rec.WriteSVGWithMarks(w, core.CoreLabels(snap.Spec), 1600, marks); err != nil {
		// Headers are gone; all we can do is stop streaming.
		return
	}
}

// schedMarks projects the job's scheduler event ring onto SVG overlay dots:
// green for steals, orange for mug deliveries, red for core fail-stops.
// Returns nil when the job has no ring.
func schedMarks(ex *Executor, id string) []trace.Mark {
	sched, _, err := ex.SchedTrace(id)
	if err != nil || sched == nil {
		return nil
	}
	var marks []trace.Mark
	for _, e := range sched.Events() {
		var color string
		switch e.Kind {
		case obs.KindSteal:
			color = "#2ca02c"
		case obs.KindMugDelivered:
			color = "#ff7f0e"
		case obs.KindCoreFail:
			color = "#d62728"
		default:
			continue
		}
		marks = append(marks, trace.Mark{At: e.At, Core: int(e.Core), Color: color})
	}
	return marks
}

func (s *Server) getTraceCSV(w http.ResponseWriter, r *http.Request) {
	rec, snap, ok := s.traceRecorder(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_ = rec.WriteCSV(w, core.CoreLabels(snap.Spec), 200)
}

// metrics renders the unified registry: the executor's live instruments
// (latency histograms, simulator counters) plus the legacy snapshot series,
// synced under their historical names just before the scrape.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	m := s.ex.Metrics()
	var rl *RateLimiterStats
	if s.limiter != nil {
		st := s.limiter.Stats()
		rl = &st
	}
	reg := s.ex.Registry()
	syncLegacyMetrics(reg, m, rl)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = reg.Render(w)
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.ex.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.ex.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if phase, _ := s.phase.Load().(string); phase != "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"reason": phase,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// retryAfterSeconds converts a back-off hint to whole seconds, rounded up
// with a floor of 1 — a sub-second wait must never serialize as "0", which
// clients read as "retry immediately" and turn into a retry stampede. The
// same value feeds the Retry-After header and the JSON error body so the
// two can never disagree.
func retryAfterSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// retryErrorBody is the JSON body of a 429/503 rejection. RetryAfterSec
// matches the Retry-After header; RetryHint tells well-behaved clients how
// to decorrelate their retries.
type retryErrorBody struct {
	Error         string `json:"error"`
	RetryAfterSec int64  `json:"retry_after_s"`
	RetryHint     string `json:"retry_hint"`
}

// writeRetryError answers an overload rejection: Retry-After header (whole
// seconds, rounded up) plus a structured body carrying the same wait and
// deterministic-jitter guidance, so a burst of rejected clients does not
// come back in lockstep at second granularity.
func writeRetryError(w http.ResponseWriter, code int, err error) {
	ra, _ := RetryAfterOf(err)
	secs := retryAfterSeconds(ra)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, code, retryErrorBody{
		Error:         err.Error(),
		RetryAfterSec: secs,
		RetryHint: fmt.Sprintf(
			"wait retry_after_s plus deterministic jitter, e.g. (hash(client_id, attempt) mod %d) ms, before retrying",
			secs*500),
	})
}

// submitError maps a Submit rejection onto HTTP: 503 for draining and
// overload shedding, 429 for a full queue, 400 otherwise. Rejections that
// carry a back-off hint get a Retry-After header and the structured
// retry body.
func (s *Server) submitError(w http.ResponseWriter, err error) {
	_, retryable := RetryAfterOf(err)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrOverloaded):
		if retryable {
			writeRetryError(w, http.StatusServiceUnavailable, err)
			return
		}
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		writeRetryError(w, http.StatusTooManyRequests, err)
	default:
		httpError(w, http.StatusBadRequest, err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
