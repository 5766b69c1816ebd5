package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/wsrt"
)

// Arrival mix of serve-jobs. The rate is fixed, at about half of what the
// service sustains on a 2-core box, so that queues stay short but both
// executor workers are often busy.
const (
	serveRate   = 150.0 // arrivals per second
	hotShare    = 0.70  // replays of a hot spec: cache-hit reads
	sweepPerSec = 0.5   // small /v1/sweeps requests per second
	nHot        = 4
	nTenants    = 3
	sweepCells  = 2 // kernels per sweep request, each with all five variants
	// lateLimitMs marks a run invalid when the generator's tail lateness
	// exceeds it: the latencies would then measure the harness.
	lateLimitMs = 50.0
)

// hotKernels are the kernels of the hot specs; their seeds come from the
// workload seed.
var hotKernels = [nHot]string{"cilksort", "bfs-d", "matmul", "dict"}

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindSweep
)

func (k reqKind) String() string { return [...]string{"hit", "miss", "sweep"}[k] }

// arrival is one scheduled request.
type arrival struct {
	due    time.Duration // offset from the start of the timed phase
	kind   reqKind
	tenant string
	hot    int       // kindHit: index into the hot specs
	spec   core.Spec // kindMiss: the fresh spec
	sweep  []string  // kindSweep: kernels
	seed   uint64    // kindSweep: seed of every cell
}

// schedule generates the arrivals of a run: a Poisson process at rate
// conditioned on its count, i.e. round(rate·seconds) uniform arrival times,
// with the order of kinds, tenants, hot-spec picks and fresh seeds all drawn
// from seed.
// Fresh specs walk the kernels and variants in a fixed order so every seed
// simulates the same mix of kernels.
func schedule(seed uint64, seconds, rate float64) []arrival {
	rng := seedStream(seed, 1)
	n := int(rate*seconds + 0.5)
	span := time.Duration(seconds * float64(time.Second))
	out := make([]arrival, n)
	for i := range out {
		out[i].due = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	// The mix is exact, not drawn per arrival, so every seed offers the same
	// number of hits, misses and sweeps; only their order varies.
	kinds := make([]reqKind, n)
	nSweep := int(sweepPerSec*seconds + 0.5)
	nHit := int(hotShare*float64(n-nSweep) + 0.5)
	for i := range kinds {
		switch {
		case i < nSweep:
			kinds[i] = kindSweep
		case i < nSweep+nHit:
			kinds[i] = kindHit
		default:
			kinds[i] = kindMiss
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	names := kernels.Names()
	freshBase, sweepBase := rng.Uint64(), rng.Uint64()
	var fresh, sweeps int
	for i := range out {
		a := &out[i]
		a.kind = kinds[i]
		switch a.kind {
		case kindSweep:
			a.tenant = "sweeper"
			for c := 0; c < sweepCells; c++ {
				a.sweep = append(a.sweep, names[(sweeps*sweepCells+c)%len(names)])
			}
			a.seed = sweepBase + uint64(sweeps)
			sweeps++
			continue
		case kindHit:
			a.hot = rng.IntN(nHot)
		case kindMiss:
			a.spec = core.Spec{
				Kernel:  names[fresh%len(names)],
				Variant: wsrt.Variants[(fresh/len(names))%len(wsrt.Variants)],
				Seed:    freshBase + uint64(fresh),
				Scale:   1,
			}
			fresh++
		}
		a.tenant = "tenant-" + strconv.Itoa(rng.IntN(nTenants))
	}
	return out
}

// hotSpecs returns the hot specs of a seed.
func hotSpecs(seed uint64) []core.Spec {
	rng := seedStream(seed, 2)
	out := make([]core.Spec, nHot)
	for i, k := range hotKernels {
		out[i] = core.Spec{Kernel: k, Variant: wsrt.BasePSM, Seed: rng.Uint64(), Scale: 1}
	}
	return out
}

// serve is the serve-jobs workload: an in-process jobs.Server with an
// executor of nproc workers and a memory+disk cache, reached over loopback
// by at most nproc client connections.
type serve struct {
	seed    uint64
	dir     string
	rate    float64
	conns   int
	ex      *jobs.Executor
	hs      *http.Server
	base    string
	client  *http.Client
	hot     []core.Spec
	hotHash []string
}

func newServe(seed uint64, dir string, rate float64) *serve {
	return &serve{seed: seed, dir: dir, rate: rate, conns: runtime.NumCPU()}
}

func (s *serve) setup() error {
	cache, err := jobs.NewCache(1<<14, s.dir)
	if err != nil {
		return err
	}
	s.ex = jobs.NewExecutor(jobs.Config{Workers: runtime.NumCPU(), Cache: cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: jobs.NewServer(s.ex)}
	go s.hs.Serve(ln)
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     s.conns,
		MaxIdleConnsPerHost: s.conns,
		DisableCompression:  true,
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// One sweep of the 4B4L matrix at a seed of its own generates every LUT
	// and fills the engine cache, the once-per-process cost a service pays
	// before its first request of each kernel.
	body, err := json.Marshal(jobs.SweepRequest{Seeds: []uint64{seedStream(s.seed, 5).Uint64()}, Scale: 1})
	if err != nil {
		return err
	}
	var sr jobs.SweepResponse
	if _, err := s.post(ctx, "/v1/sweeps", "warmup", body, &sr); err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}
	for _, id := range sr.IDs {
		if snap, err := s.ex.Wait(ctx, id); err != nil || snap.State != jobs.StateDone {
			return fmt.Errorf("warm-up sweep job %s: %v %v", id, err, snap.Err)
		}
	}
	// Warm the hot specs: each misses once here, and every later request
	// for it must hit with the result hash recorded now.
	s.hot = hotSpecs(s.seed)
	for _, spec := range s.hot {
		st, _, err := s.postJob(ctx, "warmup", spec)
		if err != nil {
			return fmt.Errorf("warming %s: %w", spec.Kernel, err)
		}
		snap, err := s.ex.Wait(ctx, st.ID)
		if err != nil {
			return err
		}
		if snap.State != jobs.StateDone {
			return fmt.Errorf("warming %s: job %s: %v", spec.Kernel, snap.State, snap.Err)
		}
		s.hotHash = append(s.hotHash, jobs.ResultHash(snap.Data))
	}
	return nil
}

func (s *serve) close() {
	if s.hs != nil {
		s.hs.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.ex != nil {
		s.ex.Close()
	}
}

func jobBody(spec core.Spec) ([]byte, error) {
	seed := spec.Seed
	return json.Marshal(jobs.JobRequest{
		Kernel: spec.Kernel, Variant: spec.Variant.String(), Seed: &seed, Scale: spec.Scale,
	})
}

// post sends one JSON request and decodes the response into out.
func (s *serve) post(ctx context.Context, path, tenant string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-AAWS-Client", tenant)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(buf))
	}
	return resp.StatusCode, json.Unmarshal(buf, out)
}

// jobReply is the part of a jobs.JobStatus reply the benchmark reads; the
// embedded report is skipped so the harness does not keep it alive.
type jobReply struct {
	ID         string `json:"id"`
	CacheHit   bool   `json:"cache_hit"`
	ResultHash string `json:"result_hash"`
}

func (s *serve) postJob(ctx context.Context, tenant string, spec core.Spec) (jobReply, int, error) {
	var st jobReply
	body, err := jobBody(spec)
	if err != nil {
		return st, 0, err
	}
	code, err := s.post(ctx, "/v1/jobs", tenant, body, &st)
	return st, code, err
}

// outcome is what one request produced, recorded for the metrics and for
// the checks made after the timed phase.
type outcome struct {
	a       arrival
	traced  bool
	late    time.Duration // send time minus due time
	sent    time.Time
	replied time.Time
	end     time.Time // answer complete: reply for hits, last job done otherwise
	err     error
	status  jobReply
	ids     []string        // jobs to check after the run
	snaps   []jobs.Snapshot // their final snapshots
}

func (s *serve) run(ctx context.Context, seconds float64, tr *tracer, res *result) error {
	sched := schedule(s.seed, seconds, s.rate)
	before := s.ex.Metrics()
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 1024) // bounds in-flight requests, not arrivals
	start := time.Now()
	for i := range sched {
		due := start.Add(sched[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return ctx.Err()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			o := &outs[i]
			o.a = sched[i]
			o.sent = time.Now()
			o.late = o.sent.Sub(due)
			o.traced = tr != nil && i%2 == 1
			s.do(ctx, o)
		}(i)
	}
	wg.Wait()
	after := s.ex.Metrics()
	s.account(start, outs, before, after, tr, res)
	res.note("open loop: %d arrivals at %.4g/s over %gs, %d client connections, %d tenants + sweeper",
		len(sched), s.rate, seconds, s.conns, nTenants)
	return nil
}

// do sends one request and waits for its answer: the reply for a hit, the
// executor's completion of every accepted job otherwise.
func (s *serve) do(ctx context.Context, o *outcome) {
	switch o.a.kind {
	case kindHit, kindMiss:
		spec := o.a.spec
		if o.a.kind == kindHit {
			spec = s.hot[o.a.hot]
		}
		var code int
		o.status, code, o.err = s.postJob(ctx, o.a.tenant, spec)
		o.replied = time.Now()
		o.end = o.replied
		if o.err != nil {
			return
		}
		o.ids = []string{o.status.ID}
		if code == http.StatusAccepted {
			o.err = s.waitAll(ctx, o)
		}
	case kindSweep:
		body, err := json.Marshal(jobs.SweepRequest{Kernels: o.a.sweep, Seeds: []uint64{o.a.seed}, Scale: 1})
		if err != nil {
			o.err = err
			return
		}
		var sr jobs.SweepResponse
		_, o.err = s.post(ctx, "/v1/sweeps", o.a.tenant, body, &sr)
		o.replied = time.Now()
		o.end = o.replied
		if o.err != nil {
			return
		}
		o.ids = sr.IDs
		o.err = s.waitAll(ctx, o)
	}
}

// waitAll observes the completion of o's jobs through the in-process
// executor, so no connection is held in a long poll.
func (s *serve) waitAll(ctx context.Context, o *outcome) error {
	for _, id := range o.ids {
		snap, err := s.ex.Wait(ctx, id)
		if err != nil {
			return err
		}
		if snap.Finished.After(o.end) {
			o.end = snap.Finished
		}
	}
	return nil
}

// account checks every answer and turns the outcomes into metrics.
func (s *serve) account(start time.Time, outs []outcome, before, after jobs.Metrics, tr *tracer, res *result) {
	var (
		all, hit, miss, sweep, late dist
		queue, run, httpSelf        dist
		traced, untraced            dist
		cells                       int
		events                      float64
		last                        time.Time
		answers                     [][]byte // every answer's bytes, in schedule order
	)
	for i := range outs {
		o := &outs[i]
		res.attempted++
		lat := ms(o.end.Sub(start.Add(o.a.due)))
		late.add(ms(o.late))
		if o.err != nil {
			res.fail(1, "%s request %d: %v", o.a.kind, i, o.err)
			continue
		}
		// A request fails once, however many of its checks fail.
		bad := s.checkAnswer(o)
		for _, id := range o.ids {
			snap, err := s.ex.Get(id)
			if err != nil {
				bad = errors.Join(bad, fmt.Errorf("job %s: %w", id, err))
				continue
			}
			o.snaps = append(o.snaps, snap)
			answers = append(answers, snap.Data)
			if snap.CacheHit || snap.Coalesced {
				continue
			}
			queue.add(ms(snap.Started.Sub(snap.Submitted)))
			run.add(ms(snap.Finished.Sub(snap.Started)))
			if err := checkSnapshot(snap, res, &events); err != nil {
				bad = errors.Join(bad, fmt.Errorf("job %s: %w", id, err))
			}
		}
		if bad != nil {
			res.fail(1, "%s request %d: %v", o.a.kind, i, bad)
			continue
		}
		cells += len(o.ids)
		if o.end.After(last) {
			last = o.end
		}
		// Job requests are the operation; a sweep, ten cells as one gang,
		// has its own latency view.
		switch o.a.kind {
		case kindHit:
			hit.add(lat)
			all.add(lat)
		case kindMiss:
			miss.add(lat)
			all.add(lat)
		case kindSweep:
			sweep.add(lat)
		}
		if tr != nil {
			if o.traced {
				traced.add(lat)
				httpSelf.add(s.traceRequest(tr, start, o))
			} else {
				untraced.add(lat)
			}
		}
	}
	if el := last.Sub(start).Seconds(); el > 0 {
		res.e2e["cells_per_s"] = metric{Value: float64(cells) / el, Unit: "1/s", N: cells}
	}
	if el := last.Sub(start).Seconds(); el > 0 {
		res.e2e["sim_events_per_s"] = metric{Value: events / el, Unit: "1/s", N: run.n()}
	}
	res.fingerprint = fabric.Fingerprint(answers)
	latency(res.e2e, "op", &all)
	latency(res.extra, "hit", &hit)
	latency(res.extra, "miss", &miss)
	res.extra["sweepreq_p50_ms"] = metric{Value: sweep.p50(), Unit: "ms", N: sweep.n()}
	res.extra["arrival_rate"] = metric{Value: s.rate, Unit: "1/s", N: len(outs)}
	res.extra["client_connections"] = metric{Value: float64(s.conns), Unit: "count"}

	latency(res.layer, "jobs.queue_wait", &queue)
	res.layer["jobs.run_p50_ms"] = metric{Value: run.p50(), Unit: "ms", N: run.n()}
	sub := after.Submitted - before.Submitted
	if sub > 0 {
		res.layer["jobs.cache_hit_ratio"] = metric{Value: float64(after.CacheHits-before.CacheHits) / float64(sub), Unit: "ratio", N: int(sub)}
	}
	res.layer["jobs.shed"] = metric{Value: float64(after.Shed - before.Shed), Unit: "count"}
	v, p := late.tail()
	res.layer["gen.late_tail_ms"] = metric{Value: v, Unit: "ms", N: late.n(), P: p}
	if v > lateLimitMs {
		res.invalid = fmt.Sprintf("generator ran %.3g ms late at p%g (limit %g ms)", v, p, lateLimitMs)
	}
	if tr != nil {
		res.layer["http.overhead_p50_ms"] = metric{Value: httpSelf.p50(), Unit: "ms", N: httpSelf.n()}
		res.layer["trace.overhead_frac"] = overheadFrac(&traced, &untraced)
	}
}

// checkAnswer applies the per-request oracle: a hot spec must hit with the
// result hash recorded when it missed; a fresh spec must not hit; a sweep
// must fan out into every cell.
func (s *serve) checkAnswer(o *outcome) error {
	switch o.a.kind {
	case kindHit:
		if want := s.hotHash[o.a.hot]; !o.status.CacheHit || o.status.ResultHash != want {
			return fmt.Errorf("hot spec %d: cache_hit=%v result_hash %s, recorded %s",
				o.a.hot, o.status.CacheHit, o.status.ResultHash, want)
		}
	case kindMiss:
		if o.status.CacheHit {
			return fmt.Errorf("fresh spec %s seed %d answered from cache", o.a.spec.Kernel, o.a.spec.Seed)
		}
	case kindSweep:
		if want := sweepCells * len(wsrt.Variants); len(o.ids) != want {
			return fmt.Errorf("sweep returned %d jobs, want %d", len(o.ids), want)
		}
	}
	return nil
}

// checkSnapshot verifies a simulated job's stored outcome and adds its
// simulated statistics.
func checkSnapshot(snap jobs.Snapshot, res *result, events *float64) error {
	if snap.State != jobs.StateDone {
		return fmt.Errorf("state %s: %v", snap.State, snap.Err)
	}
	out, err := jobs.DecodeOutcome(snap.Data)
	if err != nil {
		return err
	}
	if err := out.ToResult(snap.Spec).Verify(); err != nil {
		return err
	}
	*events += float64(out.Report.Events)
	res.sims.add(out.Report)
	return nil
}

// traceRequest records a traced request's spans: the request from its due
// time, the client round trip, and under it the executor's span for each
// job (split into queue wait and run for simulated jobs). It returns the
// round trip's self time in ms: the HTTP layer's share.
func (s *serve) traceRequest(tr *tracer, start time.Time, o *outcome) float64 {
	id := tr.newTrace()
	root := tr.record("serve."+o.a.kind.String(), -1, id, start.Add(o.a.due), o.end)
	rt := tr.record("http.roundtrip", root, id, o.sent, o.replied)
	for _, snap := range o.snaps {
		ex := tr.record("jobs.executor", rt, id, snap.Submitted, snap.Finished)
		if !snap.Started.IsZero() {
			tr.record("jobs.queue", ex, id, snap.Submitted, snap.Started)
			tr.record("jobs.run", ex, id, snap.Started, snap.Finished)
		}
	}
	self := selfTimes(tr.from(rt))
	return float64(self[rt]) / 1e6
}
