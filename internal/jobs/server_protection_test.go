package jobs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
)

// newProtectedServer stands up the HTTP API with explicit ServerOptions.
func newProtectedServer(t *testing.T, cfg jobs.Config, opts jobs.ServerOptions) (*httptest.Server, *jobs.Server, *jobs.Executor) {
	t.Helper()
	if cfg.Cache == nil {
		cache, err := jobs.NewCache(64, "")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
	}
	ex := jobs.NewExecutor(cfg)
	api := jobs.NewServerWithOptions(ex, opts)
	ts := httptest.NewServer(api)
	t.Cleanup(func() {
		ts.Close()
		ex.Close()
	})
	return ts, api, ex
}

// TestServerBodyTooLarge sends a body past the configured cap: the server
// must answer 413 without reading the excess.
func TestServerBodyTooLarge(t *testing.T) {
	ts, _, _ := newProtectedServer(t, jobs.Config{Workers: 1},
		jobs.ServerOptions{MaxBodyBytes: 256})
	huge := fmt.Sprintf(`{"kernel":"cilksort","system":"%s"}`, strings.Repeat("x", 1024))
	code, m := postJSON(t, ts.URL+"/v1/jobs", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %v, want 413", code, m)
	}
	// A normal-sized body on the same server still works.
	code, _ = postJSON(t, ts.URL+"/v1/jobs", `{"kernel":"cilksort","scale":0.1}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("normal body after 413: %d", code)
	}
	// Sweeps share the cap.
	code, _ = postJSON(t, ts.URL+"/v1/sweeps", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized sweep body: %d, want 413", code)
	}
}

// TestServerRateLimit429 exhausts one client's token bucket: further
// submissions get 429 with a Retry-After header while a different client
// (distinguished by X-AAWS-Client) still submits freely.
func TestServerRateLimit429(t *testing.T) {
	ts, _, _ := newProtectedServer(t,
		jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			return fakeResult(spec), nil
		}},
		jobs.ServerOptions{RatePerSec: 0.001, Burst: 2}) // effectively no refill mid-test
	post := func(client string, seed int) *http.Response {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs",
			strings.NewReader(fmt.Sprintf(`{"kernel":"cilksort","seed":%d}`, seed)))
		req.Header.Set("X-AAWS-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := post("alice", i); resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("burst submission %d: %d", i, resp.StatusCode)
		}
	}
	resp := post("alice", 99)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submission: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if resp := post("bob", 0); resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("independent client rate limited by alice's bucket")
	}
}

// TestServerOverloadBurst is the overload acceptance test: with a tiny
// queue and slow jobs, a burst of 10× queue capacity must mostly be shed —
// 503 (overload) or 429 (queue full), every rejection carrying Retry-After —
// while every admitted job still completes.
func TestServerOverloadBurst(t *testing.T) {
	const queueDepth = 5
	ts, _, ex := newProtectedServer(t,
		jobs.Config{
			Workers:    1,
			QueueDepth: queueDepth,
			Admission:  jobs.AdmissionConfig{MaxWait: 20 * time.Millisecond},
			Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
				time.Sleep(30 * time.Millisecond)
				return fakeResult(spec), nil
			},
		},
		jobs.ServerOptions{})
	// Seed the latency estimate so shedding has data.
	code, m := postJSON(t, ts.URL+"/v1/jobs", `{"kernel":"cilksort","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("seed job: %d %v", code, m)
	}
	awaitJob(t, ts.URL, m["id"].(string))

	type outcome struct {
		code       int
		id         string
		retryAfter string
	}
	var mu sync.Mutex
	var got []outcome
	var wg sync.WaitGroup
	for i := 0; i < 10*queueDepth; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
				strings.NewReader(fmt.Sprintf(`{"kernel":"cilksort","seed":%d}`, seed+100)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var body map[string]any
			id := ""
			if decodeErr := jsonDecode(resp.Body, &body); decodeErr == nil {
				id, _ = body["id"].(string)
			}
			mu.Lock()
			got = append(got, outcome{resp.StatusCode, id, resp.Header.Get("Retry-After")})
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	var accepted []string
	shed := 0
	for _, o := range got {
		switch o.code {
		case http.StatusAccepted, http.StatusOK:
			if o.id != "" {
				accepted = append(accepted, o.id)
			}
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			shed++
			if o.retryAfter == "" {
				t.Fatalf("rejection %d without Retry-After", o.code)
			}
		default:
			t.Fatalf("unexpected status %d", o.code)
		}
	}
	if shed == 0 {
		t.Fatal("10× queue capacity burst shed nothing")
	}
	if len(accepted) == 0 {
		t.Fatal("burst admitted nothing — shedding is overzealous")
	}
	t.Logf("burst of %d: %d admitted, %d shed", 10*queueDepth, len(accepted), shed)
	// Every admitted job completes despite the storm.
	for _, id := range accepted {
		if st := awaitJob(t, ts.URL, id); st["state"] != "done" {
			t.Fatalf("admitted job %s: %v", id, st["state"])
		}
	}
	if m := ex.Metrics(); m.Shed == 0 {
		t.Fatalf("executor Shed metric is 0 after a shed burst: %+v", m)
	}
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// TestServerReadyz exercises the readiness gate used during journal replay
// and fabric worker registration: startup phases report degraded (with the
// phase as the reason) — distinct from ok and from draining — so load
// balancers don't route traffic to a cold node.
func TestServerReadyz(t *testing.T) {
	ts, api, _ := newProtectedServer(t, jobs.Config{Workers: 1}, jobs.ServerOptions{})
	code, _ := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("fresh server not ready: %d", code)
	}
	api.SetReady(false)
	code, m := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["status"] != "degraded" || m["reason"] != "journal replay" {
		t.Fatalf("readyz during recovery: %d %v", code, m)
	}
	// Liveness is independent of readiness.
	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz flipped with readiness: %d", code)
	}
	// A fabric worker waiting for its coordinator is degraded too, with its
	// own reason.
	api.SetPhase("worker registration")
	code, m = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["status"] != "degraded" || m["reason"] != "worker registration" {
		t.Fatalf("readyz during registration: %d %v", code, m)
	}
	api.SetReady(true)
	if code, _ := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after recovery: %d", code)
	}
}

// TestServerRejectsSubmissionsDuringReplay: while the journal replays, job
// and sweep submissions get 503 + Retry-After: 1 (a submission accepted
// before replay could collide with the backlog being rebuilt); other
// startup phases only degrade /readyz and keep accepting work.
func TestServerRejectsSubmissionsDuringReplay(t *testing.T) {
	ts, api, _ := newProtectedServer(t, jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		return fakeResult(spec), nil
	}}, jobs.ServerOptions{})
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	api.SetReady(false)
	for _, path := range []string{"/v1/jobs", "/v1/sweeps"} {
		resp := post(path, `{"kernel":"cilksort","kernels":["cilksort"],"variants":["base"]}`)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("%s during replay: %d Retry-After %q, want 503 and 1", path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}

	api.SetPhase("worker registration")
	if resp := post("/v1/jobs", `{"kernel":"cilksort","seed":1}`); resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submission during worker registration: %d, want accepted", resp.StatusCode)
	}
	api.SetReady(true)
	if resp := post("/v1/jobs", `{"kernel":"cilksort","seed":2}`); resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submission after replay: %d, want accepted", resp.StatusCode)
	}
}

// TestServerWaitLongPoll covers GET ?wait: the handler blocks until the job
// completes instead of making the client poll, and wait_ms bounds the block,
// returning the job's current (non-terminal) state on expiry.
func TestServerWaitLongPoll(t *testing.T) {
	release := make(chan struct{})
	ts, _, _ := newProtectedServer(t,
		jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return fakeResult(spec), nil
		}},
		jobs.ServerOptions{})
	code, m := postJSON(t, ts.URL+"/v1/jobs", `{"kernel":"cilksort"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, m)
	}
	id := m["id"].(string)

	// Bounded wait on a stuck job returns its live state.
	code, st := getJSON(t, ts.URL+"/v1/jobs/"+id+"?wait_ms=50")
	if code != http.StatusOK || st["state"] == "done" {
		t.Fatalf("bounded wait: %d %v", code, st)
	}

	// Unbounded wait completes as soon as the job does.
	done := make(chan map[string]any, 1)
	go func() {
		_, st := getJSON(t, ts.URL+"/v1/jobs/"+id+"?wait=1")
		done <- st
	}()
	time.Sleep(20 * time.Millisecond) // let the long-poll park
	close(release)
	select {
	case st := <-done:
		if st["state"] != "done" {
			t.Fatalf("long-poll returned %v", st["state"])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never returned after completion")
	}
}

// TestServerWaitCancelOnDisconnect ties a job's lifetime to its watcher: a
// client that long-polls with cancel_on_disconnect and then goes away must
// cancel the job it was waiting on.
func TestServerWaitCancelOnDisconnect(t *testing.T) {
	started := make(chan struct{}, 1)
	ts, _, ex := newProtectedServer(t,
		jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- struct{}{}
			<-ctx.Done() // run until canceled
			return core.Result{}, ctx.Err()
		}},
		jobs.ServerOptions{})
	code, m := postJSON(t, ts.URL+"/v1/jobs", `{"kernel":"cilksort"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, m)
	}
	id := m["id"].(string)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET",
		ts.URL+"/v1/jobs/"+id+"?wait=1&cancel_on_disconnect=1", nil)
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the long-poll park server-side
	cancel()                          // client disconnects
	<-errc

	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := ex.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == jobs.StateCanceled {
			return
		}
		if snap.State.Terminal() {
			t.Fatalf("job reached %s, want canceled", snap.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect never canceled the job (state %s)", snap.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerSurvivesDiskFaults is the breaker acceptance test at the HTTP
// layer: with the cache's disk store hard-failing, jobs keep completing
// (served and memoized in memory), the breaker trips open, and /metrics
// reports it.
func TestServerSurvivesDiskFaults(t *testing.T) {
	fs := &failingFS{}
	fs.setBroken(true)
	br := jobs.NewBreaker(jobs.BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	cache, err := jobs.NewCacheWith(64, t.TempDir(), fs, br)
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _ := newProtectedServer(t,
		jobs.Config{Workers: 2, Cache: cache, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			return fakeResult(spec), nil
		}},
		jobs.ServerOptions{})

	var first map[string]any
	for i := 0; i < 4; i++ {
		code, m := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"kernel":"cilksort","seed":%d}`, i))
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submission %d during disk outage: %d %v", i, code, m)
		}
		st := awaitJob(t, ts.URL, m["id"].(string))
		if st["state"] != "done" {
			t.Fatalf("job %d during disk outage: %v", i, st)
		}
		if i == 0 {
			first = st
		}
	}
	if br.State() != jobs.BreakerOpen {
		t.Fatalf("disk faults did not trip the breaker: %s", br.State())
	}
	// Identical resubmission is a memory cache hit — no disk involved.
	code, m := postJSON(t, ts.URL+"/v1/jobs", `{"kernel":"cilksort","seed":0}`)
	if code != http.StatusOK || m["cache_hit"] != true {
		t.Fatalf("memory cache miss during outage: %d %v", code, m)
	}
	if m["result_hash"] != first["result_hash"] {
		t.Fatal("cached result diverged from the original")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"aaws_cache_breaker_state 1", // BreakerOpen
		"aaws_cache_breaker_trips_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
