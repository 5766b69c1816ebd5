package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
)

// newTestServer stands up an in-process HTTP API over an executor with the
// given config (a small in-memory cache is added when none is set).
func newTestServer(t *testing.T, cfg jobs.Config) (*httptest.Server, *jobs.Executor) {
	t.Helper()
	if cfg.Cache == nil {
		cache, err := jobs.NewCache(64, "")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
	}
	ex := jobs.NewExecutor(cfg)
	ts := httptest.NewServer(jobs.NewServer(ex))
	t.Cleanup(func() {
		ts.Close()
		ex.Close()
	})
	return ts, ex
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, m
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, m
}

// awaitJob polls the status endpoint until the job is terminal.
func awaitJob(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := getJSON(t, base+"/v1/jobs/"+id)
		switch st["state"] {
		case "done", "failed", "canceled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %v", id, st["state"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerCacheHitEndToEnd is the headline acceptance test: submitting the
// same spec twice must make the second response a cache hit whose report
// bytes are bit-identical to the first.
func TestServerCacheHitEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 2})
	body := `{"kernel":"cilksort","variant":"base+psm","scale":0.1}`

	code, first := postJSON(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202 (%v)", code, first)
	}
	id1 := first["id"].(string)
	st1 := awaitJob(t, ts.URL, id1)
	if st1["state"] != "done" {
		t.Fatalf("first job: %v", st1)
	}
	if hit, _ := st1["cache_hit"].(bool); hit {
		t.Fatal("first run cannot be a cache hit")
	}

	rep1, etag := fetchReport(t, ts.URL, id1, "")

	code, second := postJSON(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusOK {
		t.Fatalf("second submit status = %d, want 200 for an immediate cache hit (%v)", code, second)
	}
	if second["state"] != "done" || second["cache_hit"] != true {
		t.Fatalf("second submission not served from cache: %v", second)
	}
	if second["result_hash"] != st1["result_hash"] {
		t.Fatalf("result hashes differ: %v vs %v", second["result_hash"], st1["result_hash"])
	}
	rep2, _ := fetchReport(t, ts.URL, second["id"].(string), "")
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("cache hit report bytes are not bit-identical")
	}

	// Conditional fetch with the ETag short-circuits to 304.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id1+"/report", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match status = %d, want 304", resp.StatusCode)
	}
}

func fetchReport(t *testing.T, base, id, ifNoneMatch string) ([]byte, string) {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/v1/jobs/"+id+"/report", nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.Header.Get("ETag")
}

// TestServerConcurrentJobsBounded submits N distinct jobs at once: all must
// complete, and the worker pool must never run more than Workers at a time.
func TestServerConcurrentJobsBounded(t *testing.T) {
	const workers, n = 3, 12
	var cur, peak atomic.Int64
	ts, _ := newTestServer(t, jobs.Config{
		Workers: workers,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			cur.Add(-1)
			return fakeResult(spec), nil
		},
	})

	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"kernel":"cilksort","seed":%d}`, i+1)
			code, st := postJSON(t, ts.URL+"/v1/jobs", body)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("submit %d: status %d (%v)", i, code, st)
				return
			}
			ids[i] = st["id"].(string)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		if st := awaitJob(t, ts.URL, id); st["state"] != "done" {
			t.Fatalf("job %s: %v", id, st)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent runs, worker bound is %d", p, workers)
	}
}

// TestServerDrain is the graceful-shutdown acceptance test: during a drain,
// in-flight jobs finish, new submissions are rejected, and /healthz reports
// unavailability.
func TestServerDrain(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ts, ex := newTestServer(t, jobs.Config{
		Workers: 2,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(spec), nil
		},
	})

	code, st := postJSON(t, ts.URL+"/v1/jobs", `{"kernel":"cilksort","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	id := st["id"].(string)
	<-started

	drained := make(chan error, 1)
	go func() { drained <- ex.Drain(context.Background()) }()
	for !ex.Draining() {
		time.Sleep(time.Millisecond)
	}

	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/jobs", `{"kernel":"cilksort","seed":2}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", code)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := awaitJob(t, ts.URL, id); st["state"] != "done" {
		t.Fatalf("in-flight job lost during drain: %v", st)
	}
}

func TestServerSweepAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{
		Workers: 4,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			return fakeResult(spec), nil
		},
	})

	code, resp := postJSON(t, ts.URL+"/v1/sweeps",
		`{"kernels":["cilksort"],"variants":["base","base+psm"],"seeds":[1,2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep status = %d (%v)", code, resp)
	}
	if resp["count"] != float64(4) {
		t.Fatalf("sweep count = %v, want 4", resp["count"])
	}
	for _, id := range resp["ids"].([]any) {
		if st := awaitJob(t, ts.URL, id.(string)); st["state"] != "done" {
			t.Fatalf("sweep job %v: %v", id, st)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"aaws_jobs_submitted_total 4",
		"aaws_jobs_completed_total 4",
		`aaws_kernel_runs_total{kernel="cilksort"} 4`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServerTraceEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	code, st := postJSON(t, ts.URL+"/v1/jobs",
		`{"kernel":"cilksort","scale":0.1,"with_trace":true,"no_cache":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d (%v)", code, st)
	}
	id := st["id"].(string)
	if st := awaitJob(t, ts.URL, id); st["state"] != "done" {
		t.Fatalf("traced job: %v", st)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace.svg")
	if err != nil {
		t.Fatal(err)
	}
	svg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(svg), "<svg") {
		t.Fatalf("trace.svg status %d, body %.80s", resp.StatusCode, svg)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "/trace.csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(csv) == 0 {
		t.Fatalf("trace.csv status %d, %d bytes", resp.StatusCode, len(csv))
	}

	// An untraced (cached) submission has no recorder to serve.
	code, st2 := postJSON(t, ts.URL+"/v1/jobs", `{"kernel":"cilksort","scale":0.1,"with_trace":true}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("second submit status = %d", code)
	}
	id2 := st2["id"].(string)
	awaitJob(t, ts.URL, id2)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id2 + "/trace.svg")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		// Only acceptable if this job simulated fresh (not served from cache).
		if hit, _ := st2["cache_hit"].(bool); hit {
			t.Fatal("cache-hit job served a trace it never recorded")
		}
	}
}

// TestServerTraceCSVLabelsFollowMachine: trace.csv labels every core from
// the job's resolved class list — B0…/L0… on the paper's 4B4L machine, one
// distinct C<class>.<i> label per core on a 3-way topology (whose core
// count and classes differ from the System default it leaves unset).
func TestServerTraceCSVLabelsFollowMachine(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	cases := []struct {
		body string
		want []string
	}{
		{`{"kernel":"cilksort","scale":0.1,"with_trace":true,"no_cache":true}`,
			[]string{"B0", "B1", "B2", "B3", "L0", "L1", "L2", "L3"}},
		{`{"kernel":"cilksort","scale":0.1,"with_trace":true,"no_cache":true,` +
			`"topology":[{"Count":1,"Speed":4,"Power":3},{"Count":2,"Speed":2,"Power":1.8},{"Count":6}]}`,
			[]string{"C0.0", "C1.0", "C1.1", "C2.0", "C2.1", "C2.2", "C2.3", "C2.4", "C2.5"}},
	}
	for _, tc := range cases {
		code, st := postJSON(t, ts.URL+"/v1/jobs", tc.body)
		if code != http.StatusAccepted {
			t.Fatalf("submit status = %d (%v)", code, st)
		}
		id := st["id"].(string)
		if st := awaitJob(t, ts.URL, id); st["state"] != "done" {
			t.Fatalf("traced job: %v", st)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace.csv")
		if err != nil {
			t.Fatal(err)
		}
		csv, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace.csv status %d", resp.StatusCode)
		}
		// Rows are core,name,...; collect each core's label in core order.
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(string(csv)), "\n")[1:] {
			f := strings.Split(line, ",")
			if core, _ := strconv.Atoi(f[0]); core == len(got) {
				got = append(got, f[1])
			}
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("trace.csv core labels = %v, want %v", got, tc.want)
		}
	}
}
