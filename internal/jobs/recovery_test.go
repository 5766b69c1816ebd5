package jobs_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/jobs"
)

// expectedBytes computes the canonical result bytes the fake runner should
// produce for spec — the ground truth replayed jobs are checked against.
func expectedBytes(t *testing.T, spec core.Spec) []byte {
	t.Helper()
	spec = jobs.Normalize(spec)
	hash, err := jobs.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := jobs.CanonicalJSON(jobs.NewOutcome(hash, fakeResult(spec)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestExecutorRecovery simulates a crash in-process: an executor with
// running and queued journaled jobs is abandoned mid-flight, the journal is
// reopened, and a fresh executor must replay exactly the unfinished jobs —
// under their original IDs, producing bit-identical bytes — while the job
// that completed before the crash is answered from the disk cache without
// re-executing.
func TestExecutorRecovery(t *testing.T) {
	journalDir, cacheDir := t.TempDir(), t.TempDir()
	j1, pending := openJournal(t, journalDir, 1<<20)
	if len(pending) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(pending))
	}
	cache1, err := jobs.NewCache(64, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	ex1 := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Cache:   cache1,
		Journal: j1,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			if spec.Seed == 1 { // the pre-crash fast job
				return fakeResult(spec), nil
			}
			running <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return fakeResult(spec), nil
		},
	})
	t.Cleanup(func() {
		close(release)
		ex1.Close()
	})

	fast, err := ex1.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, ex1, fast.ID); snap.State != jobs.StateDone {
		t.Fatalf("fast job: %s", snap.State)
	}
	runningJob, err := ex1.Submit(testSpec(2), jobs.SubmitOptions{Priority: 3})
	if err != nil {
		t.Fatal(err)
	}
	<-running // seed-2 is now mid-execution
	queuedJob, err := ex1.Submit(testSpec(3), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": abandon ex1 without drain or close and rebuild the world
	// from the journal + disk cache alone.
	j2, pending := openJournal(t, journalDir, 1<<20)
	defer j2.Close()
	if len(pending) != 2 {
		t.Fatalf("replay found %d jobs, want 2 (running + queued): %+v", len(pending), pending)
	}
	if pending[0].ID != runningJob.ID || pending[1].ID != queuedJob.ID {
		t.Fatalf("replay IDs %s, %s; want %s, %s",
			pending[0].ID, pending[1].ID, runningJob.ID, queuedJob.ID)
	}
	if pending[0].Attempts == 0 {
		t.Fatal("running job lost its start record")
	}
	if pending[0].Priority != 3 {
		t.Fatalf("priority lost in replay: %+v", pending[0])
	}

	cache2, err := jobs.NewCache(64, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	ex2 := jobs.NewExecutor(jobs.Config{
		Workers: 1,
		Cache:   cache2,
		Journal: j2,
		Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
			return fakeResult(spec), nil
		},
	})
	defer ex2.Close()
	n, err := ex2.Recover(pending)
	if err != nil || n != 2 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	for i, want := range []struct {
		id   string
		seed uint64
	}{{runningJob.ID, 2}, {queuedJob.ID, 3}} {
		snap := waitDone(t, ex2, want.id)
		if snap.State != jobs.StateDone {
			t.Fatalf("replayed job %d: %s (%v)", i, snap.State, snap.Err)
		}
		if !snap.Replayed {
			t.Fatalf("replayed job %d not marked Replayed", i)
		}
		if !bytes.Equal(snap.Data, expectedBytes(t, testSpec(want.seed))) {
			t.Fatalf("replayed job %d bytes differ from a direct run", i)
		}
	}
	if m := ex2.Metrics(); m.Replayed != 2 {
		t.Fatalf("Replayed metric = %d, want 2", m.Replayed)
	}

	// The job that finished before the crash must be a disk-cache hit —
	// answered without re-executing.
	resub, err := ex2.Submit(testSpec(1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, ex2, resub.ID)
	if !snap.CacheHit {
		t.Fatal("pre-crash completed job re-executed instead of hitting the disk cache")
	}

	// New IDs must not collide with journaled ones: sequence numbers resume
	// above the journal's maximum.
	if resub.ID == fast.ID || resub.ID == runningJob.ID {
		t.Fatalf("recovered executor re-issued an old job ID: %s", resub.ID)
	}

	// The journal has settled: both replayed jobs reached terminal records.
	if m := j2.Metrics(); m.OpenJobs != 0 {
		t.Fatalf("journal still holds %d open jobs after replay completed", m.OpenJobs)
	}
}

// ---- subprocess kill-and-restart harness ----

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func waitHTTP(t *testing.T, url string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never returned %d (last: %v)", url, want, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func submitBody(t *testing.T, base, body string) string {
	t.Helper()
	code, m := postJSON(t, base+"/v1/jobs", body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit %s: %d %v", body, code, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("submit %s: no id in %v", body, m)
	}
	return id
}

func reportBytes(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: %d", id, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashRecoverySubprocess is the headline durability test: a real
// aaws-serve process is SIGKILLed with one job running and two queued, then
// restarted on the same journal + cache directories. The restarted server
// must finish all three under their original IDs with reports bit-identical
// to an uninterrupted control server, and must answer the job that completed
// before the kill from the disk cache instead of re-executing it.
func TestCrashRecoverySubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "aaws-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/aaws-serve")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building aaws-serve: %v\n%s", err, out)
	}

	journalDir, cacheDir := t.TempDir(), t.TempDir()
	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	serve := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-workers", "1",
			"-journal-dir", journalDir,
			"-cache-dir", cacheDir,
			"-job-timeout", "0",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting server: %v", err)
		}
		return cmd
	}

	srv1 := serve()
	killed := false
	defer func() {
		if !killed {
			_ = srv1.Process.Kill()
			_, _ = srv1.Process.Wait()
		}
	}()
	waitHTTP(t, base+"/readyz", http.StatusOK, 15*time.Second)

	// A fast job completed before the crash: its result lands in the disk
	// cache and must NOT re-execute after restart.
	const fastBody = `{"kernel":"cilksort","scale":0.1,"seed":7}`
	fastID := submitBody(t, base, fastBody)
	st := awaitJob(t, base, fastID)
	if st["state"] != "done" {
		t.Fatalf("fast job: %v", st)
	}

	// The slow job (~1.5s of real simulation) occupies the single worker;
	// two more queue behind it.
	slowID := submitBody(t, base, `{"kernel":"nbody","scale":16}`)
	queued1 := submitBody(t, base, `{"kernel":"cilksort","scale":0.1,"seed":8}`)
	queued2 := submitBody(t, base, `{"kernel":"cilksort","scale":0.2,"seed":9}`)

	// SIGKILL only once the slow job is observably running and the others
	// queued: that is the state the journal must reconstruct.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, slow := getJSON(t, base+"/v1/jobs/"+slowID)
		_, q1 := getJSON(t, base+"/v1/jobs/"+queued1)
		if slow["state"] == "running" && q1["state"] == "queued" {
			break
		}
		if slow["state"] == "done" {
			t.Fatal("slow job finished before the kill; crash window missed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("kill window never arrived: slow=%v q1=%v", slow["state"], q1["state"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := srv1.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	_, _ = srv1.Process.Wait()
	killed = true

	// Restart on the same directories: the journal replays the three
	// unfinished jobs under their original IDs.
	srv2 := serve()
	defer func() {
		_ = srv2.Process.Kill()
		_, _ = srv2.Process.Wait()
	}()
	waitHTTP(t, base+"/readyz", http.StatusOK, 15*time.Second)

	recovered := map[string][]byte{}
	for _, id := range []string{slowID, queued1, queued2} {
		st := awaitJob(t, base, id)
		if st["state"] != "done" {
			t.Fatalf("replayed job %s: %v (err %v)", id, st["state"], st["error"])
		}
		recovered[id] = reportBytes(t, base, id)
	}
	// Replay is visible in the metrics.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "aaws_jobs_replayed_total 3") {
		t.Fatalf("metrics missing replay count:\n%s", metrics)
	}

	// No double execution of completed work: resubmitting the pre-crash
	// fast job must be a cache hit answered inline.
	code, m := postJSON(t, base+"/v1/jobs", fastBody)
	if code != http.StatusOK || m["cache_hit"] != true {
		t.Fatalf("pre-crash job not served from cache: %d %v", code, m)
	}

	// Bit-identical ground truth: an uninterrupted control server on fresh
	// directories runs the same specs.
	ctrlPort := freePort(t)
	ctrlBase := fmt.Sprintf("http://127.0.0.1:%d", ctrlPort)
	ctrl := exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", ctrlPort),
		"-workers", "1",
		"-journal-dir", t.TempDir(),
		"-cache-dir", t.TempDir(),
		"-job-timeout", "0",
	)
	ctrl.Stdout = os.Stderr
	ctrl.Stderr = os.Stderr
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = ctrl.Process.Kill()
		_, _ = ctrl.Process.Wait()
	}()
	waitHTTP(t, ctrlBase+"/readyz", http.StatusOK, 15*time.Second)
	for body, id := range map[string]string{
		`{"kernel":"nbody","scale":16}`:              slowID,
		`{"kernel":"cilksort","scale":0.1,"seed":8}`: queued1,
		`{"kernel":"cilksort","scale":0.2,"seed":9}`: queued2,
	} {
		ctrlID := submitBody(t, ctrlBase, body)
		if st := awaitJob(t, ctrlBase, ctrlID); st["state"] != "done" {
			t.Fatalf("control job %s: %v", body, st)
		}
		want := reportBytes(t, ctrlBase, ctrlID)
		if !bytes.Equal(recovered[id], want) {
			t.Fatalf("replayed result for %s differs from uninterrupted control", body)
		}
	}
}

// TestRestartNeverReusesJournaledID: a restarted executor accepts
// submissions before Recover replays the journal (its server listens
// first), so the ID sequence must already start past the journal's
// high-water mark — a fresh submission of a pending job's spec gets a new
// ID, and both jobs complete under their own IDs.
func TestRestartNeverReusesJournaledID(t *testing.T) {
	dir := t.TempDir()
	spec := jobs.Normalize(testSpec(7))
	hash, err := jobs.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The journal of a crashed executor whose first job was still pending.
	j1, _ := openJournal(t, dir, 1<<20)
	journaledID := fmt.Sprintf("%s-%d", hash[:12], 1)
	if err := j1.Submit(jobs.Pending{ID: journaledID, Seq: 1, SpecHash: hash, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, pending := openJournal(t, dir, 1<<20)
	defer j2.Close()
	if len(pending) != 1 || pending[0].ID != journaledID {
		t.Fatalf("journal replay: %+v, want the one pending job %s", pending, journaledID)
	}
	ex := jobs.NewExecutor(jobs.Config{Workers: 1, Journal: j2, Runner: func(ctx context.Context, spec core.Spec) (core.Result, error) {
		return fakeResult(spec), nil
	}})
	defer ex.Close()
	fresh, err := ex.Submit(spec, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == journaledID {
		t.Fatalf("submission before replay reused journaled ID %s", journaledID)
	}
	if _, err := ex.Recover(pending); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{fresh.ID, journaledID} {
		snap, err := ex.Wait(ctx, id)
		if err != nil || snap.State != jobs.StateDone {
			t.Fatalf("job %s: %v %v", id, snap.State, err)
		}
	}
}
