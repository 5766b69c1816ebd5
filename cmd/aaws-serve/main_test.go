package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"

	"aaws/internal/fabric"
	"aaws/internal/jobs"
)

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// buildServe builds the aaws-serve binary into dir.
func buildServe(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "aaws-serve")
	build := exec.Command("go", "build", "-o", bin, "aaws/cmd/aaws-serve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building aaws-serve: %v", err)
	}
	return bin
}

// startCoordProcess launches an aaws-serve coordinator node and waits for
// its HTTP listener. The returned command is running; kill it yourself.
func startCoordProcess(t *testing.T, bin string, args []string, httpBase string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(httpBase + "/healthz")
		if err == nil {
			resp.Body.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("coordinator HTTP never came up: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func metricValue(t *testing.T, httpBase, name string) float64 {
	t.Helper()
	resp, err := http.Get(httpBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not exported", name)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCoordCrashRecoverySubprocess is the acceptance drill against the real
// binary: SIGKILL a coordinator node (aaws-serve -fabric-addr) mid-sweep,
// restart it with the same journal and cache directories, and require the
// drained sweep's merged fingerprint to be bit-identical to the committed
// reference — with journal replay observable in metrics and the WAL fully
// drained at the end.
func TestCoordCrashRecoverySubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash-recovery drill is not -short material")
	}
	dir := t.TempDir()
	bin := buildServe(t, dir)

	httpPort, fabricPort := freePort(t), freePort(t)
	httpBase := fmt.Sprintf("http://127.0.0.1:%d", httpPort)
	fabricAddr := fmt.Sprintf("127.0.0.1:%d", fabricPort)
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", httpPort),
		"-fabric-addr", fabricAddr,
		"-journal-dir", filepath.Join(dir, "journal"),
		"-cache-dir", filepath.Join(dir, "cache"),
		"-hedge-delay", "-1s", // exactly-once dispatch path under test
		"-heartbeat-timeout", "2s",
	}
	proc := startCoordProcess(t, bin, args, httpBase)
	killed := false
	defer func() {
		if !killed {
			_ = proc.Process.Kill()
			_, _ = proc.Process.Wait()
		}
	}()

	// Two in-process worker nodes with crash-tolerant reconnect: they must
	// ride out the coordinator restart on their own backoff.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		ex := jobs.NewExecutor(jobs.Config{Workers: 2})
		t.Cleanup(ex.Close)
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			Name:           fmt.Sprintf("drill-node-%d", i),
			CoordAddr:      fabricAddr,
			Executor:       ex,
			HeartbeatEvery: 100 * time.Millisecond,
			ReconnectDelay: 50 * time.Millisecond,
			ReconnectMax:   500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = w.Run(ctx) }()
		select {
		case <-w.Ready():
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d never registered", i)
		}
	}

	// Submit the full default matrix (the committed fingerprint's cells).
	resp, err := http.Post(httpBase+"/v1/sweeps", "application/json",
		bytes.NewReader([]byte(`{"scale":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	var sweep jobs.SweepResponse
	err = json.NewDecoder(resp.Body).Decode(&sweep)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d, err %v", resp.StatusCode, err)
	}
	if sweep.Count == 0 {
		t.Fatal("sweep submitted no cells")
	}

	// SIGKILL once the sweep is demonstrably mid-flight.
	deadline := time.Now().Add(2 * time.Minute)
	for metricValue(t, httpBase, "aaws_fabric_shards_completed_total") < float64(sweep.Count/4) {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached the kill threshold")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := proc.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = proc.Process.Wait()
	killed = true

	// Restart with the same directories; /readyz gates on journal replay
	// and a re-registered fleet.
	proc2 := startCoordProcess(t, bin, args, httpBase)
	defer func() {
		_ = proc2.Process.Kill()
		_, _ = proc2.Process.Wait()
	}()
	readyDeadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(httpBase + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				break
			}
		}
		if time.Now().After(readyDeadline) {
			t.Fatal("restarted coordinator never became ready")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if metricValue(t, httpBase, "aaws_jobs_replayed_total") == 0 {
		t.Fatal("restarted coordinator replayed nothing from the journal")
	}

	// Resubmit the same matrix: cells still in flight coalesce onto their
	// replayed jobs, cells that committed pre-crash are answered from the
	// surviving disk cache. IDs come back in matrix order.
	resp2, err := http.Post(httpBase+"/v1/sweeps", "application/json",
		bytes.NewReader([]byte(`{"scale":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	var sweep2 jobs.SweepResponse
	err = json.NewDecoder(resp2.Body).Decode(&sweep2)
	resp2.Body.Close()
	if err != nil || sweep2.Count != sweep.Count {
		t.Fatalf("resubmit: %d cells (err %v), want %d", sweep2.Count, err, sweep.Count)
	}

	cells := make([][]byte, sweep2.Count)
	for i, id := range sweep2.IDs {
		waitDeadline := time.Now().Add(5 * time.Minute)
		for {
			st, err := http.Get(httpBase + "/v1/jobs/" + id + "?wait=1&wait_ms=10000")
			if err != nil {
				t.Fatal(err)
			}
			var status struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			err = json.NewDecoder(st.Body).Decode(&status)
			st.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if status.State == "done" {
				break
			}
			if status.State == "failed" || status.State == "canceled" {
				t.Fatalf("cell %d ended %s: %s", i, status.State, status.Error)
			}
			if time.Now().After(waitDeadline) {
				t.Fatalf("cell %d stuck in %s", i, status.State)
			}
		}
		// The report endpoint returns the canonical bytes verbatim — the
		// status JSON would re-encode them.
		rep, err := http.Get(httpBase + "/v1/jobs/" + id + "/report")
		if err != nil {
			t.Fatal(err)
		}
		cells[i], err = io.ReadAll(rep.Body)
		rep.Body.Close()
		if err != nil || rep.StatusCode != http.StatusOK {
			t.Fatalf("report %d: status %d, err %v", i, rep.StatusCode, err)
		}
	}

	blob, err := os.ReadFile("../../examples/fabric/fingerprint.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Cells       int    `json:"cells"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if want.Cells != len(cells) {
		t.Fatalf("matrix has %d cells, committed fingerprint covers %d", len(cells), want.Cells)
	}
	if got := fabric.Fingerprint(cells); got != want.Fingerprint {
		t.Fatalf("recovered fingerprint %s != committed %s", got, want.Fingerprint)
	}

	// The WAL must be fully drained: every replayed job reached a terminal
	// record in the new incarnation.
	if metricValue(t, httpBase, "aaws_journal_replayed_total") == 0 {
		t.Fatal("journal reports zero replayed records after a crash restart")
	}
	if open := metricValue(t, httpBase, "aaws_journal_open_jobs"); open != 0 {
		t.Fatalf("journal still has %v open jobs after the sweep drained", open)
	}
}

// TestNodeDrainLeavesFleetJobsOpen: a coordinator node with no workers
// keeps a job parked past its -job-timeout, and a graceful shutdown whose
// drain times out leaves the job open in the journal, so the next start
// replays it under the same ID and runs it once a worker registers.
func TestNodeDrainLeavesFleetJobsOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drill is not -short material")
	}
	dir := t.TempDir()
	bin := buildServe(t, dir)
	httpPort, fabricPort := freePort(t), freePort(t)
	httpBase := fmt.Sprintf("http://127.0.0.1:%d", httpPort)
	fabricAddr := fmt.Sprintf("127.0.0.1:%d", fabricPort)
	const jobTimeout = 2 * time.Second
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", httpPort),
		"-fabric-addr", fabricAddr,
		"-journal-dir", filepath.Join(dir, "journal"),
		"-job-timeout", jobTimeout.String(),
		"-drain-timeout", "200ms",
	}
	jobState := func(id string) string {
		t.Helper()
		resp, err := http.Get(httpBase + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.State
	}

	proc := startCoordProcess(t, bin, args, httpBase)
	resp, err := http.Post(httpBase+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"kernel":"cilksort","variant":"base+psm","seed":7,"scale":0.25}`)))
	if err != nil {
		_ = proc.Process.Kill()
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		_ = proc.Process.Kill()
		t.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
	}
	time.Sleep(jobTimeout + 500*time.Millisecond)
	if st := jobState(sub.ID); st != "queued" && st != "running" {
		_ = proc.Process.Kill()
		t.Fatalf("parked job is %s after its -job-timeout with no workers", st)
	}
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- proc.Wait() }()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		_ = proc.Process.Kill()
		t.Fatal("node did not exit after its drain timed out")
	}

	proc2 := startCoordProcess(t, bin, args, httpBase)
	defer func() {
		_ = proc2.Process.Kill()
		_, _ = proc2.Process.Wait()
	}()
	ex := jobs.NewExecutor(jobs.Config{Workers: 1})
	t.Cleanup(ex.Close)
	w, err := fabric.NewWorker(fabric.WorkerConfig{Name: "late", CoordAddr: fabricAddr, Executor: ex})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = w.Run(ctx) }()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(20 * time.Millisecond) {
		st := jobState(sub.ID)
		if st == "done" {
			break
		}
		if st == "failed" || st == "canceled" || time.Now().After(deadline) {
			t.Fatalf("replayed job is %s", st)
		}
	}
	if metricValue(t, httpBase, "aaws_jobs_replayed_total") != 1 {
		t.Fatal("restarted node did not replay the job left open by the drain")
	}
}
