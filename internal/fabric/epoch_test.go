package fabric_test

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"aaws/internal/fabric"
)

// rawWorker is a protocol-level worker impersonation for fence tests: it
// speaks frames directly so the test controls exactly which epoch each one
// carries.
type rawWorker struct {
	t    *testing.T
	conn net.Conn
	sc   *bufio.Scanner
}

func dialRawWorker(t *testing.T, addr, name string) (*rawWorker, uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	w := &rawWorker{t: t, conn: conn}
	w.sc = bufio.NewScanner(conn)
	w.sc.Buffer(make([]byte, 64<<10), 32<<20)
	w.write(fabric.Frame{Kind: fabric.KindHello, Worker: name, Slots: 1})
	ack := w.read()
	if ack.Kind != fabric.KindHelloAck {
		t.Fatalf("expected hello_ack, got %s", ack.Kind)
	}
	if ack.Epoch == 0 {
		t.Fatal("hello_ack carried no registration epoch")
	}
	return w, ack.Epoch
}

func (w *rawWorker) write(f fabric.Frame) {
	w.t.Helper()
	line, err := fabric.EncodeFrame(f)
	if err != nil {
		w.t.Fatal(err)
	}
	if _, err := w.conn.Write(line); err != nil {
		w.t.Fatal(err)
	}
}

func (w *rawWorker) read() fabric.Frame {
	w.t.Helper()
	if !w.sc.Scan() {
		w.t.Fatalf("connection closed: %v", w.sc.Err())
	}
	f, err := fabric.DecodeFrame(w.sc.Bytes())
	if err != nil {
		w.t.Fatal(err)
	}
	return f
}

// TestEpochFenceRejectsStaleResult is the zombie drill at test granularity:
// a worker holding a dispatched shard is superseded by a re-registration
// under the same name, then replays its result stamped with the old epoch —
// and carrying the bytes of a *different* cell, so acceptance would poison
// the merge. The fence must drop it; only the current epoch commits.
func TestEpochFenceRejectsStaleResult(t *testing.T) {
	coord, addr := startCoord(t, fabric.CoordConfig{
		HedgeDelay:       -1,
		HeartbeatTimeout: 60 * time.Second, // the partition here is explicit
	})

	zombie, e1 := dialRawWorker(t, addr, "z")

	spec := fabricSpec(1)
	cell := cellAsync(coord, spec)
	disp := zombie.read()
	if disp.Kind != fabric.KindDispatch {
		t.Fatalf("expected dispatch, got %s", disp.Kind)
	}

	// Same name re-registers: the zombie's epoch is superseded and the
	// coordinator re-dispatches the orphaned shard to the new connection.
	fresh, e2 := dialRawWorker(t, addr, "z")
	if e2 <= e1 {
		t.Fatalf("re-registration epoch %d not newer than %d", e2, e1)
	}
	redisp := fresh.read()
	if redisp.Kind != fabric.KindDispatch || redisp.Shard != disp.Shard {
		t.Fatalf("expected re-dispatch of %s, got %s %s", disp.Shard, redisp.Kind, redisp.Shard)
	}

	// The stale result arrives over the *live* connection (a healed
	// partition delivers queued frames through whatever path exists) with
	// valid canonical bytes for the wrong cell.
	poison := stubBytes(t, fabricSpec(2))
	fresh.write(fabric.Frame{
		Kind: fabric.KindResult, Worker: "z", Epoch: e1,
		Shard: disp.Shard, Data: poison,
	})
	deadline := time.Now().Add(5 * time.Second)
	for coord.Metrics().StaleEpochFrames == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale-epoch result was never counted as rejected")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m := coord.Metrics(); m.ShardsCompleted != 0 || m.ShardsInflight != 1 {
		t.Fatalf("stale-epoch result committed the shard: %+v", m)
	}
	pending(cell)

	// The current epoch's result commits, with the correct bytes.
	fresh.write(fabric.Frame{
		Kind: fabric.KindResult, Worker: "z", Epoch: e2,
		Shard: disp.Shard, Data: stubBytes(t, spec),
	})
	if !bytes.Equal(awaitCell(t, cell), stubBytes(t, spec)) {
		t.Fatal("committed bytes are not the correct cell")
	}
	m := coord.Metrics()
	if m.ShardsCompleted != 1 || m.Duplicates != 0 {
		t.Fatalf("want exactly one commit and no duplicates, got completed=%d duplicates=%d",
			m.ShardsCompleted, m.Duplicates)
	}
}

// TestEpochFenceStaleHeartbeat verifies that heartbeats from a superseded
// registration no longer feed liveness: the replacement must not be kept
// alive by its zombie's pulse.
func TestEpochFenceStaleHeartbeat(t *testing.T) {
	coord, addr := startCoord(t, fabric.CoordConfig{
		HedgeDelay:       -1,
		HeartbeatTimeout: 60 * time.Second,
	})
	_, e1 := dialRawWorker(t, addr, "z")
	fresh, e2 := dialRawWorker(t, addr, "z")
	if e2 <= e1 {
		t.Fatalf("epochs not monotonic: %d then %d", e1, e2)
	}
	// The stale pulse arrives over the live connection (the coordinator
	// already dropped the superseded one), stamped with the old epoch.
	fresh.write(fabric.Frame{Kind: fabric.KindHeartbeat, Worker: "z", Epoch: e1})
	deadline := time.Now().Add(5 * time.Second)
	for coord.Metrics().StaleEpochFrames == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale heartbeat was never counted as rejected")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCacheFillEpochFence exercises the HTTP half of the fence: fills
// stamped with a superseded registration epoch are rejected with 409, the
// current epoch and unstamped fills (plain curl) pass.
func TestCacheFillEpochFence(t *testing.T) {
	coord, addr := startCoord(t, fabric.CoordConfig{
		HedgeDelay:       -1,
		HeartbeatTimeout: 60 * time.Second,
	})
	srv := httptest.NewServer(fabric.NewHTTP(coord, fabric.HTTPOptions{}))
	t.Cleanup(srv.Close)

	_, e1 := dialRawWorker(t, addr, "w")
	_, e2 := dialRawWorker(t, addr, "w") // supersedes e1

	spec := fabricSpec(1)
	data := stubBytes(t, spec)
	hash := specHash(t, spec)

	put := func(epoch string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/cache/"+hash, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if epoch != "" {
			req.Header.Set("X-AAWS-Worker", "w")
			req.Header.Set("X-AAWS-Worker-Epoch", epoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := put(strconv.FormatUint(e1, 10)); code != http.StatusConflict {
		t.Fatalf("stale-epoch fill: %d, want 409", code)
	}
	if m := coord.Metrics(); m.StaleCacheFills == 0 {
		t.Fatal("stale fill not counted")
	}
	if code := put(strconv.FormatUint(e2, 10)); code != http.StatusNoContent {
		t.Fatalf("current-epoch fill: %d, want 204", code)
	}
	if code := put(""); code != http.StatusNoContent {
		t.Fatalf("unstamped fill: %d, want 204", code)
	}
	if code := put("not-a-number"); code != http.StatusBadRequest {
		t.Fatalf("garbage epoch header: %d, want 400", code)
	}
}
