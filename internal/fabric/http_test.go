package fabric_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aaws/internal/fabric"
)

// startHTTP wires a coordinator behind its HTTP API on a real listener.
func startHTTP(t *testing.T, cfg fabric.CoordConfig) (*fabric.Coordinator, string, string) {
	t.Helper()
	coord, fabricAddr := startCoord(t, cfg)
	hs := httptest.NewServer(fabric.NewHTTP(coord, fabric.HTTPOptions{}))
	t.Cleanup(hs.Close)
	return coord, fabricAddr, hs.URL
}

// TestCachePutValidation: the shared tier's fill endpoint must reject
// anything that is not a canonical outcome for exactly the keyed spec —
// a bad fill would poison every node in the fleet.
func TestCachePutValidation(t *testing.T) {
	_, _, base := startHTTP(t, fabric.CoordConfig{HedgeDelay: -1})

	spec := fabricSpec(3)
	hash := specHash(t, spec)
	good := stubBytes(t, spec)

	put := func(key string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, base+"/v1/cache/"+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := put(hash, []byte("not json")); code != http.StatusBadRequest {
		t.Fatalf("garbage fill: %d, want 400", code)
	}
	if code := put("someotherhash", good); code != http.StatusBadRequest {
		t.Fatalf("mismatched-key fill: %d, want 400", code)
	}
	// Rejected fills must not have landed.
	if resp, _ := http.Get(base + "/v1/cache/" + hash); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected fill is retrievable: %d", resp.StatusCode)
	}

	if code := put(hash, good); code != http.StatusNoContent {
		t.Fatalf("valid fill: %d, want 204", code)
	}
	resp, err := http.Get(base + "/v1/cache/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got, good) {
		t.Fatal("cache GET returned different bytes than the fill")
	}
}

// TestRemoteCacheSingleflight: concurrent lookups of the same content
// address must coalesce into one upstream GET.
func TestRemoteCacheSingleflight(t *testing.T) {
	var requests atomic.Int64
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		fmt.Fprint(w, `{"SpecHash":"k"}`)
	}))
	defer upstream.Close()

	rc := fabric.NewRemoteCache(upstream.URL)
	results := make(chan bool, 8)
	var wg sync.WaitGroup

	// Leader issues the upstream GET and parks in the handler...
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, ok := rc.Get("k")
		results <- ok
	}()
	<-entered
	// ...so every follower started now is guaranteed to find the in-flight
	// fetch and wait on it instead of dialing upstream.
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, ok := rc.Get("k")
			results <- ok
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(results)

	for ok := range results {
		if !ok {
			t.Fatal("coalesced lookup missed")
		}
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("%d upstream requests for one key, want 1", n)
	}
	if stats := rc.Stats(); stats.Hits != 8 {
		t.Fatalf("stats.Hits = %d, want 8", stats.Hits)
	}
}

// TestRemoteCacheDegradesToMiss: an unreachable coordinator must read as a
// miss (the node computes locally), never as an error that fails work.
func TestRemoteCacheDegradesToMiss(t *testing.T) {
	rc := fabric.NewRemoteCache("http://127.0.0.1:1") // nothing listens here
	if _, ok := rc.Get("k"); ok {
		t.Fatal("unreachable tier reported a hit")
	}
	rc.Put("k", []byte(`{}`)) // must not panic or block
	if rc.TierErrors() == 0 {
		t.Fatal("transport failures not counted")
	}
}
