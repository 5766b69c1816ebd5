package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"aaws/internal/jobs"
)

// HTTPOptions tunes the fleet-facing HTTP endpoints. It has no settings
// today; cache fills are bounded by the wire protocol's frame cap.
type HTTPOptions struct{}

// HTTPServer exposes the coordinator's fleet-facing endpoints: the shared
// result tier workers read and fill (GET/PUT /v1/cache/{hash}) and a fleet
// view (GET /v1/workers). Clients never talk to it: a coordinator node
// mounts it beside the jobs.Server that owns /v1/jobs, /v1/sweeps,
// /metrics and the health probes.
type HTTPServer struct {
	coord *Coordinator
	mux   *http.ServeMux
}

// NewHTTP wraps the coordinator's fleet-facing endpoints.
func NewHTTP(c *Coordinator, _ HTTPOptions) *HTTPServer {
	s := &HTTPServer{coord: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v1/cache/{hash}", s.cacheGet)
	s.mux.HandleFunc("PUT /v1/cache/{hash}", s.cachePut)
	s.mux.HandleFunc("GET /v1/workers", s.workers)
	return s
}

// Mount serves c's fleet-facing endpoints beside api — a coordinator
// node's jobs.Server — on one handler.
func Mount(api http.Handler, c *Coordinator) http.Handler {
	fleet := NewHTTP(c, HTTPOptions{})
	mux := http.NewServeMux()
	mux.Handle("/v1/cache/", fleet)
	mux.Handle("/v1/workers", fleet)
	mux.Handle("/", api)
	return mux
}

// ServeHTTP implements http.Handler.
func (s *HTTPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *HTTPServer) cacheGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	data, ok := s.coord.cfg.Cache.Get(hash)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", hash))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *HTTPServer) cachePut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	// Epoch fence on the HTTP path: a fill stamped by a superseded worker
	// registration (zombie behind a healed partition) is rejected, matching
	// the wire protocol's frame fence. Unstamped fills stay accepted — the
	// content validation below already guarantees they can't poison the
	// tier — so plain curl and pre-fence workers keep working.
	if name := r.Header.Get("X-AAWS-Worker"); name != "" {
		if es := r.Header.Get("X-AAWS-Worker-Epoch"); es != "" {
			epoch, err := strconv.ParseUint(es, 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad X-AAWS-Worker-Epoch: %w", err))
				return
			}
			if current, ok := s.coord.WorkerEpoch(name); ok && epoch < current {
				s.coord.inst.staleCacheFills.Inc()
				httpError(w, http.StatusConflict,
					fmt.Errorf("stale worker epoch %d for %s (current %d)", epoch, name, current))
				return
			}
		}
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFrameBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	// The key is the content address of the *spec*, not the bytes, so the
	// fill must prove it is well-formed canonical outcome data for that
	// spec: decode and check the embedded SpecHash. A corrupted or
	// mismatched fill would otherwise poison every node.
	out, err := jobs.DecodeOutcome(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cache fill is not a canonical outcome: %w", err))
		return
	}
	if out.SpecHash != hash {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("cache fill spec hash %s does not match key %s", out.SpecHash, hash))
		return
	}
	s.coord.cfg.Cache.Put(hash, data)
	w.WriteHeader(http.StatusNoContent)
}

func (s *HTTPServer) workers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": s.coord.Workers()})
}
