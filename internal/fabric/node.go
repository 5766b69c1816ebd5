package fabric

import (
	"context"

	"aaws/internal/core"
	"aaws/internal/jobs"
)

// NewNode builds a coordinator node: a jobs.Executor whose execution
// backend is a new Coordinator. The executor owns everything client-facing
// — job IDs, tenant WFQ, admission, the journal and its recovery, retention
// — and runs each job (or sweep gang) by routing its cells through the
// coordinator, so the executor's pool bounds the jobs in flight on the
// fleet: cfg.Workers when set, else the fleet's registered slots, tracked as
// workers come and go. The two share one cache tier (cfg.Cache, or a default
// in-memory cache when nil) and one metrics registry, so a single /metrics
// shows the aaws_jobs_* and aaws_fabric_* series together. cfg's runners and
// cc's Cache and Registry are overridden.
//
// Call Serve on the coordinator to accept workers and mount NewHTTP beside
// the executor's jobs.Server; on shutdown drain and close the executor
// before closing the coordinator — or Kill the coordinator to stop with the
// unfinished jobs left open in the journal.
func NewNode(cfg jobs.Config, cc CoordConfig) (*jobs.Executor, *Coordinator, error) {
	if cfg.Cache == nil {
		cache, err := jobs.NewCache(4096, "")
		if err != nil {
			return nil, nil, err
		}
		cfg.Cache = cache
	}
	// The executor comes first because its registry is the node's; its
	// backend reaches the coordinator through c, which is set before
	// NewNode returns and so before any job can be submitted.
	var c *Coordinator
	cfg.Runner = func(ctx context.Context, spec core.Spec) (core.Result, error) {
		res, err := c.RunBatch(ctx, []core.Spec{spec})
		if err != nil {
			return core.Result{}, err
		}
		return res[0], nil
	}
	cfg.BatchRunner = func(ctx context.Context, specs []core.Spec) ([]core.Result, error) {
		return c.RunBatch(ctx, specs)
	}
	fleetSized := cfg.Workers <= 0
	if fleetSized {
		cfg.Workers = 1 // until the first worker registers
	}
	ex := jobs.NewExecutor(cfg)
	cc.Cache, cc.Registry = cfg.Cache, ex.Registry()
	coord, err := NewCoordinator(cc)
	if err != nil {
		ex.Close()
		return nil, nil, err
	}
	if fleetSized {
		coord.mu.Lock()
		coord.onSlots = ex.SetWorkers
		coord.mu.Unlock()
	}
	c = coord
	return ex, c, nil
}
