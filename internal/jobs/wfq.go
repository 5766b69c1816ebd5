package jobs

import (
	"container/heap"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Multi-tenant QoS: the executor's worker pool is a finite heterogeneous
// resource, and the same marginal-utility discipline the runtime applies to
// core allocation applies to multiplexing tenants across it. Instead of one
// global priority+FIFO queue — which a single chatty tenant can monopolize —
// the executor's ready queue is a deficit-style weighted-fair queue (DWFQ):
//
//   - every queued job belongs to a tenant (client identity from admission);
//   - each tenant accumulates normalized virtual service ("work"): each
//     dispatch charges the job's estimated cost (the per-class run-time
//     EWMA) divided by the tenant's weight;
//   - dispatch always picks the backlogged tenant with the least work, so
//     throughput under saturation converges to weight proportions and a
//     tenant that went idle cannot bank credit (its work is floored at the
//     global virtual time when it reactivates);
//   - within a tenant, interactive jobs are served before sweep-class jobs
//     (starvation-free interactive latency: an interactive arrival waits at
//     most its own tenant's interactive backlog plus one cross-tenant round),
//     and within a class the legacy (priority desc, seq asc) order holds.
//
// With a single tenant the DWFQ keeps the legacy (priority desc, seq asc)
// order within each class, but still serves that tenant's interactive jobs
// before its queued sweep jobs. Scheduling never affects results: jobs are
// content-addressed and deterministic, so WFQ only reorders *when* a spec
// runs, never what it produces.

// QoSConfig tunes the multi-tenant scheduler. The zero value weights every
// tenant at 1.
type QoSConfig struct {
	// DefaultWeight is the weight of tenants absent from Weights
	// (values <= 0 mean 1).
	DefaultWeight float64
	// Weights assigns per-tenant service weights: a weight-2 tenant gets
	// twice the saturated throughput of a weight-1 tenant.
	Weights map[string]float64
}

// ParseWeights parses a "tenant=weight,tenant=weight" flag value into a
// QoSConfig.Weights map. An empty string yields nil; weights must be
// positive finite numbers.
func ParseWeights(s string) (map[string]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("jobs: tenant weight %q: want tenant=weight", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("jobs: tenant weight %q: want a positive number", part)
		}
		weights[name] = w
	}
	return weights, nil
}

// TenantQueueStat is a point-in-time view of one tenant's queue state.
type TenantQueueStat struct {
	Tenant string
	Queued int
	Weight float64
	// VLag is the tenant's virtual-service lead over the global virtual
	// time: 0 for the least-served backlogged tenant, growing for tenants
	// that have received more than their share recently.
	VLag float64
}

// ---- deficit-weighted fair queue ----

// maxWFQTenants bounds the tenant map; idle tenants are dropped past it so a
// scan of spoofed tenant keys cannot grow memory without bound.
const maxWFQTenants = 4096

type wfqTenant struct {
	key    string
	weight float64
	work   float64     // normalized virtual service received
	q      [2]jobQueue // [ClassInteractive], [ClassSweep]; (priority desc, seq asc) within each
	queued int
}

// wfqSched is the executor's ready queue. All methods are called with the
// executor mutex held.
type wfqSched struct {
	cfg     QoSConfig
	cost    func(Class) float64 // per-class cost estimate, seconds
	vtime   float64             // global virtual time (start tag of last dispatch)
	tenants map[string]*wfqTenant
	queued  int
}

func newWFQSched(cfg QoSConfig, cost func(Class) float64) *wfqSched {
	if cfg.DefaultWeight <= 0 {
		cfg.DefaultWeight = 1
	}
	return &wfqSched{cfg: cfg, cost: cost, tenants: make(map[string]*wfqTenant)}
}

func classIdx(c Class) int {
	if c == ClassSweep {
		return 1
	}
	return 0
}

func (s *wfqSched) tenant(key string) *wfqTenant {
	t := s.tenants[key]
	if t == nil {
		if len(s.tenants) >= maxWFQTenants {
			s.evictIdle()
		}
		w := s.cfg.Weights[key]
		if w <= 0 {
			w = s.cfg.DefaultWeight
		}
		t = &wfqTenant{key: key, weight: w, work: s.vtime}
		s.tenants[key] = t
	}
	return t
}

// evictIdle drops tenants with nothing queued; their virtual-service state
// is recoverable (a returning tenant restarts at the global virtual time).
func (s *wfqSched) evictIdle() {
	for k, t := range s.tenants {
		if t.queued == 0 {
			delete(s.tenants, k)
		}
	}
}

func (s *wfqSched) Push(j *Job) {
	t := s.tenant(j.tenant)
	if t.queued == 0 && t.work < s.vtime {
		// Reactivation: no banking credit while idle.
		t.work = s.vtime
	}
	heap.Push(&t.q[classIdx(j.class)], j)
	t.queued++
	s.queued++
}

// Pop returns the best queued job: the least-served backlogged tenant's head,
// interactive class first within the tenant. Ties on virtual work break by
// tenant key so the dispatch sequence is deterministic.
func (s *wfqSched) Pop() *Job {
	if s.queued == 0 {
		return nil
	}
	var best *wfqTenant
	for _, t := range s.tenants {
		if t.queued == 0 {
			continue
		}
		if best == nil || t.work < best.work || (t.work == best.work && t.key < best.key) {
			best = t
		}
	}
	if best == nil {
		return nil
	}
	var j *Job
	if best.q[0].Len() > 0 {
		j = heap.Pop(&best.q[0]).(*Job)
	} else {
		j = heap.Pop(&best.q[1]).(*Job)
	}
	best.queued--
	s.queued--
	return j
}

func (s *wfqSched) Len() int { return s.queued }

// Dispatched charges cost/weight to the job's tenant and advances the global
// virtual time to the dispatch's start tag. Charging happens at dispatch (not
// at Pop) so sweep jobs held aside for a free slot are not double-billed.
func (s *wfqSched) Dispatched(j *Job, cost float64) {
	t := s.tenants[j.tenant]
	if t == nil {
		t = s.tenant(j.tenant)
	}
	if t.work > s.vtime {
		s.vtime = t.work
	}
	if cost <= 0 {
		cost = 1e-3
	}
	t.work += cost / t.weight
}

// WaitView estimates a new arrival's queue-ahead under fair sharing: it waits
// behind its own tenant's backlog (interactive arrivals only behind the
// tenant's interactive queue) served at the tenant's weight share of the
// pool. A victim tenant with an empty queue therefore sees a near-zero wait
// even while another tenant has thousands of jobs queued — the flood's
// backlog delays only the flood.
func (s *wfqSched) WaitView(tenant string, class Class) (int, float64) {
	var sumW float64
	for _, t := range s.tenants {
		if t.queued > 0 {
			sumW += t.weight
		}
	}
	t := s.tenants[tenant]
	w := s.cfg.Weights[tenant]
	if w <= 0 {
		w = s.cfg.DefaultWeight
	}
	own := 0
	if t != nil {
		w = t.weight
		if class == ClassInteractive {
			own = t.q[0].Len()
		} else {
			own = t.queued
		}
	}
	if t == nil || t.queued == 0 {
		sumW += w
	}
	if sumW <= 0 {
		return own, 1
	}
	return own, w / sumW
}

func (s *wfqSched) Tenants() []TenantQueueStat {
	stats := make([]TenantQueueStat, 0, len(s.tenants))
	for _, t := range s.tenants {
		stats = append(stats, TenantQueueStat{
			Tenant: t.key,
			Queued: t.queued,
			Weight: t.weight,
			VLag:   t.work - s.vtime,
		})
	}
	sort.Slice(stats, func(a, b int) bool { return stats[a].Tenant < stats[b].Tenant })
	return stats
}

// estCost returns the scheduler cost estimate for one job class: the
// per-class EWMA of fresh run latencies, falling back to the other class and
// then to a 1ms floor before any completion has seeded it.
func (ex *Executor) estCostLocked(c Class) float64 {
	cost := ex.avgRunSecByClass[classIdx(c)]
	if cost <= 0 {
		cost = ex.avgRunSecByClass[1-classIdx(c)]
	}
	if cost <= 0 {
		cost = ex.avgRunSec
	}
	if cost < 1e-3 {
		cost = 1e-3
	}
	return cost
}

// estWaitLocked estimates how long a newly queued job of the given tenant and
// class would wait for a worker. The estimate is tenant-local: the arrival
// waits behind its own tenant's backlog served at the tenant's weight share
// of the pool, so one tenant's sweep flood does not cause deadline-shedding
// of another tenant's cheap interactive jobs. Zero until the first
// completion seeds the class EWMAs.
func (ex *Executor) estWaitLocked(tenant string, class Class) time.Duration {
	if ex.avgRunSec <= 0 && ex.avgRunSecByClass[0] <= 0 && ex.avgRunSecByClass[1] <= 0 {
		return 0
	}
	workers := float64(ex.cfg.Workers)
	own, share := ex.sched.WaitView(tenant, class)
	if class == ClassSweep {
		own += len(ex.sweepWait)
	}
	if own == 0 {
		return 0
	}
	rate := share * workers
	if slots := ex.cfg.Admission.SweepSlots; class == ClassSweep && slots > 0 && float64(slots) < rate {
		rate = float64(slots) * share
	}
	if rate <= 0 {
		rate = 1
	}
	return time.Duration(float64(own) * ex.estCostLocked(class) / rate * float64(time.Second))
}
