package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
)

// A scenario is a named multi-tenant traffic shape: which tenants exist, how
// each one paces itself (open-loop QPS or closed-loop concurrency), and what
// mix of job kinds it submits. Scenarios are fully determined by the run
// seed, so two runs against different server configurations submit the same
// specs and their reports are comparable line for line.
type scenario struct {
	Name        string
	Description string
	Tenants     []tenantLoad
}

// tenantLoad is one tenant's traffic shape.
type tenantLoad struct {
	Name string
	// OpenQPS > 0 paces submissions open-loop at that rate regardless of
	// completions (the overload-generating mode); otherwise Closed workers
	// run closed-loop: submit, wait for the job to finish, repeat.
	OpenQPS float64
	Closed  int

	// Mix fractions (the remainder is interactive singles drawn from a
	// medium warm pool). HotFrac draws from a HotPool-sized replay set
	// (cache-hot); ColdFrac draws a never-repeated seed (cache-miss flood);
	// SweepFrac submits a small batch sweep matrix.
	HotFrac   float64
	ColdFrac  float64
	SweepFrac float64
	HotPool   int

	// SweepKernels widens each sweep matrix to this many kernels (default
	// 1). Multi-kernel matrices exercise the executor's gang dispatch and
	// the partitioned batch path: every kernel × variant block shares a
	// pinned engine, so wider sweeps amortize more per submission.
	SweepKernels int

	// Protected marks tenants whose latency/shed budgets matter (the
	// victims, not the floods): warn-only budget checks apply to them.
	Protected bool
}

// scenarios are the built-in traffic shapes.
var scenarios = map[string]scenario{
	"mixed": {
		Name:        "mixed",
		Description: "three tenants with realistic blended traffic: an interactive API tenant, a batch-sweep tenant, and a bursty ML tenant",
		Tenants: []tenantLoad{
			{Name: "team-api", OpenQPS: 25, HotFrac: 0.6, ColdFrac: 0.1, HotPool: 8, Protected: true},
			{Name: "team-batch", Closed: 2, SweepFrac: 0.4, ColdFrac: 0.6},
			{Name: "team-ml", OpenQPS: 10, HotFrac: 0.3, ColdFrac: 0.7, HotPool: 4},
		},
	},
	"adversarial": {
		Name:        "adversarial",
		Description: "a cache-miss flood (unique specs at high QPS) attacking a low-rate interactive victim replaying a small hot set — the QoS isolation acceptance scenario",
		Tenants: []tenantLoad{
			{Name: "flood", OpenQPS: 90, ColdFrac: 1.0},
			{Name: "victim", OpenQPS: 5, HotFrac: 0.8, ColdFrac: 0.2, HotPool: 4, Protected: true},
		},
	},
	"cache-hot": {
		Name:        "cache-hot",
		Description: "two tenants replaying small hot sets: measures steady-state cache behavior and fair sharing without overload",
		Tenants: []tenantLoad{
			{Name: "replay-a", OpenQPS: 40, HotFrac: 1.0, HotPool: 6, Protected: true},
			{Name: "replay-b", OpenQPS: 40, HotFrac: 1.0, HotPool: 6, Protected: true},
		},
	},
	"batch-sweep": {
		Name:        "batch-sweep",
		Description: "gang-dispatch stress: closed-loop tenants pushing multi-kernel sweep matrices through the batch execution path while a protected interactive tenant rides alongside",
		Tenants: []tenantLoad{
			{Name: "sweeper-a", Closed: 2, SweepFrac: 1.0, SweepKernels: 3},
			{Name: "sweeper-b", Closed: 1, SweepFrac: 0.7, ColdFrac: 0.3, SweepKernels: 2},
			{Name: "interactive", OpenQPS: 10, HotFrac: 0.5, HotPool: 8, Protected: true},
		},
	},
}

// sweepKernelPool is the deterministic draw set for multi-kernel sweep
// matrices (a cheap slice of the Table III kernels; the names must stay
// valid kernel registry entries).
var sweepKernelPool = []string{"cilksort", "matmul", "dict", "radix-1", "hull"}

func scenarioNames() string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ---- deterministic corpus ----

// reqKind classifies one generated request.
type reqKind int

const (
	kindInteractive reqKind = iota // warm-pool single
	kindHot                        // hot-pool replay (cache-hot)
	kindCold                       // unique seed (cache miss)
	kindSweep                      // batch sweep matrix
)

func (k reqKind) String() string {
	switch k {
	case kindHot:
		return "hot"
	case kindCold:
		return "cold"
	case kindSweep:
		return "sweep"
	}
	return "interactive"
}

// genRequest is one request the corpus produced: a job submission (Seed set)
// or a sweep submission (SweepSeeds set, plus the kernels of the matrix).
type genRequest struct {
	Kind         reqKind
	Seed         uint64
	SweepSeeds   []uint64
	SweepKernels []string
}

// corpus deterministically generates one tenant's request stream. Seeds are
// partitioned per tenant (FNV offset) so tenants never collide except by
// design, and the draw sequence depends only on (runSeed, tenant) — never on
// timing — so WFQ and FIFO runs replay identical work.
type corpus struct {
	load     tenantLoad
	rng      *rand.Rand
	base     uint64 // tenant seed-space offset
	coldNext uint64 // monotone unique-seed counter
}

func newCorpus(runSeed int64, load tenantLoad) *corpus {
	h := fnv.New64a()
	fmt.Fprint(h, load.Name)
	base := h.Sum64() &^ (1<<20 - 1) // tenant-sized seed partitions
	return &corpus{
		load: load,
		rng:  rand.New(rand.NewSource(runSeed ^ int64(h.Sum64()))),
		base: base,
	}
}

// next draws the tenant's next request.
func (c *corpus) next() genRequest {
	roll := c.rng.Float64()
	switch {
	case roll < c.load.HotFrac:
		pool := c.load.HotPool
		if pool < 1 {
			pool = 1
		}
		return genRequest{Kind: kindHot, Seed: c.base + uint64(c.rng.Intn(pool))}
	case roll < c.load.HotFrac+c.load.ColdFrac:
		c.coldNext++
		return genRequest{Kind: kindCold, Seed: c.base + 1<<19 + c.coldNext}
	case roll < c.load.HotFrac+c.load.ColdFrac+c.load.SweepFrac:
		// A small sweep matrix widened to SweepKernels kernels drawn
		// deterministically from the pool. Each submission lands as one
		// executor gang, so a wide matrix runs on one worker through the
		// partitioned batch path. The server expands every (kernel, seed)
		// across all five variants, and gang admission counts each cell
		// against the tenant's queue share, so the seed count shrinks as
		// the kernel count grows to keep the matrix admissible (~15 cells)
		// rather than atomically rejected.
		n := c.load.SweepKernels
		if n < 1 {
			n = 1
		}
		if n > len(sweepKernelPool) {
			n = len(sweepKernelPool)
		}
		seedsN := 1
		if n == 1 {
			seedsN = 3
		}
		seeds := make([]uint64, seedsN)
		for i := range seeds {
			c.coldNext++
			seeds[i] = c.base + 1<<19 + c.coldNext
		}
		start := c.rng.Intn(len(sweepKernelPool))
		names := make([]string, n)
		for i := range names {
			names[i] = sweepKernelPool[(start+i)%len(sweepKernelPool)]
		}
		return genRequest{Kind: kindSweep, SweepSeeds: seeds, SweepKernels: names}
	default:
		// Interactive singles from a warm pool: repeats happen, but the
		// pool is wide enough that many submissions still simulate.
		return genRequest{Kind: kindInteractive, Seed: c.base + 1<<18 + uint64(c.rng.Intn(64))}
	}
}
