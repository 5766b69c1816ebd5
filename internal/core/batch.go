package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"aaws/internal/kernels"
	"aaws/internal/sim"
)

// This file implements the batch execution path. RunBatch checks out one
// engine per worker for the whole batch, resolves each partition's
// (machine/LUT/model signature) environment once per worker, and prepares
// each kernel input once per input group — the cells sharing a (kernel,
// seed, scale) — instead of paying an engine-cache round-trip, a LUT lookup
// and an input generation for every cell. Results are bit-identical to
// per-cell Run calls — runCell resets the engine and tracker and takes a
// fresh instance of the input either way — so the batch path is a pure
// amortization, gated by the determinism fingerprint tests.

// partitionKey is the batch partition signature: everything that
// determines the machine configuration, the power parameters, and the
// DVFS lookup table for a cell. Two specs with equal keys can share a
// cellEnv; anything not in the key (seed, scale, variant-level scheduler
// policy, tracing, checking, fault schedules) is applied per-cell by
// runCell and cannot leak between cells.
//
// The kernel name is part of the signature because the power parameters
// (alpha/beta) and the memory-stall rate (MPKI) derive from the kernel's
// Table III row. The LUT mode is derived from the variant — base and psm
// variants use different tables — so variants appear in the key only
// through that projection, and the common sweep shape (one kernel, five
// variants) collapses to at most two partitions per kernel.
type partitionKey struct {
	kernel          string
	lut             lutKey // machine signature, LUT mode and α/β override
	interruptCycles int    // resolved (0 means the default 20)
	transitionNs    float64
	memStall        bool
	// Elastic mode is deliberately NOT part of the key: like the variant
	// and seed it is a per-cell runtime knob applied by runCell.
}

// partitionKeyOf computes the signature of a validated spec on its
// resolved machine m. A topology that resolves to a preset's class list has
// the preset's signature, so it shares that partition and its environment.
func partitionKeyOf(spec Spec, m machineDesc) partitionKey {
	return partitionKey{
		kernel:          spec.Kernel,
		lut:             lutKeyOf(m, spec),
		interruptCycles: spec.InterruptCycles,
		transitionNs:    spec.TransitionNsPerStep,
		memStall:        spec.MemStall,
	}
}

// RunBatch executes a batch of specs, amortizing engines across the batch,
// LUT and tracker setup across cells that share a partition signature, and
// input preparation across cells that share an input, and returns results
// in input order. Input groups run in parallel on up to GOMAXPROCS
// goroutines; the first failing cell in group order aborts the batch.
func RunBatch(specs []Spec) ([]Result, error) {
	return RunBatchCtx(context.Background(), specs)
}

// RunBatchCtx is RunBatch under a context: RunBatchWidth at a width of
// GOMAXPROCS.
func RunBatchCtx(ctx context.Context, specs []Spec) ([]Result, error) {
	return RunBatchWidth(ctx, specs, runtime.GOMAXPROCS(0))
}

// inputKey identifies a prepared kernel input: cells with equal keys run
// the same generated data.
type inputKey struct {
	kernel string
	seed   uint64
	scale  float64
}

// RunBatchWidth runs a batch on up to width goroutines, the calling one
// included. Cells are grouped by input: each (kernel, seed, scale) group
// runs back to back on one worker, whatever system or partition its cells
// belong to, with its input prepared once on entry and dropped on exit, so
// at most one prepared input per worker is live at a time. Workers claim
// groups in first-appearance order from a shared cursor, so uneven group
// costs balance themselves; each worker owns one engine and its own
// partition environments, while the LUT cache and prepared inputs are
// shared. Results land at their cells' input positions, so the output does
// not depend on the width.
//
// Failures match a width-1 run: the batch reports the first failing cell in
// group order. After group g fails, workers finish the groups before g and
// claim none after it, and a panic on any worker is re-raised here.
// Cancellation aborts every worker's current cell and returns the error of
// the earliest aborted group. The jobs executor runs its gangs at width 1:
// it already runs batches concurrently on its worker pool.
func RunBatchWidth(ctx context.Context, specs []Spec, width int) ([]Result, error) {
	// Validate everything up front: a batch either starts fully formed or
	// not at all, so a typo in cell 93 cannot waste 92 simulations.
	machines := make([]machineDesc, len(specs))
	for i := range specs {
		if specs[i].Scale == 0 {
			specs[i].Scale = 1.0
		}
		m, err := specs[i].resolve()
		if err != nil {
			return nil, fmt.Errorf("core: batch cell %d: %w", i, err)
		}
		machines[i] = m
	}
	groups := groupByInput(specs)
	b := &batchRun{
		ctx: ctx, specs: specs, machines: machines, groups: groups,
		results: make([]Result, len(specs)),
		failed:  len(groups),
	}
	for w := 1; w < min(width, len(groups)); w++ {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.work()
		}()
	}
	b.work()
	b.wg.Wait()
	if b.panicVal != nil {
		panic(b.panicVal)
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.results, nil
}

// groupByInput partitions cell indices by input: groups in first-appearance
// order, cells in input order within each, every group a window of one
// backing array.
func groupByInput(specs []Spec) [][]int {
	ids := make(map[inputKey]int)
	sizes := make([]int, 0, len(specs))
	for i := range specs {
		k := inputKey{specs[i].Kernel, specs[i].Seed, specs[i].Scale}
		g, seen := ids[k]
		if !seen {
			g = len(sizes)
			ids[k] = g
			sizes = append(sizes, 0)
		}
		sizes[g]++
	}
	groups := make([][]int, len(sizes))
	cells := make([]int, len(specs))
	off := 0
	for g, n := range sizes {
		groups[g] = cells[off : off : off+n]
		off += n
	}
	for i := range specs {
		g := ids[inputKey{specs[i].Kernel, specs[i].Seed, specs[i].Scale}]
		groups[g] = append(groups[g], i)
	}
	return groups
}

// batchRun is the state the workers of one RunBatchWidth call share.
type batchRun struct {
	ctx      context.Context
	specs    []Spec
	machines []machineDesc
	groups   [][]int
	results  []Result     // each index written by the one worker running its group
	next     atomic.Int64 // cursor: the next unclaimed group
	wg       sync.WaitGroup

	mu       sync.Mutex
	failed   int   // earliest failed group; len(groups) while none has
	err      error // its error, or
	panicVal any   // the panic to re-raise, with the worker's stack
}

// work is one batch worker: it claims groups until none is left or an
// earlier group has failed, running them on its own engine and partition
// environments (a cellEnv binds an engine and a mutable tracker).
func (b *batchRun) work() {
	eng := engines.get()
	envs := make(map[partitionKey]*cellEnv)
	for {
		g := int(b.next.Add(1)) - 1
		if g >= len(b.groups) || b.failedBefore(g) {
			break
		}
		if !b.runGroup(g, eng, envs) {
			// Aborted runs leave a drained root-program goroutine that may
			// still briefly reference the engine: forfeit it.
			return
		}
	}
	engines.put(eng)
}

// runGroup prepares group g's input and runs its cells in input order,
// recording a failure against g. It reports whether eng is still usable:
// a failed group stops the worker at its next claim, which comes after g.
func (b *batchRun) runGroup(g int, eng *sim.Engine, envs map[partitionKey]*cellEnv) (reuse bool) {
	defer func() {
		if r := recover(); r != nil {
			b.fail(g, nil, fmt.Sprintf("%v\n%s", r, debug.Stack()))
			reuse = false
		}
	}()
	cells := b.groups[g]
	first := b.specs[cells[0]]
	in := kernels.Get(first.Kernel).Prepare(first.Seed, first.Scale)
	for _, i := range cells {
		if b.failedBefore(g) {
			return true // an earlier group failed: the rest is moot
		}
		spec := b.specs[i]
		pk := partitionKeyOf(spec, b.machines[i])
		env := envs[pk]
		if env == nil {
			e := newCellEnv(spec, b.machines[i], eng)
			env = &e
			envs[pk] = env
		}
		res, engOK, err := runCell(b.ctx, spec, env, in)
		if err != nil {
			b.fail(g, fmt.Errorf("core: batch cell %d (%s/%s/%s): %w",
				i, spec.Kernel, MachineName(spec), spec.Variant, err), nil)
			return engOK
		}
		b.results[i] = res
	}
	return true
}

// fail records group g's failure unless an earlier group's is already
// recorded, so the batch reports the failure a width-1 run would.
func (b *batchRun) fail(g int, err error, panicVal any) {
	b.mu.Lock()
	if g < b.failed {
		b.failed, b.err, b.panicVal = g, err, panicVal
	}
	b.mu.Unlock()
}

// failedBefore reports whether a group earlier than g has failed.
func (b *batchRun) failedBefore(g int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failed < g
}
