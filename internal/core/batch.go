package core

import (
	"context"
	"fmt"

	"aaws/internal/kernels"
)

// This file implements the batch execution path. RunBatch checks out one
// engine for the whole batch, resolves each partition's (machine/LUT/model
// signature) environment once, and prepares each kernel input once per
// input group — the cells sharing a (kernel, seed, scale) — instead of
// paying an engine-cache round-trip, a LUT lookup and an input generation
// for every cell. Results are bit-identical to per-cell Run calls — runCell
// resets the engine and tracker and takes a fresh instance of the input
// either way — so the batch path is a pure amortization, gated by the
// determinism fingerprint tests.

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

// RunBatch executes a batch of specs, amortizing the engine across the
// batch, LUT and tracker setup across cells that share a partition
// signature, and input preparation across cells that share an input, and
// returns results in input order. The first failing cell aborts the batch.
func RunBatch(specs []Spec) ([]Result, error) {
	return RunBatchCtx(context.Background(), specs)
}

// inputKey identifies a prepared kernel input: cells with equal keys run
// the same generated data.
type inputKey struct {
	kernel string
	seed   uint64
	scale  float64
}

// RunBatchCtx is RunBatch under a context. Cells run sequentially on one
// engine, grouped by input: each (kernel, seed, scale) group runs back to
// back, whatever system or partition its cells belong to, with its input
// prepared once on entry and dropped on exit, so only one prepared input is
// live at a time. Groups run in first-appearance order; concurrency across
// batches is the caller's job (the jobs executor runs batches on its worker
// pool). Cancellation aborts the current cell and returns its error.
func RunBatchCtx(ctx context.Context, specs []Spec) ([]Result, error) {
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

	// Group by input, preserving first-appearance order of groups and
	// input order of cells within each.
	groups := make(map[inputKey][]int)
	var keys []inputKey
	for i := range specs {
		k := inputKey{specs[i].Kernel, specs[i].Seed, specs[i].Scale}
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}

	// The engine does not depend on the partition (runCell resets it), so
	// one serves the whole batch; each partition resolves its LUT and
	// tracker once, on its first cell.
	eng := engines.get()
	envs := make(map[partitionKey]*cellEnv)
	results := make([]Result, len(specs))
	for _, k := range keys {
		in := kernels.Get(k.kernel).Prepare(k.seed, k.scale)
		for _, i := range groups[k] {
			pk := partitionKeyOf(specs[i], machines[i])
			env := envs[pk]
			if env == nil {
				e := newCellEnv(specs[i], machines[i], eng)
				env = &e
				envs[pk] = env
			}
			res, reuse, err := runCell(ctx, specs[i], env, in)
			if err != nil {
				if reuse {
					engines.put(eng)
				}
				s := specs[i]
				return nil, fmt.Errorf("core: batch cell %d (%s/%s/%s): %w",
					i, s.Kernel, s.System, s.Variant, err)
			}
			results[i] = res
		}
	}
	engines.put(eng)
	return results, nil
}
