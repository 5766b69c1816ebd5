package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"aaws/internal/kernels"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// defaultMatrix builds the full default sweep matrix (every kernel × every
// variant) for one system at a small scale, the shape RunBatch is tuned
// for: each kernel contributes at most two partitions (base vs psm LUT).
func defaultMatrix(sys System, scale float64) []Spec {
	var specs []Spec
	for _, kn := range kernels.Names() {
		for _, v := range wsrt.Variants {
			specs = append(specs, Spec{
				Kernel: kn, System: sys, Variant: v, Seed: 42, Scale: scale,
			})
		}
	}
	return specs
}

// TestBatchMatchesSerial is the batch-path gate: RunBatch over the full
// default matrix must be bit-identical, cell for cell, to per-cell Run.
// The batch path shares one engine and one resolved LUT per partition, so
// agreement proves that nothing spec-invariant that runCell re-applies per
// cell (engine state, tracker state, machine wiring) leaks between cells.
func TestBatchMatchesSerial(t *testing.T) {
	systems := []System{Sys4B4L, Sys1B7L}
	if testing.Short() {
		systems = systems[:1]
	}
	for _, sys := range systems {
		specs := defaultMatrix(sys, 0.05)
		if testing.Short() {
			specs = specs[:2*len(wsrt.Variants)]
		}
		serial := make([]uint64, len(specs))
		for i, spec := range specs {
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("%s/%s/%s: serial: %v", spec.Kernel, spec.System, spec.Variant, err)
			}
			serial[i] = fingerprintResult(res)
		}
		results, err := RunBatch(specs)
		if err != nil {
			t.Fatalf("%s: RunBatch: %v", sys, err)
		}
		if len(results) != len(specs) {
			t.Fatalf("%s: RunBatch returned %d results for %d specs", sys, len(results), len(specs))
		}
		for i, res := range results {
			if got := fingerprintResult(res); got != serial[i] {
				spec := specs[i]
				t.Errorf("%s/%s/%s: batch diverged from serial: %x != %x",
					spec.Kernel, spec.System, spec.Variant, got, serial[i])
			}
		}
	}
}

// TestBatchOrderIndependence is the input-order property: shuffling the
// specs must shuffle nothing but the partition groupings — every result
// comes back at its spec's input position, identical to the serial run of
// that spec. Several shuffles exercise different partition interleavings.
func TestBatchOrderIndependence(t *testing.T) {
	specs := defaultMatrix(Sys4B4L, 0.05)
	if testing.Short() {
		specs = specs[:4*len(wsrt.Variants)]
	}
	want := make(map[string]uint64, len(specs))
	for _, spec := range specs {
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s/%s: serial: %v", spec.Kernel, spec.Variant, err)
		}
		want[specKey(spec)] = fingerprintResult(res)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		shuffled := append([]Spec(nil), specs...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		results, err := RunBatch(shuffled)
		if err != nil {
			t.Fatalf("trial %d: RunBatch: %v", trial, err)
		}
		for i, res := range results {
			if got := fingerprintResult(res); got != want[specKey(shuffled[i])] {
				t.Errorf("trial %d: result %d (%s/%s) not the serial result for its input position",
					trial, i, shuffled[i].Kernel, shuffled[i].Variant)
			}
		}
	}
}

// TestBatchValidatesUpFront: a bad cell anywhere in the batch fails the
// whole submission before any simulation runs, naming the cell.
func TestBatchValidatesUpFront(t *testing.T) {
	specs := []Spec{
		{Kernel: kernels.Names()[0], Variant: wsrt.BasePSM, Scale: 0.05},
		{Kernel: "no-such-kernel", Variant: wsrt.BasePSM, Scale: 0.05},
	}
	if _, err := RunBatch(specs); err == nil {
		t.Fatal("RunBatch accepted a batch with an unknown kernel")
	}
}

// TestBatchAmortizesAllocations pins the perf claim behind the batch path:
// in steady state (warm engine cache, warm LUT cache) a single-partition
// batch must allocate strictly less than the same cells run one by one,
// because the per-cell env construction (tracker, engine checkout, LUT
// resolve) happens once per partition instead of once per cell. Alloc
// counts of the deterministic simulator are stable, so this is exact.
func TestBatchAmortizesAllocations(t *testing.T) {
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Kernel: "matmul", Variant: wsrt.BasePSM, Seed: uint64(i + 1), Scale: 0.02}
	}
	run := func() {
		if _, err := RunBatch(specs); err != nil {
			t.Fatal(err)
		}
	}
	serial := func() {
		for _, spec := range specs {
			if _, err := Run(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm both paths (engine cache, LUT cache) before measuring.
	run()
	serial()
	batchAllocs := testing.AllocsPerRun(5, run)
	serialAllocs := testing.AllocsPerRun(5, serial)
	if batchAllocs >= serialAllocs {
		t.Errorf("batch path allocates %.0f per batch, serial %.0f — amortization lost",
			batchAllocs, serialAllocs)
	}
}

// TestEngineCacheBounds: the warm-engine cache is LIFO, bounded at max,
// and get drains it before minting fresh engines.
func TestEngineCacheBounds(t *testing.T) {
	c := &engineCache{max: 2, ttl: time.Hour, now: time.Now}
	e1, e2, e3 := sim.NewEngine(), sim.NewEngine(), sim.NewEngine()
	c.put(e1)
	c.put(e2)
	c.put(e3) // over max: dropped
	if got := c.warm(); got != 2 {
		t.Fatalf("warm = %d after filling a max-2 cache, want 2", got)
	}
	if got := c.get(); got != e2 {
		t.Error("get did not return the most recently returned engine")
	}
	if got := c.get(); got != e1 {
		t.Error("second get did not return the older engine")
	}
	if c.get() == nil {
		t.Error("empty cache must mint a fresh engine")
	}
	if got := c.warm(); got != 0 {
		t.Errorf("warm = %d after draining, want 0", got)
	}
}

// TestEngineCacheDecay: engines idle past the TTL are dropped by the
// janitor; fresher ones survive. The clock is stubbed so the test is
// instant and deterministic.
func TestEngineCacheDecay(t *testing.T) {
	base := time.Unix(0, 0)
	clock := base
	c := &engineCache{max: 8, ttl: time.Hour, now: func() time.Time { return clock }}
	c.put(sim.NewEngine()) // idle since base
	clock = base.Add(45 * time.Minute)
	c.put(sim.NewEngine()) // idle since base+45m
	clock = base.Add(61 * time.Minute)
	c.decay()
	if got := c.warm(); got != 1 {
		t.Fatalf("warm = %d after decay at +61m with TTL 1h, want 1 survivor", got)
	}
	clock = base.Add(3 * time.Hour)
	c.decay()
	if got := c.warm(); got != 0 {
		t.Fatalf("warm = %d after decay well past TTL, want 0", got)
	}
}

// TestLUTCacheLRU: the LUT cache evicts the least-recently-used table at
// capacity instead of refusing new entries, and a hit refreshes recency.
// The cache is drained for the duration (eviction removes one entry per
// insert, so a pre-populated cache would mask the bound) and restored
// afterwards so other tests keep their warm tables.
func TestLUTCacheLRU(t *testing.T) {
	lutCache.Lock()
	savedM, savedHead, savedTail, savedMax := lutCache.m, lutCache.head, lutCache.tail, lutCache.max
	lutCache.m = map[lutKey]*lutNode{}
	lutCache.head, lutCache.tail = nil, nil
	lutCache.max = 2
	lutCache.Unlock()
	defer func() {
		lutCache.Lock()
		lutCache.m, lutCache.head, lutCache.tail, lutCache.max = savedM, savedHead, savedTail, savedMax
		lutCache.Unlock()
	}()

	// Distinct core mixes give distinct keys; the kernel and mode stay fixed.
	probe := func(nLit int) lutKey {
		spec := Spec{Kernel: "cilksort", NBig: 1, NLit: nLit, Variant: wsrt.Base}
		m, err := resolveMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		key := lutKeyOf(m, spec)
		if cachedLUT(m, key) == nil {
			t.Fatalf("cachedLUT returned nil for 1B%dL", nLit)
		}
		return key
	}
	contains := func(k lutKey) bool {
		lutCache.Lock()
		defer lutCache.Unlock()
		_, ok := lutCache.m[k]
		return ok
	}

	a := probe(1) // cache: [A]
	b := probe(2) // cache: [B A]
	probe(1)      // A hit, refreshed: [A B]
	c := probe(3) // evicts LRU = B: [C A]

	lutCache.Lock()
	n := len(lutCache.m)
	lutCache.Unlock()
	if n != 2 {
		t.Fatalf("LUT cache has %d entries, want 2 (bounded by max)", n)
	}
	if contains(b) {
		t.Error("B survived eviction; the hit on A should have made B the LRU victim")
	}
	if !contains(a) || !contains(c) {
		t.Error("A and C must survive: A was refreshed by its hit, C is newest")
	}
}

// sharedInputMatrix is a batch whose cells share inputs across both
// systems, an N-way topology and every variant, with each input's cells
// interleaved with other inputs' cells: variant outermost, then machine,
// then kernel, then (seed, scale). Check is on, so the cells of a group also
// share the prepared input's serial references.
func sharedInputMatrix() []Spec {
	machines := []Spec{
		{System: Sys4B4L},
		{System: Sys1B7L},
		{Topology: []CoreClass{{Count: 1, Speed: 4, Power: 3}, {Count: 3, Speed: 2, Power: 1.8}, {Count: 4}}},
	}
	var specs []Spec
	for _, v := range wsrt.Variants {
		for _, m := range machines {
			for _, kn := range []string{"cilksort", "bfs-nd", "rdups", "heat", "loop-guided"} {
				for _, in := range []struct {
					seed  uint64
					scale float64
				}{{7, 0.05}, {8, 0.05}, {7, 0.1}} {
					s := m
					s.Kernel, s.Variant, s.Seed, s.Scale, s.Check = kn, v, in.seed, in.scale, true
					specs = append(specs, s)
				}
			}
		}
	}
	return specs
}

// TestBatchSharedInputsMatchRun: a batch that prepares each input once
// and runs it on every machine and variant that uses it is bit-identical,
// whole Result for whole Result, to running each cell alone.
func TestBatchSharedInputsMatchRun(t *testing.T) {
	specs := sharedInputMatrix()
	results, err := RunBatch(append([]Spec(nil), specs...))
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, err := Run(spec)
		if err != nil {
			t.Fatalf("cell %d: Run: %v", i, err)
		}
		if err := results[i].Verify(); err != nil {
			t.Errorf("cell %d (%s/%s/%s seed %d scale %g): %v", i, spec.Kernel, spec.System, spec.Variant, spec.Seed, spec.Scale, err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("cell %d (%s/%s/%s seed %d scale %g): batch result differs from Run",
				i, spec.Kernel, spec.System, spec.Variant, spec.Seed, spec.Scale)
		}
	}
}

// TestBatchConcurrentSharedInputs runs the shared-input batch from several
// goroutines at once, as the jobs executor's workers do with gangs over
// the same (kernel, seed). Each batch prepares its own inputs, so under the
// race detector this proves no prepared input escapes the batch that made
// it; every batch must still match the sequential one.
func TestBatchConcurrentSharedInputs(t *testing.T) {
	specs := sharedInputMatrix()
	if testing.Short() {
		specs = specs[:len(specs)/len(wsrt.Variants)]
	}
	want, err := RunBatch(append([]Spec(nil), specs...))
	if err != nil {
		t.Fatal(err)
	}
	const batches = 3
	got := make([][]Result, batches)
	errs := make([]error, batches)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			got[b], errs[b] = RunBatch(append([]Spec(nil), specs...))
		}(b)
	}
	wg.Wait()
	for b := 0; b < batches; b++ {
		if errs[b] != nil {
			t.Fatalf("batch %d: %v", b, errs[b])
		}
		if !reflect.DeepEqual(got[b], want) {
			t.Errorf("batch %d differs from the sequential batch", b)
		}
	}
}
