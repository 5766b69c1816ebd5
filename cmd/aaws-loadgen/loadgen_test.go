package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"aaws/internal/kernels"
)

// TestCorpusDeterministic pins the comparability guarantee: the same
// (seed, tenant) produces an identical request sequence, a different seed a
// different one, and different tenants draw from disjoint seed spaces.
func TestCorpusDeterministic(t *testing.T) {
	load := scenarios["adversarial"].Tenants[1] // victim: hot + cold mix
	a := newCorpus(42, load)
	b := newCorpus(42, load)
	var seqA, seqB []genRequest
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.next())
		seqB = append(seqB, b.next())
	}
	if !reflect.DeepEqual(seqA, seqB) {
		t.Fatal("same seed and tenant produced different request sequences")
	}

	c := newCorpus(43, load)
	diverged := false
	for i := 0; i < 200; i++ {
		if !reflect.DeepEqual(c.next(), seqA[i]) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced an identical request sequence")
	}

	floodSeeds := map[uint64]bool{}
	flood := newCorpus(42, scenarios["adversarial"].Tenants[0])
	for i := 0; i < 500; i++ {
		r := flood.next()
		if r.Kind == kindCold && floodSeeds[r.Seed] {
			t.Fatalf("cold seed %d repeated (cache-miss floods must never hit)", r.Seed)
		}
		floodSeeds[r.Seed] = true
	}
	for _, r := range seqA {
		if floodSeeds[r.Seed] {
			t.Fatalf("victim seed %d collides with the flood's seed space", r.Seed)
		}
	}
}

// TestBatchSweepCorpus checks the gang-dispatch scenario's sweep matrices:
// every draw from the pure-sweep tenant is a sweep, widened to the
// configured kernel count, with names the server-side kernel registry will
// accept and no duplicate kernel within one matrix.
func TestBatchSweepCorpus(t *testing.T) {
	sc, ok := scenarios["batch-sweep"]
	if !ok {
		t.Fatal("batch-sweep scenario missing")
	}
	load := sc.Tenants[0] // sweeper-a: SweepFrac 1.0
	crp := newCorpus(42, load)
	for i := 0; i < 50; i++ {
		r := crp.next()
		if r.Kind != kindSweep {
			t.Fatalf("draw %d: kind = %s, want sweep (SweepFrac 1.0)", i, r.Kind)
		}
		if len(r.SweepKernels) != load.SweepKernels {
			t.Fatalf("draw %d: %d kernels, want %d", i, len(r.SweepKernels), load.SweepKernels)
		}
		seen := map[string]bool{}
		for _, name := range r.SweepKernels {
			if kernels.Get(name) == nil {
				t.Fatalf("draw %d: kernel %q not in the registry", i, name)
			}
			if seen[name] {
				t.Fatalf("draw %d: kernel %q repeated within one matrix", i, name)
			}
			seen[name] = true
		}
		if len(r.SweepSeeds) == 0 {
			t.Fatalf("draw %d: sweep without seeds", i)
		}
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1},
	}
	for _, c := range cases {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestJainIndex(t *testing.T) {
	if got := jainIndex([]float64{10, 10, 10, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal allocations: index = %v, want 1", got)
	}
	if got := jainIndex([]float64{40, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("one tenant hogging: index = %v, want 0.25 (1/n)", got)
	}
	if got := jainIndex(nil); got != 1 {
		t.Errorf("no tenants: index = %v, want 1", got)
	}
}

// TestReportInvariantAccounting checks that dropped outcomes are caught: a
// tally whose categories do not sum to its request count is a violation.
func TestReportInvariantAccounting(t *testing.T) {
	col := newCollector()
	col.add(outcome{tenant: "a", accepted: true, completed: true, latency: 5 * time.Millisecond})
	col.add(outcome{tenant: "a", shed: true})
	col.add(outcome{tenant: "a", limited: true})
	col.add(outcome{tenant: "a", errored: true})
	col.add(outcome{tenant: "a", accepted: true}) // unresolved

	rep := buildReport(col, scenarios["adversarial"], 1, time.Second, "test")
	rep.checkInvariants()

	want := map[string]bool{
		"errors":         false,
		"terminal state": false,
	}
	for _, v := range rep.Violations {
		for k := range want {
			if len(v) > 0 && containsSub(v, k) {
				want[k] = true
			}
		}
	}
	tr := rep.Tenants["a"]
	if tr.Requests != 5 || tr.Accepted != 2 || tr.Shed != 1 || tr.RateLimited != 1 || tr.Errors != 1 {
		t.Fatalf("tally = %+v", tr)
	}
	if !want["errors"] || !want["terminal state"] {
		t.Fatalf("violations %v missing errors/unresolved findings", rep.Violations)
	}
	// Accounting itself must balance for a well-formed tally.
	for _, v := range rep.Violations {
		if containsSub(v, "accounting") {
			t.Fatalf("unexpected accounting violation: %s", v)
		}
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
