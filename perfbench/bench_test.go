package main

import (
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},  // p50 leaves only 9 beyond
		{20, 50, true},  // p50 leaves exactly 10
		{39, 50, true},  // p75 leaves 9
		{40, 75, true},  // p75 leaves 10
		{100, 90, true}, // p95 leaves 5
		{200, 95, true},
		{999, 95, true}, // p99 leaves 9
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%g has %d beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestDistTail(t *testing.T) {
	var d dist
	for i := 1; i <= 100; i++ {
		d.add(float64(i))
	}
	v, p := d.tail()
	if p != 90 || v < 90 || v > 91 {
		t.Errorf("tail of 1..100 = %g at p%g, want ~90.1 at p90", v, p)
	}
	var few dist
	few.add(3)
	few.add(7)
	if v, p := few.tail(); v != 7 || p != 100 {
		t.Errorf("tail of two samples = %g at p%g, want the maximum at p100", v, p)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},  // covered 10..30
		{ID: 2, Parent: 0, Start: 20, End: 40},  // overlaps child 1: union 10..40
		{ID: 3, Parent: 0, Start: 90, End: 150}, // outlives the parent: 90..100 counts
		{ID: 4, Parent: 3, Start: 95, End: 120},
		{ID: 5, Parent: -1, Start: 200, End: 210}, // root without children
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - 30 - 10, 1: 20, 2: 20, 3: 60 - 25, 4: 25, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestSummarizeSpans(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	root := tr.record("req", -1, tr.newTrace(), t0, t0.Add(10*time.Millisecond))
	tr.record("http", root, 1, t0.Add(2*time.Millisecond), t0.Add(6*time.Millisecond))
	sums := summarizeSpans(tr.snapshot())
	if len(sums) != 2 || sums[1].Name != "req" || sums[1].SelfMs != 6 || sums[0].SelfMs != 4 {
		t.Errorf("summaries = %+v", sums)
	}
	var off *tracer
	if id := off.record("x", -1, off.newTrace(), t0, t0); id != -1 || off.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestScheduleDeterminedBySeed(t *testing.T) {
	a := schedule(42, 5, 400)
	b := schedule(42, 5, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := schedule(43, 5, 400)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 2000 {
		t.Fatalf("%d arrivals, want rate*seconds = 2000", len(a))
	}
	kinds := map[reqKind]int{}
	fresh := map[uint64]bool{}
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatal("arrivals out of order")
		}
		if x.due < 0 || x.due >= 5*time.Second {
			t.Fatalf("arrival %d due at %v, outside the run", i, x.due)
		}
		kinds[x.kind]++
		if x.kind == kindMiss {
			if fresh[x.spec.Seed] {
				t.Fatalf("fresh seed %d repeats", x.spec.Seed)
			}
			fresh[x.spec.Seed] = true
		}
	}
	if h := float64(kinds[kindHit]) / float64(len(a)); h < 0.65 || h > 0.75 {
		t.Errorf("hit share %.2f, want about %.2f", h, hotShare)
	}
	if kinds[kindSweep] == 0 || kinds[kindMiss] == 0 {
		t.Errorf("kind counts %v: every kind must occur", kinds)
	}
	if !reflect.DeepEqual(hotSpecs(42), hotSpecs(42)) || reflect.DeepEqual(hotSpecs(42), hotSpecs(43)) {
		t.Error("hot specs must be determined by the seed alone")
	}
}

func TestFreshSeedsDeterminedBySeed(t *testing.T) {
	draw := func(seed uint64) []uint64 {
		r := seedStream(seed, 3)
		return []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	}
	if !reflect.DeepEqual(draw(7), draw(7)) || reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("fabric fresh seeds must be determined by the seed alone")
	}
}

func TestCellChecksCountEachCellOnce(t *testing.T) {
	res := newResult()
	c := newCellChecks(res, 10)
	c.fail(2, 3, "cell 2 wrong")
	c.fail(0, 5, "first half wrong")
	c.fail(0, 10, "fingerprint wrong")
	if res.failed != 10 || len(res.failures) != 3 {
		t.Errorf("failed=%d with %d reasons, want 10 cells and 3 reasons", res.failed, len(res.failures))
	}
}
