package input

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	if ExptSeqFloat(1, 100)[42] != ExptSeqFloat(1, 100)[42] {
		t.Error("ExptSeqFloat not deterministic")
	}
	a := RandLocalGraph(7, 5, 500)
	b := RandLocalGraph(7, 5, 500)
	for v := 0; v < 500; v++ {
		an, bn := a.Neighbors(v), b.Neighbors(v)
		if len(an) != len(bn) {
			t.Fatalf("graph not deterministic at %d", v)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("graph not deterministic at %d", v)
			}
		}
	}
}

func TestExptSeqSkew(t *testing.T) {
	xs := ExptSeqFloat(3, 20000)
	// Exponential: mean ~ n, median ~ n*ln2; strong right skew.
	var sum float64
	for _, x := range xs {
		if x < 0 {
			t.Fatal("negative sample")
		}
		sum += x
	}
	mean := sum / float64(len(xs))
	below := 0
	for _, x := range xs {
		if x < mean {
			below++
		}
	}
	if frac := float64(below) / float64(len(xs)); frac < 0.58 || frac > 0.68 {
		t.Errorf("%.2f of samples below mean, want ~0.63 for exponential", frac)
	}
}

func TestTrigramWordsHaveDuplicates(t *testing.T) {
	words := TrigramWords(5, 20000)
	set := map[string]bool{}
	for _, w := range words {
		if len(w) < 3 || len(w) > 10 {
			t.Fatalf("word length %d out of range: %q", len(w), w)
		}
		set[w] = true
	}
	if len(set) == len(words) {
		t.Error("no duplicate words; rdups/dict need duplication")
	}
	if len(set) < 100 {
		t.Errorf("only %d distinct words; too degenerate", len(set))
	}
}

func TestGraphStructure(t *testing.T) {
	const n, d = 2000, 5
	g := RandLocalGraph(11, d, n)
	if g.N != n {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() != 2*n*d {
		t.Errorf("edges = %d, want %d (symmetric)", g.NumEdges(), 2*n*d)
	}
	// Symmetry: u in adj(v) iff v in adj(u) with equal multiplicity.
	count := map[[2]int32]int{}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) == v {
				t.Fatalf("self loop at %d", v)
			}
			count[[2]int32{int32(v), u}]++
		}
	}
	for k, c := range count {
		if count[[2]int32{k[1], k[0]}] != c {
			t.Fatalf("asymmetric edge %v", k)
		}
	}
}

func TestEdgesValid(t *testing.T) {
	f := func(seed uint64) bool {
		edges := RandLocalEdges(seed, 3, 200)
		for _, e := range edges {
			if e.U < 0 || e.U >= 200 || e.V < 0 || e.V >= 200 || e.U == e.V {
				return false
			}
		}
		return len(edges) == 600
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestKuzminConcentration(t *testing.T) {
	pts := Kuzmin2D(9, 20000)
	inner := 0
	for _, p := range pts {
		if math.Hypot(p.X, p.Y) < 1 {
			inner++
		}
	}
	// Kuzmin disk: M(<r) = 1 - 1/sqrt(1+r^2); M(<1) ~ 0.29.
	frac := float64(inner) / float64(len(pts))
	if frac < 0.24 || frac > 0.35 {
		t.Errorf("%.2f of Kuzmin points within r=1, want ~0.29", frac)
	}
}

func TestCubePointsInRange(t *testing.T) {
	for _, p := range Cube2D(2, 1000) {
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
			t.Fatalf("point out of unit square: %+v", p)
		}
	}
	for _, p := range Cube3D(2, 1000) {
		if p.Z < 0 || p.Z >= 1 {
			t.Fatalf("point out of unit cube: %+v", p)
		}
	}
}

func TestOptionsSane(t *testing.T) {
	calls := 0
	for _, o := range Options(4, 1000) {
		if o.Spot <= 0 || o.Strike <= 0 || o.Vol <= 0 || o.Time <= 0 {
			t.Fatalf("degenerate option: %+v", o)
		}
		if o.Call {
			calls++
		}
	}
	if calls < 300 || calls > 700 {
		t.Errorf("call/put mix skewed: %d calls", calls)
	}
}

func TestTrigramStringAlpha(t *testing.T) {
	s := TrigramString(8, 5000)
	for i, c := range s {
		if c < 'a' || c > 'z' {
			t.Fatalf("non-letter byte %q at %d", c, i)
		}
	}
}

// TestGeneratorGolden pins RandLocalGraph and TrigramWords to hashes of
// the output of their original builders (a slice per vertex, a string per
// word). The allocation-lean builders must keep the RNG call order and the
// per-vertex edge order, which every committed fingerprint depends on.
func TestGeneratorGolden(t *testing.T) {
	for _, c := range []struct {
		seed         uint64
		n            int
		graph, words uint64
	}{
		{1, 500, 0xb1c77dcb95f46a03, 0x2b17afcde1ea01e9},
		{42, 500, 0x0d6082c3ed881d57, 0x9a3e214712b60985},
		{42, 20000, 0x04d138e9b0109017, 0x1f359ded62c915f1},
		{139, 25000, 0x1e88836f6361ece5, 0x66d89b8684a5be51},
	} {
		g := RandLocalGraph(c.seed, 5, c.n)
		h := fnv.New64a()
		fmt.Fprint(h, g.N, g.Offsets, g.Edges)
		if got := h.Sum64(); got != c.graph {
			t.Errorf("RandLocalGraph(%d, 5, %d) hash %x, want %x", c.seed, c.n, got, c.graph)
		}
		h = fnv.New64a()
		for _, w := range TrigramWords(c.seed, c.n) {
			fmt.Fprintf(h, "%q,", w)
		}
		if got := h.Sum64(); got != c.words {
			t.Errorf("TrigramWords(%d, %d) hash %x, want %x", c.seed, c.n, got, c.words)
		}
	}
}

// TestGeneratorAllocs bounds the allocations of the two generators that
// dominated input preparation: both build flat buffers, not an object per
// vertex or word.
func TestGeneratorAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(2, func() { RandLocalGraph(42, 5, 20000) }); a >= 10 {
		t.Errorf("RandLocalGraph: %.0f allocations, want < 10", a)
	}
	if a := testing.AllocsPerRun(2, func() { TrigramWords(42, 100000) }); a >= 10 {
		t.Errorf("TrigramWords: %.0f allocations, want < 10", a)
	}
}
