// Package input provides deterministic workload generators mirroring the
// PBBS inputs used in the paper's Table III (randLocalGraph, exptSeq,
// trigramSeq, randomSeq, 2Dkuzmin, 2DinCube, 3DinCube, ...).
//
// All generators are seeded and reproducible: the same (seed, size) pair
// yields the same dataset on any platform.
package input

import (
	"math"

	"aaws/internal/sim"
)

// ExptSeqFloat returns n exponentially distributed positive doubles
// (PBBS exptSeq_<n>_double). The exponential distribution creates strongly
// skewed quicksort pivots, which is what gives qsort-1 its large LP regions
// (Section V-B).
func ExptSeqFloat(seed uint64, n int) []float64 {
	rng := sim.NewRand(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.ExpFloat64() * float64(n)
	}
	return out
}

// ExptSeqInt returns n exponentially distributed non-negative ints
// (PBBS exptSeq_<n>_int).
func ExptSeqInt(seed uint64, n int) []int32 {
	rng := sim.NewRand(seed)
	out := make([]int32, n)
	for i := range out {
		v := rng.ExpFloat64() * float64(n) / 4
		if v > float64(1<<30) {
			v = float64(1 << 30)
		}
		out[i] = int32(v)
	}
	return out
}

// RandomSeqInt returns n uniform ints in [0, n) (PBBS randomSeq_<n>_int).
func RandomSeqInt(seed uint64, n int) []int32 {
	rng := sim.NewRand(seed)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(n))
	}
	return out
}

// trigram tables: a crude letter-bigram model that yields word frequencies
// with heavy duplication, standing in for PBBS's English trigram model.
var trigramFirst = []byte("ttttaaaooiiinsshhr")
var trigramNext = map[byte][]byte{
	't': []byte("hhhheeoaii"), 'h': []byte("eeeeaaoiu"), 'a': []byte("nnttssrl"),
	'o': []byte("nnfrrum"), 'i': []byte("nnttssc"), 'n': []byte("dgtteee"),
	's': []byte("tteeaahi"), 'e': []byte("rrssnnad"), 'r': []byte("eeaaiot"),
	'd': []byte("eeaaiso"), 'g': []byte("eehhaao"), 'l': []byte("eeaaily"),
	'u': []byte("rrnnstm"), 'f': []byte("ooeeir"), 'c': []byte("ooeehat"),
	'm': []byte("eeaaion"), 'y': []byte("ooeeast"),
}

// TrigramWords returns n words drawn from the bigram model with geometric
// lengths (PBBS trigramSeq_<n>). Duplicates are frequent by construction.
// The words are substrings of one backing string, so the whole sequence
// costs a handful of allocations rather than one per word.
func TrigramWords(seed uint64, n int) []string {
	rng := sim.NewRand(seed)
	ends := make([]int32, n)
	// Words average about 4.2 bytes (3 plus a capped geometric tail).
	buf := make([]byte, 0, 5*n)
	for i := range ends {
		ln := 3
		for ln < 10 && rng.Float64() < 0.55 {
			ln++
		}
		c := trigramFirst[rng.Intn(len(trigramFirst))]
		buf = append(buf, c)
		for j := 1; j < ln; j++ {
			next, ok := trigramNext[c]
			if !ok {
				next = trigramFirst
			}
			c = next[rng.Intn(len(next))]
			buf = append(buf, c)
		}
		ends[i] = int32(len(buf))
	}
	all := string(buf)
	out := make([]string, n)
	start := int32(0)
	for i, end := range ends {
		out[i] = all[start:end]
		start = end
	}
	return out
}

// TrigramPairs returns n (word, int) pairs (PBBS trigramSeq_<n>_pair_int),
// the rdups input: duplicates share the word but may differ in the value.
func TrigramPairs(seed uint64, n int) ([]string, []int32) {
	words := TrigramWords(seed, n)
	rng := sim.NewRand(seed ^ 0x9e37)
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(rng.Intn(256))
	}
	return words, vals
}

// TrigramString returns one long byte string from the bigram model (PBBS
// trigramString_<n>), the suffix-array input.
func TrigramString(seed uint64, n int) []byte {
	rng := sim.NewRand(seed)
	out := make([]byte, n)
	c := trigramFirst[rng.Intn(len(trigramFirst))]
	for i := range out {
		out[i] = c
		if rng.Float64() < 0.17 {
			c = trigramFirst[rng.Intn(len(trigramFirst))]
		} else if next, ok := trigramNext[c]; ok {
			c = next[rng.Intn(len(next))]
		} else {
			c = trigramFirst[rng.Intn(len(trigramFirst))]
		}
	}
	return out
}

// Graph is an undirected graph in CSR form.
type Graph struct {
	N       int
	Offsets []int32 // len N+1
	Edges   []int32 // neighbor lists
}

// Degree returns vertex v's degree.
func (g *Graph) Degree(v int) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Neighbors returns vertex v's adjacency slice.
func (g *Graph) Neighbors(v int) []int32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// NumEdges returns the number of directed edge slots.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// RandLocalGraph builds an undirected graph of n vertices with average
// degree ~2*degree where each vertex's neighbors are biased to nearby
// vertex ids (PBBS randLocalGraph_J_<degree>_<n>). Locality produces the
// frontier growth patterns BFS and MIS depend on.
//
// The CSR is built in two passes over the generated edge endpoints: count
// degrees, then fill each vertex's slots in generation order — the order
// per-vertex appends would give — without a slice per vertex.
func RandLocalGraph(seed uint64, degree, n int) *Graph {
	rng := sim.NewRand(seed)
	// far[i*degree+d] is the far endpoint of vertex i's d-th generated edge.
	far := make([]int32, n*degree)
	logN := math.Log(float64(n))
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			// Distance ~ exp(uniform * log n): mostly small hops with
			// occasional long-range edges.
			dist := int(math.Exp(rng.Float64()*logN)) % n
			if dist == 0 {
				dist = 1
			}
			j := i + dist
			if rng.Intn(2) == 0 {
				j = i - dist
			}
			j = ((j % n) + n) % n
			if j == i {
				j = (i + 1) % n
			}
			far[i*degree+d] = int32(j)
		}
	}
	g := &Graph{N: n, Offsets: make([]int32, n+1), Edges: make([]int32, 2*len(far))}
	// Count degrees into Offsets[v+1], prefix-sum, then fill through a
	// cursor per vertex.
	for e, j := range far {
		g.Offsets[e/degree+1]++
		g.Offsets[j+1]++
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	next := make([]int32, n)
	copy(next, g.Offsets[:n])
	for e, j := range far {
		i := int32(e / degree)
		g.Edges[next[i]] = j
		next[i]++
		g.Edges[next[j]] = i
		next[j]++
	}
	return g
}

// Edge is one undirected edge.
type Edge struct{ U, V int32 }

// RandLocalEdges returns the edge list of a random local graph (PBBS
// randLocalGraph_E_<degree>_<n>), the spanning-tree input.
func RandLocalEdges(seed uint64, degree, n int) []Edge {
	rng := sim.NewRand(seed)
	logN := math.Log(float64(n))
	edges := make([]Edge, 0, n*degree)
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			dist := int(math.Exp(rng.Float64()*logN)) % n
			if dist == 0 {
				dist = 1
			}
			j := ((i+dist)%n + n) % n
			if j == i {
				j = (i + 1) % n
			}
			edges = append(edges, Edge{int32(i), int32(j)})
		}
	}
	return edges
}

// Point2 is a 2D point.
type Point2 struct{ X, Y float64 }

// Point3 is a 3D point.
type Point3 struct{ X, Y, Z float64 }

// Kuzmin2D returns n points from the Kuzmin disk distribution (PBBS
// 2Dkuzmin_<n>): dense center, sparse rim — the convex-hull stress input.
func Kuzmin2D(seed uint64, n int) []Point2 {
	rng := sim.NewRand(seed)
	out := make([]Point2, n)
	for i := range out {
		u := rng.Float64()
		if u >= 1 {
			u = 1 - 1e-12
		}
		r := math.Sqrt(1/((1-u)*(1-u)) - 1)
		theta := 2 * math.Pi * rng.Float64()
		out[i] = Point2{r * math.Cos(theta), r * math.Sin(theta)}
	}
	return out
}

// Cube2D returns n uniform points in the unit square (PBBS 2DinCube_<n>).
func Cube2D(seed uint64, n int) []Point2 {
	rng := sim.NewRand(seed)
	out := make([]Point2, n)
	for i := range out {
		out[i] = Point2{rng.Float64(), rng.Float64()}
	}
	return out
}

// Cube3D returns n uniform points in the unit cube (PBBS 3DinCube_<n>).
func Cube3D(seed uint64, n int) []Point3 {
	rng := sim.NewRand(seed)
	out := make([]Point3, n)
	for i := range out {
		out[i] = Point3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	return out
}

// Option is one Black-Scholes option contract (PARSEC blackscholes input).
type Option struct {
	Spot, Strike, Rate, Vol, Time float64
	Call                          bool
}

// Options returns n deterministic option contracts.
func Options(seed uint64, n int) []Option {
	rng := sim.NewRand(seed)
	out := make([]Option, n)
	for i := range out {
		out[i] = Option{
			Spot:   50 + 100*rng.Float64(),
			Strike: 50 + 100*rng.Float64(),
			Rate:   0.01 + 0.05*rng.Float64(),
			Vol:    0.1 + 0.5*rng.Float64(),
			Time:   0.2 + 2*rng.Float64(),
			Call:   rng.Intn(2) == 0,
		}
	}
	return out
}
