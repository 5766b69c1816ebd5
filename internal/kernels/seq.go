package kernels

import (
	"fmt"
	"sort"
	"sync"

	"aaws/internal/input"
	"aaws/internal/wsrt"
)

// ---- dict: batch hash-table insert + lookup (PBBS) ----

// dictInput is the prepared key and query streams and the reference hit
// count.
type dictInput struct {
	keys    []int32
	queries []int32
	want    func() int
}

type dict struct {
	*dictInput
	table []int32
	mask  int
	found int
	grain int
}

func hash32(x int32) uint32 {
	v := uint32(x)
	v ^= v >> 16
	v *= 0x7feb352d
	v ^= v >> 15
	v *= 0x846ca68b
	v ^= v >> 16
	return v
}

func prepareDict(seed uint64, scale float64) Input {
	n := scaled(120000, scale)
	keys := input.ExptSeqInt(seed, n)
	queries := input.ExptSeqInt(seed^0xbeef, n/2)
	// Reference: how many queries hit the key set.
	want := sync.OnceValue(func() int {
		set := map[int32]bool{}
		for _, k := range keys {
			set[k] = true
		}
		hits := 0
		for _, q := range queries {
			if set[q] {
				hits++
			}
		}
		return hits
	})
	return &dictInput{keys: keys, queries: queries, want: want}
}

func (in *dictInput) Instance() Workload {
	tabSize := hashTableSize(len(in.keys))
	return &dict{dictInput: in, mask: tabSize - 1, table: make([]int32, tabSize), grain: 512}
}

// hashTableSize is the open-addressing table size for n entries: the
// smallest power of two at least 2n.
func hashTableSize(n int) int {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	return size
}

func (k *dict) Run(r *wsrt.Run) {
	for i := range k.table {
		k.table[i] = -1
	}
	r.SerialWork(2000 + float64(len(k.table))/16)
	// Insert phase: linear probing with CAS claims (atomic per body).
	r.ParallelFor(0, len(k.keys), k.grain, func(c *wsrt.Ctx, lo, hi int) {
		probes := 0
		for _, key := range k.keys[lo:hi] {
			slot := int(hash32(key)) & k.mask
			for {
				probes++
				if k.table[slot] == -1 {
					k.table[slot] = key
					break
				}
				if k.table[slot] == key {
					break
				}
				slot = (slot + 1) & k.mask
			}
		}
		c.Work(float64(hi-lo)*costHash + float64(probes)*8)
		c.Touch(float64(probes) * 64)
	})
	// Lookup phase.
	foundPer := make([]int, len(k.queries))
	r.ParallelFor(0, len(k.queries), k.grain, func(c *wsrt.Ctx, lo, hi int) {
		probes, local := 0, 0
		for _, q := range k.queries[lo:hi] {
			slot := int(hash32(q)) & k.mask
			for {
				probes++
				if k.table[slot] == -1 {
					break
				}
				if k.table[slot] == q {
					local++
					break
				}
				slot = (slot + 1) & k.mask
			}
		}
		foundPer[lo] = local
		c.Work(float64(hi-lo)*costHash + float64(probes)*8)
		c.Touch(float64(probes) * 64)
	})
	k.found = 0
	for _, f := range foundPer {
		k.found += f
	}
	r.SerialWork(float64(len(k.queries))/float64(k.grain)*4 + 500)
}

func (k *dict) Check() error {
	if k.found != k.want() {
		return fmt.Errorf("dict: %d lookups hit, want %d", k.found, k.want())
	}
	return nil
}

// ---- rdups: remove duplicates by parallel hashing (PBBS) ----

// rdupsInput is the prepared (word, value) pairs and the reference
// distinct-word count.
type rdupsInput struct {
	words []string
	vals  []int32
	want  func() int
}

type rdups struct {
	*rdupsInput
	table []int32 // index of first claiming pair, -1 empty
	mask  int
	kept  int
	grain int
}

func hashStr(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func prepareRdups(seed uint64, scale float64) Input {
	words, vals := input.TrigramPairs(seed, scaled(100000, scale))
	want := sync.OnceValue(func() int {
		set := map[string]bool{}
		for _, w := range words {
			set[w] = true
		}
		return len(set)
	})
	return &rdupsInput{words: words, vals: vals, want: want}
}

func (in *rdupsInput) Instance() Workload {
	tabSize := hashTableSize(len(in.words))
	return &rdups{rdupsInput: in, mask: tabSize - 1, table: make([]int32, tabSize), grain: 512}
}

func (k *rdups) Run(r *wsrt.Run) {
	for i := range k.table {
		k.table[i] = -1
	}
	r.SerialWork(2000 + float64(len(k.table))/16)
	keptPer := make([]int, len(k.words))
	r.ParallelFor(0, len(k.words), k.grain, func(c *wsrt.Ctx, lo, hi int) {
		probes, local := 0, 0
		cost := 0.0
		for i := lo; i < hi; i++ {
			w := k.words[i]
			slot := int(hashStr(w)) & k.mask
			cost += float64(len(w)) * 3 // hashing cost per char
			for {
				probes++
				if k.table[slot] == -1 {
					k.table[slot] = int32(i) // claim: this pair survives
					local++
					break
				}
				if k.words[k.table[slot]] == w {
					cost += float64(len(w)) * costCmpStr
					break // duplicate
				}
				cost += costCmpStr
				slot = (slot + 1) & k.mask
			}
		}
		keptPer[lo] = local
		c.Work(cost + float64(probes)*8 + float64(hi-lo)*costHash)
		c.Touch(float64(probes) * 64)
	})
	k.kept = 0
	for _, f := range keptPer {
		k.kept += f
	}
	r.SerialWork(float64(len(k.words))/float64(k.grain)*4 + 500)
}

func (k *rdups) Check() error {
	if k.kept != k.want() {
		return fmt.Errorf("rdups: kept %d distinct, want %d", k.kept, k.want())
	}
	return nil
}

// ---- sarray: suffix array by parallel prefix doubling (PBBS) ----

// sarrayInput is the prepared text and its reference suffix array.
type sarrayInput struct {
	text []byte
	want func() []int32
}

type sarray struct {
	*sarrayInput
	sa []int32
}

func serialSuffixArray(text []byte) []int32 {
	n := len(text)
	sa := make([]int32, n)
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(i, j int) bool {
		a, b := sa[i], sa[j]
		for int(a) < n && int(b) < n {
			if text[a] != text[b] {
				return text[a] < text[b]
			}
			a++
			b++
		}
		return a > b // shorter suffix (ran off the end) sorts first
	})
	return sa
}

func prepareSarray(seed uint64, scale float64) Input {
	text := input.TrigramString(seed, scaled(10000, scale))
	return &sarrayInput{text: text, want: sync.OnceValue(func() []int32 { return serialSuffixArray(text) })}
}

func (in *sarrayInput) Instance() Workload { return &sarray{sarrayInput: in} }

// saCtx carries the prefix-doubling state across phases.
type saCtx struct {
	n         int
	sa        []int32
	rank, tmp []int32
}

func (k *sarray) Run(r *wsrt.Run) {
	n := len(k.text)
	st := &saCtx{n: n, sa: make([]int32, n), rank: make([]int32, n), tmp: make([]int32, n)}
	for i := 0; i < n; i++ {
		st.sa[i] = int32(i)
		st.rank[i] = int32(k.text[i])
	}
	r.SerialWork(2000 + float64(n)*4)

	key := func(i int32, kk int) (int32, int32) {
		r2 := int32(-1)
		if int(i)+kk < n {
			r2 = st.rank[int(i)+kk]
		}
		return st.rank[i], r2
	}
	for kk := 1; ; kk *= 2 {
		// Parallel sort of suffix indices by (rank, rank+k) using the
		// runtime's recursive quicksort pattern.
		less := func(a, b int32) bool {
			a1, a2 := key(a, kk)
			b1, b2 := key(b, kk)
			if a1 != b1 {
				return a1 < b1
			}
			return a2 < b2
		}
		r.Parallel(func(c *wsrt.Ctx) {
			parallelQsortIdx(c, st.sa, 0, n, 384, less)
		})
		// Parallel rank-boundary marking.
		newRank := st.tmp
		grain := 1024
		r.ParallelFor(0, n, grain, func(c *wsrt.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i == 0 {
					newRank[st.sa[0]] = 0
					continue
				}
				a1, a2 := key(st.sa[i-1], kk)
				b1, b2 := key(st.sa[i], kk)
				if a1 != b1 || a2 != b2 {
					newRank[st.sa[i]] = 1
				} else {
					newRank[st.sa[i]] = 0
				}
			}
			c.Work(float64(hi-lo) * (costCmp*2 + costWrite))
		})
		// Serial prefix over boundaries to get dense ranks.
		run := int32(0)
		for i := 0; i < n; i++ {
			run += newRank[st.sa[i]]
			newRank[st.sa[i]] = run
		}
		r.SerialWork(float64(n) * 3)
		st.rank, st.tmp = newRank, st.rank
		if int(run) == n-1 { // all ranks distinct: done
			break
		}
		if kk > 2*n {
			break
		}
	}
	k.sa = st.sa
	r.SerialWork(500)
}

// parallelQsortIdx sorts idx[lo:hi) with parallel recursion, charging
// comparison costs.
func parallelQsortIdx(c *wsrt.Ctx, idx []int32, lo, hi, leaf int, less func(a, b int32) bool) {
	if hi-lo <= leaf {
		cost := 0.0
		sort.Slice(idx[lo:hi], func(i, j int) bool {
			cost += costCmp * 2
			return less(idx[lo+i], idx[lo+j])
		})
		c.Work(cost + float64(hi-lo)*costSwap)
		c.Touch(float64(hi-lo) * 12)
		return
	}
	mid := lo + (hi-lo)/2
	// median-of-3 pivot selection on values
	a, b, d := idx[lo], idx[mid], idx[hi-1]
	pivot := b
	if less(b, a) {
		a, b = b, a
	}
	if less(d, a) {
		pivot = a
	} else if less(b, d) {
		pivot = b
	} else {
		pivot = d
	}
	i, j := lo, hi-1
	swaps := 0
	for i <= j {
		for less(idx[i], pivot) {
			i++
		}
		for less(pivot, idx[j]) {
			j--
		}
		if i <= j {
			idx[i], idx[j] = idx[j], idx[i]
			swaps++
			i++
			j--
		}
	}
	c.Work(float64(hi-lo)*costCmp*2 + float64(swaps)*costSwap + 40)
	left, right := j+1, i
	c.Spawn(func(cc *wsrt.Ctx) { parallelQsortIdx(cc, idx, lo, left, leaf, less) })
	c.Spawn(func(cc *wsrt.Ctx) { parallelQsortIdx(cc, idx, right, hi, leaf, less) })
}

func (k *sarray) Check() error {
	return checkEqualInt32("sarray", k.sa, k.want())
}

func init() {
	register(&Kernel{
		Name: "dict", Suite: "pbbs", Input: "exptSeq_120K_int", PM: "p",
		Alpha: 2.8, Beta: 1.7, MPKI: 7.0, Prepare: prepareDict,
	})
	register(&Kernel{
		Name: "rdups", Suite: "pbbs", Input: "trigramSeq_100K_pair_int", PM: "p",
		Alpha: 2.6, Beta: 1.7, MPKI: 7.6, Prepare: prepareRdups,
	})
	register(&Kernel{
		Name: "sarray", Suite: "pbbs", Input: "trigramString_10K", PM: "p",
		Alpha: 2.5, Beta: 2.3, MPKI: 10.0, Prepare: prepareSarray,
	})
}
