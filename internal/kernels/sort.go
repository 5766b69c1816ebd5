package kernels

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"aaws/internal/input"
	"aaws/internal/wsrt"
)

// ---- shared serial helpers (charge actual comparison/swap counts) ----

// serialQuickF64 sorts a in place and returns (comparisons, swaps).
func serialQuickF64(a []float64) (cmps, swaps int) {
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		for hi-lo > 12 {
			mid := lo + (hi-lo)/2
			// median of three to the pivot position
			if a[mid] < a[lo] {
				a[mid], a[lo] = a[lo], a[mid]
				swaps++
			}
			if a[hi-1] < a[lo] {
				a[hi-1], a[lo] = a[lo], a[hi-1]
				swaps++
			}
			if a[hi-1] < a[mid] {
				a[hi-1], a[mid] = a[mid], a[hi-1]
				swaps++
			}
			cmps += 3
			p := a[mid]
			i, j := lo, hi-1
			for {
				for a[i] < p {
					i++
					cmps++
				}
				for a[j] > p {
					j--
					cmps++
				}
				cmps += 2
				if i >= j {
					break
				}
				a[i], a[j] = a[j], a[i]
				swaps++
				i++
				j--
			}
			rec(lo, i)
			lo = i
		}
		// insertion sort tail
		for i := lo + 1; i < hi; i++ {
			v := a[i]
			j := i - 1
			for j >= lo && a[j] > v {
				a[j+1] = a[j]
				j--
				cmps++
				swaps++
			}
			cmps++
			a[j+1] = v
		}
	}
	if len(a) > 1 {
		rec(0, len(a))
	}
	return
}

// serialSortCostF64 sorts and returns the charged instruction cost.
func serialSortCostF64(a []float64) float64 {
	c, s := serialQuickF64(a)
	return float64(c)*costCmp + float64(s)*costSwap
}

// serialSortCostStr sorts strings, charging per-character comparison work.
func serialSortCostStr(a []string) float64 {
	cost := 0.0
	sort.Slice(a, func(i, j int) bool {
		cost += strCmpCost(a[i], a[j])
		return a[i] < a[j]
	})
	return cost + float64(len(a))*costSwap
}

// serialSortCostInt32 sorts int32s, charging comparisons.
func serialSortCostInt32(a []int32) float64 {
	cost := 0.0
	sort.Slice(a, func(i, j int) bool {
		cost += costCmp
		return a[i] < a[j]
	})
	return cost + float64(len(a))*costSwap
}

// sortInput is the prepared input shared by the sort kernels: the unsorted
// keys, their sorted reference, and the kernel's instance constructor. Run
// sorts in place, so every instance sorts its own copy of keys (or, like
// sampsort, writes a fresh output).
type sortInput[T cmp.Ordered] struct {
	keys     []T
	want     func() []T
	instance func(in *sortInput[T]) Workload
}

func prepareSort[T cmp.Ordered](keys []T, instance func(in *sortInput[T]) Workload) Input {
	return &sortInput[T]{
		keys:     keys,
		want:     sync.OnceValue(func() []T { return sortedCopy(keys) }),
		instance: instance,
	}
}

func (in *sortInput[T]) Instance() Workload { return in.instance(in) }

// ---- cilksort: recursive merge sort with parallel merge (Cilk suite) ----

type cilksort struct {
	*sortInput[int32]
	data []int32
	tmp  []int32
	leaf int
}

func prepareCilksort(seed uint64, scale float64) Input {
	return prepareSort(input.RandomSeqInt(seed, scaled(60000, scale)), func(in *sortInput[int32]) Workload {
		return &cilksort{sortInput: in, data: slices.Clone(in.keys), tmp: make([]int32, len(in.keys)), leaf: 512}
	})
}

func (k *cilksort) Run(r *wsrt.Run) {
	r.SerialWork(2000) // argument parsing / setup glue
	r.Parallel(func(c *wsrt.Ctx) { k.sortTo(c, 0, len(k.data), false) })
	r.SerialWork(500)
}

// sortTo sorts [lo,hi): the result lands in tmp when toTmp, else in data.
func (k *cilksort) sortTo(c *wsrt.Ctx, lo, hi int, toTmp bool) {
	if hi-lo <= k.leaf {
		if toTmp {
			copy(k.tmp[lo:hi], k.data[lo:hi])
			c.Work(float64(hi-lo) * costWrite)
			c.Work(serialSortCostInt32(k.tmp[lo:hi]))
		} else {
			c.Work(serialSortCostInt32(k.data[lo:hi]))
		}
		c.Touch(float64(hi-lo) * 8)
		return
	}
	mid := lo + (hi-lo)/2
	c.Spawn(func(cc *wsrt.Ctx) { k.sortTo(cc, lo, mid, !toTmp) })
	c.Spawn(func(cc *wsrt.Ctx) { k.sortTo(cc, mid, hi, !toTmp) })
	c.Finish(func(cc *wsrt.Ctx) {
		src, dst := k.data, k.tmp
		if !toTmp {
			src, dst = k.tmp, k.data
		}
		k.merge(cc, src, lo, mid, mid, hi, dst, lo)
	})
	c.Work(40)
}

// merge merges src[a1:b1) and src[a2:b2) into dst[d:...), splitting
// recursively for parallelism (the Cilk parallel merge).
func (k *cilksort) merge(c *wsrt.Ctx, src []int32, a1, b1, a2, b2 int, dst []int32, d int) {
	n1, n2 := b1-a1, b2-a2
	if n1+n2 <= 2*k.leaf {
		i, j, o := a1, a2, d
		for i < b1 && j < b2 {
			if src[j] < src[i] {
				dst[o] = src[j]
				j++
			} else {
				dst[o] = src[i]
				i++
			}
			o++
		}
		for i < b1 {
			dst[o] = src[i]
			i++
			o++
		}
		for j < b2 {
			dst[o] = src[j]
			j++
			o++
		}
		c.Work(float64(n1+n2) * (costCmp + costWrite))
		c.Touch(float64(n1+n2) * 8)
		return
	}
	if n1 < n2 {
		a1, b1, a2, b2 = a2, b2, a1, b1
		n1, n2 = n2, n1
	}
	m1 := (a1 + b1) / 2
	pivot := src[m1]
	// binary search for pivot in the smaller run
	lo, hi := a2, b2
	steps := 0
	for lo < hi {
		mid := (lo + hi) / 2
		if src[mid] < pivot {
			lo = mid + 1
		} else {
			hi = mid
		}
		steps++
	}
	m2 := lo
	c.Work(float64(steps)*costCmp + 60)
	c.Spawn(func(cc *wsrt.Ctx) { k.merge(cc, src, a1, m1, a2, m2, dst, d) })
	c.Spawn(func(cc *wsrt.Ctx) { k.merge(cc, src, m1, b1, m2, b2, dst, d+(m1-a1)+(m2-a2)) })
}

func (k *cilksort) Check() error {
	return checkEqualInt32("cilksort", k.data, k.want())
}

// ---- qsort: parallel quicksort, recursive spawn-and-sync (PBBS) ----

// qsortF64 is qsort-1: exponentially distributed doubles. The skew makes
// partitions wildly uneven, producing the large LP regions Section V-B
// discusses.
type qsortF64 struct {
	*sortInput[float64]
	data []float64
	leaf int
}

func prepareQsort1(seed uint64, scale float64) Input {
	return prepareSort(input.ExptSeqFloat(seed, scaled(25000, scale)), func(in *sortInput[float64]) Workload {
		return &qsortF64{sortInput: in, data: slices.Clone(in.keys), leaf: 256}
	})
}

func (k *qsortF64) Run(r *wsrt.Run) {
	r.SerialWork(2000)
	r.Parallel(func(c *wsrt.Ctx) { k.qsort(c, 0, len(k.data)) })
	r.SerialWork(500)
}

func (k *qsortF64) qsort(c *wsrt.Ctx, lo, hi int) {
	a := k.data
	if hi-lo <= k.leaf {
		c.Work(serialSortCostF64(a[lo:hi]))
		c.Touch(float64(hi-lo) * 8)
		return
	}
	// median-of-3 pivot, serial partition (charged by actual work)
	mid := lo + (hi-lo)/2
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi-1] < a[lo] {
		a[hi-1], a[lo] = a[lo], a[hi-1]
	}
	if a[hi-1] < a[mid] {
		a[hi-1], a[mid] = a[mid], a[hi-1]
	}
	p := a[mid]
	i, j := lo, hi-1
	swaps := 0
	for {
		for a[i] < p {
			i++
		}
		for a[j] > p {
			j--
		}
		if i >= j {
			break
		}
		a[i], a[j] = a[j], a[i]
		swaps++
		i++
		j--
	}
	c.Work(float64(hi-lo)*costCmp + float64(swaps)*costSwap + 30)
	c.Touch(float64(hi-lo) * 8)
	split := i
	c.Spawn(func(cc *wsrt.Ctx) { k.qsort(cc, lo, split) })
	c.Spawn(func(cc *wsrt.Ctx) { k.qsort(cc, split, hi) })
}

func (k *qsortF64) Check() error {
	return checkEqualF64("qsort-1", k.data, k.want())
}

// qsortStr is qsort-2: trigram strings; comparisons cost per inspected
// character.
type qsortStr struct {
	*sortInput[string]
	data []string
	leaf int
}

func prepareQsort2(seed uint64, scale float64) Input {
	return prepareSort(input.TrigramWords(seed, scaled(30000, scale)), func(in *sortInput[string]) Workload {
		return &qsortStr{sortInput: in, data: slices.Clone(in.keys), leaf: 256}
	})
}

func (k *qsortStr) Run(r *wsrt.Run) {
	r.SerialWork(2000)
	r.Parallel(func(c *wsrt.Ctx) { k.qsort(c, 0, len(k.data)) })
	r.SerialWork(500)
}

func (k *qsortStr) qsort(c *wsrt.Ctx, lo, hi int) {
	a := k.data
	if hi-lo <= k.leaf {
		c.Work(serialSortCostStr(a[lo:hi]))
		c.Touch(float64(hi-lo) * 24)
		return
	}
	mid := lo + (hi-lo)/2
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi-1] < a[lo] {
		a[hi-1], a[lo] = a[lo], a[hi-1]
	}
	if a[hi-1] < a[mid] {
		a[hi-1], a[mid] = a[mid], a[hi-1]
	}
	p := a[mid]
	cost := 0.0
	i, j := lo, hi-1
	for {
		for {
			cost += strCmpCost(a[i], p)
			if !(a[i] < p) {
				break
			}
			i++
		}
		for {
			cost += strCmpCost(a[j], p)
			if !(a[j] > p) {
				break
			}
			j--
		}
		if i >= j {
			break
		}
		a[i], a[j] = a[j], a[i]
		cost += costSwap
		i++
		j--
	}
	c.Work(cost + 30)
	c.Touch(float64(hi-lo) * 24)
	split := i
	c.Spawn(func(cc *wsrt.Ctx) { k.qsort(cc, lo, split) })
	c.Spawn(func(cc *wsrt.Ctx) { k.qsort(cc, split, hi) })
}

func (k *qsortStr) Check() error {
	want := k.want()
	for i := range k.data {
		if k.data[i] != want[i] {
			return fmt.Errorf("qsort-2: element %d: %q != %q", i, k.data[i], want[i])
		}
	}
	return nil
}

// ---- sampsort: sample sort with nested parallelism (PBBS) ----

// sampsort reads the shared keys and scatters them into a buffer of its
// own, so instances need no copy of the input.
type sampsort struct {
	*sortInput[float64]
	out     []float64 // the sorted result
	buckets int
	blocks  int
}

func prepareSampsort(seed uint64, scale float64) Input {
	return prepareSort(input.ExptSeqFloat(seed^0x5a, scaled(25000, scale)), func(in *sortInput[float64]) Workload {
		return &sampsort{sortInput: in, buckets: 32, blocks: 32}
	})
}

func (k *sampsort) Run(r *wsrt.Run) {
	n := len(k.keys)
	nb, nk := k.blocks, k.buckets
	// Serial sampling: pick and sort 8 samples per bucket.
	sampleN := 8 * nk
	samples := make([]float64, sampleN)
	for i := range samples {
		samples[i] = k.keys[(i*2654435761)%n]
	}
	sampleCost := serialSortCostF64(samples)
	pivots := make([]float64, nk-1)
	for i := range pivots {
		pivots[i] = samples[(i+1)*8]
	}
	r.SerialWork(2000 + sampleCost + float64(sampleN)*costWrite)

	// Phase 1: per-block classification counts (parallel_for over blocks).
	counts := make([][]int32, nb)
	bucketOf := make([]int8, n)
	r.ParallelFor(0, nb, 1, func(c *wsrt.Ctx, lo, hi int) {
		for b := lo; b < hi; b++ {
			cnt := make([]int32, nk)
			s, e := b*n/nb, (b+1)*n/nb
			steps := 0
			for i := s; i < e; i++ {
				// binary search the bucket
				loB, hiB := 0, nk-1
				for loB < hiB {
					mid := (loB + hiB) / 2
					if k.keys[i] >= pivots[mid] {
						loB = mid + 1
					} else {
						hiB = mid
					}
					steps++
				}
				bucketOf[i] = int8(loB)
				cnt[loB]++
			}
			counts[b] = cnt
			c.Work(float64(steps)*costCmp + float64(e-s)*costWrite)
			c.Touch(float64(e-s) * 9)
		}
	})

	// Serial prefix over (bucket, block) to compute scatter offsets.
	offsets := make([][]int32, nb)
	for b := range offsets {
		offsets[b] = make([]int32, nk)
	}
	run := int32(0)
	for kk := 0; kk < nk; kk++ {
		for b := 0; b < nb; b++ {
			offsets[b][kk] = run
			run += counts[b][kk]
		}
	}
	bucketStart := make([]int32, nk+1)
	pos := int32(0)
	for kk := 0; kk < nk; kk++ {
		bucketStart[kk] = pos
		for b := 0; b < nb; b++ {
			pos += counts[b][kk]
		}
	}
	bucketStart[nk] = pos
	r.SerialWork(float64(nb*nk) * 4)

	// Phase 2: scatter into bucket order.
	scattered := make([]float64, n)
	r.ParallelFor(0, nb, 1, func(c *wsrt.Ctx, lo, hi int) {
		for b := lo; b < hi; b++ {
			off := append([]int32(nil), offsets[b]...)
			s, e := b*n/nb, (b+1)*n/nb
			for i := s; i < e; i++ {
				kk := bucketOf[i]
				scattered[off[kk]] = k.keys[i]
				off[kk]++
			}
			c.Work(float64(e-s) * (costWrite + costArith))
			c.Touch(float64(e-s) * 17)
		}
	})

	// Phase 3: nested parallelism — sort each bucket; big buckets split
	// internally (this is the "np" nested parallel_for of Table III).
	r.Parallel(func(c *wsrt.Ctx) {
		c.ParallelRange(0, nk, 1, func(cc *wsrt.Ctx, lo, hi int) {
			for kk := lo; kk < hi; kk++ {
				s, e := int(bucketStart[kk]), int(bucketStart[kk+1])
				if e-s > 4096 {
					// nested decomposition of a heavy bucket via quicksort
					q := &qsortF64{data: scattered, leaf: 512}
					q.qsort(cc, s, e)
				} else {
					cc.Work(serialSortCostF64(scattered[s:e]))
					cc.Touch(float64(e-s) * 8)
				}
			}
		}, nil)
	})
	k.out = scattered
	r.SerialWork(float64(n) * costWrite / 8) // final ownership copy (blocked)
}

func (k *sampsort) Check() error {
	return checkEqualF64("sampsort", k.out, k.want())
}

// ---- radix: LSD radix sort, parallel count+scatter per pass (PBBS) ----

type radix struct {
	*sortInput[int32]
	name   string
	data   []int32
	blocks int
}

// radixInstance returns the constructor of a radix instance named name.
func radixInstance(name string) func(in *sortInput[int32]) Workload {
	return func(in *sortInput[int32]) Workload {
		return &radix{sortInput: in, name: name, data: slices.Clone(in.keys), blocks: 32}
	}
}

func prepareRadix1(seed uint64, scale float64) Input {
	return prepareSort(input.RandomSeqInt(seed, scaled(80000, scale)), radixInstance("radix-1"))
}

func prepareRadix2(seed uint64, scale float64) Input {
	return prepareSort(input.ExptSeqInt(seed, scaled(60000, scale)), radixInstance("radix-2"))
}

func (k *radix) Run(r *wsrt.Run) {
	const bits, radixSz = 8, 256
	n := len(k.data)
	nb := k.blocks
	src := k.data
	dst := make([]int32, n)
	r.SerialWork(2000)
	for pass := 0; pass < 4; pass++ {
		shift := uint(pass * bits)
		counts := make([][]int32, nb)
		// Parallel per-block digit histograms.
		r.ParallelFor(0, nb, 1, func(c *wsrt.Ctx, lo, hi int) {
			for b := lo; b < hi; b++ {
				cnt := make([]int32, radixSz)
				s, e := b*n/nb, (b+1)*n/nb
				for i := s; i < e; i++ {
					cnt[(src[i]>>shift)&(radixSz-1)]++
				}
				counts[b] = cnt
				c.Work(float64(e-s) * (costArith + costWrite))
			}
		})
		// Parallel offset computation over digits (transposed scan), with
		// a tiny serial digit-total prefix in between.
		totals := make([]int32, radixSz+1)
		for d := 0; d < radixSz; d++ {
			for b := 0; b < nb; b++ {
				totals[d+1] += counts[b][d]
			}
		}
		for d := 0; d < radixSz; d++ {
			totals[d+1] += totals[d]
		}
		r.SerialWork(float64(radixSz) * 6)
		offsets := make([][]int32, nb)
		for b := range offsets {
			offsets[b] = make([]int32, radixSz)
		}
		r.ParallelFor(0, radixSz, 16, func(c *wsrt.Ctx, lo, hi int) {
			for d := lo; d < hi; d++ {
				runPos := totals[d]
				for b := 0; b < nb; b++ {
					offsets[b][d] = runPos
					runPos += counts[b][d]
				}
			}
			c.Work(float64((hi - lo) * nb * 3))
		})
		// Parallel scatter.
		r.ParallelFor(0, nb, 1, func(c *wsrt.Ctx, lo, hi int) {
			for b := lo; b < hi; b++ {
				off := offsets[b]
				s, e := b*n/nb, (b+1)*n/nb
				for i := s; i < e; i++ {
					d := (src[i] >> shift) & (radixSz - 1)
					dst[off[d]] = src[i]
					off[d]++
				}
				c.Work(float64(e-s) * (costArith + costWrite + 4))
				c.Touch(float64(e-s) * 8)
			}
		})
		src, dst = dst, src
	}
	// 4 passes: result is back in k.data (even number of swaps).
	if &src[0] != &k.data[0] {
		copy(k.data, src)
		r.SerialWork(float64(n) * costWrite / 8)
	}
	r.SerialWork(500)
}

func (k *radix) Check() error {
	return checkEqualInt32(k.name, k.data, k.want())
}

func init() {
	register(&Kernel{
		Name: "qsort-1", Suite: "pbbs", Input: "exptSeq_25K_double", PM: "rss",
		Alpha: 2.5, Beta: 1.7, MPKI: 0.0, Prepare: prepareQsort1,
	})
	register(&Kernel{
		Name: "qsort-2", Suite: "pbbs", Input: "trigramSeq_30K", PM: "rss",
		Alpha: 3.1, Beta: 1.9, MPKI: 0.0, Prepare: prepareQsort2,
	})
	register(&Kernel{
		Name: "sampsort", Suite: "pbbs", Input: "exptSeq_25K_double", PM: "np",
		Alpha: 2.5, Beta: 1.7, MPKI: 0.11, Prepare: prepareSampsort,
	})
	register(&Kernel{
		Name: "radix-1", Suite: "pbbs", Input: "randomSeq_80K_int", PM: "p",
		Alpha: 2.2, Beta: 1.8, MPKI: 7.7, Prepare: prepareRadix1,
	})
	register(&Kernel{
		Name: "radix-2", Suite: "pbbs", Input: "exptSeq_60K_int", PM: "p",
		Alpha: 2.1, Beta: 1.8, MPKI: 7.5, Prepare: prepareRadix2,
	})
	register(&Kernel{
		Name: "cilksort", Suite: "cilk", Input: "randomSeq_60K_int", PM: "rss",
		Alpha: 3.7, Beta: 1.3, MPKI: 2.3, Prepare: prepareCilksort,
	})
}
