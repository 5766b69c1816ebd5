package kernels

import (
	"sync"

	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// ---- loop family: OpenMP-style loop scheduling variants (extensions) ----
//
// One triangular-imbalance loop — iteration i costs 8 + 24*i/n simulated
// instructions, so the last iterations are ~4x the first — partitioned three
// ways, mirroring OpenMP's schedule clauses:
//
//   loop-static   one contiguous chunk per worker. The chunk covering the
//                 heavy tail dominates; on an asymmetric machine whichever
//                 core draws it gates the loop. The work-stealing runtime
//                 cannot help: there is nothing left to steal.
//   loop-dynamic  many equal flat chunks (max(n/64, 16) iterations). Chunky
//                 enough to amortize spawn cost, fine enough for stealing
//                 to rebalance the tail.
//   loop-guided   decreasing chunks: each next chunk is remaining/(2P),
//                 floored at 16. Large chunks up front for low overhead,
//                 small chunks at the end so the finish line is smooth.
//
// The three variants compute the identical result; only the task shape —
// and therefore the schedule, the load balance, and the energy — differs.

const (
	loopIters     = 4096 // iterations at scale 1.0
	loopBaseCost  = 8    // cost of iteration 0
	loopSlopeCost = 24   // extra cost of the final iteration
	loopMinChunk  = 16   // dynamic/guided chunk floor
)

// loopInput is one member of the family, prepared: chunks partitions
// [0, n) given the worker count, and want is the reference output. Run
// never writes in.
type loopInput struct {
	n      int
	in     []float64
	chunks func(n, workers int) [][2]int
	want   func() []float64
}

type loopSched struct {
	*loopInput
	out []float64
}

func prepareLoop(seed uint64, scale float64, chunks func(n, workers int) [][2]int) Input {
	n := scaled(loopIters, scale)
	rng := sim.NewRand(seed)
	in := make([]float64, n)
	for i := range in {
		in[i] = rng.Float64()
	}
	return &loopInput{n: n, in: in, chunks: chunks, want: sync.OnceValue(func() []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = loopBody(in[i], i, n)
		}
		return w
	})}
}

func (in *loopInput) Instance() Workload {
	return &loopSched{loopInput: in, out: make([]float64, in.n)}
}

// loopBody is the per-iteration computation: a Horner-style polynomial whose
// depth grows with i, realizing the triangular cost profile as real work.
func loopBody(x float64, i, n int) float64 {
	reps := 1 + (4*i)/n
	v := x
	for r := 0; r < reps; r++ {
		v = v*x + float64(r+1)*0.25
	}
	return v
}

// loopCost is the charged cost of iterations [lo, hi).
func loopCost(lo, hi, n int) float64 {
	c := 0.0
	for i := lo; i < hi; i++ {
		c += loopBaseCost + loopSlopeCost*float64(i)/float64(n)
	}
	return c
}

func (k *loopSched) Run(r *wsrt.Run) {
	r.SerialWork(1500)
	r.Parallel(func(c *wsrt.Ctx) {
		for _, ch := range k.chunks(k.n, c.NumWorkers()) {
			lo, hi := ch[0], ch[1]
			c.Spawn(func(cc *wsrt.Ctx) {
				for i := lo; i < hi; i++ {
					k.out[i] = loopBody(k.in[i], i, k.n)
				}
				cc.Work(loopCost(lo, hi, k.n))
				cc.Touch(float64((hi - lo) * 16))
			})
		}
		c.Work(float64(len(k.chunks(k.n, c.NumWorkers()))) * 20)
	})
	r.SerialWork(400)
}

func (k *loopSched) Check() error {
	return checkEqualF64("loopsched", k.out, k.want())
}

// staticChunks splits [0, n) into one contiguous chunk per worker.
func staticChunks(n, workers int) [][2]int {
	if workers < 1 {
		workers = 1
	}
	out := make([][2]int, 0, workers)
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// dynamicChunks splits [0, n) into equal flat chunks of max(n/64, 16).
func dynamicChunks(n, workers int) [][2]int {
	size := max(n/64, loopMinChunk)
	out := make([][2]int, 0, n/size+1)
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// guidedChunks halves the chunk size as the loop drains: each chunk is
// remaining/(2*workers), floored at loopMinChunk.
func guidedChunks(n, workers int) [][2]int {
	if workers < 1 {
		workers = 1
	}
	var out [][2]int
	lo := 0
	for lo < n {
		size := max((n-lo)/(2*workers), loopMinChunk)
		hi := min(lo+size, n)
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func init() {
	register(&Kernel{
		Name: "loop-static", Suite: "ext", Input: "4096 iters triangular", PM: "p",
		Alpha: 2.2, Beta: 1.9, MPKI: 0.02, Extension: true,
		Prepare: func(seed uint64, scale float64) Input {
			return prepareLoop(seed, scale, staticChunks)
		},
	})
	register(&Kernel{
		Name: "loop-dynamic", Suite: "ext", Input: "4096 iters triangular", PM: "p",
		Alpha: 2.2, Beta: 1.9, MPKI: 0.02, Extension: true,
		Prepare: func(seed uint64, scale float64) Input {
			return prepareLoop(seed, scale, dynamicChunks)
		},
	})
	register(&Kernel{
		Name: "loop-guided", Suite: "ext", Input: "4096 iters triangular", PM: "p",
		Alpha: 2.2, Beta: 1.9, MPKI: 0.02, Extension: true,
		Prepare: func(seed uint64, scale float64) Input {
			return prepareLoop(seed, scale, guidedChunks)
		},
	})
}
