package kernels

import (
	"math"
	"slices"
	"sync"

	"aaws/internal/input"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// ---- matmul: recursive blocked matrix multiply (Cilk) ----

// matmulInput is the prepared operands and the reference product. Run
// never writes a or b.
type matmulInput struct {
	n    int
	a, b []float64
	leaf int
	want func() []float64
}

type matmul struct {
	*matmulInput
	c []float64
}

func prepareMatmul(seed uint64, scale float64) Input {
	n := 128
	if scale > 1.5 {
		n = 192
	}
	if scale < 0.5 {
		n = 64
	}
	rng := sim.NewRand(seed)
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	in := &matmulInput{n: n, a: a, b: b, leaf: 16}
	// Reference: same blocked order serially for bit-exact comparison.
	in.want = sync.OnceValue(func() []float64 {
		w := make([]float64, n*n)
		in.blockSerial(w, 0, 0, 0, 0, 0, 0, n)
		return w
	})
	return in
}

func (in *matmulInput) Instance() Workload {
	return &matmul{matmulInput: in, c: make([]float64, in.n*in.n)}
}

// blockSerial computes C[ci:ci+s, cj:cj+s] += A[ai.., ak..] * B[bk.., bj..]
// recursively in the same order as the parallel version.
func (k *matmulInput) blockSerial(c []float64, ci, cj, ai, ak, bk, bj, s int) {
	if s <= k.leaf {
		n := k.n
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				sum := c[(ci+i)*n+cj+j]
				for kk := 0; kk < s; kk++ {
					sum += k.a[(ai+i)*n+ak+kk] * k.b[(bk+kk)*n+bj+j]
				}
				c[(ci+i)*n+cj+j] = sum
			}
		}
		return
	}
	h := s / 2
	// First half of the k-dimension for all four output blocks...
	k.blockSerial(c, ci, cj, ai, ak, bk, bj, h)
	k.blockSerial(c, ci, cj+h, ai, ak, bk, bj+h, h)
	k.blockSerial(c, ci+h, cj, ai+h, ak, bk, bj, h)
	k.blockSerial(c, ci+h, cj+h, ai+h, ak, bk, bj+h, h)
	// ...then the second half (accumulation dependency).
	k.blockSerial(c, ci, cj, ai, ak+h, bk+h, bj, h)
	k.blockSerial(c, ci, cj+h, ai, ak+h, bk+h, bj+h, h)
	k.blockSerial(c, ci+h, cj, ai+h, ak+h, bk+h, bj, h)
	k.blockSerial(c, ci+h, cj+h, ai+h, ak+h, bk+h, bj+h, h)
}

// blockTask is the parallel version: the four independent output blocks of
// each k-half are spawned; the second k-half runs as a continuation (the
// Cilk sync between the two halves).
func (k *matmul) blockTask(c *wsrt.Ctx, ci, cj, ai, ak, bk, bj, s int) {
	if s <= k.leaf {
		n := k.n
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				sum := k.c[(ci+i)*n+cj+j]
				for kk := 0; kk < s; kk++ {
					sum += k.a[(ai+i)*n+ak+kk] * k.b[(bk+kk)*n+bj+j]
				}
				k.c[(ci+i)*n+cj+j] = sum
			}
		}
		c.Work(float64(s*s*s)*3 + float64(s*s)*2)
		c.Touch(float64(3*s*s) * 8)
		return
	}
	h := s / 2
	c.Spawn(func(cc *wsrt.Ctx) { k.blockTask(cc, ci, cj, ai, ak, bk, bj, h) })
	c.Spawn(func(cc *wsrt.Ctx) { k.blockTask(cc, ci, cj+h, ai, ak, bk, bj+h, h) })
	c.Spawn(func(cc *wsrt.Ctx) { k.blockTask(cc, ci+h, cj, ai+h, ak, bk, bj, h) })
	c.Spawn(func(cc *wsrt.Ctx) { k.blockTask(cc, ci+h, cj+h, ai+h, ak, bk, bj+h, h) })
	c.Finish(func(cc *wsrt.Ctx) {
		cc.Spawn(func(c3 *wsrt.Ctx) { k.blockTask(c3, ci, cj, ai, ak+h, bk+h, bj, h) })
		cc.Spawn(func(c3 *wsrt.Ctx) { k.blockTask(c3, ci, cj+h, ai, ak+h, bk+h, bj+h, h) })
		cc.Spawn(func(c3 *wsrt.Ctx) { k.blockTask(c3, ci+h, cj, ai+h, ak+h, bk+h, bj, h) })
		cc.Spawn(func(c3 *wsrt.Ctx) { k.blockTask(c3, ci+h, cj+h, ai+h, ak+h, bk+h, bj+h, h) })
		cc.Work(60)
	})
	c.Work(60)
}

func (k *matmul) Run(r *wsrt.Run) {
	for i := range k.c {
		k.c[i] = 0
	}
	r.SerialWork(2000 + float64(len(k.c))/8)
	r.Parallel(func(c *wsrt.Ctx) { k.blockTask(c, 0, 0, 0, 0, 0, 0, k.n) })
	r.SerialWork(500)
}

func (k *matmul) Check() error {
	return checkEqualF64("matmul", k.c, k.want())
}

// ---- clsky: tiled Cholesky factorization (Cilk "cholesky" stand-in) ----

// clskyInput is the prepared SPD matrix and its reference factorization.
type clskyInput struct {
	n, tile int
	a       []float64
	want    func() []float64
}

type clsky struct {
	*clskyInput
	work []float64 // a copy of the input matrix, factored in place (lower triangle)
}

func prepareClsky(seed uint64, scale float64) Input {
	n := scaled(144, scale)
	tile := 16
	n = (n / tile) * tile
	if n < 96 {
		n = 96 // keep enough tiles for parallelism at small scales
	}
	rng := sim.NewRand(seed)
	// Build a symmetric positive-definite matrix: A = M*M^T + n*I.
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.Float64() - 0.5
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for kk := 0; kk < n; kk++ {
				s += m[i*n+kk] * m[j*n+kk]
			}
			if i == j {
				s += float64(n)
			}
			a[i*n+j] = s
			a[j*n+i] = s
		}
	}
	in := &clskyInput{n: n, tile: tile, a: a}
	// Serial reference using the identical tiled algorithm on a copy.
	in.want = sync.OnceValue(func() []float64 {
		w := slices.Clone(a)
		nt := n / tile
		for kk := 0; kk < nt; kk++ {
			in.potrf(w, kk)
			for i := kk + 1; i < nt; i++ {
				in.trsm(w, i, kk)
			}
			for i := kk + 1; i < nt; i++ {
				for j := kk + 1; j <= i; j++ {
					in.update(w, i, j, kk)
				}
			}
		}
		return w
	})
	return in
}

func (in *clskyInput) Instance() Workload {
	return &clsky{clskyInput: in, work: slices.Clone(in.a)}
}

// potrf factors diagonal tile (kk,kk) in place.
func (k *clskyInput) potrf(a []float64, kk int) {
	n, t := k.n, k.tile
	base := kk * t
	for j := 0; j < t; j++ {
		d := a[(base+j)*n+base+j]
		for p := 0; p < j; p++ {
			d -= a[(base+j)*n+base+p] * a[(base+j)*n+base+p]
		}
		d = math.Sqrt(d)
		a[(base+j)*n+base+j] = d
		for i := j + 1; i < t; i++ {
			s := a[(base+i)*n+base+j]
			for p := 0; p < j; p++ {
				s -= a[(base+i)*n+base+p] * a[(base+j)*n+base+p]
			}
			a[(base+i)*n+base+j] = s / d
		}
	}
}

// trsm solves tile (i,kk) against the factored diagonal tile (kk,kk).
func (k *clskyInput) trsm(a []float64, i, kk int) {
	n, t := k.n, k.tile
	ib, kb := i*t, kk*t
	for r := 0; r < t; r++ {
		for j := 0; j < t; j++ {
			s := a[(ib+r)*n+kb+j]
			for p := 0; p < j; p++ {
				s -= a[(ib+r)*n+kb+p] * a[(kb+j)*n+kb+p]
			}
			a[(ib+r)*n+kb+j] = s / a[(kb+j)*n+kb+j]
		}
	}
}

// update applies tile (i,kk)*(j,kk)^T to tile (i,j).
func (k *clskyInput) update(a []float64, i, j, kk int) {
	n, t := k.n, k.tile
	ib, jb, kb := i*t, j*t, kk*t
	for r := 0; r < t; r++ {
		cols := t
		if i == j {
			cols = r + 1
		}
		for cc := 0; cc < cols; cc++ {
			s := a[(ib+r)*n+jb+cc]
			for p := 0; p < t; p++ {
				s -= a[(ib+r)*n+kb+p] * a[(jb+cc)*n+kb+p]
			}
			a[(ib+r)*n+jb+cc] = s
		}
	}
}

func (k *clsky) Run(r *wsrt.Run) {
	n, t := k.n, k.tile
	nt := n / t
	ft := float64(t)
	r.SerialWork(2000)
	for kk := 0; kk < nt; kk++ {
		k.potrf(k.work, kk)
		r.SerialWork(ft * ft * ft / 3 * 4)
		if kk+1 >= nt {
			break
		}
		r.ParallelFor(kk+1, nt, 1, func(c *wsrt.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				k.trsm(k.work, i, kk)
			}
			c.Work(float64(hi-lo) * ft * ft * ft * 4)
		})
		// All (i,j) updates for this step are independent.
		pairs := make([][2]int, 0, (nt-kk)*(nt-kk)/2)
		for i := kk + 1; i < nt; i++ {
			for j := kk + 1; j <= i; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		r.ParallelFor(0, len(pairs), 1, func(c *wsrt.Ctx, lo, hi int) {
			for p := lo; p < hi; p++ {
				k.update(k.work, pairs[p][0], pairs[p][1], kk)
			}
			c.Work(float64(hi-lo) * ft * ft * ft * 5)
		})
	}
	r.SerialWork(500)
}

func (k *clsky) Check() error {
	return checkEqualF64("clsky", k.work, k.want())
}

// ---- heat: 2D Jacobi heat diffusion (Cilk) ----

// heatInput is the prepared initial grid and the reference final grid.
type heatInput struct {
	nx, ny, steps int
	grid          []float64
	want          func() []float64
}

type heat struct {
	*heatInput
	cur, next []float64 // Run steps between these, starting from a copy of the input grid
}

func prepareHeat(seed uint64, scale float64) Input {
	nx, ny := scaled(256, scale), 64
	steps := 20
	rng := sim.NewRand(seed)
	grid := make([]float64, nx*ny)
	for i := range grid {
		grid[i] = rng.Float64() * 100
	}
	in := &heatInput{nx: nx, ny: ny, steps: steps, grid: grid}
	in.want = sync.OnceValue(func() []float64 {
		cur := slices.Clone(grid)
		nxt := make([]float64, nx*ny)
		for s := 0; s < steps; s++ {
			in.step(cur, nxt)
			cur, nxt = nxt, cur
		}
		return cur
	})
	return in
}

func (in *heatInput) Instance() Workload {
	return &heat{heatInput: in, cur: slices.Clone(in.grid), next: make([]float64, len(in.grid))}
}

// step applies one Jacobi iteration from src into dst.
func (k *heatInput) step(src, dst []float64) {
	nx, ny := k.nx, k.ny
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			c := src[x*ny+y]
			up, down, left, right := c, c, c, c
			if x > 0 {
				left = src[(x-1)*ny+y]
			}
			if x < nx-1 {
				right = src[(x+1)*ny+y]
			}
			if y > 0 {
				up = src[x*ny+y-1]
			}
			if y < ny-1 {
				down = src[x*ny+y+1]
			}
			dst[x*ny+y] = c + 0.1*(up+down+left+right-4*c)
		}
	}
}

func (k *heat) Run(r *wsrt.Run) {
	nx, ny := k.nx, k.ny
	cur, nxt := k.cur, k.next
	r.SerialWork(2000)
	for s := 0; s < k.steps; s++ {
		// Recursive divide over rows (the Cilk version splits the grid
		// recursively — "rss").
		r.Parallel(func(c *wsrt.Ctx) {
			c.ParallelRange(0, nx, 2, func(cc *wsrt.Ctx, lo, hi int) {
				for x := lo; x < hi; x++ {
					for y := 0; y < ny; y++ {
						ctr := cur[x*ny+y]
						up, down, left, right := ctr, ctr, ctr, ctr
						if x > 0 {
							left = cur[(x-1)*ny+y]
						}
						if x < nx-1 {
							right = cur[(x+1)*ny+y]
						}
						if y > 0 {
							up = cur[x*ny+y-1]
						}
						if y < ny-1 {
							down = cur[x*ny+y+1]
						}
						nxt[x*ny+y] = ctr + 0.1*(up+down+left+right-4*ctr)
					}
				}
				cc.Work(float64((hi - lo) * ny * 9))
				cc.Touch(float64((hi - lo + 2) * ny * 16))
			}, nil)
		})
		cur, nxt = nxt, cur
		r.SerialWork(200)
	}
	k.cur = cur
	r.SerialWork(500)
}

func (k *heat) Check() error {
	return checkEqualF64("heat", k.cur, k.want())
}

// ---- bscholes: Black-Scholes option pricing (PARSEC) ----

// bscholesInput is the prepared option set and the reference prices.
type bscholesInput struct {
	opts []input.Option
	want func() []float64
}

type bscholes struct {
	*bscholesInput
	rounds int
	prices []float64
	grain  int
}

// cnd is the cumulative normal distribution (Abramowitz-Stegun).
func cnd(x float64) float64 {
	l := math.Abs(x)
	k := 1 / (1 + 0.2316419*l)
	w := 1 - 1/math.Sqrt(2*math.Pi)*math.Exp(-l*l/2)*
		(0.31938153*k-0.356563782*k*k+1.781477937*k*k*k-
			1.821255978*k*k*k*k+1.330274429*k*k*k*k*k)
	if x < 0 {
		return 1 - w
	}
	return w
}

// price computes the Black-Scholes price of one option.
func price(o input.Option) float64 {
	d1 := (math.Log(o.Spot/o.Strike) + (o.Rate+o.Vol*o.Vol/2)*o.Time) /
		(o.Vol * math.Sqrt(o.Time))
	d2 := d1 - o.Vol*math.Sqrt(o.Time)
	if o.Call {
		return o.Spot*cnd(d1) - o.Strike*math.Exp(-o.Rate*o.Time)*cnd(d2)
	}
	return o.Strike*math.Exp(-o.Rate*o.Time)*cnd(-d2) - o.Spot*cnd(-d1)
}

func prepareBscholes(seed uint64, scale float64) Input {
	opts := input.Options(seed, scaled(1024, scale))
	return &bscholesInput{opts: opts, want: sync.OnceValue(func() []float64 {
		w := make([]float64, len(opts))
		for i, o := range opts {
			w[i] = price(o)
		}
		return w
	})}
}

func (in *bscholesInput) Instance() Workload {
	return &bscholes{bscholesInput: in, rounds: 8, grain: max(1, len(in.opts)/64)}
}

func (k *bscholes) Run(r *wsrt.Run) {
	n := len(k.opts)
	k.prices = make([]float64, n)
	r.SerialWork(2000)
	// PARSEC reprices every option NUM_RUNS times; tasks are few and
	// chunky (Table III: 64 tasks of ~629K instructions).
	r.ParallelFor(0, n, k.grain, func(c *wsrt.Ctx, lo, hi int) {
		for round := 0; round < k.rounds; round++ {
			for i := lo; i < hi; i++ {
				k.prices[i] = price(k.opts[i])
			}
		}
		c.Work(float64((hi - lo) * k.rounds * (6*costFloatFn + 20*costFloat)))
		c.Touch(float64((hi - lo) * 48))
	})
	r.SerialWork(500)
}

func (k *bscholes) Check() error {
	return checkEqualF64("bscholes", k.prices, k.want())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func init() {
	register(&Kernel{
		Name: "clsky", Suite: "cilk", Input: "spd_144x144_tiled16", PM: "rss",
		Alpha: 2.4, Beta: 1.7, MPKI: 0.02, Prepare: prepareClsky,
	})
	register(&Kernel{
		Name: "heat", Suite: "cilk", Input: "-g 1 -nx 256 -ny 64 -nt 20", PM: "rss",
		Alpha: 2.3, Beta: 2.1, MPKI: 0.04, Prepare: prepareHeat,
	})
	register(&Kernel{
		Name: "matmul", Suite: "cilk", Input: "128", PM: "rss",
		Alpha: 2.0, Beta: 3.6, MPKI: 0.0, Prepare: prepareMatmul,
	})
	register(&Kernel{
		Name: "bscholes", Suite: "parsec", Input: "1024 options", PM: "p",
		Alpha: 2.4, Beta: 1.9, MPKI: 0.0, Prepare: prepareBscholes,
	})
}
