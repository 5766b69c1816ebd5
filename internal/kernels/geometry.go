package kernels

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"aaws/internal/input"
	"aaws/internal/wsrt"
)

// ---- hull: quickhull on Kuzmin-distributed points (PBBS) ----

// hullInput is the prepared point set and its reference hull.
type hullInput struct {
	pts  []input.Point2
	want func() []int32
}

type hull struct {
	*hullInput
	hull []int32 // produced hull vertex indices
	leaf int
}

// cross computes the z of (b-a) x (c-a): >0 means c is left of a->b.
func cross(a, b, c input.Point2) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// serialHull is the Andrew monotone-chain reference.
func serialHull(pts []input.Point2) []int32 {
	n := len(pts)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := pts[idx[i]], pts[idx[j]]
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	var h []int32
	for _, i := range idx { // lower
		for len(h) >= 2 && cross(pts[h[len(h)-2]], pts[h[len(h)-1]], pts[i]) <= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, i)
	}
	lower := len(h) + 1
	for j := n - 2; j >= 0; j-- { // upper
		i := idx[j]
		for len(h) >= lower && cross(pts[h[len(h)-2]], pts[h[len(h)-1]], pts[i]) <= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, i)
	}
	return h[:len(h)-1]
}

func prepareHull(seed uint64, scale float64) Input {
	pts := input.Kuzmin2D(seed, scaled(30000, scale))
	return &hullInput{pts: pts, want: sync.OnceValue(func() []int32 { return serialHull(pts) })}
}

func (in *hullInput) Instance() Workload { return &hull{hullInput: in, leaf: 512} }

func (k *hull) Run(r *wsrt.Run) {
	pts := k.pts
	n := len(pts)
	k.hull = k.hull[:0]
	// Parallel scan for the x-extremes (block-local extremes, tiny serial
	// reduce), as in the PBBS parallel filter/reduce primitives.
	const blk = 2048
	loPer := make([]int32, n)
	hiPer := make([]int32, n)
	r.ParallelFor(0, n, blk, func(c *wsrt.Ctx, s, e int) {
		lo, hi := int32(s), int32(s)
		for i := s + 1; i < e; i++ {
			if pts[i].X < pts[lo].X || (pts[i].X == pts[lo].X && pts[i].Y < pts[lo].Y) {
				lo = int32(i)
			}
			if pts[i].X > pts[hi].X || (pts[i].X == pts[hi].X && pts[i].Y > pts[hi].Y) {
				hi = int32(i)
			}
		}
		loPer[s], hiPer[s] = lo, hi
		c.Work(float64(e-s) * costCmp * 2)
	})
	lo, hi := int32(0), int32(0)
	for s := 0; s < n; s += 1 {
		if loPer[s] == 0 && hiPer[s] == 0 && s != 0 {
			continue // not a leaf start
		}
		l, h := loPer[s], hiPer[s]
		if pts[l].X < pts[lo].X || (pts[l].X == pts[lo].X && pts[l].Y < pts[lo].Y) {
			lo = l
		}
		if pts[h].X > pts[hi].X || (pts[h].X == pts[hi].X && pts[h].Y > pts[hi].Y) {
			hi = h
		}
	}
	r.SerialWork(2000 + float64(n/blk+2)*costCmp*2)
	// Parallel split of the points into the two sides.
	abovePer := make([][]int32, n)
	belowPer := make([][]int32, n)
	r.ParallelFor(0, n, blk, func(c *wsrt.Ctx, s, e int) {
		var ab, be []int32
		for i := s; i < e; i++ {
			sd := cross(pts[lo], pts[hi], pts[int32(i)])
			if sd > 0 {
				ab = append(ab, int32(i))
			} else if sd < 0 {
				be = append(be, int32(i))
			}
		}
		abovePer[s], belowPer[s] = ab, be
		c.Work(float64(e-s) * costFloat * 2)
	})
	var above, below []int32
	for s := 0; s < n; s++ {
		above = append(above, abovePer[s]...)
		below = append(below, belowPer[s]...)
	}
	r.SerialWork(float64(n/blk+2) * 40)

	var out []int32
	mu := &out // collected on the host; append is atomic per body
	r.Parallel(func(c *wsrt.Ctx) {
		*mu = append(*mu, lo)
		c.Spawn(func(cc *wsrt.Ctx) { k.quickhull(cc, above, lo, hi, mu) })
		*mu = append(*mu, hi)
		c.Spawn(func(cc *wsrt.Ctx) { k.quickhull(cc, below, hi, lo, mu) })
		c.Work(100)
	})
	k.hull = out
	r.SerialWork(500)
}

// quickhull processes the candidate set on the left of a->b. Large
// candidate sets run the farthest-point reduce and the partition filter as
// parallel sub-phases (continuation-passing); small sets recurse inline.
func (k *hull) quickhull(c *wsrt.Ctx, cand []int32, a, b int32, out *[]int32) {
	pts := k.pts
	if len(cand) == 0 {
		return
	}
	if len(cand) <= k.leaf {
		k.quickhullSerial(c, cand, a, b, out)
		return
	}
	const blk = 2048
	n := len(cand)
	// Phase 1: block-parallel farthest-point reduce.
	farPer := make([]int32, n)
	bestPer := make([]float64, n)
	c.ParallelRange(0, n, blk, func(cc *wsrt.Ctx, s, e int) {
		far, best := cand[s], cross(pts[a], pts[b], pts[cand[s]])
		for i := s + 1; i < e; i++ {
			if d := cross(pts[a], pts[b], pts[cand[i]]); d > best {
				best, far = d, cand[i]
			}
		}
		farPer[s], bestPer[s] = far, best
		cc.Work(float64(e-s) * costFloat * 3)
	}, func(cc *wsrt.Ctx) {
		// Phase 2: pick the global farthest across leaf results (every
		// candidate lies strictly left of a->b, so a written slot always
		// has best > 0 while untouched slots stay 0), then partition.
		far, best := farPer[0], bestPer[0]
		for s := 1; s < n; s++ {
			if bestPer[s] > best {
				best, far = bestPer[s], farPer[s]
			}
		}
		cc.Work(float64(n/blk+2) * costCmp)
		leftPer := make([][]int32, n)
		rightPer := make([][]int32, n)
		cc.ParallelRange(0, n, blk, func(c3 *wsrt.Ctx, s, e int) {
			var l, rr []int32
			for i := s; i < e; i++ {
				p := cand[i]
				if p == far {
					continue
				}
				if cross(pts[a], pts[far], pts[p]) > 0 {
					l = append(l, p)
				} else if cross(pts[far], pts[b], pts[p]) > 0 {
					rr = append(rr, p)
				}
			}
			leftPer[s], rightPer[s] = l, rr
			c3.Work(float64(e-s) * costFloat * 4)
		}, func(c4 *wsrt.Ctx) {
			// Phase 3: concatenate and recurse on both sides.
			var left, right []int32
			for s := 0; s < n; s++ {
				left = append(left, leftPer[s]...)
				right = append(right, rightPer[s]...)
			}
			c4.Work(float64(n/blk+2) * 40)
			*out = append(*out, far)
			c4.Spawn(func(c5 *wsrt.Ctx) { k.quickhull(c5, left, a, far, out) })
			c4.Spawn(func(c5 *wsrt.Ctx) { k.quickhull(c5, right, far, b, out) })
		})
	})
}

func (k *hull) quickhullSerial(c *wsrt.Ctx, cand []int32, a, b int32, out *[]int32) {
	if len(cand) == 0 {
		return
	}
	pts := k.pts
	far := cand[0]
	best := -1.0
	for _, i := range cand {
		d := cross(pts[a], pts[b], pts[i])
		if d > best {
			best, far = d, i
		}
	}
	var left, right []int32
	for _, i := range cand {
		if i == far {
			continue
		}
		if cross(pts[a], pts[far], pts[i]) > 0 {
			left = append(left, i)
		} else if cross(pts[far], pts[b], pts[i]) > 0 {
			right = append(right, i)
		}
	}
	c.Work(float64(len(cand)) * costFloat * 5)
	c.Touch(float64(len(cand)) * 20)
	*out = append(*out, far)
	k.quickhullSerial(c, left, a, far, out)
	k.quickhullSerial(c, right, far, b, out)
}

func (k *hull) Check() error {
	got := append([]int32(nil), k.hull...)
	want := append([]int32(nil), k.want()...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		return fmt.Errorf("hull: %d vertices, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("hull: vertex set differs at %d: %d vs %d", i, got[i], want[i])
		}
	}
	return nil
}

// ---- knn: 1-nearest-neighbor via quadtree (PBBS) ----

type qtNode struct {
	cx, cy, half float64
	point        int32 // leaf payload (-1 if none)
	kids         *[4]*qtNode
}

// knnInput is the prepared point set and its brute-force reference
// neighbors.
type knnInput struct {
	pts  []input.Point2
	want func() []int32
}

type knn struct {
	*knnInput
	root  *qtNode
	nn    []int32
	grain int
}

func (t *qtNode) insert(pts []input.Point2, i int32, depth int) {
	if t.kids == nil {
		if t.point < 0 {
			t.point = i
			return
		}
		if depth > 30 {
			return // co-located points; drop duplicates
		}
		old := t.point
		t.point = -1
		t.kids = &[4]*qtNode{}
		t.insert(pts, old, depth+1)
		t.insert(pts, i, depth+1)
		return
	}
	q := 0
	cx, cy := t.cx, t.cy
	h := t.half / 2
	nx, ny := cx-h, cy-h
	if pts[i].X >= cx {
		q |= 1
		nx = cx + h
	}
	if pts[i].Y >= cy {
		q |= 2
		ny = cy + h
	}
	if t.kids[q] == nil {
		t.kids[q] = &qtNode{cx: nx, cy: ny, half: h, point: -1}
	}
	t.kids[q].insert(pts, i, depth+1)
}

// nearest searches for the closest point to pts[i], pruning quadrants
// farther than the best so far. Returns (best index, visited node count).
func (t *qtNode) nearest(pts []input.Point2, i int32, best int32, bestD float64, visited *int) (int32, float64) {
	*visited++
	if t.kids == nil {
		if t.point >= 0 && t.point != i {
			dx, dy := pts[t.point].X-pts[i].X, pts[t.point].Y-pts[i].Y
			d := dx*dx + dy*dy
			if d < bestD {
				return t.point, d
			}
		}
		return best, bestD
	}
	// Visit children nearest-first.
	order := [4]int{0, 1, 2, 3}
	q := 0
	if pts[i].X >= t.cx {
		q |= 1
	}
	if pts[i].Y >= t.cy {
		q |= 2
	}
	order[0], order[q] = order[q], order[0]
	for _, ci := range order {
		ch := t.kids[ci]
		if ch == nil {
			continue
		}
		// Prune: minimum possible distance to this quadrant's box.
		dx := math.Max(0, math.Abs(pts[i].X-ch.cx)-ch.half)
		dy := math.Max(0, math.Abs(pts[i].Y-ch.cy)-ch.half)
		if dx*dx+dy*dy >= bestD {
			continue
		}
		best, bestD = ch.nearest(pts, i, best, bestD, visited)
	}
	return best, bestD
}

func prepareKNN(seed uint64, scale float64) Input {
	pts := input.Cube2D(seed, scaled(4000, scale))
	// Brute-force reference.
	want := sync.OnceValue(func() []int32 {
		out := make([]int32, len(pts))
		for i := range pts {
			best, bd := int32(-1), math.Inf(1)
			for j := range pts {
				if i == j {
					continue
				}
				dx, dy := pts[i].X-pts[j].X, pts[i].Y-pts[j].Y
				if d := dx*dx + dy*dy; d < bd {
					bd, best = d, int32(j)
				}
			}
			out[i] = best
		}
		return out
	})
	return &knnInput{pts: pts, want: want}
}

func (in *knnInput) Instance() Workload { return &knn{knnInput: in, grain: 32} }

func (k *knn) Run(r *wsrt.Run) {
	n := len(k.pts)
	// Parallel quadtree build: points are partitioned across the 16 depth-2
	// quadrants serially (cheap pass), then the 16 subtrees build as
	// independent tasks (PBBS builds its trees in parallel similarly).
	k.root = &qtNode{cx: 0.5, cy: 0.5, half: 0.5, point: -1}
	k.root.kids = &[4]*qtNode{}
	for q := 0; q < 4; q++ {
		cx, cy := 0.25, 0.25
		if q&1 != 0 {
			cx = 0.75
		}
		if q&2 != 0 {
			cy = 0.75
		}
		k.root.kids[q] = &qtNode{cx: cx, cy: cy, half: 0.25, point: -1}
		k.root.kids[q].kids = &[4]*qtNode{}
		for s := 0; s < 4; s++ {
			sx, sy := cx-0.125, cy-0.125
			if s&1 != 0 {
				sx = cx + 0.125
			}
			if s&2 != 0 {
				sy = cy + 0.125
			}
			k.root.kids[q].kids[s] = &qtNode{cx: sx, cy: sy, half: 0.125, point: -1}
		}
	}
	parts := make([][]int32, 16)
	for i := 0; i < n; i++ {
		q, s := 0, 0
		if k.pts[i].X >= 0.5 {
			q |= 1
		}
		if k.pts[i].Y >= 0.5 {
			q |= 2
		}
		cx, cy := k.root.kids[q].cx, k.root.kids[q].cy
		if k.pts[i].X >= cx {
			s |= 1
		}
		if k.pts[i].Y >= cy {
			s |= 2
		}
		parts[q*4+s] = append(parts[q*4+s], int32(i))
	}
	r.SerialWork(2000 + float64(n)*costArith*2)
	r.ParallelFor(0, 16, 1, func(c *wsrt.Ctx, lo, hi int) {
		for p := lo; p < hi; p++ {
			sub := k.root.kids[p/4].kids[p%4]
			for _, i := range parts[p] {
				sub.insert(k.pts, i, 2)
			}
			c.Work(float64(len(parts[p])) * costNode)
		}
	})
	k.nn = make([]int32, n)
	r.ParallelFor(0, n, k.grain, func(c *wsrt.Ctx, lo, hi int) {
		visited := 0
		for i := lo; i < hi; i++ {
			best, _ := k.root.nearest(k.pts, int32(i), -1, math.Inf(1), &visited)
			k.nn[i] = best
		}
		c.Work(float64(visited)*12 + float64(hi-lo)*costWrite)
		c.Touch(float64(visited) * 40)
	})
	r.SerialWork(500)
}

func (k *knn) Check() error {
	// Equal distance ties may resolve differently; compare distances.
	want := k.want()
	for i := range k.nn {
		if k.nn[i] < 0 {
			return fmt.Errorf("knn: point %d has no neighbor", i)
		}
		d := func(a, b int32) float64 {
			dx, dy := k.pts[a].X-k.pts[b].X, k.pts[a].Y-k.pts[b].Y
			return dx*dx + dy*dy
		}
		if got, want := d(int32(i), k.nn[i]), d(int32(i), want[i]); got > want*(1+1e-12) {
			return fmt.Errorf("knn: point %d: got distance %g, want %g", i, got, want)
		}
	}
	return nil
}

// ---- nbody: direct-sum force computation on 3D bodies (PBBS CK stand-in) ----

// nbodyInput is the prepared bodies and the reference forces.
type nbodyInput struct {
	pts  []input.Point3
	mass []float64
	want func() [][3]float64
}

type nbody struct {
	*nbodyInput
	force [][3]float64
	grain int
}

func prepareNbody(seed uint64, scale float64) Input {
	n := scaled(550, scale)
	pts := input.Cube3D(seed, n)
	mass := make([]float64, n)
	rng := seed
	for i := range mass {
		rng = rng*6364136223846793005 + 1442695040888963407
		mass[i] = 0.5 + float64(rng>>40)/float64(1<<24)
	}
	in := &nbodyInput{pts: pts, mass: mass}
	in.want = sync.OnceValue(in.computeSerial)
	return in
}

func (in *nbodyInput) Instance() Workload { return &nbody{nbodyInput: in, grain: 8} }

func (k *nbodyInput) forceOn(i int) [3]float64 {
	var f [3]float64
	const eps = 1e-6
	for j := range k.pts {
		if j == i {
			continue
		}
		dx := k.pts[j].X - k.pts[i].X
		dy := k.pts[j].Y - k.pts[i].Y
		dz := k.pts[j].Z - k.pts[i].Z
		r2 := dx*dx + dy*dy + dz*dz + eps
		inv := k.mass[j] / (r2 * math.Sqrt(r2))
		f[0] += dx * inv
		f[1] += dy * inv
		f[2] += dz * inv
	}
	return f
}

func (k *nbodyInput) computeSerial() [][3]float64 {
	out := make([][3]float64, len(k.pts))
	for i := range out {
		out[i] = k.forceOn(i)
	}
	return out
}

func (k *nbody) Run(r *wsrt.Run) {
	n := len(k.pts)
	k.force = make([][3]float64, n)
	r.SerialWork(2000)
	r.Parallel(func(c *wsrt.Ctx) {
		// Recursive spawn-and-sync over the body range (PM "p,rss").
		c.ParallelRange(0, n, k.grain, func(cc *wsrt.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				k.force[i] = k.forceOn(i)
			}
			cc.Work(float64((hi - lo) * n * 22))
		}, nil)
	})
	r.SerialWork(500)
}

func (k *nbody) Check() error {
	want := k.want()
	for i := range k.force {
		for d := 0; d < 3; d++ {
			if k.force[i][d] != want[i][d] {
				return fmt.Errorf("nbody: body %d dim %d: %g != %g", i, d, k.force[i][d], want[i][d])
			}
		}
	}
	return nil
}

func init() {
	register(&Kernel{
		Name: "hull", Suite: "pbbs", Input: "2Dkuzmin_30K", PM: "rss",
		Alpha: 2.1, Beta: 2.2, MPKI: 6.0, Prepare: prepareHull,
	})
	register(&Kernel{
		Name: "knn", Suite: "pbbs", Input: "2DinCube_4K", PM: "p,rss",
		Alpha: 2.8, Beta: 1.7, MPKI: 0.02, Prepare: prepareKNN,
	})
	register(&Kernel{
		Name: "nbody", Suite: "pbbs", Input: "3DinCube_550", PM: "p,rss",
		Alpha: 2.9, Beta: 1.6, MPKI: 0.01, Prepare: prepareNbody,
	})
}
