package kernels

import (
	"fmt"
	"sync"

	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// ---- ksack: 0/1 knapsack by branch-and-bound (Cilk) ----
//
// The Cilk knapsack spawns a task per branch with pruning against the best
// value found so far. Pruning reads a shared best (benign race in the real
// runtime; atomic per body here), so the explored node count depends on the
// schedule — but branch-and-bound always returns the optimum, which Check
// verifies against dynamic programming.
type ksack struct {
	*ksackInput
	best int32
}

// ksackInput is the prepared item set, capacity and reference optimum.
type ksackInput struct {
	weights []int32
	values  []int32
	cap     int32
	want    int32
	spawnD  int
}

func prepareKsack(seed uint64, scale float64) Input {
	n := 24
	rng := sim.NewRand(seed)
	w := make([]int32, n)
	v := make([]int32, n)
	for i := range w {
		w[i] = int32(8 + rng.Intn(40))
		v[i] = w[i] + int32(rng.Intn(24)) - 6 // loosely correlated: hard instances
	}
	capacity := int32(0)
	for _, wi := range w {
		capacity += wi
	}
	capacity = capacity * 11 / 24 // ~46% of total weight
	if scale > 1.5 {
		capacity = capacity * 12 / 11
	}
	in := &ksackInput{weights: w, values: v, cap: capacity, spawnD: 11}
	// Reference optimum via DP over weights.
	dp := make([]int32, capacity+1)
	for i := 0; i < n; i++ {
		for c := capacity; c >= w[i]; c-- {
			if dp[c-w[i]]+v[i] > dp[c] {
				dp[c] = dp[c-w[i]] + v[i]
			}
		}
	}
	in.want = dp[capacity]
	return in
}

func (in *ksackInput) Instance() Workload { return &ksack{ksackInput: in} }

// bound returns an optimistic value bound: current value plus all remaining
// item values (a simple but effective fractional-free bound).
func (k *ksack) bound(item int, val int32) int32 {
	b := val
	for i := item; i < len(k.weights); i++ {
		b += k.values[i]
	}
	return b
}

// branch explores (item, remaining capacity, accumulated value). Above
// spawnD depth it spawns the include/exclude branches; below, it runs the
// subtree inline and charges per explored node.
func (k *ksack) branch(c *wsrt.Ctx, item int, rem, val int32, depth int) {
	if val > k.best {
		k.best = val // benign racy max (atomic per body)
	}
	if item == len(k.weights) || k.bound(item, val) <= k.best {
		c.Work(40)
		return
	}
	if depth >= k.spawnD {
		nodes := 0
		k.branchSerial(item, rem, val, &nodes)
		c.Work(float64(nodes)*40 + 40)
		return
	}
	c.Work(40)
	if k.weights[item] <= rem {
		c.Spawn(func(cc *wsrt.Ctx) {
			k.branch(cc, item+1, rem-k.weights[item], val+k.values[item], depth+1)
		})
	}
	c.Spawn(func(cc *wsrt.Ctx) { k.branch(cc, item+1, rem, val, depth+1) })
}

func (k *ksack) branchSerial(item int, rem, val int32, nodes *int) {
	*nodes++
	if val > k.best {
		k.best = val
	}
	if item == len(k.weights) || k.bound(item, val) <= k.best {
		return
	}
	if k.weights[item] <= rem {
		k.branchSerial(item+1, rem-k.weights[item], val+k.values[item], nodes)
	}
	k.branchSerial(item+1, rem, val, nodes)
}

func (k *ksack) Run(r *wsrt.Run) {
	k.best = 0
	r.SerialWork(2000)
	r.Parallel(func(c *wsrt.Ctx) { k.branch(c, 0, k.cap, 0, 0) })
	r.SerialWork(500)
}

func (k *ksack) Check() error {
	if k.best != k.want {
		return fmt.Errorf("ksack: best value %d, want optimum %d", k.best, k.want)
	}
	return nil
}

// ---- uts: unbalanced tree search, geometric tree (UTS suite) ----
//
// Each node's child count comes from a splittable hash of its path, with a
// branching factor that decays geometrically with depth — the classic UTS
// geometric tree. Tasks are spawned down to a depth threshold; deeper
// subtrees are traversed inline (matching UTS's chunked task sizes).
type uts struct {
	*utsInput
	count int64
}

// utsInput is the prepared tree shape and the reference node count.
type utsInput struct {
	b0       float64
	maxDepth int
	spawnD   int
	rootSeed uint64
	want     func() int64
}

// utsChildren derives node id's child count deterministically.
func (k *utsInput) utsChildren(id uint64, depth int) int {
	if depth >= k.maxDepth {
		return 0
	}
	if depth == 0 {
		// As in UTS, the root's branching factor b0 is fixed, not drawn:
		// it guarantees the tree cannot go extinct at the root.
		return int(k.b0 + 0.5)
	}
	// splitmix64 hash of the node id
	z := id + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / float64(1<<53)
	// Geometric branching with expected value decaying with depth.
	b := k.b0 * (1 - float64(depth)/float64(k.maxDepth))
	n := 0
	p := 1 / (1 + b)
	// inverse-geometric draw
	q := 1 - p
	acc := p
	for u > acc && n < 16 {
		n++
		acc += p * pow(q, n)
	}
	return n
}

func pow(x float64, n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= x
	}
	return r
}

// childID derives the ith child's id.
func childID(id uint64, i int) uint64 {
	z := id ^ (uint64(i+1) * 0xd6e8feb86659fd93)
	z = (z ^ (z >> 32)) * 0xd6e8feb86659fd93
	return z ^ (z >> 32)
}

func (k *utsInput) countSerial(id uint64, depth int) int64 {
	n := int64(1)
	for i := 0; i < k.utsChildren(id, depth); i++ {
		n += k.countSerial(childID(id, i), depth+1)
	}
	return n
}

func prepareUTS(seed uint64, scale float64) Input {
	in := &utsInput{b0: 4.0, maxDepth: 15, spawnD: 6, rootSeed: seed * 2654435761}
	if scale > 1.5 {
		in.b0 = 4.3
	}
	if scale < 0.5 {
		in.b0 = 3.4
	}
	in.want = sync.OnceValue(func() int64 { return in.countSerial(in.rootSeed, 0) })
	return in
}

func (in *utsInput) Instance() Workload { return &uts{utsInput: in} }

func (k *uts) explore(c *wsrt.Ctx, id uint64, depth int) {
	k.count++ // atomic per body
	nc := k.utsChildren(id, depth)
	c.Work(140) // SHA-style hash evaluation per node in real UTS
	if depth >= k.spawnD {
		// Traverse the subtree inline, charging per node.
		nodes := int64(0)
		for i := 0; i < nc; i++ {
			nodes += k.countSerial(childID(id, i), depth+1)
		}
		k.count += nodes
		c.Work(float64(nodes) * 140)
		return
	}
	for i := 0; i < nc; i++ {
		cid := childID(id, i)
		d := depth + 1
		c.Spawn(func(cc *wsrt.Ctx) { k.explore(cc, cid, d) })
	}
}

func (k *uts) Run(r *wsrt.Run) {
	k.count = 0
	r.SerialWork(2000)
	r.Parallel(func(c *wsrt.Ctx) { k.explore(c, k.rootSeed, 0) })
	r.SerialWork(500)
}

func (k *uts) Check() error {
	if k.count != k.want() {
		return fmt.Errorf("uts: visited %d nodes, want %d", k.count, k.want())
	}
	return nil
}

func init() {
	register(&Kernel{
		Name: "ksack", Suite: "cilk", Input: "knapsack-24-items", PM: "rss",
		Alpha: 2.4, Beta: 1.9, MPKI: 0.0, Prepare: prepareKsack,
	})
	register(&Kernel{
		Name: "uts", Suite: "uts", Input: "-t 1 -a 2 -d 14 -b 3.4", PM: "np",
		Alpha: 2.3, Beta: 2.0, MPKI: 0.02, Prepare: prepareUTS,
	})
}
