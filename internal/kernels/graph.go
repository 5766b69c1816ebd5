package kernels

import (
	"fmt"
	"sync"

	"aaws/internal/input"
	"aaws/internal/wsrt"
)

// serialBFSLevels computes reference BFS levels from src.
func serialBFSLevels(g *input.Graph, src int32) []int32 {
	levels := make([]int32, g.N)
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0
	frontier := []int32{src}
	for lvl := int32(1); len(frontier) > 0; lvl++ {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Neighbors(int(u)) {
				if levels[v] == -1 {
					levels[v] = lvl
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return levels
}

// bfsInput is the prepared input of both BFS kernels: the graph and its
// reference levels from vertex 0. Run only reads the graph.
type bfsInput struct {
	g        *input.Graph
	want     func() []int32
	instance func(in *bfsInput) Workload
}

func prepareBFS(seed uint64, scale float64, instance func(in *bfsInput) Workload) Input {
	g := input.RandLocalGraph(seed, 5, scaled(20000, scale))
	return &bfsInput{g: g, want: sync.OnceValue(func() []int32 { return serialBFSLevels(g, 0) }), instance: instance}
}

func (in *bfsInput) Instance() Workload { return in.instance(in) }

// ---- bfs-nd: level-synchronous BFS with atomic parent claims (PBBS) ----
//
// The claim "CAS" resolves in task-body execution order, which varies with
// the schedule — authentic non-determinism — but the *levels* are schedule-
// invariant because claims only happen in the level a vertex is first
// reachable.
type bfsND struct {
	*bfsInput
	levels []int32
	grain  int
}

func prepareBFSND(seed uint64, scale float64) Input {
	return prepareBFS(seed, scale, func(in *bfsInput) Workload { return &bfsND{bfsInput: in, grain: 64} })
}

func (k *bfsND) Run(r *wsrt.Run) {
	g := k.g
	k.levels = make([]int32, g.N)
	for i := range k.levels {
		k.levels[i] = -1
	}
	r.SerialWork(2000 + float64(g.N)*2) // init
	k.levels[0] = 0
	frontier := []int32{0}
	for lvl := int32(1); len(frontier) > 0; lvl++ {
		// Leaf ranges come from recursive binary splitting, so they are
		// identified by their (unique) start index, not by lo/grain.
		nextPer := make([][]int32, len(frontier))
		r.ParallelFor(0, len(frontier), k.grain, func(c *wsrt.Ctx, lo, hi int) {
			var local []int32
			visits := 0
			for _, u := range frontier[lo:hi] {
				for _, v := range g.Neighbors(int(u)) {
					visits++
					if k.levels[v] == -1 { // CAS claim (atomic per body)
						k.levels[v] = lvl
						local = append(local, v)
					}
				}
			}
			nextPer[lo] = local
			c.Work(float64(visits)*costVisit + float64(len(local))*costWrite)
			c.Touch(float64(visits) * 8)
		})
		// Serial frontier concatenation (PBBS uses a parallel pack; the
		// concatenation cost here is charged proportionally).
		var next []int32
		for _, l := range nextPer {
			next = append(next, l...)
		}
		r.SerialWork(float64(len(next))*2 + 200)
		frontier = next
	}
	r.SerialWork(500)
}

func (k *bfsND) Check() error {
	return checkEqualInt32("bfs-nd levels", k.levels, k.want())
}

// ---- bfs-d: deterministic BFS with reserve-and-commit phases (PBBS) ----
//
// Each level runs two passes: reserve (priority-write the minimum parent id
// into each newly reachable vertex) and commit (the winning parent adds the
// vertex to the next frontier). The result is schedule-independent.
type bfsD struct {
	*bfsInput
	levels []int32
	parent []int32
	grain  int
}

func prepareBFSD(seed uint64, scale float64) Input {
	return prepareBFS(seed, scale, func(in *bfsInput) Workload { return &bfsD{bfsInput: in, grain: 64} })
}

func (k *bfsD) Run(r *wsrt.Run) {
	g := k.g
	k.levels = make([]int32, g.N)
	k.parent = make([]int32, g.N)
	reserve := make([]int32, g.N)
	for i := range k.levels {
		k.levels[i] = -1
		k.parent[i] = -1
		reserve[i] = -1
	}
	r.SerialWork(2000 + float64(g.N)*3)
	k.levels[0] = 0
	k.parent[0] = 0
	frontier := []int32{0}
	for lvl := int32(1); len(frontier) > 0; lvl++ {
		// Reserve pass: priority-write min parent id (commutative).
		r.ParallelFor(0, len(frontier), k.grain, func(c *wsrt.Ctx, lo, hi int) {
			visits := 0
			for _, u := range frontier[lo:hi] {
				for _, v := range g.Neighbors(int(u)) {
					visits++
					if k.levels[v] == -1 && (reserve[v] == -1 || u < reserve[v]) {
						reserve[v] = u
					}
				}
			}
			c.Work(float64(visits) * costVisit)
			c.Touch(float64(visits) * 8)
		})
		// Commit pass: the winning parent claims the vertex.
		nextPer := make([][]int32, len(frontier))
		r.ParallelFor(0, len(frontier), k.grain, func(c *wsrt.Ctx, lo, hi int) {
			var local []int32
			visits := 0
			for _, u := range frontier[lo:hi] {
				for _, v := range g.Neighbors(int(u)) {
					visits++
					if k.levels[v] == -1 && reserve[v] == u {
						k.levels[v] = lvl
						k.parent[v] = u
						local = append(local, v)
					}
				}
			}
			nextPer[lo] = local
			c.Work(float64(visits)*costVisit + float64(len(local))*costWrite)
			c.Touch(float64(visits) * 8)
		})
		var next []int32
		for _, l := range nextPer {
			next = append(next, l...)
		}
		r.SerialWork(float64(len(next))*2 + 200)
		frontier = next
	}
	r.SerialWork(500)
}

func (k *bfsD) Check() error {
	if err := checkEqualInt32("bfs-d levels", k.levels, k.want()); err != nil {
		return err
	}
	// Deterministic parents: each parent must be the min-id neighbor in
	// the previous level.
	for v := 0; v < k.g.N; v++ {
		if k.levels[v] <= 0 {
			continue
		}
		best := int32(-1)
		for _, u := range k.g.Neighbors(v) {
			if k.levels[u] == k.levels[v]-1 && (best == -1 || u < best) {
				best = u
			}
		}
		if k.parent[v] != best {
			return fmt.Errorf("bfs-d: vertex %d parent %d, want deterministic min %d", v, k.parent[v], best)
		}
	}
	return nil
}

// ---- mis: maximal independent set with atomic claims (PBBS, ND) ----

// misInput is the prepared graph. Check validates the set structurally,
// so there is no reference.
type misInput struct{ g *input.Graph }

type mis struct {
	*misInput
	status []int8 // 0 undecided, 1 in MIS, 2 excluded
	grain  int
}

func prepareMIS(seed uint64, scale float64) Input {
	return &misInput{g: input.RandLocalGraph(seed^0xa1, 5, scaled(25000, scale))}
}

func (in *misInput) Instance() Workload { return &mis{misInput: in, grain: 64} }

func (k *mis) Run(r *wsrt.Run) {
	g := k.g
	k.status = make([]int8, g.N)
	r.SerialWork(2000 + float64(g.N))
	// Greedy MIS: each task body atomically checks its vertex's neighbors
	// and claims membership if none is already in the set. Which vertices
	// win depends on body execution order (ND), but the result is always
	// a valid maximal independent set.
	r.ParallelFor(0, g.N, k.grain, func(c *wsrt.Ctx, lo, hi int) {
		visits := 0
		for v := lo; v < hi; v++ {
			inSet := true
			for _, u := range g.Neighbors(v) {
				visits++
				if k.status[u] == 1 {
					inSet = false
					break
				}
			}
			if inSet {
				k.status[v] = 1
			} else {
				k.status[v] = 2
			}
		}
		c.Work(float64(visits)*costVisit + float64(hi-lo)*costWrite)
		c.Touch(float64(visits) * 5)
	})
	r.SerialWork(500)
}

func (k *mis) Check() error {
	g := k.g
	for v := 0; v < g.N; v++ {
		if k.status[v] == 0 {
			return fmt.Errorf("mis: vertex %d undecided", v)
		}
		if k.status[v] == 1 {
			for _, u := range g.Neighbors(v) {
				if k.status[u] == 1 && int(u) != v {
					return fmt.Errorf("mis: adjacent vertices %d and %d both in set", v, u)
				}
			}
		} else {
			ok := false
			for _, u := range g.Neighbors(v) {
				if k.status[u] == 1 {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("mis: excluded vertex %d has no neighbor in set (not maximal)", v)
			}
		}
	}
	return nil
}

// ---- sptree: spanning forest via concurrent union-find (PBBS, ND) ----

// sptreeInput is the prepared edge list and its reference component
// count.
type sptreeInput struct {
	n         int
	edges     []input.Edge
	wantComps func() int
}

type sptree struct {
	*sptreeInput
	parentUF  []int32
	treeEdges int
	grain     int
}

func prepareSptree(seed uint64, scale float64) Input {
	n := scaled(20000, scale)
	edges := input.RandLocalEdges(seed^0x77, 5, n)
	// Reference component count via serial union-find.
	wantComps := sync.OnceValue(func() int {
		parent := make([]int32, n)
		for i := range parent {
			parent[i] = int32(i)
		}
		var find func(x int32) int32
		find = func(x int32) int32 {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		comps := n
		for _, e := range edges {
			ru, rv := find(e.U), find(e.V)
			if ru != rv {
				parent[ru] = rv
				comps--
			}
		}
		return comps
	})
	return &sptreeInput{n: n, edges: edges, wantComps: wantComps}
}

func (in *sptreeInput) Instance() Workload { return &sptree{sptreeInput: in, grain: 128} }

func (k *sptree) find(x int32, hops *int) int32 {
	for k.parentUF[x] != x {
		k.parentUF[x] = k.parentUF[k.parentUF[x]] // path halving
		x = k.parentUF[x]
		*hops++
	}
	return x
}

func (k *sptree) Run(r *wsrt.Run) {
	k.parentUF = make([]int32, k.n)
	for i := range k.parentUF {
		k.parentUF[i] = int32(i)
	}
	k.treeEdges = 0
	r.SerialWork(2000 + float64(k.n))
	treePer := make([]int, len(k.edges))
	r.ParallelFor(0, len(k.edges), k.grain, func(c *wsrt.Ctx, lo, hi int) {
		hops := 0
		local := 0
		for _, e := range k.edges[lo:hi] {
			ru := k.find(e.U, &hops)
			rv := k.find(e.V, &hops)
			if ru != rv {
				// link (atomic within the body)
				if ru < rv {
					k.parentUF[ru] = rv
				} else {
					k.parentUF[rv] = ru
				}
				local++
			}
		}
		treePer[lo] = local
		c.Work(float64(hops)*6 + float64(hi-lo)*(costVisit+costArith))
		c.Touch(float64(hops)*4 + float64(hi-lo)*8)
	})
	for _, t := range treePer {
		k.treeEdges += t
	}
	r.SerialWork(float64(len(k.edges))/float64(k.grain)*4 + 500)
}

func (k *sptree) Check() error {
	// A spanning forest has n - components tree edges, regardless of which
	// edges were selected.
	want := k.n - k.wantComps()
	if k.treeEdges != want {
		return fmt.Errorf("sptree: %d tree edges, want %d", k.treeEdges, want)
	}
	// And the union-find structure must connect exactly the reference
	// number of components.
	comps := 0
	hops := 0
	for i := int32(0); int(i) < k.n; i++ {
		if k.find(i, &hops) == i {
			comps++
		}
	}
	if comps != k.wantComps() {
		return fmt.Errorf("sptree: %d components, want %d", comps, k.wantComps())
	}
	return nil
}

func init() {
	register(&Kernel{
		Name: "bfs-d", Suite: "pbbs", Input: "randLocalGraph_J_5_20K", PM: "p",
		Alpha: 2.8, Beta: 2.2, MPKI: 14.8, Prepare: prepareBFSD,
	})
	register(&Kernel{
		Name: "bfs-nd", Suite: "pbbs", Input: "randLocalGraph_J_5_20K", PM: "p",
		Alpha: 2.8, Beta: 2.2, MPKI: 12.3, Prepare: prepareBFSND,
	})
	register(&Kernel{
		Name: "mis", Suite: "pbbs", Input: "randLocalGraph_J_5_25K", PM: "p",
		Alpha: 3.6, Beta: 2.3, MPKI: 3.5, Prepare: prepareMIS,
	})
	register(&Kernel{
		Name: "sptree", Suite: "pbbs", Input: "randLocalGraph_E_5_20K", PM: "p",
		Alpha: 2.8, Beta: 2.1, MPKI: 4.9, Prepare: prepareSptree,
	})
}
