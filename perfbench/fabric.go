package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
)

// fabricWorkers is the number of loopback worker nodes, each running an
// executor with one worker.
const fabricWorkers = 2

// fab is the fabric-sweep workload: the 110-cell 4B4L default matrix
// through an in-process fabric coordinator and loopback workers, in rounds
// of a fresh-seed pass (shard routing, wire frames, execution, remote-cache
// fills) followed by a repeat of the same seed (remote-cache reads).
type fab struct {
	seed   uint64
	coord  *fabric.Coordinator
	hs     *http.Server
	exs    []*jobs.Executor
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newFabric(seed uint64) *fab { return &fab{seed: seed} }

// setup starts the coordinator, its cache endpoint and the workers, waits
// for every worker to register, and runs a warm-up pass.
func (f *fab) setup() error {
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{})
	if err != nil {
		return err
	}
	f.coord = coord
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go coord.Serve(fln)
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.hs = &http.Server{Handler: fabric.NewHTTP(coord, fabric.HTTPOptions{})}
	go f.hs.Serve(hln)
	base := "http://" + hln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < fabricWorkers; i++ {
		local, err := jobs.NewCache(1024, "")
		if err != nil {
			return err
		}
		ex := jobs.NewExecutor(jobs.Config{
			Workers: 1,
			Cache:   jobs.NewTieredCache(local, fabric.NewRemoteCache(base)),
		})
		f.exs = append(f.exs, ex)
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			Name: fmt.Sprintf("node-%d", i), CoordAddr: fln.Addr().String(), Executor: ex,
		})
		if err != nil {
			return err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx)
		}()
		select {
		case <-w.Ready():
		case <-time.After(30 * time.Second):
			return fmt.Errorf("worker node-%d never registered", i)
		}
	}
	// One pass at a seed of its own generates every LUT and fills the
	// engine caches, the once-per-process cost before the first sweep.
	wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer wcancel()
	if _, err := coord.CellBytes(wctx, matrix(seedStream(f.seed, 5).Uint64(), core.Sys4B4L)); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	return nil
}

func (f *fab) close() {
	if f.cancel != nil {
		f.cancel()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	if f.hs != nil {
		f.hs.Close()
	}
	done := make(chan struct{})
	go func() { f.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
	}
	for _, ex := range f.exs {
		ex.Close()
	}
}

func (f *fab) run(ctx context.Context, seconds float64, tr *tracer, res *result) error {
	var (
		rounds, freshMs, repeatMs, gaps dist
		traced, untraced                dist
		freshT, repeatT                 time.Duration
		freshCells, repeatCells         int
		events                          float64
	)
	seeds := seedStream(f.seed, 3)
	m0 := f.coord.Metrics()
	lat0 := len(f.coord.ShardLatencies())
	// The budget is wall time: each round's untimed local reference run
	// costs about as much as the round itself.
	budget := time.Duration(seconds * float64(time.Second))
	begin := time.Now()
	lastEnd := begin
	for r := 0; time.Since(begin) < budget; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		seed := f.seed
		if r > 0 {
			seed = seeds.Uint64()
		}
		specs := matrix(seed, core.Sys4B4L)
		t0 := time.Now()
		gaps.add(ms(t0.Sub(lastEnd)))
		fresh, err := f.coord.CellBytes(ctx, specs)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("round %d fresh pass: %w", r, err)
		}
		repeat, err := f.coord.CellBytes(ctx, specs)
		t2 := time.Now()
		lastEnd = t2
		if err != nil {
			return fmt.Errorf("round %d repeat pass: %w", r, err)
		}
		freshT += t1.Sub(t0)
		repeatT += t2.Sub(t1)
		freshCells += len(fresh)
		repeatCells += len(repeat)
		freshMs.add(ms(t1.Sub(t0)))
		repeatMs.add(ms(t2.Sub(t1)))
		rounds.add(ms(t2.Sub(t0)))
		if tr != nil {
			if r%2 == 1 {
				id := tr.newTrace()
				root := tr.record("fabric.round", -1, id, t0, t2)
				tr.record("fabric.fresh_pass", root, id, t0, t1)
				tr.record("fabric.repeat_pass", root, id, t1, t2)
				traced.add(ms(t2.Sub(t0)))
			} else {
				untraced.add(ms(t2.Sub(t0)))
			}
		}
		ev, err := f.check(r, seed, specs, fresh, repeat, res)
		if err != nil {
			return err
		}
		events += ev
	}
	m1 := f.coord.Metrics()
	lats := f.coord.ShardLatencies()[lat0:]

	res.e2e["cells_per_s"] = metric{Value: float64(freshCells) / freshT.Seconds(), Unit: "1/s", N: freshCells}
	res.e2e["sim_events_per_s"] = metric{Value: events / freshT.Seconds(), Unit: "1/s", N: freshCells}
	latency(res.e2e, "op", &rounds)
	res.extra["cached_cells_per_s"] = metric{Value: float64(repeatCells) / repeatT.Seconds(), Unit: "1/s", N: repeatCells}
	res.extra["fresh_pass_ms"] = metric{Value: freshMs.p50(), Unit: "ms", N: freshMs.n()}
	res.extra["repeat_pass_ms"] = metric{Value: repeatMs.p50(), Unit: "ms", N: repeatMs.n()}

	var shard dist
	for _, s := range lats {
		shard.add(s * 1e3)
	}
	latency(res.layer, "fabric.shard", &shard)
	hits, misses := m1.RemoteHits-m0.RemoteHits, m1.RemoteMisses-m0.RemoteMisses
	if hits+misses > 0 {
		res.layer["fabric.remote_hit_ratio"] = metric{Value: float64(hits) / float64(hits+misses), Unit: "ratio", N: int(hits + misses)}
	}
	res.layer["fabric.hedges"] = metric{Value: float64(m1.HedgesFired - m0.HedgesFired), Unit: "count"}
	res.layer["fabric.duplicates"] = metric{Value: float64(m1.Duplicates - m0.Duplicates), Unit: "count"}
	res.layer["fabric.redispatches"] = metric{Value: float64(m1.Redispatches - m0.Redispatches), Unit: "count"}
	v, p := gaps.tail()
	res.layer["gen.late_tail_ms"] = metric{Value: v, Unit: "ms", N: gaps.n(), P: p}
	if tr != nil {
		res.layer["trace.overhead_frac"] = overheadFrac(&traced, &untraced)
	}
	res.note("closed loop, 1 goroutine, %d workers x 1 executor worker, %d rounds of %d cells (fresh pass + repeat pass)",
		fabricWorkers, rounds.n(), len(matrix(0, core.Sys4B4L)))
	return nil
}

// check verifies a round untimed against a local RunBatch of the same
// specs: every fresh and repeat cell must equal the local cell bytes, and
// at the committed seed the fingerprint must equal the committed one. It
// returns the simulated events of the round's cells.
func (f *fab) check(round int, seed uint64, specs []core.Spec, fresh, repeat [][]byte, res *result) (float64, error) {
	results, err := core.RunBatch(append([]core.Spec(nil), specs...))
	if err != nil {
		return 0, fmt.Errorf("round %d local reference: %w", round, err)
	}
	n := len(specs)
	local := make([][]byte, len(results))
	checks := newCellChecks(res, 2*n) // fresh cells, then repeat cells
	res.attempted += 2 * n
	var events float64
	for i, r := range results {
		if err := r.Verify(); err != nil {
			for pass := 0; pass < 2; pass++ {
				checks.fail(pass*n+i, pass*n+i+1, "round %d local cell %d (%s/%s): %v", round, i, specs[i].Kernel, specs[i].Variant, err)
			}
		}
		if local[i], err = cellBytes(specs[i], r); err != nil {
			return 0, err
		}
		events += float64(r.Report.Events)
		if round == 0 {
			res.sims.add(r.Report)
		}
	}
	for pass, cells := range [][][]byte{fresh, repeat} {
		if len(cells) != n {
			checks.fail(pass*n, pass*n+n, "round %d pass %d: %d cells for %d specs", round, pass, len(cells), n)
			continue
		}
		for i := range cells {
			if string(cells[i]) != string(local[i]) {
				checks.fail(pass*n+i, pass*n+i+1, "round %d pass %d cell %d (%s/%s) differs from local RunBatch",
					round, pass, i, specs[i].Kernel, specs[i].Variant)
			}
		}
	}
	if round == 0 {
		res.fingerprint = fabric.Fingerprint(fresh)
		want, ok, err := committedFingerprint(seed)
		if err != nil {
			return 0, err
		}
		if ok {
			if res.fingerprint != want.Fingerprint {
				checks.fail(0, n, "fabric fingerprint %s, committed %s", res.fingerprint, want.Fingerprint)
			} else {
				res.note("fabric fingerprint matches %s (%s)", fingerprintPath, want.Fingerprint)
			}
		}
	}
	return events, nil
}
