package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// probeServeSeconds and probeFabricSeconds size the short service runs that
// give a workload the metrics of the service layers its own traffic does
// not pass through.
const (
	probeServeSeconds  = 3
	probeFabricSeconds = 0.1 // one round
)

// probeLayers measures each layer by calling its public functions directly,
// after the workload's timed phase of a traced run. Metrics the workload's
// own traffic already produced are kept; the service layers a workload
// bypasses are measured on a short run of the workload that drives them.
func probeLayers(ctx context.Context, name string, seed uint64, scratch string, tr *tracer, res *result) error {
	probeSim(res)
	probeLUT(tr, res)
	prep := probeInput(seed, tr, res)
	specs, results, err := probeCore(seed, prep, tr, res)
	if err != nil {
		return err
	}
	if err := probeJobs(filepath.Join(scratch, "jobs-probe"), specs, results, tr, res); err != nil {
		return err
	}
	serviceKeys := []string{
		"jobs.queue_wait_p50_ms", "jobs.queue_wait_tail_ms", "jobs.run_p50_ms",
		"jobs.cache_hit_ratio", "jobs.shed", "http.overhead_p50_ms",
	}
	fabricKeys := []string{
		"fabric.shard_p50_ms", "fabric.shard_tail_ms", "fabric.remote_hit_ratio",
		"fabric.hedges", "fabric.duplicates", "fabric.redispatches",
	}
	if name != "serve-jobs" {
		w := newServe(seed, filepath.Join(scratch, "serve-probe"), serveRate)
		if err := probeRun(ctx, w, probeServeSeconds, tr, res, serviceKeys); err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		res.note("service-layer metrics from a %gs serve-jobs probe", float64(probeServeSeconds))
	}
	if name != "fabric-sweep" {
		if err := probeRun(ctx, newFabric(seed), probeFabricSeconds, tr, res, fabricKeys); err != nil {
			return fmt.Errorf("fabric probe: %w", err)
		}
		res.note("fabric metrics from a one-round fabric-sweep probe")
	}
	return nil
}

// probeRun runs a workload briefly and copies the named layer metrics.
func probeRun(ctx context.Context, w workload, seconds float64, tr *tracer, res *result, keys []string) error {
	defer w.close()
	if err := w.setup(); err != nil {
		return err
	}
	sub := newResult()
	if err := w.run(ctx, seconds, tr, sub); err != nil {
		return err
	}
	if sub.failed > 0 {
		res.fail(sub.failed, "probe: %v", sub.failures)
	}
	for _, k := range keys {
		res.layer[k] = sub.layer[k]
	}
	return nil
}

// probeSim times the event engine's hot paths in the loop shape of
// cmd/aaws-bench: schedule+pop, cancel, and reschedule.
func probeSim(res *result) {
	const iters = 1_000_000
	fn := func() {}
	e := sim.NewEngine()
	for i := 0; i < 10_000; i++ { // warm the arena
		e.After(sim.Time(i%97), fn)
		e.Step()
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		e.After(sim.Time(i%97), fn)
		e.Step()
	}
	res.layer["sim.schedule_pop_ns"] = metric{Value: float64(time.Since(start).Nanoseconds()) / iters, Unit: "ns", N: iters}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(7, fn)
		e.Step()
	})

	e.Reset()
	start = time.Now()
	for i := 0; i < iters; i++ {
		ev := e.After(sim.Time(7+i%13), fn)
		e.After(sim.Time(i%7), fn)
		ev.Cancel()
		e.Step()
	}
	res.layer["sim.cancel_ns"] = metric{Value: float64(time.Since(start).Nanoseconds()) / iters, Unit: "ns", N: iters}
	allocs = max(allocs, testing.AllocsPerRun(1000, func() {
		ev := e.After(7, fn)
		e.After(3, fn)
		ev.Cancel()
		e.Step()
	}))
	e.Run(0)

	e.Reset()
	var ev sim.Event
	start = time.Now()
	for i := 0; i < iters; i++ {
		ev.Cancel()
		ev = e.After(sim.Time(50+i%31), fn)
		e.After(sim.Time(i%11), fn)
		e.Step()
	}
	res.layer["sim.reschedule_ns"] = metric{Value: float64(time.Since(start).Nanoseconds()) / iters, Unit: "ns", N: iters}
	allocs = max(allocs, testing.AllocsPerRun(1000, func() {
		ev.Cancel()
		ev = e.After(53, fn)
		e.After(3, fn)
		e.Step()
	}))
	e.Run(0)
	res.layer["sim.allocs_per_op"] = metric{Value: allocs, Unit: "count"}
}

// probeLUT generates the DVFS lookup table of every (kernel, system, mode)
// signature of the paper matrix once.
func probeLUT(tr *tracer, res *result) {
	modes := map[model.Mode]bool{}
	for _, v := range wsrt.Variants {
		modes[v.LUTMode()] = true
	}
	id := tr.newTrace()
	root := tr.start("probe.model", -1, id)
	var d dist
	for _, name := range kernels.Names() {
		k := kernels.Get(name)
		for _, sys := range []core.System{core.Sys4B4L, core.Sys1B7L} {
			nBig, nLit := sys.Counts()
			cfg := model.Config{Params: power.DefaultParams().WithAlphaBeta(k.Alpha, k.Beta), NBig: nBig, NLit: nLit}
			for mode := range modes {
				s := time.Now()
				model.GenerateLUT(cfg, mode)
				e := time.Now()
				tr.record("model.generate_lut", root, id, s, e)
				d.add(ms(e.Sub(s)))
			}
		}
	}
	tr.finish(root)
	res.layer["model.lut_ms"] = metric{Value: d.mean(), Unit: "ms", N: d.n()}
}

// probeInput times kernels.Kernel.New, the per-cell input preparation, for
// every kernel at scale 1.0 in its own phase, and returns the mean ms per
// cell.
func probeInput(seed uint64, tr *tracer, res *result) float64 {
	const reps = 3
	id := tr.newTrace()
	root := tr.start("probe.input", -1, id)
	var d dist
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for _, name := range kernels.Names() {
		k := kernels.Get(name)
		for r := 0; r < reps; r++ {
			runtime.ReadMemStats(&ms0)
			s := time.Now()
			k.New(seed, 1)
			e := time.Now()
			runtime.ReadMemStats(&ms1)
			tr.record("input.new", root, id, s, e)
			d.add(ms(e.Sub(s)))
			mallocs += ms1.Mallocs - ms0.Mallocs
		}
	}
	tr.finish(root)
	prep := d.mean()
	res.layer["input.prep_ms_per_cell"] = metric{Value: prep, Unit: "ms", N: d.n()}
	res.layer["input.mallocs_per_cell"] = metric{Value: float64(mallocs) / float64(d.n()), Unit: "count", N: d.n()}
	return prep
}

// probeCore runs one RunBatch per (kernel, system) — the partitions of the
// full paper-sweep call — and returns the cells it ran.
func probeCore(seed uint64, prep float64, tr *tracer, res *result) ([]core.Spec, []core.Result, error) {
	all := matrix(seed, core.Sys4B4L, core.Sys1B7L)
	nv := len(wsrt.Variants)
	if _, err := core.RunBatch(append([]core.Spec(nil), all...)); err != nil { // warm LUTs and engines
		return nil, nil, err
	}
	id := tr.newTrace()
	root := tr.start("probe.core", -1, id)
	perKernel := map[string]*dist{}
	var cells dist
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	var results []core.Result
	for i := 0; i < len(all); i += nv {
		group := append([]core.Spec(nil), all[i:i+nv]...)
		runtime.ReadMemStats(&ms0)
		s := time.Now()
		rs, err := core.RunBatch(group)
		e := time.Now()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, nil, err
		}
		tr.record("core.run_batch", root, id, s, e)
		mallocs += ms1.Mallocs - ms0.Mallocs
		per := ms(e.Sub(s)) / float64(nv)
		k := group[0].Kernel
		if perKernel[k] == nil {
			perKernel[k] = &dist{}
		}
		perKernel[k].add(per)
		for range group {
			cells.add(per)
		}
		results = append(results, rs...)
	}
	tr.finish(root)
	for k, d := range perKernel {
		res.layer["core.cell_ms."+k] = metric{Value: d.mean(), Unit: "ms", N: d.n() * nv}
	}
	cell := cells.mean()
	res.layer["core.exec_ms_per_cell"] = metric{Value: cell - prep, Unit: "ms", N: cells.n()}
	res.layer["core.mallocs_per_cell"] = metric{Value: float64(mallocs) / float64(cells.n()), Unit: "count", N: cells.n()}
	if cell > 0 {
		res.layer["input.share_of_cell"] = metric{Value: prep / cell, Unit: "ratio", N: cells.n()}
	}
	res.note("core.exec_ms_per_cell is an estimate: mean cell time minus mean input preparation")
	return all, results, nil
}

// probeJobs times the job layer's content addressing and cache, and the
// fabric's result framing, on the cells of the core probe.
func probeJobs(dir string, specs []core.Spec, results []core.Result, tr *tracer, res *result) error {
	cache, err := jobs.NewCache(len(specs)+1, dir)
	if err != nil {
		return err
	}
	id := tr.newTrace()
	root := tr.start("probe.jobs", -1, id)
	var hashD, encD, rhD, putD, getD, fencD, fdecD, fbytes dist
	for i, spec := range specs {
		t := time.Now()
		hash, err := jobs.SpecHash(spec)
		t1 := time.Now()
		if err != nil {
			return err
		}
		data, err := jobs.CanonicalJSON(jobs.NewOutcome(hash, results[i]))
		t2 := time.Now()
		if err != nil {
			return err
		}
		rh := jobs.ResultHash(data)
		t3 := time.Now()
		cache.Put(hash, data)
		t4 := time.Now()
		got, ok := cache.Get(hash)
		t5 := time.Now()
		if !ok || jobs.ResultHash(got) != rh {
			res.fail(1, "jobs probe: cache returned wrong bytes for cell %d", i)
		}
		line, err := fabric.EncodeFrame(fabric.Frame{Kind: fabric.KindResult, Shard: hash, Epoch: 1, Data: data})
		t6 := time.Now()
		if err != nil {
			return err
		}
		f, err := fabric.DecodeFrame(line[:len(line)-1])
		t7 := time.Now()
		if err != nil {
			return err
		}
		if string(f.Data) != string(data) {
			res.fail(1, "fabric probe: frame round trip changed cell %d", i)
		}
		tr.record("jobs.spec_hash", root, id, t, t1)
		tr.record("jobs.encode", root, id, t1, t2)
		tr.record("jobs.result_hash", root, id, t2, t3)
		tr.record("jobs.cache_put", root, id, t3, t4)
		tr.record("jobs.cache_get", root, id, t4, t5)
		tr.record("fabric.frame_encode", root, id, t5, t6)
		tr.record("fabric.frame_decode", root, id, t6, t7)
		hashD.add(us(t1.Sub(t)))
		encD.add(us(t2.Sub(t1)))
		rhD.add(us(t3.Sub(t2)))
		putD.add(us(t4.Sub(t3)))
		getD.add(us(t5.Sub(t4)))
		fencD.add(us(t6.Sub(t5)))
		fdecD.add(us(t7.Sub(t6)))
		fbytes.add(float64(len(line)))
	}
	tr.finish(root)
	n := len(specs)
	res.layer["jobs.spec_hash_us"] = metric{Value: hashD.p50(), Unit: "us", N: n}
	res.layer["jobs.encode_us"] = metric{Value: encD.p50(), Unit: "us", N: n}
	res.layer["jobs.result_hash_us"] = metric{Value: rhD.p50(), Unit: "us", N: n}
	res.layer["jobs.cache_put_us"] = metric{Value: putD.p50(), Unit: "us", N: n}
	res.layer["jobs.cache_get_us"] = metric{Value: getD.p50(), Unit: "us", N: n}
	res.layer["fabric.frame_encode_us"] = metric{Value: fencD.p50(), Unit: "us", N: n}
	res.layer["fabric.frame_decode_us"] = metric{Value: fdecD.p50(), Unit: "us", N: n}
	res.layer["fabric.frame_bytes"] = metric{Value: fbytes.mean(), Unit: "B", N: n}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
