package main

import (
	"context"
	"fmt"
	"time"

	"aaws/internal/core"
	"aaws/internal/fabric"
)

// paperSeeds is how many input seeds the passes of a run rotate through.
// The work of a pass depends on its inputs (a uts tree or a knapsack
// instance can be several times larger under one seed than another), so a
// run that measured one seed would report that seed's inputs more than the
// program's speed.
const paperSeeds = 8

// paper is the paper-sweep workload: every pass runs the 220-cell Figure 8
// matrix (22 kernels × 5 variants × 4B4L and 1B7L) at scale 1.0 through one
// warm core.RunBatch call from one goroutine, the way a researcher
// reproducing the paper runs it. Pass i uses the i-th of paperSeeds seeds,
// the first being the --seed value itself.
type paper struct {
	seed     uint64
	matrices [][]core.Spec
}

func newPaper(seed uint64) *paper { return &paper{seed: seed} }

// setup builds the matrices and runs the first once cold, paying the LUT
// generation and engine-cache fill a fresh process pays before its first
// sweep.
func (p *paper) setup() error {
	seeds := seedStream(p.seed, 4)
	for i := 0; i < paperSeeds; i++ {
		s := p.seed
		if i > 0 {
			s = seeds.Uint64()
		}
		p.matrices = append(p.matrices, matrix(s, core.Sys4B4L, core.Sys1B7L))
	}
	_, err := core.RunBatch(append([]core.Spec(nil), p.matrices[0]...))
	return err
}

func (p *paper) close() {}

func (p *paper) run(ctx context.Context, seconds float64, tr *tracer, res *result) error {
	var (
		passes, traced, untraced, gaps dist
		timed                          time.Duration
		events                         float64
		refs                           = make([]string, paperSeeds)
		cells                          int
	)
	budget := time.Duration(seconds * float64(time.Second))
	lastEnd := time.Now()
	for i := 0; timed < budget; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := i % paperSeeds
		specs := append([]core.Spec(nil), p.matrices[k]...)
		t0 := time.Now()
		gaps.add(ms(t0.Sub(lastEnd)))
		results, err := core.RunBatch(specs)
		t1 := time.Now()
		lastEnd = t1
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		d := t1.Sub(t0)
		timed += d
		passes.add(ms(d))
		if tr != nil {
			// Whole rotations alternate, so traced and untraced passes cover
			// the same seeds.
			if (i/paperSeeds)%2 == 1 {
				tr.record("paper.pass", -1, tr.newTrace(), t0, t1)
				traced.add(ms(d))
			} else {
				untraced.add(ms(d))
			}
		}
		res.attempted += len(results)
		for _, r := range results {
			events += float64(r.Report.Events)
		}

		fp, err := p.check(i, specs, results, refs[k], res)
		if err != nil {
			return err
		}
		if refs[k] == "" {
			refs[k] = fp
		}
		if i == 0 {
			res.fingerprint = fp
			for _, r := range results {
				res.sims.add(r.Report)
			}
		}
		cells = len(specs)
	}
	s := timed.Seconds()
	res.e2e["cells_per_s"] = metric{Value: float64(res.attempted) / s, Unit: "1/s", N: res.attempted}
	res.e2e["sim_events_per_s"] = metric{Value: events / s, Unit: "1/s", N: res.attempted}
	latency(res.e2e, "op", &passes)
	v, pct := gaps.tail()
	res.layer["gen.late_tail_ms"] = metric{Value: v, Unit: "ms", N: gaps.n(), P: pct}
	if tr != nil {
		res.layer["trace.overhead_frac"] = overheadFrac(&traced, &untraced)
	}
	res.note("closed loop, 1 goroutine, %d cells per pass, %d passes over %d input seeds", cells, passes.n(), paperSeeds)
	return nil
}

// check verifies one pass untimed: every cell passes Result.Verify, the
// pass fingerprint equals that of the first pass with the same seed (ref,
// empty for that first pass), and at the committed seed the 4B4L half
// equals the committed fingerprint. It returns the fingerprint.
func (p *paper) check(pass int, specs []core.Spec, results []core.Result, ref string, res *result) (string, error) {
	if len(results) != len(specs) {
		res.fail(len(specs), "pass %d: %d results for %d cells", pass, len(results), len(specs))
		return "", nil
	}
	cells := make([][]byte, len(results))
	checks := newCellChecks(res, len(cells))
	for i, r := range results {
		if err := r.Verify(); err != nil {
			checks.fail(i, i+1, "pass %d cell %d (%s/%s/%s): %v", pass, i, specs[i].Kernel, specs[i].System, specs[i].Variant, err)
		}
		b, err := cellBytes(specs[i], r)
		if err != nil {
			return "", err
		}
		cells[i] = b
	}
	fp := fabric.Fingerprint(cells)
	if ref != "" && fp != ref {
		checks.fail(0, len(cells), "pass %d fingerprint %s differs from the first pass with its seed, %s", pass, fp, ref)
	}
	if pass == 0 {
		want, ok, err := committedFingerprint(p.seed)
		if err != nil {
			return "", err
		}
		half := len(cells) / 2
		if ok {
			if got := fabric.Fingerprint(cells[:half]); got != want.Fingerprint {
				checks.fail(0, half, "4B4L half fingerprint %s, committed %s", got, want.Fingerprint)
			} else {
				res.note("4B4L half matches %s (%s)", fingerprintPath, want.Fingerprint)
			}
		}
	}
	return fp, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
