package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"

	"aaws/internal/core"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/wsrt"
)

// fingerprintPath is the committed single-node reference fingerprint of the
// seed-42, scale-1.0 4B4L default matrix.
const fingerprintPath = "examples/fabric/fingerprint.json"

type fingerprintFile struct {
	System      string  `json:"system"`
	Seed        uint64  `json:"seed"`
	Scale       float64 `json:"scale"`
	Cells       int     `json:"cells"`
	Fingerprint string  `json:"fingerprint"`
}

// committedFingerprint returns the committed reference when it describes
// the 4B4L matrix at this seed and scale 1.0.
func committedFingerprint(seed uint64) (fingerprintFile, bool, error) {
	var f fingerprintFile
	buf, err := os.ReadFile(fingerprintPath)
	if err != nil {
		return f, false, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, false, fmt.Errorf("%s: %w", fingerprintPath, err)
	}
	return f, f.System == "4B4L" && f.Seed == seed && f.Scale == 1, nil
}

// matrix returns the default sweep matrix (kernels × variants) for each
// system in turn, at scale 1.0 without kernel checks, in the order the
// committed fingerprint uses.
func matrix(seed uint64, systems ...core.System) []core.Spec {
	var specs []core.Spec
	for _, sys := range systems {
		for _, name := range kernels.Names() {
			for _, v := range wsrt.Variants {
				specs = append(specs, core.Spec{Kernel: name, System: sys, Variant: v, Seed: seed, Scale: 1})
			}
		}
	}
	return specs
}

// cellBytes is a cell's canonical outcome encoding, the bytes the job cache
// stores and the fabric ships.
func cellBytes(spec core.Spec, res core.Result) ([]byte, error) {
	hash, err := jobs.SpecHash(spec)
	if err != nil {
		return nil, err
	}
	return jobs.CanonicalJSON(jobs.NewOutcome(hash, res))
}

// cellChecks records which cells of a pass or round failed a check, so a
// cell counts as one failed operation however many of its checks fail.
type cellChecks struct {
	res *result
	bad []bool
}

func newCellChecks(res *result, cells int) *cellChecks {
	return &cellChecks{res: res, bad: make([]bool, cells)}
}

// fail marks cells [lo, hi) as failed and records why.
func (c *cellChecks) fail(lo, hi int, format string, args ...any) {
	n := 0
	for i := lo; i < hi; i++ {
		if !c.bad[i] {
			c.bad[i] = true
			n++
		}
	}
	c.res.fail(n, format, args...)
}

// seedStream derives the workload's generated values (fresh seeds, arrival
// times, request kinds) from the --seed flag and a per-use stream tag.
func seedStream(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// simStats accumulates simulated statistics. They depend only on the
// simulated specs, never on host speed, so a change that only speeds up the
// simulator must leave every one of them identical.
type simStats struct {
	cells                                         int
	events, steals, failedSteals, mugs, tasks, pk float64
}

func (s *simStats) add(rep wsrt.Report) {
	s.cells++
	s.events += float64(rep.Events)
	s.steals += float64(rep.Steals)
	s.failedSteals += float64(rep.FailedSteals)
	s.mugs += float64(rep.Mugs)
	s.tasks += float64(rep.TasksExecuted)
	s.pk += float64(rep.PeakLive)
}

func (s simStats) report(m map[string]metric) {
	n := float64(max(s.cells, 1))
	ratio := 0.0
	if s.steals+s.failedSteals > 0 {
		ratio = s.steals / (s.steals + s.failedSteals)
	}
	m["sim.events_per_cell"] = metric{Value: s.events / n, Unit: "count", N: s.cells}
	m["wsrt.steals_per_cell"] = metric{Value: s.steals / n, Unit: "count", N: s.cells}
	m["wsrt.steal_success_ratio"] = metric{Value: ratio, Unit: "ratio", N: s.cells}
	m["wsrt.mugs_per_cell"] = metric{Value: s.mugs / n, Unit: "count", N: s.cells}
	m["wsrt.tasks_per_cell"] = metric{Value: s.tasks / n, Unit: "count", N: s.cells}
	m["wsrt.peak_live"] = metric{Value: s.pk / n, Unit: "count", N: s.cells}
}

// overheadFrac compares the median operation time of traced operations
// with that of untraced ones from the same run.
func overheadFrac(traced, untraced *dist) metric {
	u := untraced.p50()
	if u == 0 {
		return metric{Unit: "ratio"}
	}
	return metric{Value: (traced.p50() - u) / u, Unit: "ratio", N: traced.n() + untraced.n()}
}
