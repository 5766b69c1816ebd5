// Skewed-tasks: build a custom workload with pathological task-size skew
// directly against the runtime's task API (not a registered kernel), and
// watch work-mugging rescue the stragglers.
//
// A handful of huge tasks land on little cores; without preemption they
// pin the low-parallel tail to the slow cores while the big cores spin in
// the steal loop. Work-mugging migrates them over; work-sprinting rests
// the waiters and sprints the rest.
//
//	go run ./examples/skewed-tasks
package main

import (
	"fmt"

	"aaws/internal/machine"
	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/sim"
	"aaws/internal/wsrt"
)

// program is a custom root program: a parallel phase of 96 tasks where
// every 16th task is 100x larger than the rest.
func program(r *wsrt.Run) {
	r.SerialWork(5000)
	r.ParallelFor(0, 96, 1, func(c *wsrt.Ctx, lo, hi int) {
		work := 30_000.0
		if lo%16 == 0 {
			work = 3_000_000 // straggler
		}
		c.Work(work)
	})
	r.SerialWork(2000)
}

func run(v wsrt.Variant) wsrt.Report {
	p := power.DefaultParams()
	cfg := model.Config{Params: p, NBig: 4, NLit: 4}
	lut := model.GenerateLUT(cfg, v.LUTMode())
	eng := sim.NewEngine()
	m, err := machine.New(eng, machine.Config{Classes: cfg.NConfig().Classes, LUT: lut, InterruptCycles: 20})
	if err != nil {
		panic(err)
	}
	rt := wsrt.New(m, wsrt.DefaultConfig(v))
	return rt.Execute(program)
}

func main() {
	fmt.Println("96 tasks, six of them 100x larger, on a simulated 4B4L system")
	fmt.Println()
	fmt.Printf("%-10s %14s %12s %8s %8s\n", "variant", "time", "energy", "steals", "mugs")
	var baseT sim.Time
	var baseE float64
	for _, v := range wsrt.Variants {
		rep := run(v)
		if v == wsrt.Base {
			baseT, baseE = rep.ExecTime, rep.TotalEnergy
		}
		fmt.Printf("%-10s %14v %12.4g %8d %8d   (%.2fx faster, %.2fx less energy)\n",
			v, rep.ExecTime, rep.TotalEnergy, rep.Steals, rep.Mugs,
			float64(baseT)/float64(rep.ExecTime), baseE/rep.TotalEnergy)
	}
	fmt.Println()
	fmt.Println("base+m and base+psm preemptively migrate the stragglers onto big cores;")
	fmt.Println("base+ps can only sprint the little cores to Vmax, which is not enough")
	fmt.Println("(Section II-D: a big core's feasible performance limit is ~2x higher).")
}
