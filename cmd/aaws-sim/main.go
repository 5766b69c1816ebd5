// Command aaws-sim runs one application kernel on one simulated system
// under one runtime variant and reports timing, scheduler statistics,
// region breakdown, and energy.
//
// Usage:
//
//	aaws-sim -kernel radix-2 -system 4B4L -variant base+psm [-scale 1] [-seed 42]
//	aaws-sim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"aaws/internal/core"
	"aaws/internal/kernels"
	"aaws/internal/stats"
	"aaws/internal/wsrt"
)

func main() {
	kernel := flag.String("kernel", "cilksort", "kernel name (see -list)")
	system := flag.String("system", "4B4L", "target system: 4B4L or 1B7L")
	variant := flag.String("variant", "base+psm", "runtime: base | base+p | base+ps | base+psm | base+m")
	scale := flag.Float64("scale", 1.0, "input size multiplier")
	seed := flag.Uint64("seed", 42, "input/scheduling seed")
	memstall := flag.Bool("memstall", false, "enable MPKI-derived frequency-independent memory stalls")
	adaptive := flag.Bool("adaptive", false, "enable the counter-driven adaptive DVFS tuner")
	randomVictim := flag.Bool("random-victim", false, "use random instead of occupancy-based victim selection")
	nBig := flag.Int("nbig", 0, "custom big-core count (with -nlit; overrides -system)")
	nLit := flag.Int("nlit", 0, "custom little-core count (with -nbig)")
	elastic := flag.Bool("elastic", false, "elastic work-stealing: park steal-looping workers, wake on surplus")
	topology := flag.String("topology", "", "N-way topology, fastest class first: COUNT[xSPEED/POWER],... (e.g. 1x4/3,2x2.5/1.8,4; overrides -system core mix)")
	perWorker := flag.Bool("per-worker", false, "print per-worker statistics")
	list := flag.Bool("list", false, "list kernels and exit")
	flag.Parse()

	if *list {
		fmt.Printf("%-12s %-7s %-28s %-6s %5s %5s %6s\n",
			"name", "suite", "input", "pm", "alpha", "beta", "mpki")
		for _, k := range kernels.All() {
			fmt.Printf("%-12s %-7s %-28s %-6s %5.1f %5.1f %6.2f\n",
				k.Name, k.Suite, k.Input, k.PM, k.Alpha, k.Beta, k.MPKI)
		}
		fmt.Println("extensions (beyond Table III; excluded from default sweeps):")
		for _, k := range kernels.Extensions() {
			fmt.Printf("%-12s %-7s %-28s %-6s %5.1f %5.1f %6.2f\n",
				k.Name, k.Suite, k.Input, k.PM, k.Alpha, k.Beta, k.MPKI)
		}
		return
	}

	sys, ok := core.ParseSystem(*system)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}
	v, ok := wsrt.ParseVariant(*variant)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown variant %q\n", *variant)
		os.Exit(2)
	}

	spec := core.DefaultSpec(*kernel, sys, v)
	spec.Scale = *scale
	spec.Seed = *seed
	spec.MemStall = *memstall
	spec.AdaptiveDVFS = *adaptive
	if *randomVictim {
		spec.Victim = wsrt.RandomVictim
	}
	spec.NBig, spec.NLit = *nBig, *nLit
	spec.Elastic = *elastic
	if *topology != "" {
		topo, err := core.ParseTopology(*topology)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		spec.Topology = topo
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := core.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if res.CheckErr != nil {
		fmt.Fprintf(os.Stderr, "VALIDATION FAILED: %v\n", res.CheckErr)
		os.Exit(1)
	}

	rep := res.Report
	sysName := core.MachineName(spec)
	if len(spec.Topology) > 0 {
		sysName = "topo " + sysName
	}
	fmt.Printf("%s on %s under %s (seed %d, scale %.2f)\n", *kernel, sysName, v, *seed, *scale)
	fmt.Printf("  result validated against serial reference: OK\n")
	fmt.Printf("  execution time        %v\n", rep.ExecTime)
	fmt.Printf("  app instructions      %.3fM (+ %.3fM serial, %.3fM scheduler overhead)\n",
		rep.AppInstr/1e6, rep.SerialInstr/1e6, rep.OverheadInstr/1e6)
	fmt.Printf("  tasks                 %d spawned, %d executed\n", rep.TasksSpawned, rep.TasksExecuted)
	fmt.Printf("  steals                %d ok, %d failed probes\n", rep.Steals, rep.FailedSteals)
	fmt.Printf("  mugs                  %d ok, %d lost races (%d attempts)\n", rep.Mugs, rep.FailedMugs, rep.MugAttempts)
	if *elastic {
		fmt.Printf("  elastic               %d parks, %d wakes\n", rep.ElasticParks, rep.ElasticWakes)
	}
	fmt.Printf("  DVFS                  %d decisions, %d regulator transitions (%.2f per 10us)\n",
		rep.DVFSDecisions, rep.DVFSTransitions,
		float64(rep.DVFSTransitions)/(rep.ExecTime.Micros()/10))
	fmt.Printf("  energy                %.4g units (avg power %.4g)\n",
		rep.TotalEnergy, rep.TotalEnergy/rep.ExecTime.Seconds())
	fmt.Printf("  speedup vs serial     %.2fx over little(IO), %.2fx over big(O3)\n",
		res.SpeedupVsLittle(), res.SpeedupVsBig())
	fmt.Printf("  regions               ")
	for _, r := range stats.Regions {
		fmt.Printf("%s %.1f%%  ", r, 100*res.Regions.Frac(r))
	}
	fmt.Println()
	if *perWorker {
		fmt.Println("  per-worker:")
		for i, ws := range rep.PerWorker {
			fmt.Printf("    w%-2d tasks %6d  steals %5d  stolen-from %5d  mugs %3d  mugged %3d  app %8.3fM\n",
				i, ws.TasksExecuted, ws.Steals, ws.Stolen, ws.MugsDone, ws.TimesMugged, ws.AppInstr/1e6)
		}
	}
}
