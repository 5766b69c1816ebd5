// Command aaws-profile renders per-core activity/DVFS profiles: Figure 1
// (convex hull on the baseline 4B4L system) and Figure 7 (radix-2 under
// base, base+p, base+ps, base+psm).
//
// Usage:
//
//	aaws-profile                              # Figure 1 (hull, base)
//	aaws-profile -kernel radix-2 -variants all # Figure 7
//	aaws-profile -kernel radix-2 -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aaws/internal/core"
	"aaws/internal/wsrt"
)

func main() {
	kernel := flag.String("kernel", "hull", "kernel to profile")
	system := flag.String("system", "4B4L", "4B4L or 1B7L")
	variants := flag.String("variants", "base", `comma-separated variants, or "all" for Figure 7's base,base+p,base+ps,base+psm`)
	scale := flag.Float64("scale", 1.0, "input size multiplier")
	seed := flag.Uint64("seed", 42, "seed")
	width := flag.Int("width", 110, "profile width in characters")
	csv := flag.Bool("csv", false, "emit CSV samples instead of ASCII strips")
	svg := flag.Bool("svg", false, "emit a self-contained SVG profile instead of ASCII strips")
	flag.Parse()

	sys, ok := core.ParseSystem(*system)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}
	var vs []wsrt.Variant
	if *variants == "all" {
		vs = []wsrt.Variant{wsrt.Base, wsrt.BaseP, wsrt.BasePS, wsrt.BasePSM}
	} else {
		for _, s := range strings.Split(*variants, ",") {
			v, ok := wsrt.ParseVariant(s)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown variant %q\n", s)
				os.Exit(2)
			}
			vs = append(vs, v)
		}
	}

	names := core.CoreLabels(core.DefaultSpec(*kernel, sys, wsrt.Base))
	var baseTime float64
	for _, v := range vs {
		spec := core.DefaultSpec(*kernel, sys, v)
		spec.Scale = *scale
		spec.Seed = *seed
		spec.WithTrace = true
		res, err := core.Run(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if res.CheckErr != nil {
			fmt.Fprintf(os.Stderr, "VALIDATION FAILED (%s): %v\n", v, res.CheckErr)
			os.Exit(1)
		}
		t := res.Report.ExecTime.Seconds()
		if v == wsrt.Base || baseTime == 0 {
			baseTime = t
		}
		if *csv {
			fmt.Printf("# %s on %s under %s\n", *kernel, sys, v)
			renderOrDie(res.Trace.WriteCSV(os.Stdout, names, *width))
			continue
		}
		if *svg {
			renderOrDie(res.Trace.WriteSVG(os.Stdout, names, *width*8))
			continue
		}
		fmt.Printf("\n=== %s on %s under %s — %v (%.2fx vs base) ===\n",
			*kernel, sys, v, res.Report.ExecTime, baseTime/t)
		renderOrDie(res.Trace.RenderASCII(os.Stdout, names, *width))
	}
}

func renderOrDie(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing profile: %v\n", err)
		os.Exit(1)
	}
}
