package model

import (
	"fmt"
	"strings"

	"aaws/internal/vf"
)

// LUT maps activity information to operating voltages, as consumed by the
// DVFS controller (Section III-A). Its Table holds one per-class voltage
// vector per activity combination; a 4B4L table has 5x5 = 25 entries.
type LUT struct {
	Table *NTable
	// SerialSprint, when set, overrides the table during a runtime-flagged
	// serial region: the single active core runs at SerialV.
	SerialSprint bool
	SerialV      float64
	// RestInactive mirrors the generation mode: whether inactive cores are
	// rested at VMin (work-sprinting) or left spinning at nominal.
	RestInactive bool
	// VRest is the voltage commanded for inactive cores (VMin when
	// RestInactive, VNominal otherwise).
	VRest float64
}

// NTable is the DVFS lookup table: one per-class voltage vector per
// activity combination, flat-indexed in mixed radix over the class counts
// (class 0 most significant).
type NTable struct {
	// Counts holds the per-class core counts (radix c is Counts[c]+1).
	Counts []int
	// Entries[Index(act)] is the per-class voltage vector for activity act.
	Entries [][]float64
}

// Index flattens an activity vector (clamped into range) to an entry index.
func (t *NTable) Index(act []int) int {
	idx := 0
	for c, n := range act {
		if n < 0 {
			n = 0
		}
		if n > t.Counts[c] {
			n = t.Counts[c]
		}
		idx = idx*(t.Counts[c]+1) + n
	}
	return idx
}

// activity decodes an entry index into act, the inverse of Index.
func (t *NTable) activity(idx int, act []int) {
	for c := len(t.Counts) - 1; c >= 0; c-- {
		act[c] = idx % (t.Counts[c] + 1)
		idx /= t.Counts[c] + 1
	}
}

// Lookup returns the stored per-class voltage vector for an activity
// combination. The returned slice is shared table storage: callers must
// not mutate it.
func (t *NTable) Lookup(act []int) []float64 {
	return t.Entries[t.Index(act)]
}

// Mode selects which runtime variant a lookup table implements.
type Mode int

const (
	// ModeNominal pins every core at V_N regardless of activity (the
	// asymmetry-oblivious baseline, before serial-sprinting).
	ModeNominal Mode = iota
	// ModePacing applies the marginal-utility point only when every core
	// is active (work-pacing, HP region); other entries stay nominal and
	// waiting cores keep spinning at V_N.
	ModePacing
	// ModePacingSprinting applies the marginal-utility point to every
	// activity combination with inactive cores rested at VMin
	// (work-pacing + work-sprinting).
	ModePacingSprinting
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNominal:
		return "nominal"
	case ModePacing:
		return "pacing"
	default:
		return "pacing+sprinting"
	}
}

// GenerateLUT builds the DVFS lookup table for the paper's big.LITTLE
// system: the class list of c.
func GenerateLUT(c Config, mode Mode) *LUT {
	return GenerateNWayLUT(c.NConfig(), mode)
}

// GenerateNWayLUT builds the DVFS lookup table for a class list and runtime
// variant. All variants enable serial-sprinting (the aggressive baseline of
// Section III-C): during a flagged serial region the active core sprints to
// VMax.
//
// This is where the solver is chosen: the paper's pair (a big and a little
// class of one shared Params) is solved by Optimize, the scan plus
// golden-section search the paper's figures were produced with; every
// other class list by OptimizeN.
func GenerateNWayLUT(c NConfig, mode Mode) *LUT {
	vm := c.Classes[0].Params.VF
	t := &LUT{
		SerialSprint: true,
		SerialV:      vm.VMax,
		RestInactive: mode == ModePacingSprinting,
		VRest:        vf.VNominal,
	}
	if t.RestInactive {
		t.VRest = vm.VMin
	}
	solve := func(act []int, rest bool) []float64 { return OptimizeN(c, act, rest).Feasible.V }
	if pair, ok := c.pair(); ok {
		solve = func(act []int, rest bool) []float64 {
			r := Optimize(pair, act[0], act[1], rest)
			return []float64{r.Feasible.VBig, r.Feasible.VLit}
		}
	}

	counts := c.Counts()
	size := 1
	for _, n := range counts {
		size *= n + 1
	}
	nt := &NTable{Counts: counts, Entries: make([][]float64, size)}
	act := make([]int, len(counts))
	for idx := range nt.Entries {
		nt.activity(idx, act)
		entry := make([]float64, len(counts))
		for ci := range entry {
			entry[ci] = vf.VNominal
		}
		full, anyActive := true, false
		for ci, n := range act {
			full = full && n == counts[ci]
			anyActive = anyActive || n > 0
		}
		switch mode {
		case ModeNominal:
			// all nominal
		case ModePacing:
			if full {
				copy(entry, solve(act, false))
			}
		case ModePacingSprinting:
			if anyActive {
				copy(entry, solve(act, true))
			}
			// Inactive (or fully idle) classes keep a defined resting
			// voltage so the controller always has a target for every core.
			for ci, n := range act {
				if n == 0 || !anyActive {
					entry[ci] = vm.VMin
				}
			}
		}
		nt.Entries[idx] = entry
	}
	t.Table = nt
	return t
}

// String renders the table for diagnostics and the dvfs-explorer example:
// a big-by-little grid for a 2-class table, one line per activity vector
// otherwise.
func (t *LUT) String() string {
	var b strings.Builder
	nt := t.Table
	if len(nt.Counts) != 2 {
		fmt.Fprintf(&b, "DVFS LUT (classes %v, rest=%v, serial sprint to %.2fV)\n",
			nt.Counts, t.RestInactive, t.SerialV)
		act := make([]int, len(nt.Counts))
		for idx, e := range nt.Entries {
			nt.activity(idx, act)
			fmt.Fprintf(&b, "%v  %.2f\n", act, e)
		}
		return b.String()
	}
	nBig, nLit := nt.Counts[0], nt.Counts[1]
	fmt.Fprintf(&b, "DVFS LUT (%dB%dL, rest=%v, serial sprint to %.2fV)\n",
		nBig, nLit, t.RestInactive, t.SerialV)
	fmt.Fprintf(&b, "%8s", "bigA\\litA")
	for j := 0; j <= nLit; j++ {
		fmt.Fprintf(&b, "%14d", j)
	}
	b.WriteByte('\n')
	for i := 0; i <= nBig; i++ {
		fmt.Fprintf(&b, "%8d ", i)
		for _, e := range nt.Entries[i*(nLit+1) : (i+1)*(nLit+1)] {
			fmt.Fprintf(&b, "  (%.2f, %.2f)", e[0], e[1])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
