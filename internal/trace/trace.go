// Package trace records per-core activity/DVFS profiles and renders them as
// ASCII strips or CSV, reproducing the paper's Figure 1 and Figure 7
// visualizations.
//
// Each core contributes two strips: an activity strip (task execution vs.
// steal-loop waiting vs. resting) and a DVFS strip (operating voltage
// bucketed between VMin and VMax).
package trace

import (
	"fmt"
	"io"
	"strings"

	"aaws/internal/power"
	"aaws/internal/sim"
	"aaws/internal/vf"
)

// stateSeg is a state interval [start, next segment's start).
type stateSeg struct {
	start sim.Time
	state power.CoreState
}

// voltSeg is a voltage interval.
type voltSeg struct {
	start sim.Time
	volts float64
}

// Recorder captures per-core profiles. Attach its OnState/OnVoltage methods
// to the machine hooks before the run.
type Recorder struct {
	states [][]stateSeg
	volts  [][]voltSeg
	end    sim.Time
}

// NewRecorder returns a recorder for n cores, all waiting at V_N at t=0.
func NewRecorder(n int) *Recorder {
	r := &Recorder{
		states: make([][]stateSeg, n),
		volts:  make([][]voltSeg, n),
	}
	for i := 0; i < n; i++ {
		r.states[i] = []stateSeg{{0, power.StateWaiting}}
		r.volts[i] = []voltSeg{{0, vf.VNominal}}
	}
	return r
}

// OnState is a machine.StateSink.
func (r *Recorder) OnState(now sim.Time, coreID int, state power.CoreState) {
	r.states[coreID] = append(r.states[coreID], stateSeg{now, state})
	if now > r.end {
		r.end = now
	}
}

// OnVoltage is a machine.VoltageSink.
func (r *Recorder) OnVoltage(now sim.Time, coreID int, volts float64) {
	r.volts[coreID] = append(r.volts[coreID], voltSeg{now, volts})
	if now > r.end {
		r.end = now
	}
}

// Finish fixes the profile end time.
func (r *Recorder) Finish(now sim.Time) {
	if now > r.end {
		r.end = now
	}
}

// End returns the recorded end time.
func (r *Recorder) End() sim.Time { return r.end }

// stateAt returns core's state at time t (segments are start-sorted).
func stateAt(segs []stateSeg, t sim.Time) power.CoreState {
	s := segs[0].state
	for _, seg := range segs {
		if seg.start > t {
			break
		}
		s = seg.state
	}
	return s
}

func voltAt(segs []voltSeg, t sim.Time) float64 {
	v := segs[0].volts
	for _, seg := range segs {
		if seg.start > t {
			break
		}
		v = seg.volts
	}
	return v
}

// dominantState returns the state covering the most time in [a, b).
func dominantState(segs []stateSeg, a, b sim.Time) power.CoreState {
	var dur [3]sim.Time
	cur := stateAt(segs, a)
	last := a
	for _, seg := range segs {
		if seg.start <= a {
			continue
		}
		if seg.start >= b {
			break
		}
		dur[cur] += seg.start - last
		last = seg.start
		cur = seg.state
	}
	dur[cur] += b - last
	best := power.StateActive
	for s := power.StateActive; s <= power.StateResting; s++ {
		if dur[s] > dur[best] {
			best = s
		}
	}
	return best
}

// stateChar maps a state to its ASCII strip character.
func stateChar(s power.CoreState) byte {
	switch s {
	case power.StateActive:
		return '#'
	case power.StateWaiting:
		return '.'
	default:
		return '_'
	}
}

// voltChar buckets a voltage into 0..9 across [VMin, VMax].
func voltChar(v float64) byte {
	frac := (v - vf.VMin) / (vf.VMax - vf.VMin)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	b := int(frac * 9.999)
	return byte('0' + b)
}

// RenderASCII writes the profile as two character strips per core across
// width columns. names[i] labels core i (e.g. "B0", "L2"). The first error
// from w aborts the render and is returned.
func (r *Recorder) RenderASCII(w io.Writer, names []string, width int) error {
	if width < 1 {
		width = 80
	}
	end := r.end
	if end == 0 {
		end = 1
	}
	ew := &errWriter{w: w}
	ew.printf("time: 0 .. %v   ('#'=task, '.'=steal loop, '_'=resting; digits = V in [%.2f,%.2f])\n",
		end, vf.VMin, vf.VMax)
	for i := range r.states {
		var act, dvfs strings.Builder
		for col := 0; col < width; col++ {
			a := sim.Time(int64(end) * int64(col) / int64(width))
			b := sim.Time(int64(end) * int64(col+1) / int64(width))
			if b <= a {
				b = a + 1
			}
			act.WriteByte(stateChar(dominantState(r.states[i], a, b)))
			mid := a + (b-a)/2
			dvfs.WriteByte(voltChar(voltAt(r.volts[i], mid)))
		}
		name := fmt.Sprintf("core%d", i)
		if i < len(names) {
			name = names[i]
		}
		ew.printf("%4s act  |%s|\n", name, act.String())
		ew.printf("%4s dvfs |%s|\n", "", dvfs.String())
	}
	return ew.err
}

// WriteCSV emits one row per sampled column per core:
// core,name,tStartUs,tEndUs,state,volts. The first error from w aborts the
// render and is returned.
func (r *Recorder) WriteCSV(w io.Writer, names []string, samples int) error {
	ew := &errWriter{w: w}
	ew.printf("core,name,t_start_us,t_end_us,state,volts\n")
	end := r.end
	if end == 0 {
		end = 1
	}
	for i := range r.states {
		name := fmt.Sprintf("core%d", i)
		if i < len(names) {
			name = names[i]
		}
		for col := 0; col < samples && ew.err == nil; col++ {
			a := sim.Time(int64(end) * int64(col) / int64(samples))
			b := sim.Time(int64(end) * int64(col+1) / int64(samples))
			if b <= a {
				b = a + 1
			}
			st := dominantState(r.states[i], a, b)
			v := voltAt(r.volts[i], a+(b-a)/2)
			ew.printf("%d,%s,%.3f,%.3f,%s,%.3f\n", i, name, a.Micros(), b.Micros(), st, v)
		}
	}
	return ew.err
}

// CoreNames builds the core labels for a machine with counts[c] cores of
// class c, fastest class first: the paper's B0…/L0… for a 2-class machine,
// C<class>.<i> otherwise.
func CoreNames(counts ...int) []string {
	var names []string
	for c, n := range counts {
		for i := 0; i < n; i++ {
			switch {
			case len(counts) != 2:
				names = append(names, fmt.Sprintf("C%d.%d", c, i))
			case c == 0:
				names = append(names, fmt.Sprintf("B%d", i))
			default:
				names = append(names, fmt.Sprintf("L%d", i))
			}
		}
	}
	return names
}
