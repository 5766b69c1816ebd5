package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at. A fixed
// ladder keeps the reported percentile the same from run to run when the
// sample count drifts a little.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile before it may
// be called the tail.
const minBeyond = 10

// beyond returns how many of n samples lie strictly above the p-th
// percentile under the nearest-rank definition.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate float rounding
	return n - rank
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond samples beyond it, or false when n is too small for any.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// dist is a sample of one measured quantity.
type dist struct{ v []float64 }

func (d *dist) add(x float64) { d.v = append(d.v, x) }

func (d *dist) n() int { return len(d.v) }

func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.v...)
	sort.Float64s(s)
	return s
}

// quantile is the linear-interpolation quantile (p in 0..100) of the sample;
// 0 for an empty sample.
func (d *dist) quantile(p float64) float64 {
	s := d.sorted()
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func (d *dist) p50() float64 { return d.quantile(50) }

// tail returns the tail value and its percentile. With too few samples for
// any ladder percentile it falls back to the maximum, reported as p100.
func (d *dist) tail() (float64, float64) {
	if p, ok := tailPercentile(d.n()); ok {
		return d.quantile(p), p
	}
	return d.quantile(100), 100
}

func (d *dist) sum() float64 {
	var t float64
	for _, x := range d.v {
		t += x
	}
	return t
}

func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	return d.sum() / float64(len(d.v))
}

func median(xs []float64) float64 {
	d := dist{v: xs}
	return d.p50()
}
