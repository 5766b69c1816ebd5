package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer. Times
// are nanoseconds since the tracer's epoch; Parent is -1 for a root span.
// Spans of one pass or request share a Trace id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	trace uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace returns a fresh trace id for one pass or request.
func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	return t.trace
}

// record stores a span whose bounds were measured by the caller and returns
// its id (-1 when tracing is off).
func (t *tracer) record(name string, parent int, trace uint64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// start opens a span that ends when finish is called with its id.
func (t *tracer) start(name string, parent int, trace uint64) int {
	now := time.Now()
	return t.record(name, parent, trace, now, now)
}

// finish closes a span opened by start.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// from returns a copy of the spans recorded since span id.
func (t *tracer) from(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[id:]...)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap each other or
// outlive their parent; only the union of their intervals clipped to the
// parent counts.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			curA, curB, open = x.a, x.b, true
		case x.a <= curB:
			curB = max(curB, x.b)
		default:
			total += curB - curA
			curA, curB = x.a, x.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	by := map[string]*spanSummary{}
	var names []string
	for _, s := range spans {
		sum, ok := by[s.Name]
		if !ok {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
			names = append(names, s.Name)
		}
		sum.Count++
		sum.TotalMs += float64(s.dur()) / 1e6
		sum.SelfMs += float64(self[s.ID]) / 1e6
	}
	sort.Strings(names)
	out := make([]spanSummary, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}
