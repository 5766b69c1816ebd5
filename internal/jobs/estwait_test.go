package jobs

import (
	"math"
	"testing"
)

// TestEstWaitLocked pins the queue-wait estimator across classes: per-class
// EWMAs (not one global average) price the backlog, and estimates are
// tenant-local (another tenant's flood must not inflate a victim's estimate).
func TestEstWaitLocked(t *testing.T) {
	type backlog struct {
		tenant string
		class  Class
		n      int
	}
	cases := []struct {
		name      string
		workers   int
		sweepWait int // sweep jobs holding for a free slot
		slots     int
		avgByCls  [2]float64 // seconds: [interactive, sweep]
		backlog   []backlog
		tenant    string
		class     Class
		want      float64 // seconds
	}{
		{
			name:    "unseeded EWMA means no estimate",
			workers: 4,
			backlog: []backlog{{"a", ClassInteractive, 10}},
			tenant:  "a",
			want:    0,
		},
		{
			name:     "wfq victim with empty queue ignores the flood",
			workers:  2,
			avgByCls: [2]float64{0.1, 0},
			backlog:  []backlog{{"flood", ClassInteractive, 1000}},
			tenant:   "victim",
			class:    ClassInteractive,
			want:     0,
		},
		{
			name:     "wfq own backlog at full pool when alone",
			workers:  2,
			avgByCls: [2]float64{0.1, 0},
			backlog:  []backlog{{"a", ClassInteractive, 6}},
			tenant:   "a",
			class:    ClassInteractive,
			// Alone: share 1, rate = 2 workers.
			want: 6 * 0.1 / 2,
		},
		{
			name:     "wfq equal-weight contention halves the rate",
			workers:  2,
			avgByCls: [2]float64{0.1, 0},
			backlog: []backlog{
				{"a", ClassInteractive, 6},
				{"b", ClassInteractive, 100},
			},
			tenant: "a",
			class:  ClassInteractive,
			// Share 0.5: 6 jobs x 0.1s / (0.5 x 2). b's depth is irrelevant.
			want: 6 * 0.1 / 1,
		},
		{
			name:     "wfq interactive arrival skips own sweep backlog",
			workers:  4,
			avgByCls: [2]float64{0.1, 5},
			backlog: []backlog{
				{"a", ClassInteractive, 2},
				{"a", ClassSweep, 50},
			},
			tenant: "a",
			class:  ClassInteractive,
			// Only the 2 interactive jobs are ahead of an interactive arrival.
			want: 2 * 0.1 / 4,
		},
		{
			name:      "wfq sweep arrival counts deferred sweeps and slot cap",
			workers:   8,
			sweepWait: 3,
			slots:     2,
			avgByCls:  [2]float64{0.1, 1},
			backlog:   []backlog{{"a", ClassSweep, 4}},
			tenant:    "a",
			class:     ClassSweep,
			// 4 queued + 3 deferred sweeps at sweep cost 1s, rate capped at
			// slots(2) x share(1), not the 8-worker pool.
			want: 7 * 1.0 / 2,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := &Executor{cfg: Config{
				Workers:   tc.workers,
				Admission: AdmissionConfig{SweepSlots: tc.slots},
			}}
			ex.avgRunSecByClass = tc.avgByCls
			ex.avgRunSec = (tc.avgByCls[0] + tc.avgByCls[1]) / 2
			ex.sweepWait = make([]*Job, tc.sweepWait)
			ex.sched = newWFQSched(ex.cfg.QoS, ex.estCostLocked)
			var seq uint64
			for _, b := range tc.backlog {
				for i := 0; i < b.n; i++ {
					seq++
					ex.sched.Push(&Job{tenant: b.tenant, class: b.class, seq: seq})
				}
			}
			got := ex.estWaitLocked(tc.tenant, tc.class).Seconds()
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("estWait = %.4fs, want %.4fs", got, tc.want)
			}
		})
	}
}

// TestPerClassEWMASeparation checks that completing jobs of one class does
// not perturb the other class's cost estimate once both are seeded.
func TestPerClassEWMASeparation(t *testing.T) {
	ex := &Executor{}
	ex.avgRunSecByClass = [2]float64{0.01, 10}
	if got := ex.estCostLocked(ClassInteractive); got != 0.01 {
		t.Fatalf("interactive cost = %v, want its own EWMA 0.01", got)
	}
	if got := ex.estCostLocked(ClassSweep); got != 10.0 {
		t.Fatalf("sweep cost = %v, want its own EWMA 10", got)
	}
	// One class unseeded: fall back to the other, then the 1ms floor.
	ex.avgRunSecByClass = [2]float64{0, 10}
	if got := ex.estCostLocked(ClassInteractive); got != 10.0 {
		t.Fatalf("unseeded interactive cost = %v, want sweep fallback 10", got)
	}
	ex.avgRunSecByClass = [2]float64{0, 0}
	ex.avgRunSec = 0
	if got := ex.estCostLocked(ClassSweep); got != 1e-3 {
		t.Fatalf("fully unseeded cost = %v, want 1ms floor", got)
	}
}
