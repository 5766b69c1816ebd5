package kernels

import (
	"fmt"

	"aaws/internal/wsrt"
)

// ---- lock family: contended-lock microkernels (extensions) ----
//
// Three variants of the same workload — tasks repeatedly acquire a shared
// lock, run a short critical section, and release — differing only in the
// modelled acquisition protocol:
//
//   lock-tas    test-and-set spinlock: acquisition cost is a deterministic
//               pseudo-random backoff draw (contention jitter), the classic
//               unfair baseline.
//   lock-queue  FIFO queue (MCS-style) lock: every handoff costs the same
//               flat transfer, fair but asymmetry-blind.
//   lock-qbig   asymmetry-aware queue lock: waiters on the fastest core
//               class are granted the lock ahead of slower cores, so
//               rank-0 acquisitions pay a short fast-path handoff and
//               everyone else pays the deferred slow path. On a symmetric
//               machine it degenerates to lock-queue's cost scale.
//
// The simulator is a single-threaded discrete-event machine, so the lock is
// modelled analytically: each acquire charges protocol-dependent simulated
// instructions rather than spinning on shared state. The critical-section
// payload is real computation (a running checksum), and because every
// committed increment is commutative the final checksum is
// schedule-independent — Check validates it exactly under any interleaving,
// including elastic parking and fault-induced reruns.

const (
	lockTasks     = 384 // tasks per run at scale 1.0
	lockAcquires  = 6   // lock acquisitions per task
	lockCSInstr   = 120 // critical-section payload cost
	lockTasBase   = 40  // TAS fast-path cost
	lockTasJitter = 240 // TAS contention-jitter range
	lockQueueCost = 90  // queue-lock flat handoff
	lockQBigFast  = 60  // qbig handoff to a rank-0 waiter
	lockQBigSlow  = 110 // qbig deferred handoff to slower ranks
	lockTaskSetup = 24  // per-task setup (load lock address, init node)
	lockWSBytes   = 192 // working set touched per task (lock line + node)
)

// lockMix is a splitmix64-style finalizer: a deterministic, well-spread
// draw from (seed, task, acquire) that does not depend on the schedule.
func lockMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// lockInput is one member of the family, prepared: acquireCost maps
// (draw, rank) to the modelled acquisition cost in simulated instructions,
// and want is the reference checksum.
type lockInput struct {
	seed        uint64
	nTasks      int
	acquireCost func(draw uint64, rank int) float64
	want        int64
}

type lockKernel struct {
	*lockInput
	sum int64 // shared accumulator (host-side; increments commute)
}

// prepareLock prepares an input with the given protocol cost model.
func prepareLock(seed uint64, scale float64, cost func(draw uint64, rank int) float64) Input {
	in := &lockInput{seed: seed, nTasks: scaled(lockTasks, scale), acquireCost: cost}
	for t := 0; t < in.nTasks; t++ {
		for a := 0; a < lockAcquires; a++ {
			in.want += in.increment(t, a)
		}
	}
	return in
}

func (in *lockInput) Instance() Workload { return &lockKernel{lockInput: in} }

// increment is the critical-section payload for one acquisition: a
// deterministic function of (task, acquire) alone, so the committed sum is
// independent of execution order.
func (k *lockInput) increment(task, acq int) int64 {
	return int64(lockMix(k.seed^uint64(task)<<20^uint64(acq)) % 1024)
}

func (k *lockKernel) Run(r *wsrt.Run) {
	k.sum = 0
	r.SerialWork(1500)
	r.ParallelFor(0, k.nTasks, 1, func(c *wsrt.Ctx, lo, hi int) {
		rank := c.WorkerRank()
		cost := float64(lockTaskSetup * (hi - lo))
		for t := lo; t < hi; t++ {
			for a := 0; a < lockAcquires; a++ {
				draw := lockMix(k.seed ^ uint64(t)<<20 ^ uint64(a)<<4 ^ 0x9e3779b97f4a7c15)
				cost += k.acquireCost(draw, rank) + lockCSInstr
				k.sum += k.increment(t, a)
			}
		}
		c.Work(cost)
		c.Touch(float64((hi - lo) * lockWSBytes))
	})
	r.SerialWork(400)
}

func (k *lockKernel) Check() error {
	if k.sum != k.want {
		return fmt.Errorf("lock: checksum %d != %d (lost or duplicated critical sections)", k.sum, k.want)
	}
	return nil
}

func init() {
	register(&Kernel{
		Name: "lock-tas", Suite: "ext", Input: "384 tasks x 6 acquires", PM: "p",
		Alpha: 2.5, Beta: 2.0, MPKI: 0.05, Extension: true,
		Prepare: func(seed uint64, scale float64) Input {
			return prepareLock(seed, scale, func(draw uint64, rank int) float64 {
				return lockTasBase + float64(draw%lockTasJitter)
			})
		},
	})
	register(&Kernel{
		Name: "lock-queue", Suite: "ext", Input: "384 tasks x 6 acquires", PM: "p",
		Alpha: 2.5, Beta: 2.0, MPKI: 0.05, Extension: true,
		Prepare: func(seed uint64, scale float64) Input {
			return prepareLock(seed, scale, func(draw uint64, rank int) float64 {
				return lockQueueCost
			})
		},
	})
	register(&Kernel{
		Name: "lock-qbig", Suite: "ext", Input: "384 tasks x 6 acquires", PM: "p",
		Alpha: 2.5, Beta: 2.0, MPKI: 0.05, Extension: true,
		Prepare: func(seed uint64, scale float64) Input {
			return prepareLock(seed, scale, func(draw uint64, rank int) float64 {
				if rank == 0 {
					return lockQBigFast
				}
				return lockQBigSlow
			})
		},
	})
}
