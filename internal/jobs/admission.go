package jobs

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Admission control: the executor's compute budget is finite, so under
// overload the service sheds the lowest-utility work instead of degrading
// everything — the same marginal-utility discipline the runtime applies to
// its power budget, applied to the server. Three mechanisms compose:
//
//   - bounded queues with per-priority limits (one priority level cannot
//     squat the whole queue);
//   - per-client token-bucket rate limiting (one chatty client cannot
//     starve the rest);
//   - queue-deadline shedding: if the estimated time a new job would wait
//     behind the current queue already exceeds its deadline, admitting it
//     wastes a worker slot on a result nobody can use — reject immediately
//     with a Retry-After hint instead;
//   - a concurrency-limited "sweep" class, so expensive batch matrices
//     cannot occupy every worker and starve interactive submissions.

// Class partitions submissions for admission control and worker scheduling.
type Class int

const (
	// ClassInteractive is the default class: individual job submissions.
	ClassInteractive Class = iota
	// ClassSweep marks expensive batch work (sweep matrices). Sweep jobs
	// run on at most AdmissionConfig.SweepSlots workers at a time, so a
	// burst of batch cells can never occupy the whole pool.
	ClassSweep
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == ClassSweep {
		return "sweep"
	}
	return "interactive"
}

// ErrOverloaded is returned by Submit when queue-deadline shedding rejects a
// job: the estimated queue wait exceeds the job's deadline (or the
// configured ceiling), so running it would only waste capacity. HTTP maps it
// to 503 with a Retry-After header.
var ErrOverloaded = errors.New("jobs: overloaded, try later")

// ErrRateLimited is returned when a client exhausts its token bucket. HTTP
// maps it to 429 with a Retry-After header.
var ErrRateLimited = errors.New("jobs: rate limited")

// ErrReplaying rejects a submission that arrives while the journal is still
// replaying. HTTP maps it to 503 with Retry-After: 1.
var ErrReplaying = errors.New("jobs: journal replay in progress, try later")

// RetryAfterError decorates a rejection with how long the caller should
// back off before retrying. Use errors.Is against the wrapped sentinel
// (ErrOverloaded, ErrRateLimited, ErrQueueFull) and RetryAfterOf to recover
// the hint.
type RetryAfterError struct {
	Err        error
	RetryAfter time.Duration
}

// Error implements error.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap exposes the wrapped sentinel to errors.Is.
func (e *RetryAfterError) Unwrap() error { return e.Err }

// RetryAfterOf extracts the back-off hint from a rejection, if any.
func RetryAfterOf(err error) (time.Duration, bool) {
	var rae *RetryAfterError
	if errors.As(err, &rae) {
		return rae.RetryAfter, true
	}
	return 0, false
}

// AdmissionConfig tunes the executor's overload protection. The zero value
// disables every mechanism (the pre-journal behavior: one shared queue
// bound).
type AdmissionConfig struct {
	// PerPriorityDepth caps queued jobs within a single priority level
	// (0 = only the shared QueueDepth bound applies).
	PerPriorityDepth int
	// PerTenantDepth caps queued jobs per tenant (0 = no per-tenant cap).
	// It is the queue-occupancy quota that keeps one tenant's flood from
	// filling the shared queue and turning every other tenant's
	// submissions into queue-full rejections.
	PerTenantDepth int
	// SweepSlots caps concurrently *running* ClassSweep jobs (0 = no cap).
	// Keep it below Workers so interactive jobs always have a free slot.
	SweepSlots int
	// MaxWait sheds jobs whose estimated queue wait exceeds it even when
	// they carry no deadline of their own (0 = shed only against per-job
	// deadlines).
	MaxWait time.Duration
}

// ---- per-client token buckets ----

// RateLimiter is a token-bucket rate limiter keyed by client identity.
// Buckets refill lazily at rate tokens/second up to burst; an empty bucket
// rejects with the time until one token is available. The zero rate means
// unlimited. Safe for concurrent use.
type RateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	now     func() time.Time
	buckets map[string]*tokenBucket

	allowed uint64
	limited uint64
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// maxRateClients bounds the bucket map; full (idle) buckets are dropped
// first once it is exceeded, so a scan of spoofed client keys cannot grow
// memory without bound.
const maxRateClients = 8192

// NewRateLimiter returns a limiter granting each client rate submissions
// per second with the given burst (minimum 1 when rate > 0). A rate <= 0
// disables limiting.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	return NewRateLimiterClock(rate, burst, time.Now)
}

// NewRateLimiterClock is NewRateLimiter with an injectable clock (tests).
func NewRateLimiterClock(rate float64, burst int, now func() time.Time) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		now:     now,
		buckets: make(map[string]*tokenBucket),
	}
}

// Allow consumes one token from key's bucket. When the bucket is empty it
// reports false plus how long until a token will be available.
func (l *RateLimiter) Allow(key string) (bool, time.Duration) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxRateClients {
			l.evictLocked(now)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		l.allowed++
		return true, 0
	}
	l.limited++
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}

// evictLocked drops refilled (idle) buckets; if every bucket is mid-burn it
// drops the stalest instead.
func (l *RateLimiter) evictLocked(now time.Time) {
	var stalest string
	var stalestAt time.Time
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
			continue
		}
		if stalest == "" || b.last.Before(stalestAt) {
			stalest, stalestAt = k, b.last
		}
	}
	if len(l.buckets) >= maxRateClients && stalest != "" {
		delete(l.buckets, stalest)
	}
}

// RateLimiterStats is a snapshot of limiter counters.
type RateLimiterStats struct {
	Allowed uint64
	Limited uint64
	Clients int
}

// Stats returns a snapshot of the limiter counters.
func (l *RateLimiter) Stats() RateLimiterStats {
	if l == nil {
		return RateLimiterStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return RateLimiterStats{Allowed: l.allowed, Limited: l.limited, Clients: len(l.buckets)}
}
