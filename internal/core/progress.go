package core

import "context"

// progressKey carries a progress sink through a context. A context value is
// the right vehicle (rather than a Spec field) because Spec is canonically
// JSON-serialized for content addressing — a func field would break hashing
// and, unlike the spec, the sink is an observer of one particular execution,
// not part of the simulation's identity.
type progressKey struct{}

// WithProgress returns a context that makes RunCtx report simulation
// progress to fn: the event-loop calls it every few thousand events with the
// number of events executed so far. The callback is side-effect-free on
// simulation state (same guarantee as context cancellation polling), so
// attaching it never perturbs the schedule. fn runs on the simulating
// goroutine and must be fast and non-blocking. Under RunBatchCtx (or
// RunBatchWidth above width 1) several cells simulate at once, so fn may be
// called from several goroutines concurrently, each with its own cell's
// count: it must be safe for concurrent use and must not assume successive
// counts increase.
func WithProgress(ctx context.Context, fn func(events uint64)) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// ProgressFromContext returns the progress sink attached by WithProgress,
// or nil.
func ProgressFromContext(ctx context.Context) func(events uint64) {
	if ctx == nil {
		return nil
	}
	fn, _ := ctx.Value(progressKey{}).(func(events uint64))
	return fn
}
