package fabric

import "aaws/internal/obs"

// shardLatencyBuckets cover dispatch → commit wall-clock: sub-millisecond
// remote-cache answers up through multi-second stragglers.
var shardLatencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// instruments bundles the coordinator's live aaws_fabric_* metrics, updated
// on the dispatch/commit path (histograms see every observation) and
// rendered through the shared obs registry.
type instruments struct {
	shardLatency *obs.Histogram // first dispatch → committed result

	remoteHits   *obs.Counter // cells answered from the shared cache tier
	remoteMisses *obs.Counter
	coalesced    *obs.Counter // cells collapsed onto an in-flight shard

	dispatched      *obs.Counter
	shardsCompleted *obs.Counter
	shardsFailed    *obs.Counter
	hedgesFired     *obs.Counter
	hedgeWins       *obs.Counter // shard committed by a hedge, not its primary
	duplicates      *obs.Counter // results suppressed after first-result-wins
	redispatches    *obs.Counter // shards re-routed off a failed worker
	workerRetries   *obs.Counter // retryable worker errors (queue full etc.)
	workerFailures  *obs.Counter // connections dropped or heartbeats timed out
	workerCacheHits *obs.Counter // results the worker answered from its cache

	staleEpochFrames *obs.Counter // frames rejected by the registration-epoch fence
	staleCacheFills  *obs.Counter // HTTP cache fills rejected by the epoch fence

	workersConnected *obs.IntGauge
	shardsInflight   *obs.IntGauge
}

func newInstruments(reg *obs.Registry) *instruments {
	return &instruments{
		shardLatency:     reg.Histogram("aaws_fabric_shard_latency_seconds", shardLatencyBuckets),
		remoteHits:       reg.Counter("aaws_fabric_remote_cache_hits_total"),
		remoteMisses:     reg.Counter("aaws_fabric_remote_cache_misses_total"),
		coalesced:        reg.Counter("aaws_fabric_coalesced_total"),
		dispatched:       reg.Counter("aaws_fabric_shards_dispatched_total"),
		shardsCompleted:  reg.Counter("aaws_fabric_shards_completed_total"),
		shardsFailed:     reg.Counter("aaws_fabric_shards_failed_total"),
		hedgesFired:      reg.Counter("aaws_fabric_hedges_fired_total"),
		hedgeWins:        reg.Counter("aaws_fabric_hedge_wins_total"),
		duplicates:       reg.Counter("aaws_fabric_duplicate_results_total"),
		redispatches:     reg.Counter("aaws_fabric_redispatches_total"),
		workerRetries:    reg.Counter("aaws_fabric_worker_retries_total"),
		workerFailures:   reg.Counter("aaws_fabric_worker_failures_total"),
		workerCacheHits:  reg.Counter("aaws_fabric_worker_cache_hits_total"),
		staleEpochFrames: reg.Counter("aaws_fabric_stale_epoch_frames_total"),
		staleCacheFills:  reg.Counter("aaws_fabric_stale_cache_fills_total"),
		workersConnected: reg.IntGauge("aaws_fabric_workers_connected"),
		shardsInflight:   reg.IntGauge("aaws_fabric_shards_inflight"),
	}
}

// Metrics is a point-in-time snapshot of fabric health, the programmatic
// sibling of the aaws_fabric_* series (the selftest harness and loadgen
// reports read it directly).
type Metrics struct {
	RemoteHits      uint64
	RemoteMisses    uint64
	Coalesced       uint64
	Dispatched      uint64
	ShardsCompleted uint64
	ShardsFailed    uint64
	HedgesFired     uint64
	HedgeWins       uint64
	Duplicates      uint64
	Redispatches    uint64
	WorkerRetries   uint64
	WorkerFailures  uint64
	WorkerCacheHits uint64
	// StaleEpochFrames and StaleCacheFills count zombie traffic rejected by
	// the registration-epoch fence (wire frames and HTTP cache fills
	// respectively).
	StaleEpochFrames uint64
	StaleCacheFills  uint64
	Workers          int
	ShardsInflight   int
}

func (in *instruments) snapshot() Metrics {
	return Metrics{
		RemoteHits:       in.remoteHits.Value(),
		RemoteMisses:     in.remoteMisses.Value(),
		Coalesced:        in.coalesced.Value(),
		Dispatched:       in.dispatched.Value(),
		ShardsCompleted:  in.shardsCompleted.Value(),
		ShardsFailed:     in.shardsFailed.Value(),
		HedgesFired:      in.hedgesFired.Value(),
		HedgeWins:        in.hedgeWins.Value(),
		Duplicates:       in.duplicates.Value(),
		Redispatches:     in.redispatches.Value(),
		WorkerRetries:    in.workerRetries.Value(),
		WorkerFailures:   in.workerFailures.Value(),
		WorkerCacheHits:  in.workerCacheHits.Value(),
		StaleEpochFrames: in.staleEpochFrames.Value(),
		StaleCacheFills:  in.staleCacheFills.Value(),
		Workers:          int(in.workersConnected.Value()),
		ShardsInflight:   int(in.shardsInflight.Value()),
	}
}
