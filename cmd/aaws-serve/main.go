// Command aaws-serve runs the simulation-as-a-service HTTP server: jobs are
// validated specs content-addressed by their SHA-256 hash, executed on a
// bounded worker pool, and memoized in an LRU (+ optional on-disk) result
// cache so identical submissions return bit-identical reports without
// re-simulating.
//
// Usage:
//
//	aaws-serve -addr :8080 -workers 8 -cache-size 4096 -cache-dir /var/cache/aaws \
//	           -journal-dir /var/lib/aaws/journal -rate 50 -burst 100
//
//	curl -s localhost:8080/v1/jobs -d '{"kernel":"cilksort","variant":"base+psm"}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/metrics
//
// With -journal-dir every accepted submission is write-ahead logged (fsync
// before the 202), so a crash — SIGKILL, OOM, power loss — loses no accepted
// work: on restart the journal replays and queued/running jobs re-execute
// under their original IDs (determinism + content addressing make the replay
// bit-identical and already-completed jobs free cache hits). /readyz stays
// 503 until replay finishes.
//
// SIGINT/SIGTERM triggers a graceful drain: /healthz flips to 503, new
// submissions are rejected, in-flight jobs finish (bounded by
// -drain-timeout), then the listener closes.
//
// With -fabric-addr host:port the server is a fabric coordinator node: the
// same executor, tenant WFQ, admission, quotas and journal, but jobs run on
// the worker fleet that registers on that address instead of in-process
// (-workers then bounds the jobs in flight on the fleet; unset, it follows
// the fleet's registered slots). The node also serves the shared result tier
// workers read and fill (/v1/cache/{hash}) and a fleet view (/v1/workers)
// on -addr; /readyz reports degraded while no worker is registered, but work
// is still accepted and parked, and time parked does not count against a
// job's deadline. A node's drain never cancels fleet-bound jobs: at
// -drain-timeout it stops with them still open in the journal, for the next
// start to replay.
//
// With -worker -coordinator host:port the server instead joins a fabric as
// a worker: it registers with a coordinator node, executes dispatched shards
// through the same bounded executor, and streams results back;
// -remote-cache URL layers the fabric-wide shared result tier under the
// local cache. /readyz reports degraded until registration completes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof/ on the opt-in -debug-addr listener
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"aaws/internal/fabric"
	"aaws/internal/jobs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "simulations in flight (with -fabric-addr: on the worker fleet, default its registered slots)")
	queueDepth := flag.Int("queue-depth", 1024, "max queued jobs before 429s")
	cacheSize := flag.Int("cache-size", 1024, "in-memory result cache entries")
	cacheDir := flag.String("cache-dir", "", "optional on-disk result store (content-addressed, survives restarts)")
	timeout := flag.Duration("job-timeout", 5*time.Minute, "default per-job deadline (0 = none)")
	retries := flag.Int("retries", 1, "transient-failure retries per job")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	journalDir := flag.String("journal-dir", "", "write-ahead job journal directory (empty = no crash durability)")
	journalSegMB := flag.Int("journal-segment-mb", 4, "journal segment size before rotation+compaction (MiB)")
	rate := flag.Float64("rate", 0, "per-client submissions/sec (0 = unlimited)")
	burst := flag.Int("burst", 20, "per-client token-bucket burst")
	sweepSlots := flag.Int("sweep-slots", 0, "max workers running sweep-class jobs (0 = workers/2, capped below workers)")
	perPrioDepth := flag.Int("max-queue-per-priority", 0, "max queued jobs within one priority level (0 = no per-level cap)")
	maxWait := flag.Duration("max-wait", 0, "shed submissions whose estimated queue wait exceeds this (0 = shed only vs per-job deadlines)")
	maxBodyKB := flag.Int("max-body-kb", 1024, "max request body size (KiB) before 413")
	debugAddr := flag.String("debug-addr", "", "optional debug listener (net/http/pprof under /debug/pprof/); keep it off public interfaces")
	tenantWeights := flag.String("tenant-weights", "", "per-tenant WFQ weights, e.g. 'team-a=2,team-b=1'")
	defaultWeight := flag.Float64("default-tenant-weight", 1, "WFQ weight for tenants not listed in -tenant-weights")
	perTenantDepth := flag.Int("max-queue-per-tenant", 0, "max queued jobs per tenant (0 = no per-tenant cap)")
	tenantCacheMB := flag.Int("tenant-cache-mb", 0, "per-tenant result-cache byte quota (MiB, 0 = unlimited)")
	tenantCacheEntries := flag.Int("tenant-cache-entries", 0, "per-tenant result-cache entry quota (0 = unlimited)")
	worker := flag.Bool("worker", false, "register with a fabric coordinator and execute dispatched shards")
	coordAddr := flag.String("coordinator", "", "fabric coordinator TCP address (host:port) for -worker mode")
	workerName := flag.String("worker-name", "", "fabric worker name (default: hostname)")
	remoteCacheURL := flag.String("remote-cache", "", "coordinator HTTP base URL for the shared result-cache tier (e.g. http://coord:8090)")
	remoteCacheTimeout := flag.Duration("remote-cache-timeout", 5*time.Second, "per-request timeout for the shared result-cache tier")
	fabricAddr := flag.String("fabric-addr", "", "run as a fabric coordinator node: accept workers on this TCP address and run jobs on them")
	hedgeDelay := flag.Duration("hedge-delay", time.Second, "coordinator: delay before hedging an uncommitted shard (negative disables)")
	hedgeJitter := flag.Duration("hedge-jitter", 0, "coordinator: deterministic per-shard hedge jitter span (0 = hedge-delay/2)")
	hbTimeout := flag.Duration("heartbeat-timeout", 5*time.Second, "coordinator: fail workers silent for this long")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *worker && *coordAddr == "" {
		fail(errors.New("aaws-serve: -worker requires -coordinator host:port"))
	}
	if *worker && *fabricAddr != "" {
		fail(errors.New("aaws-serve: -worker and -fabric-addr are exclusive (a node is a worker or a coordinator)"))
	}
	cache, err := jobs.NewCache(*cacheSize, *cacheDir)
	if err != nil {
		fail(err)
	}
	if *tenantCacheMB > 0 || *tenantCacheEntries > 0 {
		cache.SetTenantQuotas(int64(*tenantCacheMB)<<20, *tenantCacheEntries)
	}
	// With a shared tier configured, the executor consults local-then-remote
	// before computing; completed results write through to both.
	var tier jobs.CacheTier = cache
	var remoteCache *fabric.RemoteCache
	if *remoteCacheURL != "" {
		remoteCache = fabric.NewRemoteCacheWith(*remoteCacheURL, fabric.RemoteCacheOptions{
			Timeout: *remoteCacheTimeout,
		})
		tier = jobs.NewTieredCache(cache, remoteCache)
	}
	weights, err := jobs.ParseWeights(*tenantWeights)
	if err != nil {
		fail(err)
	}
	var journal *jobs.Journal
	var pending []jobs.Pending
	if *journalDir != "" {
		journal, pending, err = jobs.OpenJournal(*journalDir, jobs.JournalConfig{
			SegmentBytes: int64(*journalSegMB) << 20,
		})
		if err != nil {
			fail(err)
		}
	}
	slots := *sweepSlots
	if slots <= 0 && *workers > 1 {
		slots = *workers / 2
	}
	if slots >= *workers {
		slots = *workers - 1 // always leave a slot for interactive jobs
	}
	cfg := jobs.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		MaxRetries:     *retries,
		Cache:          tier,
		Journal:        journal,
		Admission: jobs.AdmissionConfig{
			PerPriorityDepth: *perPrioDepth,
			PerTenantDepth:   *perTenantDepth,
			SweepSlots:       slots,
			MaxWait:          *maxWait,
		},
		QoS: jobs.QoSConfig{
			DefaultWeight: *defaultWeight,
			Weights:       weights,
		},
	}
	opts := jobs.ServerOptions{
		RatePerSec:   *rate,
		Burst:        *burst,
		MaxBodyBytes: int64(*maxBodyKB) << 10,
	}
	var ex *jobs.Executor
	var coord *fabric.Coordinator
	if *fabricAddr != "" {
		if !flagSet("workers") {
			cfg.Workers = 0 // track the fleet's registered slots
		}
		ex, coord, err = fabric.NewNode(cfg, fabric.CoordConfig{
			HedgeDelay:       *hedgeDelay,
			HedgeJitter:      *hedgeJitter,
			HeartbeatTimeout: *hbTimeout,
		})
		if err != nil {
			fail(err)
		}
		opts.Degraded = coord.Degraded
	} else {
		ex = jobs.NewExecutor(cfg)
	}
	api := jobs.NewServerWithOptions(ex, opts)
	var handler http.Handler = api
	if coord != nil {
		handler = fabric.Mount(api, coord)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	var fw *fabric.Worker
	if *worker {
		name := *workerName
		if name == "" {
			if name, _ = os.Hostname(); name == "" {
				name = fmt.Sprintf("worker-%d", os.Getpid())
			}
		}
		fw, err = fabric.NewWorker(fabric.WorkerConfig{
			Name:      name,
			CoordAddr: *coordAddr,
			Executor:  ex,
		})
		if err != nil {
			fail(err)
		}
		if remoteCache != nil {
			// The cache tier was built before the worker existed; bind the
			// worker's registration epoch to it now so cache fills carry the
			// fence headers.
			remoteCache.SetEpochSource(fw.EpochInfo)
		}
	}

	if *debugAddr != "" {
		// The pprof mux registers on http.DefaultServeMux at import; serve
		// it on its own opt-in listener so profiling endpoints never share
		// a port with the public API.
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "aaws-serve: debug listener: %v\n", err)
			}
		}()
		fmt.Printf("aaws-serve debug (pprof) on %s\n", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Listen before replaying so health probes see the process (and the
	// fleet can register to run the replayed backlog), but hold /readyz at
	// 503 and refuse submissions until the queue is rebuilt.
	if len(pending) > 0 {
		api.SetReady(false)
	}
	if coord != nil {
		fln, err := net.Listen("tcp", *fabricAddr)
		if err != nil {
			fail(err)
		}
		go func() { _ = coord.Serve(fln) }()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("aaws-serve listening on %s (%d workers, cache %d", *addr, *workers, *cacheSize)
	if *cacheDir != "" {
		fmt.Printf(" + disk %s", *cacheDir)
	}
	if journal != nil {
		fmt.Printf(", journal %s", *journalDir)
	}
	if *remoteCacheURL != "" {
		fmt.Printf(", remote cache %s", *remoteCacheURL)
	}
	if coord != nil {
		fmt.Printf(", fabric coordinator on %s", *fabricAddr)
	}
	fmt.Println(")")
	if len(pending) > 0 {
		n, err := ex.Recover(pending)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aaws-serve: journal replay stopped after %d/%d jobs: %v\n", n, len(pending), err)
		} else {
			fmt.Printf("aaws-serve: recovered %d journaled job(s)\n", n)
		}
		api.SetReady(true)
	}

	// Worker registration happens after journal replay so recovered work is
	// schedulable before fabric shards start arriving; /readyz reports
	// degraded until the coordinator has acknowledged the hello.
	if fw != nil {
		api.SetPhase("worker registration")
		go func() { _ = fw.Run(ctx) }()
		go func() {
			select {
			case <-fw.Ready():
				api.SetPhase("")
				fmt.Printf("aaws-serve: registered with coordinator %s\n", *coordAddr)
			case <-ctx.Done():
			}
		}()
	}

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("aaws-serve: draining (new submissions rejected)...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if coord == nil {
		if err := ex.Drain(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "aaws-serve: drain incomplete: %v\n", err)
		}
		ex.Close()
	} else if err := drainNode(drainCtx, ex, coord); err != nil {
		fmt.Fprintf(os.Stderr, "aaws-serve: drain incomplete, unfinished jobs left to the next start: %v\n", err)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "aaws-serve: journal close: %v\n", err)
		}
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "aaws-serve: shutdown: %v\n", err)
	}
	fmt.Println("aaws-serve: stopped")
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// drainNode drains a coordinator node. Fleet-bound jobs are never canceled:
// if ctx expires first the coordinator is Killed instead, so the unfinished
// jobs stop where they are and their journal records stay open for the next
// start's Recover, as after a crash. The executor is closed only once idle.
func drainNode(ctx context.Context, ex *jobs.Executor, coord *fabric.Coordinator) error {
	idle := make(chan struct{})
	go func() {
		_ = ex.Drain(context.Background())
		close(idle)
	}()
	select {
	case <-idle:
		ex.Close()
		coord.Close()
		return nil
	case <-ctx.Done():
		coord.Kill()
		return ctx.Err()
	}
}
