// Command aaws-loadgen generates deterministic multi-tenant traffic against
// an aaws-serve instance and reports per-tenant service quality: latency
// percentiles (p50/p99/p999), shed and rate-limit counts, cache-hit rate,
// and Jain's fairness index. Its job mixes cover interactive singles, batch
// sweeps, cache-hot replays, and adversarial cache-miss floods.
//
// The corpus is fully determined by -seed and -scenario, so two runs against
// differently configured servers submit identical work and their JSON
// reports are comparable line for line. The bundled "adversarial" scenario
// is the acceptance demonstration that weighted-fair scheduling plus
// per-tenant cache quotas isolate a victim tenant from a flood (see
// examples/qos-overload/).
//
// Usage:
//
//	aaws-loadgen -addr http://localhost:8080 -scenario mixed -duration 30s -out report.json
//
//	# Self-contained: boot an in-process server on a loopback port and
//	# drive it, no external process needed (the CI soak mode):
//	aaws-loadgen -self -scenario adversarial -duration 20s -check
//
// With -check, invariant violations (transport errors, accepted jobs that
// never resolve, accounting mismatches, goroutine leaks in self mode) exit
// nonzero. Latency/shed budgets (-budget-p99-ms, -budget-shed) only warn:
// they are regression telemetry, not gates.
//
// With -target-coord the same scenarios drive a fabric coordinator node
// (aaws-serve -fabric-addr) instead of a single server: the report gains a
// remote_cache section with the shared
// result tier's hit/miss split scraped from the node's /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"aaws/internal/jobs"
)

func main() {
	addr := flag.String("addr", "", "target server base URL (e.g. http://localhost:8080); mutually exclusive with -self")
	targetCoord := flag.String("target-coord", "", "fabric coordinator node base URL (aaws-serve -fabric-addr, e.g. http://localhost:8090): like -addr, but also reports the shared remote-cache hit rate from the node's metrics")
	self := flag.Bool("self", false, "boot an in-process server on a loopback port and drive it")
	selfWorkers := flag.Int("self-workers", 1, "self-server worker pool size")
	selfQueue := flag.Int("self-queue", 48, "self-server queue depth")
	selfTenantDepth := flag.Int("self-max-queue-per-tenant", 24, "self-server per-tenant queue quota")
	selfMaxWait := flag.Duration("self-max-wait", 250*time.Millisecond, "self-server queue-deadline shed ceiling")
	selfCache := flag.Int("self-cache-entries", 64, "self-server result-cache capacity (tenant quota = a quarter of it)")
	scenarioName := flag.String("scenario", "mixed", "traffic scenario: "+scenarioNames())
	seed := flag.Int64("seed", 1, "corpus seed (same seed + scenario = identical submissions)")
	duration := flag.Duration("duration", 30*time.Second, "submission window")
	grace := flag.Duration("grace", 15*time.Second, "drain grace for accepted jobs after the window closes")
	out := flag.String("out", "", "JSON report path (default stdout)")
	check := flag.Bool("check", false, "exit 1 on invariant violations")
	elastic := flag.Bool("elastic", false, "submit every job and sweep with elastic work-stealing enabled")
	budgetP99 := flag.Float64("budget-p99-ms", 0, "warn when a protected tenant's p99 exceeds this (ms, 0 = off)")
	budgetShed := flag.Float64("budget-shed", -1, "warn when a protected tenant's shed rate exceeds this (fraction, <0 = off)")
	flag.Parse()
	elasticJobs = *elastic

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc, ok := scenarios[*scenarioName]
	if !ok {
		fail(fmt.Errorf("aaws-loadgen: unknown scenario %q (have: %s)", *scenarioName, scenarioNames()))
	}
	modes := 0
	for _, on := range []bool{*self, *addr != "", *targetCoord != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fail(fmt.Errorf("aaws-loadgen: exactly one of -addr, -target-coord, or -self required"))
	}

	goroutineBaseline := runtime.NumGoroutine()
	target := *addr
	var shutdownSelf func() error
	switch {
	case *self:
		var err error
		target, shutdownSelf, err = bootSelf(*selfWorkers, *selfQueue, *selfTenantDepth, *selfMaxWait, *selfCache)
		if err != nil {
			fail(err)
		}
	case *targetCoord != "":
		// A coordinator node is an aaws-serve, so the scenario machinery
		// drives it unchanged.
		target = *targetCoord
	}

	cl := newClient(target)
	if err := cl.probe(); err != nil {
		fail(err)
	}

	fmt.Fprintf(os.Stderr, "aaws-loadgen: driving %s scenario=%s seed=%d for %s\n", target, sc.Name, *seed, *duration)
	col := newCollector()
	runScenario(cl, sc, *seed, *duration, *grace, col)

	rep := buildReport(col, sc, *seed, *duration, target)
	if *targetCoord != "" {
		rc, err := scrapeRemoteCache(target)
		if err != nil {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("coordinator metrics scrape: %v", err))
		} else {
			rep.RemoteCache = rc
		}
	}
	rep.checkBudgets(sc, *budgetP99, *budgetShed)
	rep.checkInvariants()

	if shutdownSelf != nil {
		if err := shutdownSelf(); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("self-server shutdown: %v", err))
		}
		// Goroutine-leak invariant: after a full drain the in-process
		// server and every watcher must be gone (small slack for the HTTP
		// client's idle pool and runtime background goroutines).
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > goroutineBaseline+8 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutineBaseline+8 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"goroutine leak: %d alive after drain (baseline %d)", n, goroutineBaseline))
		}
	}

	rep.summarize()
	if err := rep.write(*out); err != nil {
		fail(err)
	}
	if *check && len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "aaws-loadgen: %d invariant violation(s)\n", len(rep.Violations))
		os.Exit(1)
	}
}

// bootSelf stands up a full server stack (cache, executor, HTTP API) on a
// loopback port with the full QoS stack: weighted-fair scheduling, the
// per-tenant queue quota, and tenant cache quotas at a quarter of capacity.
func bootSelf(workers, queueDepth, tenantDepth int, maxWait time.Duration, cacheEntries int) (string, func() error, error) {
	cache, err := jobs.NewCache(cacheEntries, "")
	if err != nil {
		return "", nil, err
	}
	cfg := jobs.Config{
		Workers:        workers,
		QueueDepth:     queueDepth,
		DefaultTimeout: time.Minute,
		Admission: jobs.AdmissionConfig{
			MaxWait:        maxWait,
			PerTenantDepth: tenantDepth,
		},
		Cache: cache,
	}
	quota := cacheEntries / 4
	if quota < 1 {
		quota = 1
	}
	cache.SetTenantQuotas(0, quota)
	ex := jobs.NewExecutor(cfg)
	srv := &http.Server{Handler: jobs.NewServer(ex)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ex.Close()
		return "", nil, err
	}
	go srv.Serve(ln)
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr := ex.Drain(ctx)
		ex.Close()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return drainErr
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
