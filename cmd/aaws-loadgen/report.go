package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Report is the run artifact: one JSON document whose shape is stable across
// runs, so two reports (e.g. two server configurations over the same
// scenario and seed) diff meaningfully.
type Report struct {
	Tool      string  `json:"tool"`
	Scenario  string  `json:"scenario"`
	Seed      int64   `json:"seed"`
	DurationS float64 `json:"duration_s"`
	Target    string  `json:"target"`

	Tenants map[string]TenantReport `json:"tenants"`
	// RemoteCache is the coordinator's shared result-tier effectiveness over
	// the whole run (fabric targets only, scraped from /metrics).
	RemoteCache *RemoteCacheReport `json:"remote_cache,omitempty"`
	// FairnessIndex is Jain's index over per-tenant completed throughput:
	// 1.0 = perfectly equal service, 1/n = one tenant got everything.
	FairnessIndex float64 `json:"fairness_index"`

	Warnings   []string `json:"warnings,omitempty"`
	Violations []string `json:"violations,omitempty"`
}

// TenantReport is one tenant's service summary.
type TenantReport struct {
	Requests    int     `json:"requests"`
	Accepted    int     `json:"accepted"`
	Completed   int     `json:"completed"`
	Unresolved  int     `json:"unresolved"` // accepted but not terminal before the drain grace expired
	CacheHits   int     `json:"cache_hits"`
	Shed        int     `json:"shed"`         // 503 overload rejections
	RateLimited int     `json:"rate_limited"` // 429s (token bucket or queue quota)
	Errors      int     `json:"errors"`
	Sweeps      int     `json:"sweeps"`
	ShedRate    float64 `json:"shed_rate"`
	CacheHitPct float64 `json:"cache_hit_rate"`
	Throughput  float64 `json:"throughput_rps"` // completed per second

	LatencyMs LatencySummary `json:"latency_ms"`
}

// LatencySummary is the completed-request latency distribution.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// RemoteCacheReport is the fabric shared tier's hit/miss split, from a
// coordinator node's /metrics.
type RemoteCacheReport struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// scrapeRemoteCache reads a coordinator node's Prometheus text exposition
// and folds the shared-tier counters into a RemoteCacheReport. On such a
// node the executor's cache is the shared tier, so its hits
// (aaws_cache_hits_total) count as shared-tier hits alongside the rarer
// cells the coordinator itself finds there (aaws_fabric_remote_cache_*);
// every coordinator miss is a cell dispatched to the fleet.
func scrapeRemoteCache(base string) (*RemoteCacheReport, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	rc := &RemoteCacheReport{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		switch name {
		case "aaws_cache_hits_total", "aaws_fabric_remote_cache_hits_total":
			rc.Hits += uint64(v)
		case "aaws_fabric_remote_cache_misses_total":
			rc.Misses = uint64(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total := rc.Hits + rc.Misses; total > 0 {
		rc.HitRate = round(float64(rc.Hits) / float64(total))
	}
	return rc, nil
}

// percentile returns the p-th percentile (0..100) of sorted samples by
// nearest-rank; 0 for an empty set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// jainIndex is Jain's fairness index over the given allocations:
// (Σx)² / (n·Σx²), in (0,1], 1 = perfectly fair.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

func round(v float64) float64 { return math.Round(v*1000) / 1000 }

// buildReport folds the collector into the artifact.
func buildReport(col *collector, sc scenario, seed int64, duration time.Duration, target string) *Report {
	rep := &Report{
		Tool:      "aaws-loadgen",
		Scenario:  sc.Name,
		Seed:      seed,
		DurationS: duration.Seconds(),
		Target:    target,
		Tenants:   make(map[string]TenantReport, len(col.by)),
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	var completions []float64
	for name, t := range col.by {
		sort.Float64s(t.latenciesMs)
		tr := TenantReport{
			Requests:    t.requests,
			Accepted:    t.accepted,
			Completed:   t.completed,
			Unresolved:  t.unresolved,
			CacheHits:   t.cacheHits,
			Shed:        t.shed,
			RateLimited: t.limited,
			Errors:      t.errors,
			Sweeps:      t.sweeps,
			Throughput:  round(float64(t.completed) / duration.Seconds()),
			LatencyMs: LatencySummary{
				P50:  round(percentile(t.latenciesMs, 50)),
				P90:  round(percentile(t.latenciesMs, 90)),
				P99:  round(percentile(t.latenciesMs, 99)),
				P999: round(percentile(t.latenciesMs, 99.9)),
				Max:  round(percentile(t.latenciesMs, 100)),
			},
		}
		if t.requests > 0 {
			tr.ShedRate = round(float64(t.shed) / float64(t.requests))
		}
		if t.accepted > 0 {
			tr.CacheHitPct = round(float64(t.cacheHits) / float64(t.accepted))
		}
		rep.Tenants[name] = tr
		completions = append(completions, float64(t.completed))
	}
	rep.FairnessIndex = round(jainIndex(completions))
	return rep
}

// checkBudgets appends warn-only budget breaches for protected tenants.
func (rep *Report) checkBudgets(sc scenario, budgetP99Ms, budgetShed float64) {
	for _, load := range sc.Tenants {
		if !load.Protected {
			continue
		}
		tr, ok := rep.Tenants[load.Name]
		if !ok {
			continue
		}
		if budgetP99Ms > 0 && tr.LatencyMs.P99 > budgetP99Ms {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf(
				"tenant %s p99 %.1fms exceeds budget %.1fms", load.Name, tr.LatencyMs.P99, budgetP99Ms))
		}
		if budgetShed >= 0 && tr.ShedRate > budgetShed {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf(
				"tenant %s shed rate %.3f exceeds budget %.3f", load.Name, tr.ShedRate, budgetShed))
		}
	}
	sort.Strings(rep.Warnings)
}

// checkInvariants appends hard violations: transport/server errors and
// accepted jobs that never resolved. With -check these make the run exit 1.
func (rep *Report) checkInvariants() {
	names := make([]string, 0, len(rep.Tenants))
	for n := range rep.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tr := rep.Tenants[n]
		if tr.Errors > 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"tenant %s: %d transport/protocol errors", n, tr.Errors))
		}
		if tr.Unresolved > 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"tenant %s: %d accepted jobs never reached a terminal state", n, tr.Unresolved))
		}
		if got := tr.Accepted + tr.Shed + tr.RateLimited + tr.Errors; got != tr.Requests {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"tenant %s: outcome accounting %d != %d requests", n, got, tr.Requests))
		}
	}
}

// write emits the artifact: to path, or stdout when path is empty.
func (rep *Report) write(path string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// summarize prints a human-oriented one-liner per tenant to stderr so CI
// logs are scannable without opening the JSON artifact.
func (rep *Report) summarize() {
	names := make([]string, 0, len(rep.Tenants))
	for n := range rep.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "aaws-loadgen: scenario=%s fairness=%.3f\n",
		rep.Scenario, rep.FairnessIndex)
	for _, n := range names {
		tr := rep.Tenants[n]
		fmt.Fprintf(os.Stderr,
			"  %-10s req=%-5d done=%-5d shed=%-4d 429=%-4d hit=%.2f p50=%.1fms p99=%.1fms p999=%.1fms\n",
			n, tr.Requests, tr.Completed, tr.Shed, tr.RateLimited, tr.CacheHitPct,
			tr.LatencyMs.P50, tr.LatencyMs.P99, tr.LatencyMs.P999)
	}
	if rc := rep.RemoteCache; rc != nil {
		fmt.Fprintf(os.Stderr, "  remote-cache hits=%d misses=%d hit_rate=%.3f\n",
			rc.Hits, rc.Misses, rc.HitRate)
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(os.Stderr, "  WARN: %s\n", w)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(os.Stderr, "  VIOLATION: %s\n", v)
	}
}
