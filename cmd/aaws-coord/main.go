// Command aaws-coord is the distributed sweep fabric's self-test: it boots
// an in-process fabric — coordinator plus N workers over loopback TCP —
// runs the default sweep matrix through it and through a plain single-node
// loop, and exits nonzero unless the two fingerprints are bit-identical
// (optionally also checking a committed fingerprint file, optionally
// injecting a worker fail-stop mid-sweep, and always asserting the second
// pass is answered from the shared cache).
//
//	aaws-coord -selftest -workers 2 -failstop -fingerprint examples/fabric/fingerprint.json
//
// A serving coordinator is an aaws-serve node: aaws-serve -fabric-addr
// :9090 runs the jobs API (tenant WFQ, admission, quotas, journal) over the
// fleet that registers on that address.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/wsrt"
)

func main() {
	var (
		selftest = flag.Bool("selftest", false, "run the in-process fabric self-test and exit (required)")
		nNodes   = flag.Int("workers", 2, "number of in-process worker nodes")
		nodePool = flag.Int("node-workers", 2, "executor pool size per node")
		system   = flag.String("system", "4B4L", "system to sweep")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		seed     = flag.Uint64("seed", 42, "sweep seed")
		failstop = flag.Bool("failstop", false, "kill one worker mid-sweep and require recovery")
		fpPath   = flag.String("fingerprint", "", "committed fingerprint file to check against")
		writeFP  = flag.Bool("write-fingerprint", false, "(re)write the fingerprint file from the single-node run")
		outPath  = flag.String("out", "", "write a JSON artifact (fingerprints, metrics, shard latencies)")
	)
	flag.Parse()

	if !*selftest {
		fmt.Fprintln(os.Stderr, "aaws-coord: only -selftest is supported; run a coordinator node with aaws-serve -fabric-addr")
		os.Exit(2)
	}
	os.Exit(runSelftest(selftestOptions{
		nodes:    *nNodes,
		nodePool: *nodePool,
		system:   *system,
		scale:    *scale,
		seed:     *seed,
		failstop: *failstop,
		fpPath:   *fpPath,
		writeFP:  *writeFP,
		outPath:  *outPath,
	}))
}

type selftestOptions struct {
	nodes    int
	nodePool int
	system   string
	scale    float64
	seed     uint64
	failstop bool
	fpPath   string
	writeFP  bool
	outPath  string
}

// fingerprintFile is the committed-fingerprint format: enough context to
// refuse a comparison across different sweep parameters.
type fingerprintFile struct {
	System      string  `json:"system"`
	Seed        uint64  `json:"seed"`
	Scale       float64 `json:"scale"`
	Cells       int     `json:"cells"`
	Fingerprint string  `json:"fingerprint"`
}

// selftestArtifact is the -out JSON: the smoke job's evidence.
type selftestArtifact struct {
	System            string         `json:"system"`
	Seed              uint64         `json:"seed"`
	Scale             float64        `json:"scale"`
	Cells             int            `json:"cells"`
	Nodes             int            `json:"nodes"`
	Failstop          bool           `json:"failstop"`
	FailstopFired     bool           `json:"failstop_fired"`
	SingleNode        string         `json:"single_node_fingerprint"`
	Fabric            string         `json:"fabric_fingerprint"`
	Match             bool           `json:"match"`
	SecondPassMatch   bool           `json:"second_pass_match"`
	RemoteCacheHits   uint64         `json:"remote_cache_hits"`
	Metrics           fabric.Metrics `json:"metrics"`
	ShardLatencyCount int            `json:"shard_latency_count"`
	ShardLatencyP50Ms float64        `json:"shard_latency_p50_ms"`
	ShardLatencyP99Ms float64        `json:"shard_latency_p99_ms"`
	ShardLatencyMaxMs float64        `json:"shard_latency_max_ms"`
	ShardLatenciesSec []float64      `json:"shard_latencies_sec"`
	WallSingleNodeMs  float64        `json:"wall_single_node_ms"`
	WallFabricMs      float64        `json:"wall_fabric_ms"`
	WallSecondPassMs  float64        `json:"wall_second_pass_ms"`
}

func runSelftest(o selftestOptions) int {
	sys, ok := core.ParseSystem(o.system)
	if !ok {
		fmt.Fprintf(os.Stderr, "selftest: unknown system %q\n", o.system)
		return 2
	}
	if o.nodes < 1 {
		o.nodes = 1
	}
	specs := sweepMatrix(sys, o.seed, o.scale)
	log.Printf("selftest: %d cells (%s, seed %d, scale %g) across %d nodes",
		len(specs), o.system, o.seed, o.scale, o.nodes)

	// Reference pass: a plain single-node loop, no fabric anywhere. Cell
	// bytes are the canonical outcome encoding — the same bytes the jobs
	// executor caches and the fabric streams.
	t0 := time.Now()
	localCells := make([][]byte, 0, len(specs))
	for _, spec := range specs {
		hash, err := jobs.SpecHash(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selftest: hashing spec: %v\n", err)
			return 2
		}
		res, err := core.Run(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selftest: running %s/%s: %v\n", spec.Kernel, spec.Variant, err)
			return 2
		}
		data, err := jobs.CanonicalJSON(jobs.NewOutcome(hash, res))
		if err != nil {
			fmt.Fprintf(os.Stderr, "selftest: encoding outcome: %v\n", err)
			return 2
		}
		localCells = append(localCells, data)
	}
	wallLocal := time.Since(t0)
	localFP := fabric.Fingerprint(localCells)

	// Fabric pass: coordinator + HTTP API + N workers, all in-process over
	// loopback, each node consulting the shared tier under its local cache.
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		HedgeDelay:       500 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
		RetryBackoff:     25 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "selftest: coordinator: %v\n", err)
		return 2
	}
	defer coord.Close()
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "selftest: fabric listener: %v\n", err)
		return 2
	}
	go func() { _ = coord.Serve(fln) }()
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "selftest: http listener: %v\n", err)
		return 2
	}
	hsrv := &http.Server{Handler: fabric.NewHTTP(coord, fabric.HTTPOptions{})}
	go func() { _ = hsrv.Serve(hln) }()
	defer hsrv.Close()
	base := "http://" + hln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cancels := make([]context.CancelFunc, o.nodes)
	for i := 0; i < o.nodes; i++ {
		local, err := jobs.NewCache(1024, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "selftest: node cache: %v\n", err)
			return 2
		}
		ex := jobs.NewExecutor(jobs.Config{
			Workers: o.nodePool,
			Cache:   jobs.NewTieredCache(local, fabric.NewRemoteCache(base)),
		})
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			Name:           fmt.Sprintf("node-%d", i),
			CoordAddr:      fln.Addr().String(),
			Executor:       ex,
			HeartbeatEvery: 100 * time.Millisecond,
			ReconnectDelay: 100 * time.Millisecond,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "selftest: worker: %v\n", err)
			return 2
		}
		wctx, wcancel := context.WithCancel(ctx)
		cancels[i] = wcancel
		go func() { _ = w.Run(wctx) }()
		select {
		case <-w.Ready():
		case <-time.After(10 * time.Second):
			fmt.Fprintf(os.Stderr, "selftest: worker node-%d never registered\n", i)
			return 2
		}
	}

	// Fail-stop injection: once a third of the shards have committed, kill
	// node-0's connection. The coordinator must fail it and re-dispatch its
	// uncommitted shards without disturbing the merged result.
	failstopFired := make(chan bool, 1)
	stopInjector := make(chan struct{})
	if o.failstop && o.nodes > 1 {
		go func() {
			threshold := uint64(len(specs) / 3)
			if threshold == 0 {
				threshold = 1
			}
			for {
				if coord.Metrics().ShardsCompleted >= threshold {
					cancels[0]()
					log.Printf("selftest: fail-stop injected on node-0 after %d shards", threshold)
					failstopFired <- true
					return
				}
				select {
				case <-stopInjector:
					failstopFired <- false
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
		}()
	} else {
		failstopFired <- false
	}

	t1 := time.Now()
	cells, err := coord.CellBytes(ctx, specs)
	wallFabric := time.Since(t1)
	close(stopInjector)
	fired := <-failstopFired
	if err != nil {
		fmt.Fprintf(os.Stderr, "selftest: fabric sweep: %v\n", err)
		return 1
	}
	fabricFP := fabric.Fingerprint(cells)
	match := fabricFP == localFP

	// Second pass: every cell must now be answered from the shared tier.
	t2 := time.Now()
	cells2, err := coord.CellBytes(ctx, specs)
	wallSecond := time.Since(t2)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selftest: second pass: %v\n", err)
		return 1
	}
	secondMatch := fabric.Fingerprint(cells2) == localFP
	m := coord.Metrics()

	lats := coord.ShardLatencies()
	art := selftestArtifact{
		System:            o.system,
		Seed:              o.seed,
		Scale:             o.scale,
		Cells:             len(specs),
		Nodes:             o.nodes,
		Failstop:          o.failstop,
		FailstopFired:     fired,
		SingleNode:        localFP,
		Fabric:            fabricFP,
		Match:             match,
		SecondPassMatch:   secondMatch,
		RemoteCacheHits:   m.RemoteHits,
		Metrics:           m,
		ShardLatencyCount: len(lats),
		ShardLatencyP50Ms: percentile(lats, 0.50) * 1e3,
		ShardLatencyP99Ms: percentile(lats, 0.99) * 1e3,
		ShardLatencyMaxMs: percentile(lats, 1.0) * 1e3,
		ShardLatenciesSec: lats,
		WallSingleNodeMs:  float64(wallLocal) / float64(time.Millisecond),
		WallFabricMs:      float64(wallFabric) / float64(time.Millisecond),
		WallSecondPassMs:  float64(wallSecond) / float64(time.Millisecond),
	}
	if o.outPath != "" {
		blob, _ := json.MarshalIndent(art, "", "  ")
		if err := os.WriteFile(o.outPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "selftest: writing artifact: %v\n", err)
			return 2
		}
		log.Printf("selftest: artifact written to %s", o.outPath)
	}

	log.Printf("selftest: single-node %s", localFP)
	log.Printf("selftest: fabric      %s (%d workers, failstop fired=%v)", fabricFP, o.nodes, fired)
	log.Printf("selftest: shards=%d redispatches=%d hedges=%d duplicates=%d remote_hits=%d",
		m.ShardsCompleted, m.Redispatches, m.HedgesFired, m.Duplicates, m.RemoteHits)

	code := 0
	if !match {
		fmt.Fprintln(os.Stderr, "selftest: FAIL: fabric fingerprint does not match single-node")
		code = 1
	}
	if !secondMatch {
		fmt.Fprintln(os.Stderr, "selftest: FAIL: second-pass fingerprint does not match single-node")
		code = 1
	}
	if m.RemoteHits == 0 {
		fmt.Fprintln(os.Stderr, "selftest: FAIL: second pass produced no shared-cache hits")
		code = 1
	}
	if o.failstop && o.nodes > 1 && fired && m.Redispatches == 0 && m.Duplicates == 0 {
		// The killed node's uncommitted shards must have moved somewhere;
		// either a re-dispatch happened or every one of its shards had
		// already committed (in which case duplicates may also be zero and
		// the kill landed after the sweep — fired would normally be false).
		log.Printf("selftest: note: fail-stop fired but no re-dispatches were needed")
	}

	if o.writeFP && o.fpPath != "" {
		blob, _ := json.MarshalIndent(fingerprintFile{
			System: o.system, Seed: o.seed, Scale: o.scale,
			Cells: len(specs), Fingerprint: localFP,
		}, "", "  ")
		if err := os.WriteFile(o.fpPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "selftest: writing fingerprint: %v\n", err)
			return 2
		}
		log.Printf("selftest: fingerprint written to %s", o.fpPath)
	} else if o.fpPath != "" {
		blob, err := os.ReadFile(o.fpPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selftest: reading fingerprint file: %v\n", err)
			return 2
		}
		var want fingerprintFile
		if err := json.Unmarshal(blob, &want); err != nil {
			fmt.Fprintf(os.Stderr, "selftest: parsing fingerprint file: %v\n", err)
			return 2
		}
		if want.System != o.system || want.Seed != o.seed || want.Scale != o.scale {
			fmt.Fprintf(os.Stderr,
				"selftest: FAIL: fingerprint file is for %s/seed=%d/scale=%g, ran %s/seed=%d/scale=%g\n",
				want.System, want.Seed, want.Scale, o.system, o.seed, o.scale)
			code = 1
		} else if want.Fingerprint != fabricFP {
			fmt.Fprintf(os.Stderr, "selftest: FAIL: committed fingerprint %s != fabric %s\n",
				want.Fingerprint, fabricFP)
			code = 1
		} else {
			log.Printf("selftest: committed fingerprint matches")
		}
	}

	if code == 0 {
		log.Printf("selftest: PASS")
	}
	return code
}

// sweepMatrix mirrors core.Sweep's spec construction (kernels x variants,
// one seed) so the fabric is exercised on exactly the default matrix.
func sweepMatrix(sys core.System, seed uint64, scale float64) []core.Spec {
	var specs []core.Spec
	for _, name := range kernels.Names() {
		for _, v := range wsrt.Variants {
			specs = append(specs, core.Spec{
				Kernel: name, System: sys, Variant: v,
				Seed: seed, Scale: scale,
			})
		}
	}
	return specs
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	s := make([]float64, len(sorted))
	copy(s, sorted)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}
