// Command positrond serves quantised Deep Positron artifacts over HTTP:
// load one or more versioned model files (uniform or mixed precision)
// into the serving registry, build an inference runtime and a dynamic
// micro-batcher per model, and expose the JSON API.
//
// Usage:
//
//	positrond -model iris.json                         # one model
//	positrond -model iris=iris.json -model wbc=wbc.json \
//	          -default iris -max-batch 64 \
//	          -flush-pipeline 2 -max-inflight 256 -request-timeout 2s
//
// -flush-pipeline sets the per-model flush-pipeline depth: that many
// result planes per runtime, so the fused batch kernels compute flush N
// while flush N−1's results demux and flush N+1 accumulates (1
// serialises flushes end to end; 0 selects the default, 2). The
// micro-batcher is work-conserving: a single inference flushes at once
// while a plane is free, and only requests queued behind busy planes
// share a batch of up to -max-batch.
// -max-inflight caps the requests admitted per model at once, a single
// inference and an explicit batch alike; beyond it requests are shed
// with HTTP 429.
//
// Each -model flag is either name=path or a bare path (the name is then
// derived from the file name: models/Iris.quant.json -> "Iris"). Both
// JSON and binary (.bin, trainer -format bin) artifacts load
// transparently — the format is sniffed from the bytes. The first
// -model is the default served by the /v1/infer and /v1/model aliases
// unless -default names another. Requests compute on their own
// goroutines, borrowing one of the model's -workers pooled inferers per
// batch chunk; each inferer builds its kernels, and the decode and term
// tables they read, on the first chunk that takes it.
//
// Every loaded model is fingerprinted (SHA-256 of its canonical binary
// encoding) into a content-addressed artifact store — the source of
// truth for model bytes: /v1/models serves the hash as an ETag
// (If-None-Match polls answer 304), same-hash loads under different
// names share one stored blob and one runtime, and -store-dir makes the
// store durable on disk (warm restarts, byte-verified reads):
//
//	positrond -model iris.quant.bin -store-dir /var/lib/positron/artifacts
//
// -peers composes a read-only peer-fetch tier under the local store:
// a model loaded by hash (POST /v1/models {"name":..., "hash":...})
// whose bytes are missing locally is pulled from a peer's
// GET /v1/artifacts/{hash}, re-hash verified, persisted into the local
// tiers, and served — so a replica may boot with no -model flags at all
// and an empty -store-dir, then be populated over HTTP:
//
//	positrond -addr :8081 -store-dir /var/lib/positron/artifacts \
//	          -peers 127.0.0.1:8080,127.0.0.1:8082
//
// -store-gc runs a reference-aware sweep on that interval (also
// available on demand via POST /v1/store/gc): blobs no loaded model or
// in-flight load references are removed, which is how bytes stranded by
// DELETE /v1/models/{name} get reclaimed.
//
// Router mode fronts a set of replicas instead of serving models
// itself: health-probed, circuit-broken, retrying proxy with
// least-queue-depth placement and consistent-hash model affinity:
//
//	positrond -route 127.0.0.1:8081,127.0.0.1:8082 -addr :8080 \
//	          -retries 2 -breaker-threshold 3 -breaker-cooldown 2s \
//	          -probe-interval 1s
//
// Deterministic fault injection (for chaos drills; see internal/faults
// for the rule grammar) wraps whichever plane is serving:
//
//	positrond -model iris.json -fault 'error=503@p=0.2' \
//	          -fault '/v1/models/iris/infer:latency=50ms@p=0.3' -fault-seed 42
//
// Opt-in profiling serves the net/http/pprof endpoints on a separate
// listener (off by default; keep it firewalled):
//
//	positrond -model iris.json -pprof 127.0.0.1:6060
//
// Endpoints:
//
//	GET    /healthz                  liveness probe (503 once draining)
//	GET    /readyz                   readiness probe
//	GET    /v1/models                list loaded models
//	POST   /v1/models                load {"name":..., "path":...},
//	                                 {"name":..., "artifact":{...}} or
//	                                 {"name":..., "hash":"<sha256>"}
//	GET    /v1/models/{name}         model metadata and stats
//	DELETE /v1/models/{name}         graceful unload
//	GET    /v1/artifacts/{hash}      raw canonical artifact bytes (ETag = hash)
//	POST   /v1/store/gc              sweep unreferenced artifact blobs
//	POST   /v1/models/{name}/infer   {"input": [...]} or {"inputs": [[...], ...]}
//	GET    /v1/metrics               per-model batching and latency metrics
//	                                 (per-replica breaker state in router mode)
//	GET    /v1/model, POST /v1/infer default-model aliases
//
// SIGINT/SIGTERM shut the daemon down gracefully: /healthz flips to 503
// first (so routers and load balancers drain away), the listener stops
// accepting, in-flight requests finish, then every model's runtime
// closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact/store"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/server"
)

// modelFlag is one -model value: an optional name and an artifact path.
type modelFlag struct {
	name, path string
}

// modelFlags collects repeated -model values.
type modelFlags []modelFlag

func (m *modelFlags) String() string {
	parts := make([]string, len(*m))
	for i, f := range *m {
		parts[i] = f.name + "=" + f.path
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		path = v
		name = deriveName(v)
	}
	if name == "" || path == "" {
		return fmt.Errorf("want name=path or path, got %q", v)
	}
	*m = append(*m, modelFlag{name: name, path: path})
	return nil
}

// stringFlags collects a repeatable string flag (-fault).
type stringFlags []string

func (s *stringFlags) String() string { return strings.Join(*s, ",") }
func (s *stringFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// deriveName turns an artifact path into a model name:
// models/Iris.quant.json -> "Iris".
func deriveName(path string) string {
	name := filepath.Base(path)
	name = strings.TrimSuffix(name, filepath.Ext(name))
	name = strings.TrimSuffix(name, ".quant")
	return name
}

func main() {
	var models modelFlags
	var faultSpecs stringFlags
	flag.Var(&models, "model", "name=path (or path) of a saved model artifact; repeatable (required unless -route)")
	defaultModel := flag.String("default", "", "model served by the /v1/infer and /v1/model aliases (default: the first -model)")
	modelDir := flag.String("model-dir", "",
		"directory POST /v1/models path loads may read artifacts from (default: the first -model's directory; uploads are always allowed)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "per-model inferer count: batch chunks of one model that compute at once, each on its request's goroutine (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", registry.DefaultMaxBatch,
		"largest coalesced batch: a single inference flushes at once while a flush plane is free, and a finishing flush takes up at most this many of the requests queued behind busy planes")
	flushPipeline := flag.Int("flush-pipeline", engine.DefaultFlushPipeline,
		"flush-pipeline depth: result planes per model, so flush N computes while flush N-1 demuxes and N+1 accumulates (1 serialises flushes; 0 = the default)")
	maxInFlight := flag.Int("max-inflight", 0,
		"per-model cap on concurrently admitted inference requests, a single inference and an explicit batch counting one each; beyond it requests are shed with HTTP 429 (0 = unlimited)")
	requestTimeout := flag.Duration("request-timeout", 0,
		"per-request deadline covering batching and queueing; exceeded requests get HTTP 503 instead of hanging (0 = none)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second,
		"grace period for in-flight requests on shutdown")
	storeDir := flag.String("store-dir", "",
		"durable content-addressed artifact store directory: loaded artifacts persist there by SHA-256 with an in-memory read cache (empty = in-memory only)")
	peers := flag.String("peers", "",
		"comma-separated peer base URLs; artifacts missing locally are fetched by hash from a peer's GET /v1/artifacts/{hash}, verified, and cached into the local store tiers")
	storeGC := flag.Duration("store-gc", 0,
		"run a reference-aware artifact store sweep on this interval, removing blobs no loaded model references (0 disables; POST /v1/store/gc is always available)")

	// Router mode.
	route := flag.String("route", "",
		"comma-separated replica addresses; run as a resilient routing tier instead of serving models (mutually exclusive with -model)")
	probeInterval := flag.Duration("probe-interval", time.Second, "router: delay between replica health probes")
	probeTimeout := flag.Duration("probe-timeout", 500*time.Millisecond, "router: per-probe timeout (a timed-out probe counts as a breaker failure)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "router: consecutive failures that open a replica's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "router: how long an open breaker sheds load before a half-open trial")
	retries := flag.Int("retries", 2, "router: extra attempts after a retriable failure (0 disables)")
	retryBackoff := flag.Duration("retry-backoff", 10*time.Millisecond, "router: exponential-backoff base for the full-jitter retry delay")
	retryBackoffMax := flag.Duration("retry-backoff-max", 250*time.Millisecond, "router: cap on the retry backoff delay")

	// Fault injection (chaos drills), applies to either mode.
	flag.Var(&faultSpecs, "fault",
		"deterministic fault-injection rule, e.g. 'error=503@p=0.2', '/v1/infer:latency=50ms@p=0.3', 'drop@p=0.1'; repeatable")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault-injection schedule")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof profiling endpoints on this separate address, e.g. 127.0.0.1:6060 (off by default; never expose publicly)")
	flag.Parse()

	startPprof(*pprofAddr)

	faultRules, err := faults.ParseRules(faultSpecs)
	if err != nil {
		fatal(err)
	}

	if *route != "" {
		if len(models) > 0 {
			fatal(errors.New("-route and -model are mutually exclusive: a router proxies, it does not serve models"))
		}
		runRouter(*route, *addr, routerConfig{
			probeInterval:    *probeInterval,
			probeTimeout:     *probeTimeout,
			breakerThreshold: *breakerThreshold,
			breakerCooldown:  *breakerCooldown,
			retries:          *retries,
			backoffBase:      *retryBackoff,
			backoffMax:       *retryBackoffMax,
			shutdownTimeout:  *shutdownTimeout,
		}, faultRules, *faultSeed)
		return
	}

	var peerURLs []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerURLs = append(peerURLs, p)
		}
	}
	if len(models) == 0 && len(peerURLs) == 0 {
		fmt.Fprintln(os.Stderr, "positrond: at least one -model is required (or -peers to join empty, or -route for router mode)")
		flag.Usage()
		os.Exit(2)
	}

	regOpts := []registry.Option{
		registry.WithRuntimeOptions(
			engine.WithWorkers(*workers),
			engine.WithFlushPipeline(*flushPipeline),
		),
		registry.WithMaxBatch(*maxBatch),
		registry.WithMaxInFlight(*maxInFlight),
		registry.WithRequestTimeout(*requestTimeout),
	}
	// Store composition: local tiers first (mem, optionally mem-over-disk),
	// then the read-only peer-fetch tier as the slowest layer — a local
	// miss pulls from a peer, verifies, and persists into the local tiers.
	var local store.Store = store.NewMem()
	if *storeDir != "" {
		disk, err := store.NewDisk(*storeDir)
		if err != nil {
			fatal(fmt.Errorf("opening artifact store: %w", err))
		}
		local = store.NewUnion(local, disk)
	}
	if *storeDir != "" || len(peerURLs) > 0 {
		st := local
		if len(peerURLs) > 0 {
			st = store.NewUnion(local, store.NewRemote(peerURLs))
		}
		regOpts = append(regOpts, registry.WithStore(st))
	}
	reg := registry.New(regOpts...)
	for _, mf := range models {
		if err := reg.LoadPath(mf.name, mf.path); err != nil {
			fatal(err)
		}
	}
	def := *defaultModel
	if def == "" && len(models) > 0 {
		def = models[0].name
	}
	if def != "" {
		if _, err := reg.Stat(def); err != nil {
			fatal(fmt.Errorf("default model %q is not among the loaded models", def))
		}
	}
	dir := *modelDir
	if dir == "" && len(models) > 0 {
		dir = filepath.Dir(models[0].path)
	}
	var srvOpts []server.Option
	if dir != "" {
		srvOpts = append(srvOpts, server.WithModelDir(dir))
	}
	srv := server.New(reg, def, srvOpts...)

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: withFaults(srv, faultRules, *faultSeed),
		// Slow-client hardening: a stalled peer must not pin a goroutine
		// and descriptor forever. Bodies are bounded (server.MaxBodyBytes /
		// server.MaxArtifactBytes).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	for _, stat := range reg.Stats() {
		marker := " "
		if stat.Name == def {
			marker = "*"
		}
		fmt.Printf("positrond: %s %-20s %s (%s, %d features -> %d classes, %d workers, max batch %d, flush pipeline %d, sha256:%.12s)\n",
			marker, stat.Name, stat.Model, stat.Kind, stat.InputDim, stat.OutputDim,
			stat.Workers, stat.MaxBatch, stat.FlushPipeline, stat.ContentHash)
	}
	if *storeDir != "" {
		st := reg.StoreStats()
		fmt.Printf("positrond: artifact store %s: %d object(s), %d bytes\n", *storeDir, st.Objects, st.Bytes)
	}
	if len(peerURLs) > 0 {
		fmt.Printf("positrond: peer artifact fetch from %d peer(s): %s\n", len(peerURLs), strings.Join(peerURLs, ", "))
	}
	if *storeGC > 0 {
		fmt.Printf("positrond: artifact store GC every %s\n", *storeGC)
	}
	if *maxInFlight > 0 || *requestTimeout > 0 {
		fmt.Printf("positrond: admission control: max in-flight %d (0 = unlimited), request timeout %s\n",
			*maxInFlight, *requestTimeout)
	}
	if len(faultRules) > 0 {
		fmt.Printf("positrond: fault injection ACTIVE (%d rule(s), seed %d)\n", len(faultRules), *faultSeed)
	}
	fmt.Printf("positrond: serving %d model(s) on %s\n", reg.Len(), *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *storeGC > 0 {
		go func() {
			tick := time.NewTicker(*storeGC)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if removed, freed, err := reg.GC(); err != nil {
						fmt.Fprintln(os.Stderr, "positrond: store gc:", err)
					} else if removed > 0 {
						fmt.Printf("positrond: store gc removed %d blob(s), %d bytes\n", removed, freed)
					}
				}
			}
		}()
	}
	select {
	case <-ctx.Done():
		fmt.Println("positrond: shutting down...")
		// Flip /healthz to 503 before closing the listener so routers
		// and load balancers drain away instead of eating resets.
		srv.BeginShutdown()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "positrond: shutdown:", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("positrond: bye")
}

// routerConfig carries the router-mode flag values.
type routerConfig struct {
	probeInterval    time.Duration
	probeTimeout     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	retries          int
	backoffBase      time.Duration
	backoffMax       time.Duration
	shutdownTimeout  time.Duration
}

// runRouter runs positrond as the resilient routing tier.
func runRouter(route, addr string, cfg routerConfig, faultRules []faults.Rule, faultSeed uint64) {
	var addrs []string
	for _, a := range strings.Split(route, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	rt, err := router.New(addrs,
		router.WithProbeInterval(cfg.probeInterval),
		router.WithProbeTimeout(cfg.probeTimeout),
		router.WithBreakerThreshold(cfg.breakerThreshold),
		router.WithBreakerCooldown(cfg.breakerCooldown),
		router.WithMaxRetries(cfg.retries),
		router.WithBackoff(cfg.backoffBase, cfg.backoffMax),
	)
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           withFaults(rt, faultRules, faultSeed),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	fmt.Printf("positrond: routing across %d replica(s): %s\n", len(addrs), strings.Join(addrs, ", "))
	fmt.Printf("positrond: breaker threshold %d cooldown %s, retries %d (backoff %s..%s), probe every %s\n",
		cfg.breakerThreshold, cfg.breakerCooldown, cfg.retries, cfg.backoffBase, cfg.backoffMax,
		cfg.probeInterval)
	if len(faultRules) > 0 {
		fmt.Printf("positrond: fault injection ACTIVE (%d rule(s), seed %d)\n", len(faultRules), faultSeed)
	}
	fmt.Printf("positrond: router listening on %s\n", addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("positrond: shutting down...")
		rt.BeginShutdown()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "positrond: shutdown:", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
	rt.Close()
	fmt.Println("positrond: bye")
}

// startPprof serves the net/http/pprof endpoints on their own listener
// when -pprof names an address. Profiling stays off the serving port so
// operators can firewall it separately; an explicit mux keeps anything
// else registered on http.DefaultServeMux from leaking out with it.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "positrond: pprof listener:", err)
		}
	}()
	fmt.Printf("positrond: pprof profiling on http://%s/debug/pprof/\n", addr)
}

// withFaults wraps h in the fault injector when rules are configured.
func withFaults(h http.Handler, rules []faults.Rule, seed uint64) http.Handler {
	if len(rules) == 0 {
		return h
	}
	return faults.New(seed, rules...).Wrap(h)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "positrond:", err)
	os.Exit(1)
}
