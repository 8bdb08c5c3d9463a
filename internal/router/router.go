// Package router is the resilient replica-routing tier: an HTTP proxy
// that fronts N positrond replicas and hides individual replica
// failures from clients. Each replica gets a circuit breaker fed by
// both request outcomes and an active health prober ([probeLoop]);
// requests are placed by rendezvous-hash affinity on the model name
// with least-queue-depth spill ([Router.pick]); retriable failures
// (connection refused/reset, 503, probe timeout — never 4xx, never a
// non-idempotent request that may have reached the replica) are retried
// with exponential backoff and full jitter. When every replica for a
// model is open the router degrades gracefully: a fast 503 with
// Retry-After instead of a pile-up of connection timeouts.
package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/rng"
)

const (
	// maxRequestBytes bounds the buffered request body (buffering is what
	// makes retries safe to replay).
	maxRequestBytes = 32 << 20
	// maxResponseBytes bounds buffered upstream responses and probe bodies.
	maxResponseBytes = 32 << 20
)

// Router proxies inference traffic across a fixed set of replicas.
type Router struct {
	replicas []*replica
	client   *http.Client

	probeInterval time.Duration
	probeTimeout  time.Duration
	maxRetries    int
	backoffBase   time.Duration
	backoffMax    time.Duration
	cooldown      time.Duration

	rngMu sync.Mutex
	rng   *rng.Source

	metrics  metrics
	draining atomic.Bool

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// config collects option state before the replicas are built (the
// breaker parameters are per-replica and must be known first).
type config struct {
	probeInterval time.Duration
	probeTimeout  time.Duration
	threshold     int
	cooldown      time.Duration
	maxRetries    int
	backoffBase   time.Duration
	backoffMax    time.Duration
	seed          uint64
	transport     http.RoundTripper
	noProbes      bool
}

// Option customises a Router.
type Option func(*config)

// WithProbeInterval sets the delay between health-probe rounds per
// replica (default 1s).
func WithProbeInterval(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.probeInterval = d
		}
	}
}

// WithProbeTimeout bounds one probe round (default 500ms). A probe that
// times out counts as a breaker failure.
func WithProbeTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.probeTimeout = d
		}
	}
}

// WithBreakerThreshold sets how many consecutive failures open a
// replica's breaker (default 3, minimum 1).
func WithBreakerThreshold(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.threshold = n
		}
	}
}

// WithBreakerCooldown sets how long an open breaker sheds load before
// admitting a half-open trial (default 2s). It is also the Retry-After
// hint on degraded 503s.
func WithBreakerCooldown(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.cooldown = d
		}
	}
}

// WithMaxRetries bounds extra attempts after a retriable failure
// (default 2; 0 disables retries).
func WithMaxRetries(n int) Option {
	return func(c *config) {
		if n >= 0 {
			c.maxRetries = n
		}
	}
}

// WithBackoff sets the exponential-backoff base and cap for the
// full-jitter retry delay (defaults 10ms and 250ms).
func WithBackoff(base, max time.Duration) Option {
	return func(c *config) {
		c.backoffBase, c.backoffMax = base, max
	}
}

// WithSeed seeds the router's deterministic jitter source (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithTransport overrides the upstream HTTP transport (tests).
func WithTransport(t http.RoundTripper) Option {
	return func(c *config) { c.transport = t }
}

// withoutProbes disables the background probe goroutines (tests drive
// probe rounds by hand for determinism).
func withoutProbes() Option {
	return func(c *config) { c.noProbes = true }
}

// New builds a Router over the given replica addresses and starts one
// health-probe goroutine per replica. Close releases them.
func New(addrs []string, opts ...Option) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("router: no replica addresses")
	}
	cfg := config{
		probeInterval: time.Second,
		probeTimeout:  500 * time.Millisecond,
		threshold:     3,
		cooldown:      2 * time.Second,
		maxRetries:    2,
		backoffBase:   10 * time.Millisecond,
		backoffMax:    250 * time.Millisecond,
		seed:          1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.transport == nil {
		cfg.transport = &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 32,
		}
	}
	rt := &Router{
		client:        &http.Client{Transport: cfg.transport},
		probeInterval: cfg.probeInterval,
		probeTimeout:  cfg.probeTimeout,
		maxRetries:    cfg.maxRetries,
		backoffBase:   cfg.backoffBase,
		backoffMax:    cfg.backoffMax,
		cooldown:      cfg.cooldown,
		rng:           rng.New(cfg.seed),
		stop:          make(chan struct{}),
	}
	seen := make(map[string]bool, len(addrs))
	for _, addr := range addrs {
		rep, err := newReplica(addr, cfg.threshold, cfg.cooldown)
		if err != nil {
			return nil, err
		}
		if seen[rep.addr()] {
			return nil, fmt.Errorf("router: duplicate replica address %q", rep.addr())
		}
		seen[rep.addr()] = true
		rt.replicas = append(rt.replicas, rep)
	}
	if !cfg.noProbes {
		for _, rep := range rt.replicas {
			rt.wg.Add(1)
			go rt.probeLoop(rep)
		}
	}
	return rt, nil
}

// Close stops the probe goroutines and releases idle connections.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
	rt.client.CloseIdleConnections()
}

// BeginShutdown flips the router's own /healthz to 503 so an upstream
// load balancer routes away while in-flight requests finish.
func (rt *Router) BeginShutdown() { rt.draining.Store(true) }

// Draining reports whether BeginShutdown has been called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// ServeHTTP answers the router's own health/metrics endpoints and
// proxies everything else to a replica.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		if rt.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case r.URL.Path == "/readyz":
		n := 0
		for _, rep := range rt.replicas {
			if rep.routable() {
				n++
			}
		}
		if rt.draining.Load() || n == 0 {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"status": "unavailable", "routable_replicas": n})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "routable_replicas": n})
	case r.URL.Path == "/v1/metrics" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, rt.Metrics())
	default:
		rt.proxy(w, r)
	}
}

// outcome is one attempt's result: a buffered upstream response, or the
// transport error that prevented one. cancelled marks attempts whose
// context was cut (the client went away) — those say nothing about the
// replica and are never recorded against it.
type outcome struct {
	resp      *bufferedResponse
	err       error
	cancelled bool
}

// bufferedResponse is a fully read upstream response, replayable to the
// client after the attempt that produced it has been judged.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

// proxy forwards one client request with bounded retries, full-jitter
// backoff, and graceful degradation.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "reading request body: " + err.Error()})
		return
	}
	if len(body) > maxRequestBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "request body too large"})
		return
	}
	model := modelFromPath(r.URL.Path)
	idem := idempotent(r)

	tried := make(map[*replica]bool)
	var lastResp *bufferedResponse
	var lastErr error
	for attempt := 0; attempt <= rt.maxRetries; attempt++ {
		if attempt > 0 {
			rt.metrics.retries.Add(1)
			if !rt.sleepBackoff(r, attempt-1) {
				return // client gone mid-backoff
			}
		}
		rep := rt.pick(model, tried)
		if rep == nil {
			break
		}
		tried[rep] = true

		out := rt.attempt(r, body, rep)
		switch {
		case out.cancelled:
			return // client disconnected; nothing sensible to write
		case out.err != nil:
			lastErr = out.err
			if !retriable(idem, out.err) {
				// The request may have reached the replica and a replay
				// could double-apply it: surface the failure instead.
				rt.metrics.badGateway.Add(1)
				writeJSON(w, http.StatusBadGateway,
					map[string]string{"error": "upstream failure: " + out.err.Error()})
				return
			}
		case out.resp.status == http.StatusServiceUnavailable:
			lastResp = out.resp // retriable: replica shedding load
		default:
			// Success — including upstream 4xx/5xx other than 503, which
			// are the replica's verdict on the request, not a fault.
			rt.metrics.proxied.Add(1)
			rt.writeBuffered(w, out.resp, rep)
			return
		}
	}
	rt.degrade(w, lastResp, lastErr)
}

// degrade answers when every attempt failed or no replica was
// available: a fast 503 with a Retry-After hint sized to the breaker
// cooldown, forwarding the last upstream 503 body when there is one.
func (rt *Router) degrade(w http.ResponseWriter, lastResp *bufferedResponse, lastErr error) {
	retryAfter := int(rt.cooldown / time.Second)
	if retryAfter < 1 {
		retryAfter = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
	switch {
	case lastResp != nil:
		rt.metrics.exhausted.Add(1)
		for k, vs := range lastResp.header {
			if k == "Retry-After" || hopByHop(k) {
				continue
			}
			w.Header()[k] = vs
		}
		w.WriteHeader(lastResp.status)
		_, _ = w.Write(lastResp.body)
	case lastErr != nil:
		rt.metrics.exhausted.Add(1)
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "all retries failed: " + lastErr.Error()})
	default:
		rt.metrics.unavailable.Add(1)
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "no replica available"})
	}
}

// attempt sends one buffered request to one replica and buffers the
// response. It records the outcome against the replica's breaker unless
// the client's context was cancelled (a cancelled attempt proves
// nothing).
func (rt *Router) attempt(r *http.Request, body []byte, rep *replica) outcome {
	ctx := r.Context()
	rep.requests.Add(1)
	req, err := http.NewRequestWithContext(ctx, r.Method,
		rep.base.String()+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	copyHeader(req.Header, r.Header)
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return outcome{err: err, cancelled: true}
		}
		rep.failures.Add(1)
		rep.br.RecordFailure()
		return outcome{err: err}
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		if ctx.Err() != nil {
			return outcome{err: err, cancelled: true}
		}
		rep.failures.Add(1)
		rep.br.RecordFailure()
		return outcome{err: fmt.Errorf("reading upstream response: %w", err)}
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		rep.failures.Add(1)
		rep.br.RecordFailure()
	} else {
		rep.br.RecordSuccess()
	}
	return outcome{resp: &bufferedResponse{
		status: resp.StatusCode,
		header: resp.Header.Clone(),
		body:   respBody,
	}}
}

// sleepBackoff waits the full-jitter delay before retry k, returning
// false if the client went away first.
func (rt *Router) sleepBackoff(r *http.Request, k int) bool {
	rt.rngMu.Lock()
	d := backoffDelay(rt.rng, rt.backoffBase, rt.backoffMax, k)
	rt.rngMu.Unlock()
	if d <= 0 {
		return r.Context().Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.Context().Done():
		return false
	case <-t.C:
		return true
	}
}

// writeBuffered replays a buffered upstream response to the client,
// tagging which replica served it.
func (rt *Router) writeBuffered(w http.ResponseWriter, resp *bufferedResponse, rep *replica) {
	for k, vs := range resp.header {
		if hopByHop(k) {
			continue
		}
		w.Header()[k] = vs
	}
	w.Header().Set("X-Positron-Replica", rep.addr())
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// modelFromPath extracts the affinity key for rendezvous hashing:
// "/v1/models/{name}/..." → the model name, "/v1/artifacts/{hash}" →
// the content hash (so repeated fetches of one artifact hit the same
// replica's warm cache), anything else shares the "" key.
func modelFromPath(path string) string {
	for _, prefix := range []string{"/v1/models/", "/v1/artifacts/"} {
		if strings.HasPrefix(path, prefix) {
			rest := path[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return ""
}

// idempotent reports whether a request is safe to retry after it may
// have reached a replica. Reads are; so is POST .../infer — inference
// is a pure function of its input, so replaying it cannot double-apply
// anything. Everything else only retries on dial failures, which prove
// the request was never sent.
func idempotent(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodOptions:
		return true
	case http.MethodPost:
		return strings.HasSuffix(r.URL.Path, "/infer")
	default:
		return false
	}
}

// retriable classifies a transport error. Idempotent requests retry on
// any transport failure; non-idempotent ones only when the connection
// never opened (dial error / connection refused), since then the
// request provably never reached the replica.
func retriable(idem bool, err error) bool {
	if idem {
		return true
	}
	return dialError(err)
}

// dialError reports whether err happened before the request could be
// sent (the connection was never established).
func dialError(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// hopByHop filters connection-scoped headers that must not be relayed.
func hopByHop(key string) bool {
	switch http.CanonicalHeaderKey(key) {
	case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// copyHeader copies end-to-end headers from src to dst.
func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		if hopByHop(k) {
			continue
		}
		dst[http.CanonicalHeaderKey(k)] = vs
	}
}

// writeJSON writes a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
