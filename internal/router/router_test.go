package router

// Integration tests: real httptest replicas behind a Router, with
// deterministic seeds and hand-driven probes (background probing is
// disabled via withoutProbes so no goroutine races the assertions).

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// fakeReplica is a scriptable positrond stand-in: health endpoints plus
// a configurable infer route.
type fakeReplica struct {
	ts *httptest.Server

	mu           sync.Mutex
	infers       int
	healthStatus int
	queueLen     int
	queueCap     int
	inferFn      func(n int, w http.ResponseWriter, r *http.Request)
}

func newFakeReplica(inferFn func(n int, w http.ResponseWriter, r *http.Request)) *fakeReplica {
	f := &fakeReplica{healthStatus: http.StatusOK, queueCap: 64, inferFn: inferFn}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		status := f.healthStatus
		f.mu.Unlock()
		writeJSON(w, status, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		qLen, qCap := f.queueLen, f.queueCap
		f.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{
			"models": []map[string]any{{"queue_len": qLen, "queue_cap": qCap}},
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.infers++
		n := f.infers
		fn := f.inferFn
		f.mu.Unlock()
		fn(n, w, r)
	})
	f.ts = httptest.NewServer(mux)
	return f
}

func (f *fakeReplica) inferCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.infers
}

func (f *fakeReplica) setHealth(status int) {
	f.mu.Lock()
	f.healthStatus = status
	f.mu.Unlock()
}

func (f *fakeReplica) setQueue(qLen, qCap int) {
	f.mu.Lock()
	f.queueLen, f.queueCap = qLen, qCap
	f.mu.Unlock()
}

func ok200(n int, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"result": "ok"})
}

func newTestRouter(t *testing.T, addrs []string, opts ...Option) *Router {
	t.Helper()
	opts = append([]Option{withoutProbes(), WithSeed(1), WithBackoff(0, 0)}, opts...)
	rt, err := New(addrs, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// modelPreferring finds a model name whose rendezvous affinity is the
// given replica address, so tests control which replica is tried first.
func modelPreferring(t *testing.T, rt *Router, addr string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		m := fmt.Sprintf("model-%d", i)
		if rt.rank(m)[0].addr() == addr {
			return m
		}
	}
	t.Fatalf("no model name prefers %s", addr)
	return ""
}

// deadAddr returns an address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func inferVia(t *testing.T, rt *Router, model string) *http.Response {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/models/"+model+"/infer",
		strings.NewReader(`{"input":[1,2,3,4]}`))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec.Result()
}

func TestRetryOn503ThenSuccess(t *testing.T) {
	// Replica 503s once (admission shedding), then accepts. The router
	// must absorb the 503 and deliver the eventual 200.
	rep := newFakeReplica(func(n int, w http.ResponseWriter, r *http.Request) {
		if n == 1 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "queue full"})
			return
		}
		ok200(n, w, r)
	})
	defer rep.ts.Close()

	rt := newTestRouter(t, []string{rep.ts.URL}, WithMaxRetries(2), WithBreakerThreshold(5))
	resp := inferVia(t, rt, "iris")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := rt.Metrics().Router.Retries; got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := rep.inferCount(); got != 2 {
		t.Fatalf("replica saw %d infer calls, want 2", got)
	}
}

func TestNeverRetries4xx(t *testing.T) {
	// A 4xx is the replica's verdict on the request; replaying it is
	// wasted work and can mask client bugs.
	rep := newFakeReplica(func(n int, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad input"})
	})
	defer rep.ts.Close()

	rt := newTestRouter(t, []string{rep.ts.URL}, WithMaxRetries(3))
	resp := inferVia(t, rt, "iris")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 forwarded", resp.StatusCode)
	}
	if got := rep.inferCount(); got != 1 {
		t.Fatalf("replica saw %d infer calls, want exactly 1 (no retries on 4xx)", got)
	}
	if got := rt.Metrics().Router.Retries; got != 0 {
		t.Fatalf("retries = %d, want 0", got)
	}
}

func TestFailoverToHealthyReplica(t *testing.T) {
	// Affinity points at a dead address; the retry must fail over to the
	// live replica and the dead one's breaker must open.
	live := newFakeReplica(ok200)
	defer live.ts.Close()
	dead := deadAddr(t)

	rt := newTestRouter(t, []string{dead, live.ts.URL},
		WithMaxRetries(2), WithBreakerThreshold(1), WithBreakerCooldown(time.Hour))
	model := modelPreferring(t, rt, "http://"+dead)

	resp := inferVia(t, rt, model)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 after failover", resp.StatusCode)
	}
	if got := rt.Metrics().Router.Retries; got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	var deadState string
	for _, r := range rt.Metrics().Replicas {
		if r.Addr == "http://"+dead {
			deadState = r.State
		}
	}
	if deadState != "open" {
		t.Fatalf("dead replica breaker state = %q, want open", deadState)
	}

	// With the breaker open, the next request must go straight to the
	// live replica: no retry needed, no attempt against the dead one.
	before := rt.Metrics().Router.Retries
	resp = inferVia(t, rt, model)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 with breaker open", resp.StatusCode)
	}
	if got := rt.Metrics().Router.Retries; got != before {
		t.Fatalf("retries grew to %d, want %d (open breaker should skip the dead replica)", got, before)
	}
}

func TestAllReplicasDownFast503(t *testing.T) {
	dead1, dead2 := deadAddr(t), deadAddr(t)
	rt := newTestRouter(t, []string{dead1, dead2},
		WithMaxRetries(1), WithBreakerThreshold(1), WithBreakerCooldown(30*time.Second))

	// First request pays the dial failures and opens both breakers.
	resp := inferVia(t, rt, "iris")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 must carry Retry-After")
	}

	// Second request must be shed fast: both breakers open, no dialing.
	start := time.Now()
	resp = inferVia(t, rt, "iris")
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "30" {
		t.Fatalf("Retry-After = %q, want %q", resp.Header.Get("Retry-After"), "30")
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("degraded 503 took %v, want fast-path rejection", elapsed)
	}
	if got := rt.Metrics().Router.Unavailable; got == 0 {
		t.Fatal("unavailable counter must count fast 503s")
	}
}

func TestExhaustedForwardsUpstream503(t *testing.T) {
	rep := newFakeReplica(func(n int, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "queue full"})
	})
	defer rep.ts.Close()

	rt := newTestRouter(t, []string{rep.ts.URL}, WithMaxRetries(2), WithBreakerThreshold(10))
	resp := inferVia(t, rt, "iris")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("exhausted 503 must carry Retry-After")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("body %q should forward the upstream 503 payload", body)
	}
	if got := rep.inferCount(); got != 3 {
		t.Fatalf("replica saw %d attempts, want 3 (1 + 2 retries)", got)
	}
	if got := rt.Metrics().Router.Exhausted; got != 1 {
		t.Fatalf("exhausted = %d, want 1", got)
	}
}

func TestAffinityIsStable(t *testing.T) {
	a := newFakeReplica(ok200)
	b := newFakeReplica(ok200)
	defer a.ts.Close()
	defer b.ts.Close()

	rt := newTestRouter(t, []string{a.ts.URL, b.ts.URL})
	model := modelPreferring(t, rt, a.ts.URL)
	for i := 0; i < 8; i++ {
		resp := inferVia(t, rt, model)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Positron-Replica"); got != a.ts.URL {
			t.Fatalf("request %d served by %q, want affinity replica %q", i, got, a.ts.URL)
		}
	}
	if got := b.inferCount(); got != 0 {
		t.Fatalf("non-affinity replica saw %d requests, want 0", got)
	}
}

func TestSpillsWhenAffinityReplicaSaturated(t *testing.T) {
	a := newFakeReplica(ok200)
	b := newFakeReplica(ok200)
	defer a.ts.Close()
	defer b.ts.Close()

	rt := newTestRouter(t, []string{a.ts.URL, b.ts.URL})
	model := modelPreferring(t, rt, a.ts.URL)

	// Probe says the home replica's queue is over half full while the
	// other is idle: the picker must spill.
	a.setQueue(60, 64)
	b.setQueue(0, 64)
	for _, rep := range rt.replicas {
		rt.probe(rep)
	}
	resp := inferVia(t, rt, model)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Positron-Replica"); got != b.ts.URL {
		t.Fatalf("served by %q, want spill to least-loaded %q", got, b.ts.URL)
	}
}

func TestDrainingReplicaRoutedAround(t *testing.T) {
	a := newFakeReplica(ok200)
	b := newFakeReplica(ok200)
	defer a.ts.Close()
	defer b.ts.Close()

	rt := newTestRouter(t, []string{a.ts.URL, b.ts.URL}, WithBreakerThreshold(3))
	model := modelPreferring(t, rt, a.ts.URL)

	// The affinity replica starts a graceful shutdown: /healthz flips to
	// 503. After a probe round the router must route around it — without
	// tripping its breaker (drain is not a fault).
	a.setHealth(http.StatusServiceUnavailable)
	for _, rep := range rt.replicas {
		rt.probe(rep)
	}
	resp := inferVia(t, rt, model)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via the remaining replica", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Positron-Replica"); got != b.ts.URL {
		t.Fatalf("served by %q, want %q (drain routed around)", got, b.ts.URL)
	}
	for _, r := range rt.Metrics().Replicas {
		if r.Addr == a.ts.URL {
			if !r.Draining {
				t.Fatal("replica a should be marked draining")
			}
			if r.State != "closed" {
				t.Fatalf("draining replica breaker = %q, want closed (drain is not a fault)", r.State)
			}
		}
	}

	// Recovery: healthz back to 200, next probe restores routing.
	a.setHealth(http.StatusOK)
	for _, rep := range rt.replicas {
		rt.probe(rep)
	}
	resp = inferVia(t, rt, model)
	if got := resp.Header.Get("X-Positron-Replica"); got != a.ts.URL {
		t.Fatalf("served by %q, want recovered affinity replica %q", got, a.ts.URL)
	}
}

func TestProbeFailureOpensBreaker(t *testing.T) {
	// A probe against a dead replica must trip the breaker on its own —
	// threshold failures, no client request involved.
	dead := deadAddr(t)
	rt := newTestRouter(t, []string{dead},
		WithBreakerThreshold(2), WithProbeTimeout(200*time.Millisecond))
	for i := 0; i < 2; i++ {
		rt.probe(rt.replicas[0])
	}
	st := rt.Metrics().Replicas[0]
	if st.State != "open" {
		t.Fatalf("breaker state after failed probes = %q, want open", st.State)
	}
	if st.Healthy {
		t.Fatal("replica must be marked unhealthy after a failed probe")
	}
	if st.LastProbeError == "" {
		t.Fatal("last_probe_error should record the probe failure")
	}
}

func TestRouterOwnEndpoints(t *testing.T) {
	rep := newFakeReplica(ok200)
	defer rep.ts.Close()
	rt := newTestRouter(t, []string{rep.ts.URL})

	get := func(path string) *http.Response {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Result()
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
	if resp := get("/v1/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d, want 200", resp.StatusCode)
	}

	// BeginShutdown flips the router's own healthz/readyz to 503 (the
	// drain signal for whatever fronts the router), but proxying and
	// metrics keep working while in-flight traffic finishes.
	rt.BeginShutdown()
	if resp := get("/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	if resp := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if resp := get("/v1/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining metrics = %d, want 200", resp.StatusCode)
	}
	if resp := inferVia(t, rt, "iris"); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining proxy = %d, want 200 (in-flight traffic still served)", resp.StatusCode)
	}
}

func TestReadyzUnavailableWhenAllReplicasDown(t *testing.T) {
	dead := deadAddr(t)
	rt := newTestRouter(t, []string{dead}, WithProbeTimeout(200*time.Millisecond))
	rt.probe(rt.replicas[0])
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503 with zero routable replicas", rec.Code)
	}
}

func TestRetriesThroughInjectedFaults(t *testing.T) {
	// A replica wrapped in the deterministic fault injector: 503s fire
	// on a fixed schedule, and the router's retry budget rides over
	// them. Seed and draw order are fixed, so this test cannot flake.
	rule, err := faults.ParseRule("/v1/models/iris/infer:error=503@p=0.5")
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	inj := faults.New(99, rule)
	inner := newFakeReplica(ok200)
	defer inner.ts.Close()
	faulty := httptest.NewServer(inj.Wrap(mustProxyHandler(t, inner.ts.URL)))
	defer faulty.Close()

	rt := newTestRouter(t, []string{faulty.URL},
		WithMaxRetries(5), WithBreakerThreshold(100))
	for i := 0; i < 20; i++ {
		resp := inferVia(t, rt, "iris")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d, want 200 (retries must absorb injected 503s)", i, resp.StatusCode)
		}
	}
	m := rt.Metrics().Router
	if m.Retries == 0 {
		t.Fatal("expected the fault schedule to force at least one retry")
	}
	if got := inj.Counts().Errors; got == 0 {
		t.Fatal("injector should have fired at least once")
	}
}

// mustProxyHandler forwards to the inner fake replica (the injector
// wraps this, exactly like positrond wraps its mux).
func mustProxyHandler(t *testing.T, target string) http.Handler {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatalf("parse %q: %v", target, err)
	}
	return httputil.NewSingleHostReverseProxy(u)
}
