package router

// Per-replica state: the circuit breaker plus the view the active
// health prober maintains (liveness, drain, readiness, queue
// occupancy). The router never trusts this view blindly — a replica can
// die between probes — but it is what keeps routing decisions O(1) and
// keeps dead replicas from eating a connection timeout per request.

import (
	"fmt"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// replica is one positrond backend.
type replica struct {
	base *url.URL // scheme://host:port, no trailing slash
	br   *breaker

	requests atomic.Int64 // proxied attempts sent to this replica
	failures atomic.Int64 // attempts that failed retriably (transport or 503)

	mu       sync.Mutex
	healthy  bool   // /healthz answered 200 on the last probe
	draining bool   // /healthz answered 503: graceful shutdown, route away
	ready    bool   // /readyz answered 200
	queueLen int    // summed per-model queue occupancy (waiting chunks)
	queueCap int    // summed per-model queue capacity
	probeErr string // last probe failure, "" when probing is clean
	probed   bool   // at least one probe round has completed
}

// newReplica parses addr ("host:port", "http://host:port", with an
// optional path prefix) into a replica. Before the first probe the
// replica is assumed healthy and ready, so a router can serve the
// instant it starts.
func newReplica(addr string, threshold int, cooldown time.Duration) (*replica, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return nil, fmt.Errorf("router: bad replica address %q: %w", addr, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("router: replica address %q: scheme must be http or https", addr)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("router: replica address %q has no host", addr)
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	u.RawQuery, u.Fragment = "", ""
	return &replica{
		base:    u,
		br:      newBreaker(threshold, cooldown),
		healthy: true,
		ready:   true,
	}, nil
}

// addr is the replica's canonical address string.
func (r *replica) addr() string { return r.base.String() }

// setProbe installs one probe round's findings.
func (r *replica) setProbe(healthy, draining, ready bool, queueLen, queueCap int, probeErr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.healthy, r.draining, r.ready = healthy, draining, ready
	r.queueLen, r.queueCap = queueLen, queueCap
	r.probeErr = probeErr
	r.probed = true
}

// view is a consistent copy of the probed state.
func (r *replica) view() (healthy, draining, ready bool, queueLen, queueCap int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy, r.draining, r.ready, r.queueLen, r.queueCap
}

// routable reports whether the prober considers this replica a routing
// candidate at all: alive and not draining. Readiness is a soft
// preference handled by the picker (an unready replica may still be the
// only one left), and the breaker is consulted at selection time.
func (r *replica) routable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy && !r.draining
}

// ReplicaStatus is one replica's snapshot in the router metrics.
type ReplicaStatus struct {
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	Ready    bool   `json:"ready"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	// ConsecutiveFails is the closed-state failure run feeding the
	// breaker threshold.
	ConsecutiveFails int `json:"consecutive_fails"`
	// Opens/HalfOpens/Closes count breaker transitions.
	Opens     int64 `json:"opens"`
	HalfOpens int64 `json:"half_opens"`
	Closes    int64 `json:"closes"`
	// Requests/Failures count proxied attempts sent here and the ones
	// that failed retriably.
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
	// LastProbeError is the latest probe failure ("" when clean).
	LastProbeError string `json:"last_probe_error,omitempty"`
}

// status builds the metrics snapshot.
func (r *replica) status() ReplicaStatus {
	state, fails, counts := r.br.snapshot()
	r.mu.Lock()
	s := ReplicaStatus{
		Addr:             r.addr(),
		State:            state.String(),
		Healthy:          r.healthy,
		Draining:         r.draining,
		Ready:            r.ready,
		QueueLen:         r.queueLen,
		QueueCap:         r.queueCap,
		ConsecutiveFails: fails,
		Opens:            counts.Opens,
		HalfOpens:        counts.HalfOpens,
		Closes:           counts.Closes,
		LastProbeError:   r.probeErr,
	}
	r.mu.Unlock()
	s.Requests = r.requests.Load()
	s.Failures = r.failures.Load()
	return s
}
