package router

// Router-level counters, served as JSON on the router's /v1/metrics
// together with the per-replica breaker/probe snapshots.

import "sync/atomic"

// metrics accumulates router counters (atomics: the hot path never
// takes a lock for bookkeeping).
type metrics struct {
	proxied     atomic.Int64 // requests that reached a replica and returned to the client
	retries     atomic.Int64 // extra attempts after a retriable failure
	unavailable atomic.Int64 // fast 503s: no replica available (all open/down/draining)
	exhausted   atomic.Int64 // 503s after the retry budget ran out
	badGateway  atomic.Int64 // 502s: non-retriable transport failure
}

// RouterCounters is the JSON shape of the router-level counters.
type RouterCounters struct {
	Proxied     int64 `json:"proxied"`
	Retries     int64 `json:"retries"`
	Unavailable int64 `json:"unavailable"`
	Exhausted   int64 `json:"exhausted"`
	BadGateway  int64 `json:"bad_gateway"`
}

func (m *metrics) counters() RouterCounters {
	return RouterCounters{
		Proxied:     m.proxied.Load(),
		Retries:     m.retries.Load(),
		Unavailable: m.unavailable.Load(),
		Exhausted:   m.exhausted.Load(),
		BadGateway:  m.badGateway.Load(),
	}
}

// MetricsSnapshot is the router's /v1/metrics body.
type MetricsSnapshot struct {
	Router   RouterCounters  `json:"router"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// Metrics snapshots the router counters and every replica's state.
func (rt *Router) Metrics() MetricsSnapshot {
	s := MetricsSnapshot{Router: rt.metrics.counters()}
	for _, r := range rt.replicas {
		s.Replicas = append(s.Replicas, r.status())
	}
	return s
}
