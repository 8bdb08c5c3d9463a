package registry

// Per-model serving metrics: enough to see whether micro-batching is
// working (request count, batch-size histogram, tail latency) without
// any external tooling — /v1/metrics serialises a Snapshot per model.

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// latencyRing is the capacity of the per-model latency ring buffer. 512
// samples is enough for a stable p99 while keeping the snapshot sort
// cheap.
const latencyRing = 512

// histBuckets are the power-of-two batch-size buckets: 1, 2, 3-4, 5-8,
// 9-16, 17-32, 33-64, 65+.
const histBuckets = 8

// bucketLabels name the histogram buckets in snapshots.
var bucketLabels = [histBuckets]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"}

// bucketFor maps a batch size to its histogram bucket.
func bucketFor(size int) int {
	if size < 1 {
		size = 1
	}
	b := bits.Len(uint(size - 1)) // 1→0, 2→1, 3-4→2, 5-8→3, ...
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// ewmaAlpha weights the exponentially-decaying averages behind the
// dynamic Retry-After hint: each new sample contributes 20%, so the
// hint tracks sustained shifts in load without chasing one outlier.
const ewmaAlpha = 0.2

// Metrics accumulates serving statistics for one model. All methods are
// safe for concurrent use; a nil *Metrics discards every observation.
type Metrics struct {
	mu        sync.Mutex
	requests  int64 // samples served (1 per single infer, n per batch)
	batches   int64 // runtime InferBatch invocations
	coalesced int64 // of those, micro-batcher flushes
	maxCoal   int   // largest coalesced flush
	rejected  int64 // requests shed at the admission gate (ErrOverloaded)
	timedOut  int64 // admitted requests that hit the request deadline
	inFlight  int64 // currently admitted requests (gauge)
	hist      [histBuckets]int64
	ring      [latencyRing]time.Duration
	ringN     int // samples written (may exceed latencyRing)

	// latency split: time a request spends waiting for its flush to
	// start (pending queue + plane acquisition) vs the flush compute
	// itself, each with its own percentile ring.
	queueRing   [latencyRing]time.Duration
	queueN      int
	computeRing [latencyRing]time.Duration
	computeN    int

	// maxPipeline is the deepest flush-slot occupancy observed at any
	// flush start — > 1 proves flushes really overlapped.
	maxPipeline int

	// EWMAs (in ns) behind RetryHint: how long requests currently wait
	// to start, and how often flushes currently complete.
	queueWaitEWMA float64
	flushGapEWMA  float64
	lastFlush     time.Time
}

// ObserveFlush records one runtime batch of the given size; coalesced
// marks flushes formed by the micro-batcher (as opposed to explicit
// client batches). Size 0 — a flush whose every caller had already
// cancelled — records nothing: no runtime batch ran, so counting it
// (in batches and, via bucketFor(0)→"1", the histogram) would skew
// both.
func (m *Metrics) ObserveFlush(size int, coalesced bool) {
	if m == nil || size <= 0 {
		return
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests += int64(size)
	m.batches++
	m.hist[bucketFor(size)]++
	if coalesced {
		m.coalesced++
		if size > m.maxCoal {
			m.maxCoal = size
		}
	}
	if !m.lastFlush.IsZero() {
		gap := float64(now.Sub(m.lastFlush))
		m.flushGapEWMA += ewmaAlpha * (gap - m.flushGapEWMA)
	}
	m.lastFlush = now
}

// ObserveQueueWait records how long one request waited before its flush
// started computing: pending-queue time for coalesced calls, flush-slot
// acquisition for direct batches.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueRing[m.queueN%latencyRing] = d
	m.queueN++
	m.queueWaitEWMA += ewmaAlpha * (float64(d) - m.queueWaitEWMA)
}

// ObserveCompute records one flush's runtime-batch duration — the
// compute half of the queue-wait/compute latency split.
func (m *Metrics) ObserveCompute(d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.computeRing[m.computeN%latencyRing] = d
	m.computeN++
}

// ObservePipelineDepth records the flush-slot occupancy seen at a flush
// start; the running max proves (or disproves) that flushes overlap.
func (m *Metrics) ObservePipelineDepth(depth int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if depth > m.maxPipeline {
		m.maxPipeline = depth
	}
	m.mu.Unlock()
}

// RetryHint derives a backoff suggestion for shed or timed-out requests
// from the observed load: the current queue-wait EWMA plus one observed
// flush interval — roughly when a freed slot plausibly reaches a new
// arrival. Zero when nothing has been observed yet; callers clamp to
// their protocol's sane range.
func (m *Metrics) RetryHint() time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.queueWaitEWMA + m.flushGapEWMA)
}

// ObserveAdmit records one request passing the admission gate (in-flight
// gauge up).
func (m *Metrics) ObserveAdmit() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.inFlight++
	m.mu.Unlock()
}

// ObserveDone records one admitted request finishing, successfully or
// not (in-flight gauge down).
func (m *Metrics) ObserveDone() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.inFlight--
	m.mu.Unlock()
}

// ObserveRejected records one request shed at the admission gate.
func (m *Metrics) ObserveRejected() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// ObserveTimeout records one admitted request hitting the per-request
// deadline.
func (m *Metrics) ObserveTimeout() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.timedOut++
	m.mu.Unlock()
}

// ObserveLatency records one caller-visible request latency.
func (m *Metrics) ObserveLatency(d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ring[m.ringN%latencyRing] = d
	m.ringN++
}

// Snapshot is a point-in-time copy of one model's metrics, shaped for
// JSON serialisation.
type Snapshot struct {
	// Requests is the number of samples served.
	Requests int64 `json:"requests"`
	// Batches is the number of runtime batch invocations (coalesced
	// flushes and explicit client batches alike).
	Batches int64 `json:"batches"`
	// CoalescedBatches counts flushes formed by the micro-batcher.
	CoalescedBatches int64 `json:"coalesced_batches"`
	// MaxCoalesced is the largest micro-batch flushed so far — > 1 means
	// batching is actually coalescing traffic.
	MaxCoalesced int `json:"max_coalesced"`
	// Rejected counts requests shed at the admission gate (HTTP 429).
	Rejected int64 `json:"rejected"`
	// TimedOut counts admitted requests that hit the request deadline.
	TimedOut int64 `json:"timed_out"`
	// InFlight is the currently admitted request gauge.
	InFlight int64 `json:"in_flight"`
	// BatchSizeHist buckets runtime batch sizes (keys "1", "2", "3-4",
	// ... "65+"); zero buckets are omitted.
	BatchSizeHist map[string]int64 `json:"batch_size_hist"`
	// LatencySamples is how many latencies the ring currently holds.
	LatencySamples int `json:"latency_samples"`
	// P50Ms and P99Ms are latency percentiles over the ring, in
	// milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// QueueWaitP50Ms/P99Ms split out the time requests spend waiting for
	// their flush to start; ComputeP50Ms/P99Ms are the flush compute
	// durations. Together they attribute the end-to-end latency above.
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	ComputeP50Ms   float64 `json:"compute_p50_ms"`
	ComputeP99Ms   float64 `json:"compute_p99_ms"`
	// MaxPipelineDepth is the deepest flush-slot occupancy observed at a
	// flush start — > 1 proves flushes actually overlapped.
	MaxPipelineDepth int `json:"max_pipeline_depth"`
	// RetryHintMs is the current load-derived Retry-After suggestion
	// (unclamped; 0 until traffic has been observed).
	RetryHintMs float64 `json:"retry_hint_ms"`
}

// Snapshot returns a consistent copy of the counters and the latency
// percentiles over the ring buffers.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{BatchSizeHist: map[string]int64{}}
	}
	m.mu.Lock()
	s := Snapshot{
		Requests:         m.requests,
		Batches:          m.batches,
		CoalescedBatches: m.coalesced,
		MaxCoalesced:     m.maxCoal,
		Rejected:         m.rejected,
		TimedOut:         m.timedOut,
		InFlight:         m.inFlight,
		MaxPipelineDepth: m.maxPipeline,
		RetryHintMs:      (m.queueWaitEWMA + m.flushGapEWMA) / float64(time.Millisecond),
		BatchSizeHist:    make(map[string]int64, histBuckets),
	}
	for i, n := range m.hist {
		if n > 0 {
			s.BatchSizeHist[bucketLabels[i]] = n
		}
	}
	lats, n := copyRing(&m.ring, m.ringN)
	queue, _ := copyRing(&m.queueRing, m.queueN)
	compute, _ := copyRing(&m.computeRing, m.computeN)
	m.mu.Unlock()

	s.LatencySamples = n
	s.P50Ms, s.P99Ms = ringPercentiles(lats)
	s.QueueWaitP50Ms, s.QueueWaitP99Ms = ringPercentiles(queue)
	s.ComputeP50Ms, s.ComputeP99Ms = ringPercentiles(compute)
	return s
}

// copyRing snapshots the filled part of a percentile ring. Caller holds
// m.mu.
func copyRing(ring *[latencyRing]time.Duration, written int) ([]time.Duration, int) {
	n := written
	if n > latencyRing {
		n = latencyRing
	}
	out := make([]time.Duration, n)
	copy(out, ring[:n])
	return out, n
}

// ringPercentiles sorts a ring snapshot and returns its p50/p99 in
// milliseconds (zeros when empty).
func ringPercentiles(lats []time.Duration) (p50, p99 float64) {
	n := len(lats)
	if n == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 = float64(lats[percentileIndex(n, 50)]) / float64(time.Millisecond)
	p99 = float64(lats[percentileIndex(n, 99)]) / float64(time.Millisecond)
	return p50, p99
}

// percentileIndex returns the nearest-rank index for percentile p over n
// sorted samples.
func percentileIndex(n, p int) int {
	i := (n*p + 99) / 100 // ceil(n*p/100)
	if i < 1 {
		i = 1
	}
	if i > n {
		i = n
	}
	return i - 1
}
