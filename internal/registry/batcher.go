package registry

// The dynamic micro-batcher. positrond's HTTP clients mostly send one
// sample per request, but the runtime's shared-output batch path (0
// allocs/op steady state) amortises scheduling and decode costs across a
// whole batch. By default the batcher is work-conserving, like the
// paper's EMAC pipeline, which streams each input as it arrives: a
// request that finds a free flush plane flushes at once, alone. Only
// requests arriving while every plane is busy queue, and each finishing
// flush takes up to maxBatch of them as the next flush — batch size
// follows load, not a clock.
//
// Every flush leases one of the runtime's D result planes
// (engine.AcquireFlushSlot), so flush N+1 computes while flush N's
// results are still being demultiplexed. Bit-identity is unaffected:
// samples are independent, and each flush computes into its own plane.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// ErrBatcherClosed is returned by Batcher calls after Close.
var ErrBatcherClosed = errors.New("registry: batcher closed")

// DefaultMaxBatch bounds a coalesced flush when no limit is configured.
const DefaultMaxBatch = 64

// DefaultFlushPipeline is the flush-slot plane count the registry gives
// its runtimes when none is configured: two planes — compute
// flush N while flush N−1 demuxes — captures most of the overlap win at
// one extra result plane of memory (the Langroudi et al. bounded-memory
// framing: depth is a budget, not a free variable).
const DefaultFlushPipeline = 2

// call is one in-flight single-sample request waiting for its flush.
// ctx is the caller's context: a call whose ctx is done by flush time is
// dropped from the batch instead of burning an EMAC slot computing a
// result nobody will read. enq stamps when the call joined the pending
// queue, for the queue-wait half of the latency split.
type call struct {
	ctx    context.Context
	x      []float64
	enq    time.Time
	logits []float64
	err    error
	done   chan struct{}
}

// Batcher coalesces single-sample Infer calls in front of one
// shared-output Runtime. All methods are safe for concurrent use. Every
// inference — coalesced flushes and explicit InferBatch calls alike —
// runs through a leased flush slot, and results are copied out of the
// slot's plane before it is released; with D > 1 planes, flushes
// pipeline.
type Batcher struct {
	rt       *engine.Runtime
	maxBatch int
	depth    int
	metrics  *Metrics
	inDim    int
	outDim   int

	// mu guards the pending queue, running and closed.
	mu      sync.Mutex
	pending []*call
	closed  bool

	// running counts work-conserving flushes in progress. Calls queue
	// only while running == depth, and only a flush that finds the queue
	// empty decrements it, so a queued call always has a flush to take it.
	running int

	// flights counts in-progress runtime operations (flushes and direct
	// batches). Close waits for it, so the runtime can be closed
	// afterwards without failing a flush that was mid-pipeline.
	flights sync.WaitGroup
}

// NewBatcher wraps a runtime with a micro-batcher. The runtime must be
// built with engine.WithSharedOutputs: every flush leases one of its
// flush slots, and over any other runtime every inference fails. A
// finishing flush takes up at most maxBatch queued calls (maxBatch <= 1
// flushes every call alone). metrics may be nil.
func NewBatcher(rt *engine.Runtime, maxBatch int, metrics *Metrics) *Batcher {
	m := rt.Model()
	return &Batcher{
		rt:       rt,
		maxBatch: maxBatch,
		depth:    max(rt.FlushPipelineDepth(), 1),
		metrics:  metrics,
		inDim:    m.InputDim(),
		outDim:   m.OutputDim(),
	}
}

// Runtime returns the wrapped runtime.
func (b *Batcher) Runtime() *engine.Runtime { return b.rt }

// MaxBatch returns the coalesced-flush size bound.
func (b *Batcher) MaxBatch() int { return b.maxBatch }

// Flushing returns how many work-conserving flushes are in progress,
// those still waiting for a flush plane included. Single-sample calls
// queue only while it equals the pipeline depth.
func (b *Batcher) Flushing() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.running
}

// Queued returns how many single-sample calls wait in the pending queue
// for a flush to take them up.
func (b *Batcher) Queued() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

func (b *Batcher) checkInput(x []float64) error {
	if len(x) != b.inDim {
		return fmt.Errorf("registry: input has %d features, model expects %d", len(x), b.inDim)
	}
	return nil
}

// beginOp registers one runtime operation so Close can wait out every
// in-flight flush before the registry closes the runtime underneath
// them. Fails with ErrBatcherClosed after Close.
func (b *Batcher) beginOp() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBatcherClosed
	}
	b.flights.Add(1)
	return nil
}

// Infer runs one sample. The call flushes at once if a flush plane is
// free and otherwise joins the batch the next finishing flush takes up.
// Results are demultiplexed per caller and are bit-identical to an
// unbatched call, because each inference in a batch is independent.
// Cancelling ctx abandons the wait (the flush may still compute the
// result; it is discarded). The returned slice is caller-owned.
func (b *Batcher) Infer(ctx context.Context, x []float64) ([]float64, error) {
	if err := b.checkInput(x); err != nil {
		return nil, err
	}
	start := time.Now()
	c := &call{ctx: ctx, x: x, enq: start, done: make(chan struct{})}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrBatcherClosed
	}
	if b.running < b.depth {
		// A free plane: flush this call alone, on this goroutine.
		b.running++
		b.flights.Add(1)
		b.mu.Unlock()
		b.conserve(ctx, []*call{c})
	} else {
		// Every plane is busy: a finishing flush takes this call up.
		b.pending = append(b.pending, c)
		b.mu.Unlock()
	}

	select {
	case <-c.done:
		if c.err != nil {
			return nil, c.err
		}
		b.metrics.ObserveLatency(time.Since(start))
		return c.logits, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// conserve runs one work-conserving flush, then hands its turn to the
// calls that queued meanwhile: up to maxBatch of them become the next
// flush, on a fresh goroutine, so the caller that started this flush is
// never held back computing later ones. The flight and the running slot
// pass down the chain and end with the flush that finds the queue empty.
func (b *Batcher) conserve(ctx context.Context, batch []*call) {
	b.run(ctx, batch)
	b.mu.Lock()
	if len(b.pending) == 0 {
		b.running--
		b.mu.Unlock()
		b.flights.Done()
		return
	}
	n := min(len(b.pending), max(b.maxBatch, 1))
	next := b.pending[:n:n]
	b.pending = b.pending[n:]
	b.mu.Unlock()
	go b.conserve(context.Background(), next)
}

// InferBatch runs an explicit client batch directly (no coalescing —
// the client already amortised the call) through its own flush slot, so
// it pipelines with coalesced flushes instead of serialising against
// them; waiting for a free plane is its queue wait. The returned slices
// are caller-owned.
func (b *Batcher) InferBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if len(xs) == 0 {
		// Reject before the runtime: a zero-sample batch has no result to
		// return and would otherwise count a phantom flush in the metrics.
		return nil, errors.New("registry: empty batch")
	}
	for i, x := range xs {
		if err := b.checkInput(x); err != nil {
			return nil, fmt.Errorf("registry: batch input %d: %w", i, err)
		}
	}
	if err := b.beginOp(); err != nil {
		return nil, err
	}
	defer b.flights.Done()
	start := time.Now()
	out, computed, err := b.compute(ctx, xs, false)
	if err != nil {
		return nil, err
	}
	b.metrics.ObserveQueueWait(computed.Sub(start))
	b.metrics.ObserveLatency(time.Since(start))
	return out, nil
}

// compute leases a flush slot, runs xs in its plane, and copies the
// logits out into one caller-owned allocation before releasing the
// plane, so the next flush can compute while this one's callers wake.
// It returns when the compute started: the end of the queue wait.
func (b *Batcher) compute(ctx context.Context, xs [][]float64, coalesced bool) ([][]float64, time.Time, error) {
	slot, err := b.rt.AcquireFlushSlot(ctx)
	if err != nil {
		return nil, time.Time{}, err
	}
	start := time.Now()
	b.metrics.ObservePipelineDepth(b.rt.FlushSlotsInUse())
	out, err := slot.InferBatch(ctx, xs)
	if err != nil {
		slot.Release()
		return nil, start, err
	}
	b.metrics.ObserveCompute(time.Since(start))
	b.metrics.ObserveFlush(len(xs), coalesced)
	od := b.outDim
	flat := make([]float64, len(out)*od)
	hdrs := make([][]float64, len(out))
	for i, logits := range out {
		hdrs[i] = flat[i*od : (i+1)*od : (i+1)*od]
		copy(hdrs[i], logits)
	}
	slot.Release()
	return hdrs, start, nil
}

// run executes one flush and demultiplexes results to the waiting
// callers. Calls whose own context is already done are dropped before
// the runtime sees the batch — the caller returned at cancellation but
// its entry stayed in the pending queue, and computing it would waste
// EMAC compute, occupy a batch slot, and skew the batch-size histogram.
// ctx bounds the flush: Background when it carries queued calls, since
// one caller's cancellation must not abort its batch-mates' inferences,
// and the caller's own context for a call flushing alone at once.
func (b *Batcher) run(ctx context.Context, batch []*call) {
	live := batch[:0]
	for _, c := range batch {
		select {
		case <-c.ctx.Done():
			c.err = c.ctx.Err()
			close(c.done)
		default:
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return
	}
	xs := make([][]float64, len(live))
	for i, c := range live {
		xs[i] = c.x
	}
	out, computed, err := b.compute(ctx, xs, len(xs) > 1)
	if err != nil {
		b.failAll(live, err)
		return
	}
	for i, c := range live {
		b.metrics.ObserveQueueWait(computed.Sub(c.enq))
		c.logits = out[i]
		close(c.done)
	}
}

// failAll delivers err to every live call of a flush.
func (b *Batcher) failAll(live []*call, err error) {
	for _, c := range live {
		c.err = err
		close(c.done)
	}
}

// Close stops accepting new work and waits for every in-flight flush to
// finish — so no caller is left waiting and the owner may close the
// runtime immediately afterwards without failing a mid-pipeline flush.
// Calls queue only behind running flushes, so every queued call leaves
// with those flushes' chain. It does not close the underlying runtime
// (the registry owns that ordering). Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.flights.Wait()
}
