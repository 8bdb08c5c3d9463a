package registry

// The dynamic micro-batcher. positrond's HTTP clients mostly send one
// sample per request, but the runtime's batch path amortises scheduling
// and decode costs across a whole batch. By default the batcher is
// work-conserving, like the paper's EMAC pipeline, which streams each
// input as it arrives: a request that finds a free flush plane flushes
// at once, alone. Only requests arriving while every plane is busy
// queue, and each finishing flush takes up to maxBatch of them as the
// next flush — batch size follows load, not a clock.
//
// Every flush leases one of the runtime's D result planes
// (engine.AcquireFlushSlot), copies its logits out into one caller-owned
// allocation and releases the plane, so flush N+1 computes while flush
// N's results are still being demultiplexed. Bit-identity is unaffected:
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

// Batcher coalesces single-sample Infer calls in front of one Runtime.
// All methods are safe for concurrent use. Every inference — coalesced
// flushes and explicit InferBatch calls alike — runs through a leased
// flush slot, and results are copied out of the slot's plane before it
// is released; with D > 1 planes, flushes pipeline.
type Batcher struct {
	rt       *engine.Runtime
	maxBatch int
	metrics  *Metrics
	inDim    int
	outDim   int

	// mu guards the pending queue, running and closed.
	mu      sync.Mutex
	pending []*call
	closed  bool

	// running counts work-conserving flushes in progress. Calls queue
	// only while running equals the runtime's pipeline depth, and only a
	// flush that finds the queue empty decrements it, so a queued call
	// always has a flush to take it.
	running int

	// flights counts in-progress runtime operations (flushes and direct
	// batches). Close waits for it, so the runtime can be closed
	// afterwards without failing a flush that was mid-pipeline.
	flights sync.WaitGroup
}

// NewBatcher wraps a runtime with a micro-batcher. Every flush leases one
// of the runtime's flush slots, so as many flushes run at once as the
// runtime has planes (engine.WithFlushPipeline). A finishing flush takes
// up at most maxBatch queued calls (maxBatch <= 1 flushes every call
// alone). metrics may be nil.
func NewBatcher(rt *engine.Runtime, maxBatch int, metrics *Metrics) *Batcher {
	m := rt.Model()
	return &Batcher{
		rt:       rt,
		maxBatch: maxBatch,
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
	if b.running < b.rt.FlushPipelineDepth() {
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
// This flush's callers wake only after that hand-off, so once every
// caller has its answer no finished flush still counts as running.
func (b *Batcher) conserve(ctx context.Context, batch []*call) {
	live := b.run(ctx, batch)
	b.mu.Lock()
	if len(b.pending) == 0 {
		b.running--
		b.mu.Unlock()
		wake(live)
		b.flights.Done()
		return
	}
	n := min(len(b.pending), max(b.maxBatch, 1))
	next := b.pending[:n:n]
	b.pending = b.pending[n:]
	b.mu.Unlock()
	wake(live)
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

// run executes one flush, fills in each live caller's result or error,
// and returns those callers for conserve to wake. Calls whose own
// context is already done leave at once, before the runtime sees the
// batch — the caller returned at cancellation but its entry stayed in
// the pending queue, and computing it would waste EMAC compute, occupy
// a batch slot, and skew the batch-size histogram. ctx bounds the
// flush: Background when it carries queued calls, since one caller's
// cancellation must not abort its batch-mates' inferences, and the
// caller's own context for a call flushing alone at once.
func (b *Batcher) run(ctx context.Context, batch []*call) []*call {
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
		return nil
	}
	xs := make([][]float64, len(live))
	for i, c := range live {
		xs[i] = c.x
	}
	out, computed, err := b.compute(ctx, xs, len(xs) > 1)
	for i, c := range live {
		if err != nil {
			c.err = err
			continue
		}
		b.metrics.ObserveQueueWait(computed.Sub(c.enq))
		c.logits = out[i]
	}
	return live
}

// wake releases the calls of a finished flush to read their results.
func wake(calls []*call) {
	for _, c := range calls {
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
