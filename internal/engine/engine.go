// Package engine is the concurrent inference plane on top of the core
// model/session split. The paper describes Deep Positron as a streaming
// accelerator serving a stream of inputs; this package is the software
// analogue for dataset-scale evaluation and serving.
//
// Runtime is the serving-grade execution plane: a pool of shared-nothing
// core.Inferers over one immutable core.Model (uniform or mixed
// precision alike), each used by one batch chunk at a time, with every
// batch computed on its caller's goroutine. It is configured with
// functional options, observes context cancellation, and fails with
// errors rather than panics on misuse: NewRuntime refuses a model its
// Validate rejects before any inferer is built over it, and an
// inference that panics fails only its own request. One layer up,
// internal/registry serves many named Runtimes side by side with
// micro-batching.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/nn"
)

// ErrClosed is returned by Runtime methods called after Close.
var ErrClosed = errors.New("engine: runtime closed")

// ErrPanic wraps a panic recovered inside an inference: the batch that
// panicked fails with this error, the runtime survives with a fresh
// inferer in place of the one that panicked, and Runtime.Panics counts
// the event. A poisoned input must cost one request, never the daemon.
var ErrPanic = errors.New("engine: inference panicked")

// drain tracks one batch's chunks: how many are still running, and the
// first error any of them reported.
type drain struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// fail records a chunk's error unless an earlier chunk's came first.
func (d *drain) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
}

// wait blocks until every chunk is done, then returns and clears the
// first chunk error. wg.Wait orders every fail before the read, and a
// drain serves one batch at a time, so the reset cannot race the next
// batch.
func (d *drain) wait() error {
	d.wg.Wait()
	err := d.err
	d.err = nil
	return err
}

// DefaultFlushPipeline is the flush-slot plane count a runtime owns when
// none is configured: two planes — compute flush N while flush N−1
// demuxes — capture most of the overlap win at one extra result plane of
// memory (the Langroudi et al. bounded-memory framing: depth is a
// budget, not a free variable).
const DefaultFlushPipeline = 2

// config collects the functional options.
type config struct {
	workers    int
	flushDepth int
}

// Option configures a Runtime at construction.
type Option func(*config)

// WithWorkers sets how many inferers the runtime pools, and so how many
// batch chunks compute at once; n <= 0 selects GOMAXPROCS (the
// default).
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithWarmTables does nothing: each inferer builds the decode and term
// tables its kernels read on its first chunk, and no inference reads
// posit's scalar Mul/Add tables.
//
// Deprecated: kept only for the bench module's callers; pass nothing.
func WithWarmTables() Option { return func(*config) {} }

// WithFlushPipeline sets the number of flush-slot result planes the
// runtime owns (see AcquireFlushSlot). With d planes, d batch
// computations can be in flight at once — one plane computing while
// another's readers still demultiplex — which is how the serving
// micro-batcher overlaps collect/compute/demux instead of serialising
// them end to end. d = 1 keeps a single plane (flushes serialise on it);
// d <= 0 selects DefaultFlushPipeline.
func WithFlushPipeline(d int) Option { return func(c *config) { c.flushDepth = d } }

// Runtime is a context-aware inference runtime over one immutable
// Model: a pool of inferers that batches borrow, chunk by chunk, on
// their callers' goroutines. All methods are safe for concurrent use,
// including Close: closing drains in-flight work, and submissions after
// Close return ErrClosed.
type Runtime struct {
	model core.Model

	// idle holds the pooled inferers not in use; its capacity is the
	// worker count. A nil entry is an inferer not built yet, or dropped
	// after a panic: the chunk that takes it builds a fresh one.
	idle chan core.Inferer

	// waiting counts chunks blocked for an idle inferer (QueueLen).
	waiting atomic.Int64

	// mu guards closed. Every batch holds it for reading until its last
	// chunk is done, so Close's write lock waits out in-flight batches.
	mu     sync.RWMutex
	closed bool

	// panics counts chunks that panicked, in inference or while building
	// their inferer (each one failed with ErrPanic).
	panics atomic.Int64

	// planes holds the flush pipeline's free leasable slots; its
	// capacity is the pipeline depth (see AcquireFlushSlot).
	planes chan *FlushSlot
}

// NewRuntime returns a runtime over the model, or the model's Validate
// error instead of a runtime no inferer could execute. It starts no
// goroutine and builds no inferer: each pooled inferer (pre-decoded
// kernels included) is built by the first chunk that takes it, so
// inferers share nothing but the read-only model plane.
func NewRuntime(model core.Model, opts ...Option) (*Runtime, error) {
	if model == nil {
		return nil, errors.New("engine: nil model")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	cfg := config{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.flushDepth <= 0 {
		cfg.flushDepth = DefaultFlushPipeline
	}
	r := &Runtime{
		model:  model,
		idle:   make(chan core.Inferer, cfg.workers),
		planes: make(chan *FlushSlot, cfg.flushDepth),
	}
	for range cfg.workers {
		r.idle <- nil
	}
	for range cfg.flushDepth {
		r.planes <- &FlushSlot{r: r}
	}
	return r, nil
}

// acquire takes an idle inferer (nil when it is not built yet), waiting
// while every one is in use. An already-ended ctx takes none, and ctx
// ending during the wait returns its error.
func (r *Runtime) acquire(ctx context.Context) (core.Inferer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case s := <-r.idle:
		return s, nil
	default:
	}
	r.waiting.Add(1)
	defer r.waiting.Add(-1)
	select {
	case s := <-r.idle:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// chunk runs one fused chunk of a batch, the inputs xs starting at
// input id, into the flat dst window (len(xs) × output width) in a
// single InferBatchInto call on an idle inferer, and reports to d. A
// model kernel, or an inferer's construction, that panics fails the
// chunk with ErrPanic and drops its inferer (the panic may have left
// scratch buffers half-written, so the next chunk to take its place
// builds a fresh one) — but never the runtime, and never the daemon.
func (r *Runtime) chunk(ctx context.Context, d *drain, id int, xs [][]float64, dst []float64) {
	defer d.wg.Done()
	s, err := r.acquire(ctx)
	if err != nil {
		d.fail(err)
		return
	}
	if err := r.infer(&s, xs, dst); err != nil {
		r.panics.Add(1)
		s = nil
		d.fail(fmt.Errorf("engine: batch chunk at input %d: %w", id, err))
	}
	r.idle <- s
}

// infer runs xs through *s into dst, building *s first when it is nil,
// and converts a panic in either step into an error.
func (r *Runtime) infer(s *core.Inferer, xs [][]float64, dst []float64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, p)
		}
	}()
	if *s == nil {
		*s = r.model.NewInferer()
	}
	(*s).InferBatchInto(dst, xs)
	return nil
}

// Model returns the model plane the runtime serves.
func (r *Runtime) Model() core.Model { return r.model }

// Workers returns the pool size: how many inferers the runtime holds.
func (r *Runtime) Workers() int { return cap(r.idle) }

// QueueCap returns twice the worker count: the number of waiting chunks
// (QueueLen) at which an admission layer calls the runtime saturated.
func (r *Runtime) QueueCap() int { return 2 * cap(r.idle) }

// QueueLen returns how many batch chunks are waiting for an idle
// inferer. Together with QueueCap it is the backpressure signal an
// admission layer reads to shed load instead of letting requests queue
// without bound.
func (r *Runtime) QueueLen() int { return int(r.waiting.Load()) }

// Panics returns how many chunks have panicked since construction, in
// inference or while building an inferer. Each one failed its own
// request with ErrPanic while the runtime survived; a nonzero value
// means some model kernel is unsound for some inputs and deserves
// investigation.
func (r *Runtime) Panics() int64 { return r.panics.Load() }

// checkInput validates one input vector against the model shape.
func (r *Runtime) checkInput(x []float64) error {
	if want := r.model.InputDim(); len(x) != want {
		return fmt.Errorf("engine: input has %d features, model expects %d", len(x), want)
	}
	return nil
}

// run is the one batch loop behind every entry point. It checks xs,
// fits s's plane to its logits, and splits the n samples into k =
// min(workers, max(1, ⌊n/core.BatchTile⌋)) fused chunks of ⌊n/k⌋ or
// ⌈n/k⌉ samples. The last chunk computes on the calling goroutine and
// each earlier one on a goroutine of its own, and run waits for all of
// them. No chunk of a split batch is therefore shorter than the forward
// pass's tile. A session walks every weight row once per tile however
// few samples the tile holds, so splitting one tile's samples over two
// inferers walks the weights twice, while under load the other
// inferers are already serving other batches: a batch of fewer than
// two tiles runs whole on one inferer, and a larger one spreads over
// the pool. The rule assumes that saturated pool; one client sending
// such batches one at a time leaves the other inferers idle.
// Cancelling ctx fails every chunk still waiting for an inferer, and
// run returns the first chunk error once every chunk is done, so no
// inferer is left writing into the plane.
func (r *Runtime) run(ctx context.Context, s *FlushSlot, xs [][]float64) ([][]float64, error) {
	for i, x := range xs {
		if err := r.checkInput(x); err != nil {
			return nil, fmt.Errorf("engine: batch input %d: %w", i, err)
		}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrClosed
	}
	od := r.model.OutputDim()
	rows := s.size(len(xs), od)
	d := &s.d
	n, start := len(xs), 0
	for k := min(cap(r.idle), max(1, n/core.BatchTile)); k > 1; k-- {
		end := start + (n-start)/k
		d.wg.Add(1)
		go r.chunk(ctx, d, start, xs[start:end], s.buf[start*od:end*od])
		start = end
	}
	d.wg.Add(1)
	r.chunk(ctx, d, start, xs[start:], s.buf[start*od:n*od])
	if err := d.wait(); err != nil {
		return nil, err
	}
	return rows, nil
}

// InferBatch runs the batch through the pool in fused chunks, at most
// one per worker and none shorter than core.BatchTile samples (see run),
// so a batch of fewer than two tiles runs whole on one inferer while the
// rest of the pool serves concurrent batches. Each chunk goes through
// the inferer's batched layer kernels in a single call, so every weight
// row is decoded once per tile instead of once per sample. Logits come
// back in input order, bit-identical to running one core session
// serially (each sample's arithmetic is unchanged; only the loop order
// differs), in a fresh plane the caller owns. Cancelling ctx fails the
// chunks still waiting for an inferer and returns after every chunk is
// done — no inferer is left writing into the batch. A caller that
// wants the logits in reused memory leases a FlushSlot instead.
func (r *Runtime) InferBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	return r.run(ctx, &FlushSlot{r: r}, xs)
}

// FlushSlot is one result plane of a runtime's flush pipeline: a
// runtime-owned flat logits buffer, its per-sample row views, and the
// machinery to run one batch into it. Between AcquireFlushSlot and
// Release the plane belongs to the holder alone, so a second slot's
// InferBatch can compute while this slot's results are still being read
// — the serving-plane analogue of the paper's accelerator keeping its
// EMAC pipeline full across flushes. A FlushSlot is single-owner: its
// methods must not be called concurrently.
type FlushSlot struct {
	r    *Runtime
	buf  []float64
	rows [][]float64
	d    drain
}

// size fits the plane to n samples of od logits, growing it to the
// largest batch it has held, and returns its rows.
func (s *FlushSlot) size(n, od int) [][]float64 {
	if cap(s.buf) < n*od {
		s.buf = make([]float64, n*od)
	}
	if cap(s.rows) < n {
		s.rows = make([][]float64, n)
	}
	rows := s.rows[:n]
	for i := range rows {
		rows[i] = s.buf[i*od : (i+1)*od : (i+1)*od]
	}
	return rows
}

// FlushPipelineDepth returns the number of flush-slot result planes
// (WithFlushPipeline, default DefaultFlushPipeline).
func (r *Runtime) FlushPipelineDepth() int { return cap(r.planes) }

// FlushSlotsInUse returns how many flush slots are currently leased —
// the live pipeline-depth gauge the serving metrics report.
func (r *Runtime) FlushSlotsInUse() int { return cap(r.planes) - len(r.planes) }

// AcquireFlushSlot leases one result plane, blocking while all
// FlushPipelineDepth planes are held (backpressure: the pipeline is
// bounded, a stalled reader can stall at most its own plane's
// successors). It unblocks with ctx.Err on cancellation and fails with
// ErrClosed after Close. Callers must Release the slot exactly once.
func (r *Runtime) AcquireFlushSlot(ctx context.Context) (*FlushSlot, error) {
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	select {
	case s := <-r.planes:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns the plane to the pipeline, waking one blocked
// AcquireFlushSlot. The slot's previous InferBatch results are invalid
// from this point. Release exactly once per acquisition.
func (s *FlushSlot) Release() { s.r.planes <- s }

// InferBatch runs one batch through the runtime's inferer pool,
// decoding logits into this slot's plane: Runtime.InferBatch without the
// fresh allocation. Results are valid until Release (or the slot's next
// InferBatch), bit-identical to a serial session, and other slots'
// in-flight batches are unaffected. Cancellation behaves as in
// Runtime.InferBatch.
func (s *FlushSlot) InferBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	return s.r.run(ctx, s, xs)
}

// PredictBatch runs every input through the pool and returns the argmax
// classes in input order. It shares InferBatch's contract: context
// cancellation returns once every chunk is done, and after Close it
// fails with ErrClosed.
func (r *Runtime) PredictBatch(ctx context.Context, xs [][]float64) ([]int, error) {
	logits, err := r.InferBatch(ctx, xs)
	if err != nil {
		return nil, err
	}
	return argmaxAll(logits), nil
}

func argmaxAll(logits [][]float64) []int {
	classes := make([]int, len(logits))
	for i, l := range logits {
		classes[i] = nn.Argmax(l)
	}
	return classes
}

// Accuracy evaluates classification accuracy over a dataset with the
// whole pool — the Runtime counterpart of Inferer.Accuracy. The count is
// exact, so the value is identical to a serial sweep; cancellation and
// Close behave as in PredictBatch.
func (r *Runtime) Accuracy(ctx context.Context, ds *datasets.Dataset) (float64, error) {
	classes, err := r.PredictBatch(ctx, ds.X)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, c := range classes {
		if c == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}

// Close stops accepting work and waits for every in-flight batch: a
// batch started before Close completes in full. Close is idempotent and
// safe to call concurrently with InferBatch: late callers observe
// ErrClosed.
func (r *Runtime) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return nil
}
