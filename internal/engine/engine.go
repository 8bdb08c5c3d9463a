// Package engine is the concurrent inference plane on top of the core
// model/session split. The paper describes Deep Positron as a streaming
// accelerator serving a stream of inputs; this package is the software
// analogue for dataset-scale evaluation and serving.
//
// Runtime is the serving-grade execution plane: a worker pool in which
// every worker owns one shared-nothing core.Inferer over one immutable
// core.Model (uniform or mixed precision alike). It is configured with
// functional options, observes context cancellation, and fails with
// errors rather than panics on misuse: NewRuntime refuses a model its
// Validate rejects before any worker builds an inferer over it, and an
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

// ErrPanic wraps a panic recovered inside a worker: the inference that
// panicked fails with this error, the worker survives with a fresh
// execution plane, and Runtime.Panics counts the event. A poisoned
// input must cost one request, never the daemon.
var ErrPanic = errors.New("engine: inference panicked")

// task is one fused batch chunk: the worker runs the whole chunk xs
// through the inferer's batched kernels in one InferBatchInto call,
// decoding into the flat dst window (len(xs) × output width). id is the
// chunk's first input index. The worker reports the chunk to d exactly
// once, with an error when the inference panicked.
type task struct {
	id  int
	xs  [][]float64
	dst []float64
	d   *drain
}

// drain tracks one batch's submitted chunks: how many are outstanding,
// and the first error any of them reported.
type drain struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// done records one delivered chunk.
func (d *drain) done(id int, err error) {
	if err != nil {
		d.mu.Lock()
		if d.err == nil {
			d.err = fmt.Errorf("engine: batch chunk at input %d: %w", id, err)
		}
		d.mu.Unlock()
	}
	d.wg.Done()
}

// wait blocks until every submitted chunk is delivered, then returns and
// clears the first chunk error. wg.Wait orders every done write before
// the read, and a drain serves one batch at a time, so the reset cannot
// race the next batch.
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
	queueDepth int
	flushDepth int
}

// Option configures a Runtime at construction.
type Option func(*config)

// WithWorkers sets the worker-pool size; n <= 0 selects GOMAXPROCS (the
// default).
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithQueueDepth sets the job-queue capacity; n <= 0 selects twice the
// worker count (the default). Deeper queues let bursty batch traffic
// ride ahead of the pool at the cost of buffered latency.
func WithQueueDepth(n int) Option { return func(c *config) { c.queueDepth = n } }

// WithWarmTables does nothing: each worker's session builds the decode
// and term tables its kernels read on the worker's first task, and no
// inference reads posit's scalar Mul/Add tables.
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

// Runtime is a context-aware worker-pool inference runtime over one
// immutable Model. All methods are safe for concurrent use, including
// Close: closing drains in-flight work, and submissions after Close
// return ErrClosed.
type Runtime struct {
	model   core.Model
	workers int
	jobs    chan task

	wg sync.WaitGroup // workers

	// mu guards closed. Producers hold it for reading while enqueueing, so
	// jobs is never closed mid-send.
	mu     sync.RWMutex
	closed bool

	// panics counts tasks that panicked inside a worker, in inference or
	// while building the worker's inferer (each one failed with
	// ErrPanic; the worker survived).
	panics atomic.Int64

	// planes holds the flush pipeline's free leasable slots; its
	// capacity is the pipeline depth (see AcquireFlushSlot).
	planes chan *FlushSlot
}

// NewRuntime starts a runtime over the model. It returns the model's
// Validate error instead of starting workers over a model no inferer
// could execute. Each worker builds its own core.Inferer (pre-decoded
// kernels included) on its first task, so workers share nothing but the
// read-only model plane. Call Close to release the pool.
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
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 2 * cfg.workers
	}
	if cfg.flushDepth <= 0 {
		cfg.flushDepth = DefaultFlushPipeline
	}
	r := &Runtime{
		model:   model,
		workers: cfg.workers,
		jobs:    make(chan task, cfg.queueDepth),
		planes:  make(chan *FlushSlot, cfg.flushDepth),
	}
	for range cfg.flushDepth {
		r.planes <- &FlushSlot{r: r}
	}
	r.wg.Add(cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		go r.worker()
	}
	return r, nil
}

// worker drains the job queue through one private execution plane,
// built by its first task. A model kernel, or an inferer's construction,
// that panics fails its own task with ErrPanic and costs this worker its
// inferer (the panic may have left scratch buffers half-written, so the
// next task builds a fresh one) — but never the worker, and never the
// daemon.
func (r *Runtime) worker() {
	defer r.wg.Done()
	var s core.Inferer
	for t := range r.jobs {
		err := r.runTask(&s, t)
		if err != nil {
			r.panics.Add(1)
			s = nil
		}
		t.d.done(t.id, err)
	}
}

// runTask executes one fused batch chunk in *s, building *s first when
// it is nil, and converts a panic in either step into an error.
func (r *Runtime) runTask(s *core.Inferer, t task) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, p)
		}
	}()
	if *s == nil {
		*s = r.model.NewInferer()
	}
	(*s).InferBatchInto(t.dst, t.xs)
	return nil
}

// Model returns the model plane the runtime serves.
func (r *Runtime) Model() core.Model { return r.model }

// Workers returns the pool size.
func (r *Runtime) Workers() int { return r.workers }

// QueueCap returns the job-queue capacity configured at construction
// (WithQueueDepth, default twice the worker count).
func (r *Runtime) QueueCap() int { return cap(r.jobs) }

// QueueLen returns the current job-queue occupancy: batch chunks
// submitted but not yet picked up by a worker. Together with QueueCap it is the
// backpressure signal an admission layer reads to shed load instead of
// letting requests queue without bound.
func (r *Runtime) QueueLen() int { return len(r.jobs) }

// Panics returns how many tasks have panicked inside workers since
// construction, in inference or while building a worker's inferer.
// Each one failed its own request with ErrPanic while the worker
// survived; a nonzero value means some model kernel is unsound for some
// inputs and deserves investigation.
func (r *Runtime) Panics() int64 { return r.panics.Load() }

// checkInput validates one input vector against the model shape.
func (r *Runtime) checkInput(x []float64) error {
	if want := r.model.InputDim(); len(x) != want {
		return fmt.Errorf("engine: input has %d features, model expects %d", len(x), want)
	}
	return nil
}

// enqueue submits one task, respecting cancellation (an already-
// cancelled context never enqueues). The caller must hold r.mu for
// reading with r.closed == false.
func (r *Runtime) enqueue(ctx context.Context, t task) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	select {
	case r.jobs <- t:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the one batch loop behind every entry point. It checks xs,
// fits s's plane to its logits, splits the n samples into k =
// min(workers, max(1, ⌊n/core.BatchTile⌋)) fused chunks of ⌊n/k⌋ or
// ⌈n/k⌉ samples, submits them, and waits for s's drain; a worker runs
// each chunk as a single InferBatchInto call. No chunk of a split batch
// is therefore shorter than the forward pass's tile. A session walks
// every weight row once per tile however few samples the tile holds, so
// splitting one tile's samples over two workers walks the weights twice
// and adds a handoff, while under load the other workers are already
// serving other batches: a batch of fewer than two tiles runs whole on
// one worker, and a larger one spreads over the pool. The rule assumes
// that saturated pool; one client sending such batches one at a time
// leaves the other workers idle. Cancelling ctx stops submission and
// returns ctx.Err after every already-submitted chunk has drained, so no
// worker is left writing into the plane.
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
	n, end := len(xs), 0
	for k := min(r.workers, max(1, n/core.BatchTile)); end < n; k-- {
		start := end
		end += (n - start) / k
		d.wg.Add(1)
		if err := r.enqueue(ctx, task{id: start, xs: xs[start:end], dst: s.buf[start*od : end*od], d: d}); err != nil {
			d.wg.Done()
			_ = d.wait() // a delivered chunk's panic loses to the ctx error
			return nil, err
		}
	}
	if err := d.wait(); err != nil {
		return nil, err
	}
	return rows, nil
}

// InferBatch runs the batch through the pool in fused chunks, at most
// one per worker and none shorter than core.BatchTile samples (see run),
// so a batch of fewer than two tiles runs whole on one worker while the
// rest of the pool serves concurrent batches. Each chunk goes through
// the inferer's batched layer kernels in a single call, so every weight
// row is decoded once per tile instead of once per sample. Logits come
// back in input order, bit-identical to running one core session
// serially (each sample's arithmetic is unchanged; only the loop order
// differs), in a fresh plane the caller owns. Cancelling ctx stops
// submission and returns ctx.Err after every already-submitted chunk has
// drained — no worker is left writing into the batch. A caller that
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

// InferBatch runs one batch through the runtime's worker pool, decoding
// logits into this slot's plane: Runtime.InferBatch without the fresh
// allocation. Results are valid until Release (or the slot's next
// InferBatch), bit-identical to a serial session, and other slots'
// in-flight batches are unaffected. Cancelling ctx stops submission and
// returns ctx.Err after every already-submitted chunk has drained.
func (s *FlushSlot) InferBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	return s.r.run(ctx, s, xs)
}

// PredictBatch runs every input through the pool and returns the argmax
// classes in input order. It shares InferBatch's contract: context
// cancellation drains already-submitted work before returning, and after
// Close it fails with ErrClosed.
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

// Close stops accepting work and waits for every in-flight batch chunk:
// a batch submitted before Close completes in full. Close is idempotent
// and safe to call concurrently with InferBatch: late callers observe
// ErrClosed.
func (r *Runtime) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	// No producer can be mid-send here: sends happen under the read lock
	// with closed == false, and the write lock above waited them out.
	close(r.jobs)
	r.wg.Wait()
	return nil
}
