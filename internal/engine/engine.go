// Package engine is the concurrent inference plane on top of the core
// model/session split. The paper describes Deep Positron as a streaming
// accelerator serving a stream of inputs; this package is the software
// analogue for dataset-scale evaluation and serving.
//
// Runtime is the serving-grade execution plane: a worker pool in which
// every worker owns one shared-nothing core.Inferer over one immutable
// core.Model (uniform or mixed precision alike). It is configured with
// functional options, observes context cancellation, and fails with
// errors rather than panics on misuse. One layer up, internal/registry
// serves many named Runtimes side by side with micro-batching.
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
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/posit"
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

// plane is a flat logits buffer and its per-sample row views, grown to
// the largest batch it has held.
type plane struct {
	buf  []float64
	rows [][]float64
}

// size fits the plane to n samples of od logits and returns its rows.
func (p *plane) size(n, od int) [][]float64 {
	if cap(p.buf) < n*od {
		p.buf = make([]float64, n*od)
	}
	if cap(p.rows) < n {
		p.rows = make([][]float64, n)
	}
	rows := p.rows[:n]
	for i := range rows {
		rows[i] = p.buf[i*od : (i+1)*od : (i+1)*od]
	}
	return rows
}

// config collects the functional options.
type config struct {
	workers    int
	queueDepth int
	warmTables bool
	sharedOut  bool
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

// WithWarmTables eagerly builds the posit decode and Mul/Add fast-path
// tables for every posit layer format before the first inference, so no
// request pays the lazy table-construction latency.
func WithWarmTables() Option { return func(c *config) { c.warmTables = true } }

// WithSharedOutputs makes InferBatch decode logits into one runtime-owned
// buffer that is reused across calls, making steady-state dataset sweeps
// allocation-free end to end. The returned slices are valid only until
// the next InferBatch call; shared-output batches are serialised
// internally.
func WithSharedOutputs() Option { return func(c *config) { c.sharedOut = true } }

// WithFlushPipeline sets the number of flush-slot result planes a
// shared-output runtime owns (see AcquireFlushSlot). With d planes, d
// batch computations can be in flight at once — one plane computing
// while another's readers still demultiplex — which is how the serving
// micro-batcher overlaps collect/compute/demux instead of serialising
// them end to end. d <= 1 keeps a single plane (flushes serialise on
// it, the pre-pipeline behaviour). Without WithSharedOutputs the option
// is inert.
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

	// panics counts inferences that panicked inside a worker (each one
	// failed with ErrPanic; the worker survived).
	panics atomic.Int64

	// shared is the private flush slot a shared-output runtime's
	// InferBatch, PredictBatch and Accuracy run in, one batch at a time
	// under sharedMu. nil without WithSharedOutputs.
	sharedMu sync.Mutex
	shared   *FlushSlot

	// flush pipeline: flushDepth leasable result planes (see
	// AcquireFlushSlot). nil when the runtime is not shared-output.
	flushDepth int
	planes     chan *FlushSlot
}

// NewRuntime starts a runtime over the model. Each worker builds its own
// core.Inferer (pre-decoded kernels included), so workers share nothing
// but the read-only model plane. Call Close to release the pool.
func NewRuntime(model core.Model, opts ...Option) (*Runtime, error) {
	if model == nil {
		return nil, errors.New("engine: nil model")
	}
	if model.NumLayers() == 0 {
		return nil, errors.New("engine: model has no layers")
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
	if cfg.warmTables {
		for _, a := range model.Ariths() {
			if pa, ok := a.(emac.PositArith); ok {
				posit.WarmTables(pa.F)
			}
		}
	}
	if cfg.flushDepth < 1 {
		cfg.flushDepth = 1
	}
	r := &Runtime{
		model:   model,
		workers: cfg.workers,
		jobs:    make(chan task, cfg.queueDepth),
	}
	if cfg.sharedOut {
		r.shared = &FlushSlot{r: r}
		r.flushDepth = cfg.flushDepth
		r.planes = make(chan *FlushSlot, cfg.flushDepth)
		for i := 0; i < cfg.flushDepth; i++ {
			r.planes <- &FlushSlot{r: r}
		}
	}
	r.wg.Add(cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		go r.worker()
	}
	return r, nil
}

// worker drains the job queue through one private execution plane. A
// model kernel that panics fails its own task with ErrPanic and costs
// this worker its inferer (the panic may have left scratch buffers
// half-written, so a fresh one is built) — but never the worker, and
// never the daemon.
func (r *Runtime) worker() {
	defer r.wg.Done()
	s := r.model.NewInferer()
	for t := range r.jobs {
		err := runTask(s, t)
		if err != nil {
			r.panics.Add(1)
			s = r.model.NewInferer()
		}
		t.d.done(t.id, err)
	}
}

// runTask executes one fused batch chunk, converting a panic into an
// error.
func runTask(s core.Inferer, t task) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, p)
		}
	}()
	s.InferBatchInto(t.dst, t.xs)
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

// SharedOutputs reports whether the runtime was built with
// WithSharedOutputs — callers then own the serialisation and copy-out of
// InferBatch results.
func (r *Runtime) SharedOutputs() bool { return r.shared != nil }

// Panics returns how many inferences have panicked inside workers since
// construction. Each one failed its own request with ErrPanic while the
// worker survived; a nonzero value means some model kernel is unsound
// for some inputs and deserves investigation.
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
// fits p to its logits, splits it into one fused chunk per worker —
// ceil(n / workers) samples, so a batch spreads over the whole pool
// while each worker runs its share as a single InferBatchInto call —
// submits the chunks, and waits for d to drain. Cancelling ctx stops
// submission and returns ctx.Err after every already-submitted chunk
// has drained, so no worker is left writing into p.
func (r *Runtime) run(ctx context.Context, p *plane, d *drain, xs [][]float64) ([][]float64, error) {
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
	rows := p.size(len(xs), od)
	chunk := max((len(xs)+r.workers-1)/r.workers, 1)
	for start := 0; start < len(xs); start += chunk {
		end := min(start+chunk, len(xs))
		d.wg.Add(1)
		if err := r.enqueue(ctx, task{id: start, xs: xs[start:end], dst: p.buf[start*od : end*od], d: d}); err != nil {
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

// InferBatch splits the batch into one fused chunk per worker and runs
// each chunk through the inferer's batched layer kernels in a single
// call, so every weight row is decoded once per chunk instead of once
// per sample. Logits come back in input order, bit-identical to running
// one core session serially (each sample's arithmetic is unchanged; only
// the loop order differs). Cancelling ctx stops submission and returns
// ctx.Err after every already-submitted chunk has drained — no worker is
// left writing into the batch. Under WithSharedOutputs the returned
// slices are valid only until the next InferBatch call.
func (r *Runtime) InferBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if r.shared != nil {
		r.sharedMu.Lock()
		defer r.sharedMu.Unlock()
	}
	return r.batch(ctx, xs)
}

// batch runs xs in the runtime's private slot (the caller holds
// sharedMu) or, without shared outputs, into a fresh caller-owned plane.
func (r *Runtime) batch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if r.shared != nil {
		return r.shared.InferBatch(ctx, xs)
	}
	return r.run(ctx, &plane{}, &drain{}, xs)
}

// FlushSlot is one leased result plane of a shared-output runtime's
// flush pipeline: a runtime-owned flat logits buffer plus the machinery
// to run one batch into it. Between AcquireFlushSlot and Release the
// plane belongs to the holder alone, so a second slot's InferBatch can
// compute while this slot's results are still being read — the
// serving-plane analogue of the paper's accelerator keeping its EMAC
// pipeline full across flushes. A FlushSlot is single-owner: its
// methods must not be called concurrently.
type FlushSlot struct {
	r *Runtime
	p plane
	d drain
}

// FlushPipelineDepth returns the number of flush-slot result planes (0
// when the runtime was not built with WithSharedOutputs).
func (r *Runtime) FlushPipelineDepth() int { return r.flushDepth }

// FlushSlotsInUse returns how many flush slots are currently leased —
// the live pipeline-depth gauge the serving metrics report.
func (r *Runtime) FlushSlotsInUse() int {
	if r.planes == nil {
		return 0
	}
	return r.flushDepth - len(r.planes)
}

// AcquireFlushSlot leases one result plane, blocking while all
// FlushPipelineDepth planes are held (backpressure: the pipeline is
// bounded, a stalled reader can stall at most its own plane's
// successors). It unblocks with ctx.Err on cancellation and fails with
// ErrClosed after Close. Callers must Release the slot exactly once.
func (r *Runtime) AcquireFlushSlot(ctx context.Context) (*FlushSlot, error) {
	if r.planes == nil {
		return nil, errors.New("engine: flush slots require WithSharedOutputs")
	}
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
// logits into this slot's plane. It is Runtime.InferBatch with the
// plane lease replacing the internal serialisation: results are valid
// until Release (or the slot's next InferBatch), bit-identical to a
// serial session, and other slots' in-flight batches are unaffected.
// Cancelling ctx stops submission and returns ctx.Err after every
// already-submitted chunk has drained.
func (s *FlushSlot) InferBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	return s.r.run(ctx, &s.p, &s.d, xs)
}

// PredictBatch runs every input through the pool and returns the argmax
// classes in input order. It shares InferBatch's contract: context
// cancellation drains already-submitted work before returning, and after
// Close it fails with ErrClosed. Under WithSharedOutputs it consumes the
// shared logits buffer while still holding its lock, so concurrent
// PredictBatch and Accuracy calls never read another batch's logits.
func (r *Runtime) PredictBatch(ctx context.Context, xs [][]float64) ([]int, error) {
	if r.shared != nil {
		r.sharedMu.Lock()
		defer r.sharedMu.Unlock()
	}
	logits, err := r.batch(ctx, xs)
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
