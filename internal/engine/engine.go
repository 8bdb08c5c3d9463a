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

// Result is one completed streaming inference.
type Result struct {
	// ID is the caller's identifier from Submit.
	ID int
	// Logits are the decoded output logits (nil when Err is set).
	Logits []float64
	// Class is the argmax class (lowest index wins ties); -1 when Err is
	// set.
	Class int
	// Err reports an inference that failed inside the worker (a
	// recovered model-kernel panic, wrapping ErrPanic).
	Err error
}

// task is one unit of work. For a streaming task, x is the input and
// dst (optional) is where the logits go: when dst is non-nil the worker
// decodes into it (the allocation-free shared-output path), otherwise it
// allocates the logits. When xs is non-nil the task is one fused batch
// chunk instead: the worker runs the whole chunk through the inferer's
// batched kernels in one InferBatchInto call, decoding into the flat
// dstFlat window (len(xs) × output width). deliver is called exactly
// once either way, with err set when the inference panicked.
type task struct {
	id      int
	x       []float64
	dst     []float64
	xs      [][]float64
	dstFlat []float64
	deliver func(id int, logits []float64, err error)
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
// worker count (the default). Deeper queues let bursty Submit traffic
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
// internally. Streaming Submit results are unaffected (every Result owns
// its logits).
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
	results chan Result

	wg sync.WaitGroup // workers

	// mu guards closed. Producers hold it for reading while enqueueing, so
	// jobs is never closed mid-send.
	mu     sync.RWMutex
	closed bool

	// panics counts inferences that panicked inside a worker (each one
	// failed with ErrPanic; the worker survived).
	panics atomic.Int64

	// shared-output batch state (sharedBatch serialises those batches).
	sharedOut     bool
	sharedMu      sync.Mutex
	sharedBuf     []float64
	sharedHdrs    [][]float64
	sharedWG      sync.WaitGroup
	sharedErrMu   sync.Mutex
	sharedErr     error
	sharedDeliver func(id int, logits []float64, err error)

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
		model:     model,
		workers:   cfg.workers,
		jobs:      make(chan task, cfg.queueDepth),
		results:   make(chan Result, cfg.queueDepth),
		sharedOut: cfg.sharedOut,
	}
	if cfg.sharedOut {
		r.flushDepth = cfg.flushDepth
		r.planes = make(chan *FlushSlot, cfg.flushDepth)
		for i := 0; i < cfg.flushDepth; i++ {
			s := &FlushSlot{r: r}
			s.deliver = func(id int, _ []float64, err error) {
				if err != nil {
					s.errMu.Lock()
					if s.err == nil {
						s.err = fmt.Errorf("engine: batch chunk at input %d: %w", id, err)
					}
					s.errMu.Unlock()
				}
				s.wg.Done()
			}
			r.planes <- s
		}
	}
	r.sharedDeliver = func(id int, _ []float64, err error) {
		if err != nil {
			r.sharedErrMu.Lock()
			if r.sharedErr == nil {
				r.sharedErr = fmt.Errorf("engine: batch chunk at input %d: %w", id, err)
			}
			r.sharedErrMu.Unlock()
		}
		r.sharedWG.Done()
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
		logits, err := runTask(s, t)
		if err != nil {
			r.panics.Add(1)
			s = r.model.NewInferer()
		}
		t.deliver(t.id, logits, err)
	}
}

// runTask executes one task — a fused batch chunk or one streaming
// inference — converting a panic into an error.
func runTask(s core.Inferer, t task) (logits []float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			logits, err = nil, fmt.Errorf("%w: %v", ErrPanic, p)
		}
	}()
	if t.xs != nil {
		s.InferBatchInto(t.dstFlat, t.xs)
		return nil, nil
	}
	if t.dst != nil {
		return s.InferInto(t.dst, t.x), nil
	}
	return s.Infer(t.x), nil
}

// Model returns the model plane the runtime serves.
func (r *Runtime) Model() core.Model { return r.model }

// Workers returns the pool size.
func (r *Runtime) Workers() int { return r.workers }

// QueueCap returns the job-queue capacity configured at construction
// (WithQueueDepth, default twice the worker count).
func (r *Runtime) QueueCap() int { return cap(r.jobs) }

// QueueLen returns the current job-queue occupancy: inferences submitted
// but not yet picked up by a worker. Together with QueueCap it is the
// backpressure signal an admission layer reads to shed load instead of
// letting requests queue without bound.
func (r *Runtime) QueueLen() int { return len(r.jobs) }

// SharedOutputs reports whether the runtime was built with
// WithSharedOutputs — callers then own the serialisation and copy-out of
// InferBatch results.
func (r *Runtime) SharedOutputs() bool { return r.sharedOut }

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

// batchChunk returns the fused-chunk size for a batch of n samples:
// ceil(n / workers), so one batch spreads over the whole pool while
// each worker runs its share as a single fused InferBatchInto call.
func (r *Runtime) batchChunk(n int) int {
	c := (n + r.workers - 1) / r.workers
	if c < 1 {
		c = 1
	}
	return c
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
	if r.sharedOut {
		r.sharedMu.Lock()
		defer r.sharedMu.Unlock()
		return r.inferBatchShared(ctx, xs)
	}
	od := r.model.OutputDim()
	buf := make([]float64, len(xs)*od)
	out := make([][]float64, len(xs))
	for i := range out {
		out[i] = buf[i*od : (i+1)*od : (i+1)*od]
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	deliver := func(id int, _ []float64, err error) {
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("engine: batch chunk at input %d: %w", id, err)
			}
			errMu.Unlock()
		}
		wg.Done()
	}
	chunk := r.batchChunk(len(xs))
	for start := 0; start < len(xs); start += chunk {
		end := start + chunk
		if end > len(xs) {
			end = len(xs)
		}
		wg.Add(1)
		t := task{id: start, xs: xs[start:end], dstFlat: buf[start*od : end*od], deliver: deliver}
		if err := r.enqueue(ctx, t); err != nil {
			wg.Done()
			wg.Wait() // drain already-submitted work before returning
			return nil, err
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// inferBatchShared is the allocation-free InferBatch arm: logits land in
// a runtime-owned flat buffer reused across calls. Caller holds r.mu for
// reading and r.sharedMu (the latter until it has finished consuming the
// returned slices).
func (r *Runtime) inferBatchShared(ctx context.Context, xs [][]float64) ([][]float64, error) {
	od := r.model.OutputDim()
	if need := len(xs) * od; cap(r.sharedBuf) < need {
		r.sharedBuf = make([]float64, need)
	}
	if cap(r.sharedHdrs) < len(xs) {
		r.sharedHdrs = make([][]float64, len(xs))
	}
	hdrs := r.sharedHdrs[:len(xs)]
	buf := r.sharedBuf[:len(xs)*od]
	for i := range hdrs {
		hdrs[i] = buf[i*od : (i+1)*od : (i+1)*od]
	}
	chunk := r.batchChunk(len(xs))
	for start := 0; start < len(xs); start += chunk {
		end := start + chunk
		if end > len(xs) {
			end = len(xs)
		}
		r.sharedWG.Add(1)
		t := task{id: start, xs: xs[start:end], dstFlat: buf[start*od : end*od], deliver: r.sharedDeliver}
		if err := r.enqueue(ctx, t); err != nil {
			r.sharedWG.Done()
			r.sharedWG.Wait()
			r.sharedErr = nil // delivered chunks may have panicked; the ctx error wins
			return nil, err
		}
	}
	r.sharedWG.Wait()
	// sharedWG.Wait orders every sharedDeliver write before this read, and
	// the caller holds sharedMu, so the reset cannot race the next batch.
	if err := r.sharedErr; err != nil {
		r.sharedErr = nil
		return nil, err
	}
	return hdrs, nil
}

// FlushSlot is one leased result plane of a shared-output runtime's
// flush pipeline: a runtime-owned flat logits buffer plus the machinery
// to run one batch into it. Between AcquireFlushSlot and Release the
// plane belongs to the holder alone, so a second slot's InferBatch can
// compute while this slot's results are still being read — the
// serving-plane analogue of the paper's accelerator keeping its EMAC
// pipeline full across windows. A FlushSlot is single-owner: its
// methods must not be called concurrently.
type FlushSlot struct {
	r       *Runtime
	buf     []float64
	hdrs    [][]float64
	wg      sync.WaitGroup
	errMu   sync.Mutex
	err     error
	deliver func(id int, logits []float64, err error)
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
	r := s.r
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
	if need := len(xs) * od; cap(s.buf) < need {
		s.buf = make([]float64, need)
	}
	if cap(s.hdrs) < len(xs) {
		s.hdrs = make([][]float64, len(xs))
	}
	hdrs := s.hdrs[:len(xs)]
	buf := s.buf[:len(xs)*od]
	for i := range hdrs {
		hdrs[i] = buf[i*od : (i+1)*od : (i+1)*od]
	}
	chunk := r.batchChunk(len(xs))
	for start := 0; start < len(xs); start += chunk {
		end := start + chunk
		if end > len(xs) {
			end = len(xs)
		}
		s.wg.Add(1)
		t := task{id: start, xs: xs[start:end], dstFlat: buf[start*od : end*od], deliver: s.deliver}
		if err := r.enqueue(ctx, t); err != nil {
			s.wg.Done()
			s.wg.Wait()
			s.err = nil // delivered chunks may have panicked; the ctx error wins
			return nil, err
		}
	}
	s.wg.Wait()
	// wg.Wait orders every deliver write before this read, and the slot
	// is single-owner, so the reset cannot race the slot's next batch.
	if err := s.err; err != nil {
		s.err = nil
		return nil, err
	}
	return hdrs, nil
}

// PredictBatch runs every input through the pool and returns the argmax
// classes in input order. It shares InferBatch's contract: context
// cancellation drains already-submitted work before returning, and after
// Close it fails with ErrClosed. Under WithSharedOutputs it consumes the
// shared logits buffer while still holding its lock, so concurrent
// PredictBatch and Accuracy calls never read another batch's logits.
func (r *Runtime) PredictBatch(ctx context.Context, xs [][]float64) ([]int, error) {
	if !r.sharedOut {
		logits, err := r.InferBatch(ctx, xs)
		if err != nil {
			return nil, err
		}
		return argmaxAll(logits), nil
	}
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
	r.sharedMu.Lock()
	defer r.sharedMu.Unlock()
	logits, err := r.inferBatchShared(ctx, xs)
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

// Submit enqueues one streaming inference; its Result (tagged with id)
// arrives on the Results channel in completion order. Submit blocks while
// the queue is saturated — callers must drain Results concurrently — and
// unblocks with ctx.Err when the context is cancelled first. After Close
// it returns ErrClosed.
func (r *Runtime) Submit(ctx context.Context, id int, x []float64) error {
	if err := r.checkInput(x); err != nil {
		return err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return ErrClosed
	}
	return r.enqueue(ctx, task{id: id, x: x, deliver: r.deliverResult})
}

// deliverResult is the streaming delivery path (one shared func value so
// Submit allocates no closure per call).
func (r *Runtime) deliverResult(id int, logits []float64, err error) {
	if err != nil {
		r.results <- Result{ID: id, Class: -1, Err: err}
		return
	}
	r.results <- Result{ID: id, Logits: logits, Class: nn.Argmax(logits)}
}

// Close stops accepting work, waits for every in-flight inference and
// closes the Results channel — results submitted before Close are never
// dropped. Close is idempotent and safe to call concurrently with
// Submit/InferBatch: late producers observe ErrClosed. Callers streaming
// with Submit must keep draining Results until it closes.
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
	close(r.results)
	return nil
}

// Results returns the streaming output channel. It is closed by Close
// after every in-flight inference has delivered.
func (r *Runtime) Results() <-chan Result { return r.results }
