// Package registry is the multi-model serving layer between the engine
// Runtime and the positrond HTTP front-end. A Registry owns loaded
// (Model, Runtime, Batcher, Metrics) entries keyed by artifact content
// hash, with a name table binding serving names to entries — two names
// over the same bytes share one runtime. Lifecycle is
// reference-counted: models load from an artifact path, raw uploaded
// bytes, or a bare store hash; requests acquire a handle for the
// duration of one inference; and unload is graceful — the name leaves
// the table immediately (new acquires fail), then the runtime closes
// via the existing Runtime.Close drain semantics once the last binding
// is gone and the last in-flight handle releases.
//
// The content-addressed store is the source of truth for model bytes:
// every load lands canonical bytes in the store first and decodes the
// model from store-owned bytes, so a model is exactly its artifact.
// Registry.GC sweeps blobs no live entry or in-flight load pins.
//
// The paper's premise — precision-adaptable EMACs make low-precision
// inference cheap enough to deploy widely — lands here as many small
// quantised models (different formats, different datasets) served side
// by side from one process, each behind its own worker pool and
// micro-batcher.
package registry

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/store"
	"repro/internal/core"
	"repro/internal/engine"
)

// ErrNotFound is returned when a model name is not in the registry.
var ErrNotFound = errors.New("registry: model not found")

// ErrExists is returned by Load when the name is already taken.
var ErrExists = errors.New("registry: model already loaded")

// ErrRegistryClosed is returned after Close.
var ErrRegistryClosed = errors.New("registry: closed")

// config collects the functional options applied to every model loaded
// into a Registry.
type config struct {
	rtOpts      []engine.Option
	maxBatch    int
	maxInFlight int
	reqTimeout  time.Duration
	flushDepth  int
	store       store.Store
}

// Option configures a Registry at construction.
type Option func(*config)

// WithRuntimeOptions sets the engine options (worker count, queue depth,
// warm tables) applied to every per-model runtime the registry builds.
// engine.WithSharedOutputs and engine.WithFlushPipeline are implied: the
// batcher leases a result plane per flush and copies results out, so
// every flush rides the allocation-free batch path.
func WithRuntimeOptions(opts ...engine.Option) Option {
	return func(c *config) { c.rtOpts = append(c.rtOpts, opts...) }
}

// WithMaxBatch bounds a coalesced flush: a finishing flush takes up at
// most n of the requests queued behind busy flush planes. n <= 1
// flushes every request alone. The default is DefaultMaxBatch.
func WithMaxBatch(n int) Option {
	return func(c *config) { c.maxBatch = n }
}

// WithMaxInFlight caps the concurrently admitted inference requests per
// model (each Handle.Infer or Handle.InferBatch counts once, whatever
// its size, for its whole lifetime including micro-batcher queueing). A
// request arriving at the cap is rejected immediately with
// ErrOverloaded — shed, not silently queued — which the HTTP layer maps
// to 429. n <= 0 (the default) leaves admission unlimited.
func WithMaxInFlight(n int) Option {
	return func(c *config) { c.maxInFlight = n }
}

// WithFlushPipeline sets the flush-pipeline depth D for every runtime
// the registry builds: D leasable result planes, so the runtime computes
// flush N while flush N−1's results demux and flush N+1 accumulates. It
// is also how many work-conserving flushes run at once before requests
// start to queue. d = 1 serialises flushes (the pre-pipeline behaviour);
// d <= 0 resets to DefaultFlushPipeline.
func WithFlushPipeline(d int) Option {
	return func(c *config) { c.flushDepth = d }
}

// WithStore sets the content-addressed artifact store behind the
// registry. It is the source of truth for model bytes: loads land
// canonical bytes there first and decode from store-owned bytes,
// same-hash loads under different names store the bytes once and share
// a runtime, LoadHash instantiates a model from the store alone (which
// with a peer-backed store means fetching it across the fleet), and
// Registry.GC reclaims blobs nothing references. The default is a fresh
// in-memory store.
func WithStore(s store.Store) Option {
	return func(c *config) { c.store = s }
}

// WithRequestTimeout bounds one admitted request end to end: time spent
// waiting in the micro-batcher's pending queue, on the runtime job
// queue, and computing. A request that exceeds it fails with
// ErrRequestTimeout instead of hanging while the queues stay saturated.
// d <= 0 (the default) disables the deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.reqTimeout = d }
}

// entry is one loaded model and its serving machinery, keyed in the
// registry by its artifact content hash — several names may bind to one
// entry and share its runtime.
type entry struct {
	key     artifact.Hash // registry object key (surrogate when hash is zero)
	model   core.Model
	rt      *engine.Runtime
	batcher *Batcher
	metrics *Metrics

	// hash/artBytes identify the model's canonical binary artifact in
	// the content-addressed store: its SHA-256 and byte size. A zero
	// hash marks a model outside the binary codec (no store entry).
	hash     artifact.Hash
	artBytes int64

	// admission gate: gate bounds concurrently admitted requests (nil =
	// unlimited), timeout bounds one admitted request end to end (0 =
	// none). See admission.go.
	gate    *gate
	timeout time.Duration

	bound    int  // names currently bound to this entry
	refs     int  // in-flight handles
	unloaded bool // out of the object table; close when refs hit 0

	closeOnce sync.Once
	done      chan struct{} // closed once the runtime has drained and closed
}

// binding maps one serving name onto an entry.
type binding struct {
	e      *entry
	loaded time.Time
}

// close tears down one entry: the batcher first (rejects new work,
// waits out its flushes), then the runtime (drains in-flight
// inferences).
// Called at most once, with refs == 0 and bound == 0.
func (e *entry) close() {
	e.batcher.Close()
	_ = e.rt.Close()
	close(e.done)
}

// Registry is a concurrency-safe named-model table. All methods are safe
// for concurrent use.
type Registry struct {
	cfg config

	mu      sync.Mutex
	objects map[artifact.Hash]*entry // live entries by content key
	names   map[string]*binding      // serving names onto entries
	pins    map[artifact.Hash]int    // hashes held live by in-flight loads
	anonSeq uint64                   // surrogate-key counter for hashless models
	closed  bool
}

// New returns an empty registry. Options set the runtime and batching
// configuration applied to every model loaded afterwards.
func New(opts ...Option) *Registry {
	cfg := config{maxBatch: DefaultMaxBatch}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.flushDepth <= 0 {
		cfg.flushDepth = DefaultFlushPipeline
	}
	if cfg.store == nil {
		cfg.store = store.NewMem()
	}
	return &Registry{
		cfg:     cfg,
		objects: make(map[artifact.Hash]*entry),
		names:   make(map[string]*binding),
		pins:    make(map[artifact.Hash]int),
	}
}

// validName rejects names that would not round-trip through a URL path
// segment.
func validName(name string) error {
	if name == "" {
		return errors.New("registry: empty model name")
	}
	if name == "." || name == ".." {
		return fmt.Errorf("registry: invalid model name %q", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("registry: invalid model name %q (use letters, digits, '-', '_', '.')", name)
		}
	}
	return nil
}

// precheck is the cheap gate before paying for hashing, store IO, or a
// runtime build: a duplicate or post-Close load should fail before it
// spins anything up. The authoritative check repeats under the lock in
// loadEntry, since the tables can change in between.
func (r *Registry) precheck(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRegistryClosed
	}
	if _, ok := r.names[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	return nil
}

// pin holds an artifact hash live against GC for the duration of a
// load, before its bytes are even in the store: a blob pinned before
// its Put can never be in a sweep (the GC predicate runs at delete
// time, under the store's own lock).
func (r *Registry) pin(h artifact.Hash) {
	r.mu.Lock()
	r.pins[h]++
	r.mu.Unlock()
}

// unpin releases a load-time pin. Once the entry is in the object
// table, table membership keeps the hash live instead.
func (r *Registry) unpin(h artifact.Hash) {
	r.mu.Lock()
	if r.pins[h]--; r.pins[h] <= 0 {
		delete(r.pins, h)
	}
	r.mu.Unlock()
}

// isLive is the GC predicate: a hash is live while an in-flight load or
// a draining entry pins it, or a loaded entry owns it.
func (r *Registry) isLive(h artifact.Hash) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pins[h] > 0 {
		return true
	}
	_, ok := r.objects[h]
	return ok
}

// GC sweeps the artifact store, removing every blob no loaded model or
// in-flight load references, and reports how many blobs and bytes it
// reclaimed. This is the reclamation path for Unload: a model's bytes
// outlive its name (they are the warm cache for the next load of the
// same hash, and peers may still fetch them) until a sweep decides the
// space matters more.
func (r *Registry) GC() (removed int, freed int64, err error) {
	return r.cfg.store.GC(r.isLive)
}

// Load registers a model under name. Its canonical bytes land in the
// store first and the served model is decoded back from store-owned
// bytes, so what serves is exactly what the store holds. A name over
// bytes already loaded binds to the existing entry and shares its
// runtime; otherwise a new runtime (one shared-nothing worker pool) and
// micro-batcher are built. Load fails with ErrExists when the name is
// taken and ErrRegistryClosed after Close.
//
// Models outside the binary codec (test doubles, experimental planes)
// have no canonical artifact: they load and serve as given, with a zero
// hash and no store entry.
func (r *Registry) Load(name string, model core.Model) error {
	if err := validName(name); err != nil {
		return err
	}
	if model == nil {
		return errors.New("registry: nil model")
	}
	if err := r.precheck(name); err != nil {
		return err
	}

	data, hash, err := artifact.Canonical(model)
	if errors.Is(err, artifact.ErrUnsupported) {
		// No canonical bytes to own; serve the caller's object under a
		// surrogate key so it gets its own entry and never aliases.
		r.mu.Lock()
		r.anonSeq++
		key := artifact.Sum([]byte(fmt.Sprintf("registry: anonymous model %d", r.anonSeq)))
		r.mu.Unlock()
		return r.loadEntry(name, key, artifact.Hash{}, 0, model)
	}
	if err != nil {
		return err
	}

	// Store-first: pin the hash (so a concurrent GC can never sweep the
	// bytes out from under this load), land the bytes, then decode the
	// serving model from what the store returns — not from the caller's
	// object. Done outside the lock: hashing is cheap but a durable
	// store may touch disk.
	r.pin(hash)
	defer r.unpin(hash)
	if _, err := r.cfg.store.Put(data); err != nil {
		return fmt.Errorf("registry: storing artifact for %q: %w", name, err)
	}
	stored, err := r.cfg.store.Get(hash)
	if err != nil {
		return fmt.Errorf("registry: reading back artifact for %q: %w", name, err)
	}
	decoded, err := artifact.Parse(stored)
	if err != nil {
		return fmt.Errorf("registry: decoding stored artifact for %q: %w", name, err)
	}
	return r.loadEntry(name, hash, hash, int64(len(stored)), decoded)
}

// LoadPath loads an artifact file (uniform or mixed) under name. Binary
// and JSON artifacts are detected transparently by the binary magic.
func (r *Registry) LoadPath(name, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := r.LoadBytes(name, data); err != nil {
		return fmt.Errorf("registry: loading %s: %w", path, err)
	}
	return nil
}

// LoadBytes loads an artifact from raw bytes — the upload path: clients
// POST the artifact body to the daemon instead of referencing a file on
// the server's disk. Binary and JSON artifacts are detected
// transparently; either way the canonical binary form is what the store
// keeps and the served model decodes from.
func (r *Registry) LoadBytes(name string, data []byte) error {
	model, err := artifact.Parse(data)
	if err != nil {
		return err
	}
	return r.Load(name, model)
}

// LoadHash registers a model under name from its content address alone:
// the bytes come out of the store (which, over a peer-backed tier, may
// mean fetching and persisting them from another replica), decode, and
// serve. A store miss surfaces as store.ErrNotFound — the caller asked
// for bytes the fleet does not have.
func (r *Registry) LoadHash(name string, h artifact.Hash) error {
	if err := validName(name); err != nil {
		return err
	}
	if h == (artifact.Hash{}) {
		return errors.New("registry: zero artifact hash")
	}
	if err := r.precheck(name); err != nil {
		return err
	}

	r.pin(h)
	defer r.unpin(h)
	data, err := r.cfg.store.Get(h)
	if err != nil {
		return fmt.Errorf("registry: artifact %s: %w", h, err)
	}
	model, err := artifact.Parse(data)
	if err != nil {
		return fmt.Errorf("registry: decoding artifact %s: %w", h, err)
	}
	return r.loadEntry(name, h, h, int64(len(data)), model)
}

// loadEntry binds name to the entry for key, building the entry (runtime
// + micro-batcher) if no live one exists. The runtime build happens
// outside the lock — warm tables can take a while and must not stall
// unrelated lookups — so a lost build race resolves by binding to the
// winner and discarding the fresh runtime.
func (r *Registry) loadEntry(name string, key, hash artifact.Hash, artBytes int64, model core.Model) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRegistryClosed
	}
	if _, ok := r.names[name]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if e, ok := r.objects[key]; ok {
		// Alias fast path: the content is already serving; share its
		// runtime instead of building another worker pool.
		e.bound++
		r.names[name] = &binding{e: e, loaded: time.Now()}
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()

	// The batcher leases a result plane per flush and copies results out.
	opts := append([]engine.Option{}, r.cfg.rtOpts...)
	opts = append(opts, engine.WithSharedOutputs(), engine.WithFlushPipeline(r.cfg.flushDepth))
	rt, err := engine.NewRuntime(model, opts...)
	if err != nil {
		return err
	}
	metrics := &Metrics{}
	e := &entry{
		key:      key,
		model:    model,
		rt:       rt,
		batcher:  NewBatcher(rt, r.cfg.maxBatch, metrics),
		metrics:  metrics,
		hash:     hash,
		artBytes: artBytes,
		timeout:  r.cfg.reqTimeout,
		done:     make(chan struct{}),
	}
	if r.cfg.maxInFlight > 0 {
		e.gate = newGate(r.cfg.maxInFlight)
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = rt.Close()
		return ErrRegistryClosed
	}
	if _, ok := r.names[name]; ok {
		r.mu.Unlock()
		_ = rt.Close()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if winner, ok := r.objects[key]; ok {
		// A concurrent load of the same content won the build race; its
		// runtime serves both names, ours closes unused.
		winner.bound++
		r.names[name] = &binding{e: winner, loaded: time.Now()}
		r.mu.Unlock()
		_ = rt.Close()
		return nil
	}
	e.bound = 1
	r.objects[key] = e
	r.names[name] = &binding{e: e, loaded: time.Now()}
	r.mu.Unlock()
	return nil
}

// Handle pins one model for the duration of a request: the entry cannot
// finish unloading while handles are outstanding. Release exactly once
// (idempotent) when done.
type Handle struct {
	r    *Registry
	e    *entry
	name string

	once sync.Once
}

// Name returns the registry name this handle was acquired under (one
// entry may serve several names).
func (h *Handle) Name() string { return h.name }

// Model returns the pinned model plane.
func (h *Handle) Model() core.Model { return h.e.model }

// ContentHash returns the model's artifact content address.
func (h *Handle) ContentHash() artifact.Hash { return h.e.hash }

// Runtime returns the model's worker-pool runtime. It is built with
// shared outputs: call it through Batcher (which leases a result plane
// per flush and copies results out) rather than invoking InferBatch
// directly.
func (h *Handle) Runtime() *engine.Runtime { return h.e.rt }

// Batcher returns the model's micro-batcher — the inference entry point.
func (h *Handle) Batcher() *Batcher { return h.e.batcher }

// Metrics returns the model's serving metrics.
func (h *Handle) Metrics() *Metrics { return h.e.metrics }

// Release un-pins the model. If the model was unloaded while this handle
// was live and this is the last handle, the entry's runtime drains and
// closes now.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.r.mu.Lock()
		h.e.refs--
		last := h.e.refs == 0 && h.e.unloaded
		h.r.mu.Unlock()
		if last {
			h.e.closeOnce.Do(h.e.close)
		}
	})
}

// Acquire pins the named model and returns its handle. Fails with
// ErrNotFound for unknown (or already-unloaded) names and
// ErrRegistryClosed after Close.
func (r *Registry) Acquire(name string) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	b, ok := r.names[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	b.e.refs++
	return &Handle{r: r, e: b.e, name: name}, nil
}

// Unload removes the named model: the name disappears immediately (new
// Acquires fail). If other names still bind the same entry, Unload
// returns at once and the shared runtime keeps serving them. For the
// last name it blocks until the runtime has drained and closed:
// in-flight requests finish on their handles, then the batcher flushes
// and Runtime.Close drains the pool. The artifact bytes stay in the
// store until a GC sweep finds them unreferenced. After Close it fails
// with ErrRegistryClosed — checked before the name lookup, so clients
// can tell shutdown (every name is gone) from a genuinely unknown
// model.
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRegistryClosed
	}
	b, ok := r.names[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.names, name)
	e := b.e
	e.bound--
	if e.bound > 0 {
		r.mu.Unlock()
		return nil
	}
	delete(r.objects, e.key)
	e.unloaded = true
	// Out of the object table, the entry's handles still serve its bytes:
	// pin the hash until they drain.
	r.pins[e.key]++
	idle := e.refs == 0
	r.mu.Unlock()

	if idle {
		e.closeOnce.Do(e.close)
	}
	<-e.done
	r.unpin(e.key)
	return nil
}

// Store returns the content-addressed artifact store behind the
// registry — the source of truth for model bytes. Unload does not
// remove artifact bytes from it (blobs are immutable, may back several
// names at once, serve peer fetches, and double as the warm cache for
// the next load of the same hash); Registry.GC is the reclamation path.
func (r *Registry) Store() store.Store { return r.cfg.store }

// StoreStats reports the artifact store's occupancy, dedup, and GC
// counters (surfaced in /v1/metrics), including per-tier breakdowns for
// composed stores.
func (r *Registry) StoreStats() store.Stats { return r.cfg.store.Stats() }

// Names returns the loaded model names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.names))
	for name := range r.names {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Len returns the number of loaded model names.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.names)
}

// Closed reports whether Close has been called — the readiness probe's
// signal that this process is past the point of serving.
func (r *Registry) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// ModelStat is one registry entry's introspection record.
type ModelStat struct {
	Name         string   `json:"name"`
	Model        string   `json:"model"`
	Kind         string   `json:"kind"`
	InputDim     int      `json:"input_dim"`
	OutputDim    int      `json:"output_dim"`
	Layers       int      `json:"layers"`
	Arithmetics  []string `json:"arithmetics"`
	MemoryBits   int      `json:"memory_bits"`
	Standardized bool     `json:"standardized"`
	// ContentHash is the SHA-256 of the model's canonical binary
	// artifact — its content address in the store and the ETag
	// /v1/models serves; ArtifactBytes is that artifact's size.
	ContentHash   string `json:"content_hash"`
	ArtifactBytes int64  `json:"artifact_bytes"`
	// Aliases counts the names currently bound to this model's entry
	// (same content hash → shared runtime); 1 when this name is alone.
	Aliases  int `json:"aliases"`
	Workers  int `json:"workers"`
	MaxBatch int `json:"max_batch"`
	// FlushPipeline is the runtime's flush-slot plane count;
	// PipelineInUse samples how many planes are leased right now,
	// BatchFlushing how many work-conserving flushes are in progress
	// (single-sample calls queue once it reaches FlushPipeline), and
	// BatchQueued how many single-sample calls wait in the batcher's
	// queue for a flush.
	FlushPipeline int `json:"flush_pipeline"`
	PipelineInUse int `json:"pipeline_in_use"`
	BatchFlushing int `json:"batch_flushing"`
	BatchQueued   int `json:"batch_queued"`
	// MaxInFlight is the admission capacity in requests (0 =
	// unlimited); RequestTimeout is the per-request deadline ("0s" =
	// none).
	MaxInFlight    int    `json:"max_in_flight"`
	RequestTimeout string `json:"request_timeout"`
	// QueueLen/QueueCap sample the runtime job queue — the backpressure
	// signal behind admission control.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// Panics counts inferences that panicked inside a worker (each failed
	// its own request; the worker survived). Nonzero means some kernel is
	// unsound for some inputs.
	Panics   int64    `json:"panics"`
	LoadedAt string   `json:"loaded_at"`
	Metrics  Snapshot `json:"metrics"`
}

// statFor builds one binding's record; aliases is sampled by the caller
// under r.mu, everything else reads immutable entry fields plus the
// metrics' own lock.
func statFor(name string, b *binding, aliases int) ModelStat {
	e := b.e
	m := e.model
	// Models with no canonical artifact (zero hash) report an empty
	// content hash, not 64 zeros.
	contentHash := ""
	if e.hash != (artifact.Hash{}) {
		contentHash = e.hash.String()
	}
	return ModelStat{
		Name:           name,
		Model:          m.String(),
		Kind:           m.Kind(),
		InputDim:       m.InputDim(),
		OutputDim:      m.OutputDim(),
		Layers:         m.NumLayers(),
		Arithmetics:    m.ArithNames(),
		MemoryBits:     m.MemoryBits(),
		Standardized:   m.Standardizer() != nil,
		ContentHash:    contentHash,
		ArtifactBytes:  e.artBytes,
		Aliases:        aliases,
		Workers:        e.rt.Workers(),
		MaxBatch:       e.batcher.MaxBatch(),
		FlushPipeline:  e.rt.FlushPipelineDepth(),
		PipelineInUse:  e.rt.FlushSlotsInUse(),
		BatchFlushing:  e.batcher.Flushing(),
		BatchQueued:    e.batcher.Queued(),
		MaxInFlight:    e.gate.Cap(),
		RequestTimeout: e.timeout.String(),
		QueueLen:       e.rt.QueueLen(),
		QueueCap:       e.rt.QueueCap(),
		Panics:         e.rt.Panics(),
		LoadedAt:       b.loaded.UTC().Format(time.RFC3339),
		Metrics:        e.metrics.Snapshot(),
	}
}

// Stat returns one model's introspection record.
func (r *Registry) Stat(name string) (ModelStat, error) {
	r.mu.Lock()
	b, ok := r.names[name]
	var aliases int
	if ok {
		aliases = b.e.bound
	}
	r.mu.Unlock()
	if !ok {
		return ModelStat{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return statFor(name, b, aliases), nil
}

// Stats returns every loaded model's record, sorted by name.
func (r *Registry) Stats() []ModelStat {
	type named struct {
		name    string
		b       *binding
		aliases int
	}
	r.mu.Lock()
	bindings := make([]named, 0, len(r.names))
	for name, b := range r.names {
		bindings = append(bindings, named{name, b, b.e.bound})
	}
	r.mu.Unlock()
	stats := make([]ModelStat, len(bindings))
	for i, n := range bindings {
		stats[i] = statFor(n.name, n.b, n.aliases)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	return stats
}

// Close unloads every model (draining each runtime) and marks the
// registry closed: subsequent Load/Acquire fail with ErrRegistryClosed.
// Idempotent.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	entries := make([]*entry, 0, len(r.objects))
	for key, e := range r.objects {
		delete(r.objects, key)
		e.bound = 0
		e.unloaded = true
		r.pins[key]++ // as in Unload: live until its handles drain
		entries = append(entries, e)
	}
	for name := range r.names {
		delete(r.names, name)
	}
	r.mu.Unlock()

	for _, e := range entries {
		r.mu.Lock()
		idle := e.refs == 0
		r.mu.Unlock()
		if idle {
			e.closeOnce.Do(e.close)
		}
		<-e.done
		r.unpin(e.key)
	}
	return nil
}
