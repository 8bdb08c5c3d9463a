// Package positron is the public API of the Deep Positron reproduction:
// a Go implementation of "Deep Positron: A Deep Neural Network Using the
// Posit Number System" (Carmichael et al., DATE 2019).
//
// It exposes five layers of the system:
//
//   - Number formats: arbitrary posit(n,es) arithmetic (with the quire),
//     parameterised minifloats, and Q-format fixed point — all bit-exact.
//   - EMACs: the paper's exact multiply-and-accumulate units for all
//     three formats behind one Arithmetic interface.
//   - Deep Positron: quantised feed-forward inference built from EMACs,
//     plus float64 training to produce the networks.
//   - Serving: the Model interface (one network type, uniform or
//     per-layer mixed precision, behind versioned JSON and binary
//     artifacts, content-addressed by SHA-256 into a pluggable store) and
//     the context-aware Runtime over a pool of inferers; cmd/positrond
//     serves any artifact over HTTP, and the Router tier fronts many
//     positrond replicas with circuit breakers, retries and health-aware
//     proxying (chaos-tested via the deterministic FaultInjector).
//   - Evaluation: the analytic Virtex-7 hardware model and harnesses
//     regenerating every table and figure of the paper.
//
// See the runnable programs under examples/ for end-to-end usage.
package positron

import (
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/store"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/fixedpoint"
	"repro/internal/hw"
	"repro/internal/minifloat"
	"repro/internal/nn"
	"repro/internal/posit"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
)

// --- posit numbers ---

// PositFormat identifies a posit format by width n and exponent size es.
type PositFormat = posit.Format

// Posit is a single posit value.
type Posit = posit.Posit

// Quire is the posit Kulisch accumulator (paper eq. (4)).
type Quire = posit.Quire

// NewPositFormat validates and returns a posit(n, es) format.
func NewPositFormat(n, es uint) (PositFormat, error) { return posit.NewFormat(n, es) }

// MustPositFormat panics on invalid parameters.
func MustPositFormat(n, es uint) PositFormat { return posit.MustFormat(n, es) }

// NewQuire returns an empty quire for k accumulations.
func NewQuire(f PositFormat, k int) *Quire { return posit.NewQuire(f, k) }

// PositDot computes the exactly rounded posit dot product (one rounding).
func PositDot(w, a []Posit) Posit { return posit.DotProduct(w, a) }

// PositVector is a posit slice with quire-exact kernels (Dot, Norm2, Sum).
type PositVector = posit.Vector

// PositMatrix is a dense posit matrix with one-rounding-per-element
// products.
type PositMatrix = posit.Matrix

// NewPositVector quantises a float64 slice.
func NewPositVector(f PositFormat, xs []float64) PositVector { return posit.NewVector(f, xs) }

// NewPositMatrix quantises a row-major float64 matrix.
func NewPositMatrix(f PositFormat, rows, cols int, xs []float64) *PositMatrix {
	return posit.NewMatrix(f, rows, cols, xs)
}

// WarmPositTables eagerly builds the decode and Mul/Add fast-path tables
// for a format (otherwise built lazily on first use), so the first
// inference pays no table-construction latency.
func WarmPositTables(f PositFormat) { posit.WarmTables(f) }

// PositTableMemoryBytes reports the memory the fast-path tables for a
// format occupy once built (0 for formats too wide to table).
func PositTableMemoryBytes(f PositFormat) int { return posit.TableMemoryBytes(f) }

// StandardPosit8 returns posit(8,2), the 2022-standard 8-bit format.
func StandardPosit8() PositFormat { return posit.Posit8() }

// StandardPosit16 returns posit(16,2).
func StandardPosit16() PositFormat { return posit.Posit16() }

// StandardPosit32 returns posit(32,2).
func StandardPosit32() PositFormat { return posit.Posit32() }

// --- minifloat / fixed point ---

// FloatFormat is a parameterised IEEE-style minifloat (1, we, wf).
type FloatFormat = minifloat.Format

// Float is a minifloat value.
type Float = minifloat.Float

// NewFloatFormat validates and returns a float format.
func NewFloatFormat(we, wf uint) (FloatFormat, error) { return minifloat.NewFormat(we, wf) }

// FixedFormat is a Q-format fixed-point layout (n total, q fraction bits).
type FixedFormat = fixedpoint.Format

// Fixed is a fixed-point value.
type Fixed = fixedpoint.Fixed

// NewFixedFormat validates and returns a fixed format.
func NewFixedFormat(n, q uint) (FixedFormat, error) { return fixedpoint.NewFormat(n, q) }

// --- EMACs ---

// Arithmetic bundles a number format with its codec and EMAC factory.
type Arithmetic = emac.Arithmetic

// MAC is one exact multiply-and-accumulate unit (Reset/Step/Result).
type MAC = emac.MAC

// Code is a quantised scalar in an Arithmetic's wire format.
type Code = emac.Code

// PositArith returns the posit EMAC arm (paper Fig. 5).
func PositArith(n, es uint) Arithmetic { return emac.NewPosit(n, es) }

// FloatArith returns the minifloat EMAC arm (paper Fig. 4) for an n-bit
// format with we exponent bits.
func FloatArith(n, we uint) Arithmetic { return emac.NewFloatN(n, we) }

// FixedArith returns the fixed-point EMAC arm (paper Fig. 3).
func FixedArith(n, q uint) Arithmetic { return emac.NewFixed(n, q) }

// Float32Baseline returns the paper's 32-bit float reference arm (a
// deliberately inexact sequential MAC).
func Float32Baseline() Arithmetic { return emac.Float32Arith{} }

// --- training substrate ---

// MLP is a float64 feed-forward network (ReLU hidden, affine readout).
type MLP = nn.Network

// TrainConfig parameterises SGD with momentum.
type TrainConfig = nn.TrainConfig

// Dataset is a dense classification dataset.
type Dataset = datasets.Dataset

// NewMLP builds a Xavier-initialised MLP with the given layer sizes,
// deterministically from the seed.
func NewMLP(sizes []int, seed uint64) *MLP { return nn.NewMLP(sizes, rng.New(seed)) }

// DefaultTrainConfig returns the experiments' training configuration.
func DefaultTrainConfig() TrainConfig { return nn.DefaultTrainConfig() }

// Train fits the network with SGD+momentum on softmax cross-entropy.
func Train(net *MLP, ds *Dataset, cfg TrainConfig) { nn.Train(net, ds, cfg) }

// Accuracy evaluates float64 accuracy.
func Accuracy(net *MLP, ds *Dataset) float64 { return nn.Accuracy(net, ds) }

// Accuracy32 evaluates the float32 baseline accuracy.
func Accuracy32(net *MLP, ds *Dataset) float64 { return nn.Accuracy32(net, ds) }

// --- Deep Positron ---

// DeepPositron is a quantised network running on EMACs, with one
// arithmetic per layer: a uniform network (QuantizeNetwork) names one
// arithmetic in Arith, a mixed one (QuantizeMixed) one per layer in
// LayerAriths, with format-conversion units at the boundaries. Its
// Infer, Predict, Accuracy and StreamInfer share a default session built
// on first use, which (like every Session) copies Sigmoid and Stand
// then: set those fields before the first call.
type DeepPositron = core.Network

// StreamStats summarises a cycle-level streaming run (latency, initiation
// interval, throughput).
type StreamStats = core.StreamStats

// QuantizeNetwork lowers a trained MLP into the target arithmetic.
func QuantizeNetwork(net *MLP, a Arithmetic) *DeepPositron { return core.Quantize(net, a) }

// QuantizeMixed lowers a trained MLP with one arithmetic per layer into
// a mixed network.
func QuantizeMixed(net *MLP, ariths []Arithmetic) *DeepPositron {
	return core.QuantizeMixed(net, ariths)
}

// Model is the model plane *DeepPositron implements, uniform or mixed:
// topology, per-layer arithmetic descriptors, the optional folded input
// standardizer, the well-formedness rule (Validate), session
// construction (NewInferer) and versioned Save/Load. Everything
// downstream — the Runtime, the positrond HTTP daemon — programs against
// Model, so which precision layout a deployment picked is a property of
// the artifact, not of the serving code.
type Model = core.Model

// Inferer is one per-goroutine execution plane over a Model: the surface
// of Session (Infer, allocation-free InferInto and InferBatchInto,
// Predict, Accuracy).
type Inferer = core.Inferer

// LoadModel reads a versioned JSON model artifact of either kind saved
// with DeepPositron.Save — the deployment artifact (format descriptors
// plus raw weight/bias codes). The artifact records its version; files
// from newer format revisions are rejected with an error.
func LoadModel(path string) (*DeepPositron, error) { return core.Load(path) }

// ParseArithmetic parses a human-readable arithmetic spec: "posit(n,es)",
// "float(n,we)", "fixed(n,q)" or "float32".
func ParseArithmetic(spec string) (Arithmetic, error) { return core.ParseArith(spec) }

// SearchPerLayerFixed optimises per-layer fixed-point fraction widths by
// coordinate descent at total width n, returning the mixed network and
// the chosen q per layer.
func SearchPerLayerFixed(net *MLP, test *Dataset, n uint) (*DeepPositron, []uint) {
	return core.SearchPerLayerFixed(net, test, n)
}

// --- inference sessions and the batch engine ---

// Session is the per-goroutine execution plane for a DeepPositron,
// uniform or mixed: each layer's fused kernel, or its EMAC bank
// where the layer's format has none, and the activation planes. The
// network itself is immutable, so any number of sessions (one per
// goroutine, via NewSession) can share it. A session copies the
// network's standardizer and sigmoid flag when it is built; later
// changes to those fields reach only sessions built after them.
type Session = core.Session

// Runtime is the serving-grade inference plane: a pool of
// shared-nothing Inferers over one immutable Model (uniform or mixed
// precision alike), which batches borrow chunk by chunk on their
// callers' goroutines. Its methods observe context
// cancellation and return errors instead of panicking: InferBatch(ctx),
// PredictBatch(ctx), Accuracy(ctx) and Close — after which late calls
// get ErrRuntimeClosed, while batches already in flight complete.
type Runtime = engine.Runtime

// RuntimeOption configures a Runtime at construction (functional
// options).
type RuntimeOption = engine.Option

// ErrRuntimeClosed is returned by Runtime methods called after Close.
var ErrRuntimeClosed = engine.ErrClosed

// NewRuntime returns an inference runtime over any Model, or the
// model's Validate error. Batches compute on their callers' goroutines,
// each chunk on one of the runtime's pooled inferers. Options:
// WithWorkers. Call Close to stop accepting batches.
func NewRuntime(m Model, opts ...RuntimeOption) (*Runtime, error) {
	return engine.NewRuntime(m, opts...)
}

// WithWorkers sets how many inferers a runtime pools, and so how many
// batch chunks compute at once (n <= 0 selects GOMAXPROCS, the default).
func WithWorkers(n int) RuntimeOption { return engine.WithWorkers(n) }

// --- the multi-model serving registry ---

// Registry is the multi-model serving layer: a concurrency-safe table of
// named models, each behind its own Runtime and micro-batcher, with
// reference-counted lifecycle. Load/LoadPath/LoadBytes register models,
// Acquire pins one for the duration of a request, Unload drains and
// closes gracefully. cmd/positrond serves a Registry over HTTP.
type Registry = registry.Registry

// RegistryOption configures a Registry at construction.
type RegistryOption = registry.Option

// ModelHandle pins one registered model (and its Runtime, Batcher and
// Metrics) for the duration of a request; Release when done. Its
// Infer/InferBatch methods are the admission-controlled entry points:
// they claim an in-flight slot (failing fast with ErrModelOverloaded at
// the WithMaxInFlight cap), apply the WithRequestTimeout deadline, and
// ride the micro-batcher.
type ModelHandle = registry.Handle

// Batcher coalesces concurrent single-sample inferences into shared
// runtime batches (dynamic micro-batching): a request flushes at once
// while a flush plane is free, and the requests queued behind busy
// planes ride one InferBatch call, with per-caller result demux and
// cancellation.
// Results are bit-identical to unbatched inference.
type Batcher = registry.Batcher

// ModelStat is one registry entry's introspection record (shape,
// arithmetics, batching config, serving metrics).
type ModelStat = registry.ModelStat

// ModelMetrics is one model's serving-metrics snapshot (request count,
// batch-size histogram, p50/p99 latency).
type ModelMetrics = registry.Snapshot

// ErrModelNotFound is returned by Registry lookups for unknown names.
var ErrModelNotFound = registry.ErrNotFound

// ErrModelExists is returned by Registry loads of an already-taken name.
var ErrModelExists = registry.ErrExists

// ErrModelOverloaded is returned by ModelHandle.Infer/InferBatch when
// the model is at its WithMaxInFlight admission cap: the request was
// shed, not queued. positrond maps it to HTTP 429 with Retry-After.
var ErrModelOverloaded = registry.ErrOverloaded

// ErrRequestTimeout is returned when an admitted request exceeds the
// WithRequestTimeout deadline before its inference completes.
var ErrRequestTimeout = registry.ErrRequestTimeout

// NewRegistry returns an empty serving registry. Options configure every
// model loaded afterwards: WithMaxBatch, WithMaxInFlight,
// WithRequestTimeout, WithRuntimeOptions, WithArtifactStore. Every model
// batches work-conservingly: a request flushes at once while a flush
// plane is free, and only requests queued behind busy planes share a
// batch.
func NewRegistry(opts ...RegistryOption) *Registry { return registry.New(opts...) }

// WithMaxBatch bounds a coalesced batch at n samples (n <= 1 disables
// coalescing).
func WithMaxBatch(n int) RegistryOption { return registry.WithMaxBatch(n) }

// WithMaxInFlight caps concurrently admitted inference requests per
// model, a single inference and an explicit batch counting one each; a
// request arriving at the cap fails fast with
// ErrModelOverloaded (HTTP 429 through positrond) instead of queueing
// without bound. n <= 0 leaves admission unlimited (the default).
func WithMaxInFlight(n int) RegistryOption { return registry.WithMaxInFlight(n) }

// WithRequestTimeout bounds one admitted request end to end — the wait
// for a flush, runtime queueing and compute; exceeded requests fail with
// ErrRequestTimeout (HTTP 503 through positrond). d <= 0 disables the
// deadline (the default).
func WithRequestTimeout(d time.Duration) RegistryOption { return registry.WithRequestTimeout(d) }

// WithRuntimeOptions sets the Runtime options (WithWorkers) applied to
// every per-model runtime a Registry builds.
func WithRuntimeOptions(opts ...RuntimeOption) RegistryOption {
	return registry.WithRuntimeOptions(opts...)
}

// WithArtifactStore sets the content-addressed store a Registry lands
// every loaded model's canonical binary artifact in (default: a fresh
// in-memory store). Compose NewUnionStore(NewMemStore(), disk) for a
// durable store with a warm read cache.
func WithArtifactStore(s ArtifactStore) RegistryOption { return registry.WithStore(s) }

// --- binary artifacts and the content-addressed store ---

// ArtifactHash is a model artifact's content address: the SHA-256 of
// its canonical binary encoding. JSON and binary forms of one model
// share one hash; positrond serves it as the /v1/models ETag.
type ArtifactHash = artifact.Hash

// ArtifactStore is the content-addressed blob store interface behind
// the Registry: Put/Get/Has/Delete/List keyed by ArtifactHash, with
// byte verification on every read.
type ArtifactStore = store.Store

// ArtifactStoreStats is one store's occupancy and traffic counters
// (objects, bytes, puts, dedups, gets, hits, corrupt reads).
type ArtifactStoreStats = store.Stats

// EncodeArtifact serialises a Model into the versioned binary artifact
// format — deterministic bytes, several times faster to load than the
// JSON form and a fraction of its size.
func EncodeArtifact(m Model) ([]byte, error) { return artifact.Encode(m) }

// DecodeArtifact parses a binary artifact. Hostile input is rejected
// with an error, never a panic.
func DecodeArtifact(data []byte) (Model, error) { return artifact.Decode(data) }

// ParseArtifact parses a model artifact in either format, sniffing
// binary by its magic and falling back to the JSON codec.
func ParseArtifact(data []byte) (Model, error) { return artifact.Parse(data) }

// LoadArtifact reads a model artifact file in either format.
func LoadArtifact(path string) (Model, error) { return artifact.Load(path) }

// SaveArtifact writes a Model as a binary artifact, atomically (temp
// file + rename; a crash mid-write leaves no torn file).
func SaveArtifact(m Model, path string) error { return artifact.Save(m, path) }

// CanonicalArtifact returns a Model's canonical binary encoding and
// its content hash — the identity dedup, ETags and store keys share.
func CanonicalArtifact(m Model) ([]byte, ArtifactHash, error) { return artifact.Canonical(m) }

// ParseArtifactHash parses the 64-hex-digit string form of a hash.
func ParseArtifactHash(s string) (ArtifactHash, error) { return artifact.ParseHash(s) }

// NewMemStore returns an in-memory artifact store (the Registry
// default).
func NewMemStore() ArtifactStore { return store.NewMem() }

// NewDiskStore opens (creating if needed) a durable artifact store
// rooted at dir: one file per artifact, sharded by hash prefix, atomic
// writes, reads verified against the hash.
func NewDiskStore(dir string) (ArtifactStore, error) { return store.NewDisk(dir) }

// NewUnionStore overlays a fast store (usually NewMemStore) over a
// slow, authoritative one (usually a disk store): reads populate the
// fast layer, writes go through to both.
func NewUnionStore(fast, slow ArtifactStore) ArtifactStore { return store.NewUnion(fast, slow) }

// NewRemoteStore returns a read-only store that fetches artifacts by
// hash from peer positrond replicas (GET /v1/artifacts/{hash}), with
// every fetched blob re-hashed against its address before it is
// returned. Compose it as the slowest tier of a union —
// NewUnionStore(local, NewRemoteStore(peers)) — so local misses pull
// from a peer and persist into the local tiers.
func NewRemoteStore(peers []string) ArtifactStore { return store.NewRemote(peers) }

// InferenceServer is the positrond HTTP handler set over a Registry:
// model load/unload/list, per-model and default-model inference,
// /v1/metrics. Mount it on any http.Server.
type InferenceServer = server.Server

// ServerOption configures an InferenceServer at construction.
type ServerOption = server.Option

// WithModelDir allows POST /v1/models path loads from artifacts under
// dir. Without it, HTTP clients can only upload artifacts inline — a
// path in a load request must not double as a filesystem probe.
func WithModelDir(dir string) ServerOption { return server.WithModelDir(dir) }

// NewServer builds the HTTP inference API over a registry. defaultModel
// names the model behind the single-model /v1/infer and /v1/model
// aliases (empty selects the sole loaded model, when there is exactly
// one).
func NewServer(reg *Registry, defaultModel string, opts ...ServerOption) *InferenceServer {
	return server.New(reg, defaultModel, opts...)
}

// --- resilience: replica routing and fault injection ---

// Router is the resilient replica-routing tier: an HTTP handler that
// fronts N positrond replicas with per-replica circuit breakers, active
// health probing, bounded retries with full-jitter backoff,
// consistent-hash model affinity with least-queue-depth spill, and
// graceful degradation to a fast 503 with Retry-After when no replica
// is available. cmd/positrond runs one with -route.
type Router = router.Router

// RouterOption configures a Router at construction.
type RouterOption = router.Option

// NewRouter builds a routing tier over the replica addresses and starts
// one health-probe goroutine per replica; call Close to release them.
func NewRouter(addrs []string, opts ...RouterOption) (*Router, error) {
	return router.New(addrs, opts...)
}

// WithProbeInterval sets the delay between replica health probes.
func WithProbeInterval(d time.Duration) RouterOption { return router.WithProbeInterval(d) }

// WithProbeTimeout bounds one probe round; a timed-out probe counts as
// a circuit-breaker failure.
func WithProbeTimeout(d time.Duration) RouterOption { return router.WithProbeTimeout(d) }

// WithBreakerThreshold sets how many consecutive failures open a
// replica's circuit breaker.
func WithBreakerThreshold(n int) RouterOption { return router.WithBreakerThreshold(n) }

// WithBreakerCooldown sets how long an open breaker sheds load before
// admitting a half-open trial.
func WithBreakerCooldown(d time.Duration) RouterOption { return router.WithBreakerCooldown(d) }

// WithMaxRetries bounds extra attempts after a retriable failure.
func WithMaxRetries(n int) RouterOption { return router.WithMaxRetries(n) }

// WithRetryBackoff sets the exponential-backoff base and cap for the
// full-jitter retry delay.
func WithRetryBackoff(base, max time.Duration) RouterOption { return router.WithBackoff(base, max) }

// RouterMetrics is the router's /v1/metrics body: router-level counters
// plus per-replica breaker and probe state.
type RouterMetrics = router.MetricsSnapshot

// ReplicaStatus is one replica's snapshot in RouterMetrics.
type ReplicaStatus = router.ReplicaStatus

// FaultRule is one deterministic fault-injection rule (see
// ParseFaultRule for the grammar).
type FaultRule = faults.Rule

// FaultInjector injects latency, error and connection-drop faults into
// an HTTP handler on a seeded deterministic schedule — the chaos half
// of the resilience harness (positrond -fault).
type FaultInjector = faults.Injector

// ParseFaultRule parses "latency=50ms@p=0.3", "error=503@p=0.2",
// "drop@p=0.1", optionally scoped as "/v1/infer:error=503@p=0.2".
func ParseFaultRule(s string) (FaultRule, error) { return faults.ParseRule(s) }

// NewFaultInjector builds an injector over the rules; wrap a handler
// with its Wrap method. Identical seeds replay identical schedules.
func NewFaultInjector(seed uint64, rules ...FaultRule) *FaultInjector {
	return faults.New(seed, rules...)
}

// SweepResult is one evaluated low-precision configuration.
type SweepResult = core.Result

// BestConfig evaluates candidate arithmetics and returns the most
// accurate on the dataset.
func BestConfig(net *MLP, test *Dataset, cands []Arithmetic) SweepResult {
	return core.Best(net, test, cands)
}

// Candidates enumerates the paper's configuration grid at bit width n.
func Candidates(n uint) (posits, floats, fixeds []Arithmetic) { return core.Candidates(n) }

// --- datasets ---

// IrisSplit returns the paper's Iris split (100 train / 50 inference).
func IrisSplit(seed uint64) (train, test *Dataset) { return datasets.IrisSplit(seed) }

// BreastCancerSplit returns the WBC split (379 / 190).
func BreastCancerSplit(seed uint64) (train, test *Dataset) {
	return datasets.BreastCancerSplit(seed)
}

// MushroomSplit returns the Mushroom split (5416 / 2708).
func MushroomSplit(seed uint64) (train, test *Dataset) { return datasets.MushroomSplit(seed) }

// Standardize fits per-feature normalisation on train and applies it to
// both splits.
func Standardize(train, test *Dataset) (strain, stest *Dataset) {
	return datasets.Standardize(train, test)
}

// Standardizer is a fitted per-feature affine normalisation; combine with
// MLP.FoldInputAffine to deploy a standardized-trained network on raw
// features.
type Standardizer = datasets.Standardizer

// FitStandardizer estimates per-feature mean/std on a training split.
func FitStandardizer(train *Dataset) *Standardizer { return datasets.FitStandardizer(train) }

// --- hardware model ---

// HWReport is one synthesized EMAC configuration (LUTs, fmax, EDP...).
type HWReport = hw.Report

// Synthesize costs an Arithmetic's EMAC on the Virtex-7 model, sized for
// k-term dot products. The float32 baseline is not a hardware EMAC and
// reports ok == false.
func Synthesize(a Arithmetic, k int) (HWReport, bool) {
	switch arm := a.(type) {
	case emac.PositArith:
		return hw.Virtex7.SynthPosit(arm.F, k), true
	case emac.FloatArith:
		return hw.Virtex7.SynthFloat(arm.F, k), true
	case emac.FixedArith:
		return hw.Virtex7.SynthFixed(arm.F, k), true
	default:
		return HWReport{}, false
	}
}

// NetworkCost extends an EMAC report to a full network: latency, energy
// and EDP per inference.
func NetworkCost(r HWReport, net *DeepPositron) hw.InferenceCost {
	fanins, widths := net.Shape()
	return hw.NetworkCost(r, fanins, widths)
}
