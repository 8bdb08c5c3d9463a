package core

// The model-plane abstraction. Network is the one model type: every
// layer carries its own arithmetic, uniform precision being the case
// where every layer's is the same. Model is the surface the execution
// plane, the serialiser and the serving stack program against, so a
// batch engine or an HTTP daemon works identically over either kind,
// and tests can substitute doubles for it. The paper's
// precision-adaptable EMACs are why the kind is a property of the
// artifact, not of the serving code.

import (
	"repro/internal/datasets"
	"repro/internal/emac"
)

// Inferer is one execution plane over an immutable model: the surface of
// Session, which serves both network kinds. An Inferer serves one
// goroutine; build one per goroutine via Model.NewInferer.
type Inferer interface {
	// Infer runs one input and returns freshly allocated decoded logits.
	Infer(x []float64) []float64
	// InferInto runs one input, decoding the logits into dst (which must
	// have the model's output width), and returns dst. With the session's
	// internal buffers warm this path allocates nothing.
	InferInto(dst []float64, x []float64) []float64
	// InferBatchInto runs a whole flush of inputs through the tiled pass
	// (each layer's fused kernel, or its EMAC bank where the arithmetic
	// has none), decoding the logits into the flat sample-major dst
	// (len(xs) × the model's output width), and returns dst. Results are
	// bit-identical to per-sample InferInto; with the session's planes
	// warm this path allocates nothing.
	InferBatchInto(dst []float64, xs [][]float64) []float64
	// Predict returns the argmax class for one input.
	Predict(x []float64) int
	// Accuracy evaluates classification accuracy on a dataset.
	Accuracy(ds *datasets.Dataset) float64
}

// Model is the immutable model plane shared by any number of Inferers:
// topology, quantised parameters, the arithmetic of every layer and the
// optional input standardizer. *Network implements it.
type Model interface {
	// NewInferer builds an independent execution plane. Any number of
	// Inferers may run concurrently over one Model.
	NewInferer() Inferer
	// Kind is the artifact kind: "uniform" or "mixed".
	Kind() string
	// InputDim is the feature width the model consumes.
	InputDim() int
	// OutputDim is the number of output logits.
	OutputDim() int
	// NumLayers is the layer count.
	NumLayers() int
	// Ariths returns the arithmetic of every layer (uniform models repeat
	// their single arithmetic).
	Ariths() []emac.Arithmetic
	// ArithNames returns the per-layer arithmetic descriptors, e.g.
	// "posit(8,0)".
	ArithNames() []string
	// Standardizer returns the folded input standardizer, or nil when the
	// model consumes raw features directly.
	Standardizer() *datasets.Standardizer
	// MemoryBits is the on-chip parameter storage the model needs.
	MemoryBits() int
	// Save writes the versioned JSON deployment artifact.
	Save(path string) error
	String() string
}

// compile-time checks that Network is a Model and Session an Inferer.
var (
	_ Model   = (*Network)(nil)
	_ Inferer = (*Session)(nil)
)
