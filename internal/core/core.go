// Package core implements Deep Positron (paper §III-E): a feed-forward
// DNN accelerator in which every layer owns dedicated exact
// multiply-and-accumulate units with local weight/bias memory, layers
// stream activations to one another under a control FSM, hidden layers
// apply ReLU and the readout layer is affine. The same architecture is
// instantiated for any emac.Arithmetic — posit, minifloat, fixed point or
// the float32 baseline — which is how the paper compares the three
// number systems at identical bit width.
//
// The package separates the model plane from the execution plane:
// Network and Layer hold only the immutable quantised parameters (the
// bitstream a Deep Positron deployment would flash), so one network can
// be shared by any number of goroutines. A Network carries one
// arithmetic per layer: a uniform network names a single one, a mixed
// network one per layer. All mutable state — each layer's fused kernel
// or EMAC bank and the activation planes — lives in per-goroutine
// Session objects (see session.go). Network.Infer and friends remain as
// thin wrappers over a lazily-built default session for single-goroutine
// callers.
package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
)

// Layer is one Deep Positron layer's parameter memory: quantised weights
// and biases (the paper stores parameters on-chip next to the EMACs to
// avoid off-chip accesses). A Layer is immutable after construction; the
// EMAC units and batched kernels that execute it live in a Session.
type Layer struct {
	In, Out int
	// W[j][i] is the code of the weight from input i to neuron j.
	W [][]emac.Code
	B []emac.Code
}

// Network is a Deep Positron instance: the immutable model plane. Every
// layer owns its EMAC array and local memory, so every layer may run its
// own arithmetic; at a boundary where the format changes, activations
// are re-encoded into the next layer's format by a format-conversion
// unit (decode → round), the same single rounding the EMAC output stage
// performs.
type Network struct {
	// Arith is the single arithmetic of a uniform network. It is nil on a
	// mixed network.
	Arith emac.Arithmetic
	// LayerAriths, when non-nil, makes the network mixed: it holds one
	// arithmetic per layer, and Arith is unused.
	LayerAriths []emac.Arithmetic
	Layers      []*Layer
	// Sigmoid selects the posit fast-sigmoid activation instead of ReLU
	// on hidden layers (extension; requires a uniform network over a
	// posit arithmetic with es=0, see CheckSigmoid).
	Sigmoid bool
	// Stand, when non-nil, is a per-feature standardizer folded into the
	// deployment artifact: sessions standardize raw inputs with it before
	// quantising, so the served model consumes raw measurements.
	Stand *datasets.Standardizer
	// def is the lazily-built default session backing the Infer/Predict/
	// Accuracy convenience wrappers and StreamInfer; like every session it
	// copies Sigmoid and Stand when it is built, so changes made after the
	// first call do not reach it. Those wrappers are not safe for
	// concurrent use — concurrent callers build one Session each via
	// NewSession.
	def *Session
}

// ErrMixedSigmoid rejects the Sigmoid flag on a mixed network: mixed
// networks run ReLU on every hidden layer and cannot carry the flag.
var ErrMixedSigmoid = errors.New("core: the Sigmoid activation is uniform-only; a mixed network cannot carry it")

// CheckSigmoid reports whether a uniform network over arithmetic a may
// carry the Sigmoid flag. The fast sigmoid is a bit trick on es=0 posits
// only, so a must be one.
func CheckSigmoid(a emac.Arithmetic) error {
	if pa, ok := a.(emac.PositArith); !ok || !pa.F.FastSigmoidValid() {
		return fmt.Errorf("core: Sigmoid activation requires a posit arithmetic with es=0, got %s", a.Name())
	}
	return nil
}

// checkSigmoid applies the Sigmoid rule to the network: ErrMixedSigmoid
// on a mixed network, CheckSigmoid on a uniform one. NewSession,
// UnmarshalJSON and both artifact encoders (through ArithSpecs) apply
// it; the binary decoder applies the same rule to the header it reads.
func (n *Network) checkSigmoid() error {
	switch {
	case !n.Sigmoid:
		return nil
	case n.LayerAriths != nil:
		return ErrMixedSigmoid
	default:
		return CheckSigmoid(n.Arith)
	}
}

// checkArity reports a mixed network whose arithmetics do not match its
// layers one for one.
func (n *Network) checkArity() error {
	if n.LayerAriths != nil && len(n.LayerAriths) != len(n.Layers) {
		return fmt.Errorf("core: mixed network has %d arithmetics for %d layers", len(n.LayerAriths), len(n.Layers))
	}
	return nil
}

// Quantize lowers a trained float64 network into the target arithmetic.
// Every weight and bias is rounded once; activations are quantised on the
// fly by the EMAC result rounding, exactly as in the hardware.
func Quantize(src *nn.Network, a emac.Arithmetic) *Network {
	return &Network{Arith: a, Layers: quantizeLayers(src, repeatArith(a, len(src.Layers)))}
}

// QuantizeMixed lowers a trained float64 network with one arithmetic per
// layer into a mixed network. len(ariths) must equal the number of
// layers. The network stays mixed even when every entry is the same.
func QuantizeMixed(src *nn.Network, ariths []emac.Arithmetic) *Network {
	if len(ariths) != len(src.Layers) {
		panic(fmt.Sprintf("core: %d arithmetics for %d layers", len(ariths), len(src.Layers)))
	}
	return &Network{LayerAriths: ariths, Layers: quantizeLayers(src, ariths)}
}

// quantizeLayers rounds every weight and bias of layer i once into
// ariths[i].
func quantizeLayers(src *nn.Network, ariths []emac.Arithmetic) []*Layer {
	layers := make([]*Layer, len(src.Layers))
	for li, l := range src.Layers {
		a := ariths[li]
		ql := &Layer{In: l.In, Out: l.Out, W: make([][]emac.Code, l.Out), B: make([]emac.Code, l.Out)}
		for j, row := range l.W {
			qrow := make([]emac.Code, l.In)
			for i, w := range row {
				qrow[i] = a.Quantize(w)
			}
			ql.W[j] = qrow
		}
		for j, b := range l.B {
			ql.B[j] = a.Quantize(b)
		}
		layers[li] = ql
	}
	return layers
}

// repeatArith returns a repeated k times.
func repeatArith(a emac.Arithmetic, k int) []emac.Arithmetic {
	out := make([]emac.Arithmetic, k)
	for i := range out {
		out[i] = a
	}
	return out
}

// session returns the lazily-built default session.
func (n *Network) session() *Session {
	if n.def == nil {
		n.def = n.NewSession()
	}
	return n.def
}

// Infer runs one input through the network and returns the decoded output
// logits, via the default session. Not safe for concurrent use — build
// one Session per goroutine with NewSession for that.
func (n *Network) Infer(x []float64) []float64 { return n.session().Infer(x) }

// Predict returns the argmax class for one input (default session; not
// safe for concurrent use).
func (n *Network) Predict(x []float64) int { return n.session().Predict(x) }

// Accuracy evaluates classification accuracy on a dataset (default
// session; not safe for concurrent use).
func (n *Network) Accuracy(ds *datasets.Dataset) float64 { return n.session().Accuracy(ds) }

// NewInferer builds an independent execution plane (Model interface).
func (n *Network) NewInferer() Inferer { return n.NewSession() }

// Kind identifies the artifact kind (Model interface): "mixed" when
// LayerAriths is set, "uniform" otherwise.
func (n *Network) Kind() string {
	if n.LayerAriths != nil {
		return kindMixed
	}
	return kindUniform
}

// InputDim is the feature width the network consumes.
func (n *Network) InputDim() int { return n.Layers[0].In }

// OutputDim is the number of output logits.
func (n *Network) OutputDim() int { return n.Layers[len(n.Layers)-1].Out }

// NumLayers is the layer count.
func (n *Network) NumLayers() int { return len(n.Layers) }

// Ariths returns the arithmetic of every layer: a copy of LayerAriths on
// a mixed network, Arith repeated on a uniform one.
func (n *Network) Ariths() []emac.Arithmetic {
	if n.LayerAriths != nil {
		return append([]emac.Arithmetic(nil), n.LayerAriths...)
	}
	return repeatArith(n.Arith, len(n.Layers))
}

// ArithNames returns the per-layer arithmetic descriptors.
func (n *Network) ArithNames() []string {
	ariths := n.Ariths()
	out := make([]string, len(ariths))
	for i, a := range ariths {
		out[i] = a.Name()
	}
	return out
}

// Standardizer returns the folded input standardizer, or nil.
func (n *Network) Standardizer() *datasets.Standardizer { return n.Stand }

// Shape returns the per-layer fan-ins and widths (for the hardware cost
// model).
func (n *Network) Shape() (fanins, widths []int) {
	for _, l := range n.Layers {
		fanins = append(fanins, l.In)
		widths = append(widths, l.Out)
	}
	return fanins, widths
}

// Cycles returns the streaming inference latency in EMAC cycles: each
// layer consumes fan-in cycles plus the pipeline depth before its
// successor may start (sequential layer triggering per the control FSM).
func (n *Network) Cycles() int {
	cycles := 0
	for _, l := range n.Layers {
		cycles += l.In + pipelineDepth
	}
	return cycles
}

// pipelineDepth mirrors hw.PipelineDepth without importing the package
// (kept in sync by a cross-check in the tests).
const pipelineDepth = 4

// MemoryBits returns the on-chip parameter storage the network needs:
// every weight and bias at its layer's bit width (the paper's local
// memory blocks).
func (n *Network) MemoryBits() int {
	total := 0
	for li, a := range n.Ariths() {
		l := n.Layers[li]
		total += (l.In*l.Out + l.Out) * int(a.BitWidth())
	}
	return total
}

// String renders a uniform network like
// "DeepPositron[posit(8,0): 30-16-8-2]" and a mixed one like
// "DeepPositron[posit(8,0)|posit(6,1)|posit(8,0)]".
func (n *Network) String() string {
	if n.LayerAriths != nil {
		return "DeepPositron[" + strings.Join(n.ArithNames(), "|") + "]"
	}
	s := fmt.Sprintf("DeepPositron[%s:", n.Arith.Name())
	if len(n.Layers) > 0 {
		s += fmt.Sprintf(" %d", n.Layers[0].In)
		for _, l := range n.Layers {
			s += fmt.Sprintf("-%d", l.Out)
		}
	}
	return s + "]"
}
