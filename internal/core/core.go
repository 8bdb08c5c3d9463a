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
// Network/MixedNetwork/Layer hold only the immutable quantised
// parameters (the bitstream a Deep Positron deployment would flash), so
// one network can be shared by any number of goroutines; all mutable
// state — each layer's fused kernel or EMAC bank and the activation
// planes — lives in per-goroutine Session objects (see session.go), one
// session type for both network kinds. Network.Infer and friends remain
// as thin wrappers over a lazily-built default session for
// single-goroutine callers.
package core

import (
	"errors"
	"fmt"

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

// Network is a Deep Positron instance: the immutable model plane.
type Network struct {
	Arith  emac.Arithmetic
	Layers []*Layer
	// Sigmoid selects the posit fast-sigmoid activation instead of ReLU
	// on hidden layers (extension; requires a posit arithmetic with es=0,
	// see CheckSigmoid).
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
// only, so a must be one. The artifact decoders and encoders and
// NewSession all apply this one rule (and ErrMixedSigmoid for mixed
// artifacts).
func CheckSigmoid(a emac.Arithmetic) error {
	if pa, ok := a.(emac.PositArith); !ok || !pa.F.FastSigmoidValid() {
		return fmt.Errorf("core: Sigmoid activation requires a posit arithmetic with es=0, got %s", a.Name())
	}
	return nil
}

// Quantize lowers a trained float64 network into the target arithmetic.
// Every weight and bias is rounded once; activations are quantised on the
// fly by the EMAC result rounding, exactly as in the hardware.
func Quantize(src *nn.Network, a emac.Arithmetic) *Network {
	net := &Network{Arith: a}
	for _, l := range src.Layers {
		ql := &Layer{In: l.In, Out: l.Out}
		ql.W = make([][]emac.Code, l.Out)
		for j, row := range l.W {
			qrow := make([]emac.Code, l.In)
			for i, w := range row {
				qrow[i] = a.Quantize(w)
			}
			ql.W[j] = qrow
		}
		ql.B = make([]emac.Code, l.Out)
		for j, b := range l.B {
			ql.B[j] = a.Quantize(b)
		}
		net.Layers = append(net.Layers, ql)
	}
	return net
}

// QuantizeInput converts a raw feature vector into activation codes,
// applying the folded standardizer first when one is present.
func (n *Network) QuantizeInput(x []float64) []emac.Code {
	codes := make([]emac.Code, len(x))
	quantizeInto(codes, x, n.Arith, n.Stand)
	return codes
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

// Kind identifies the artifact kind (Model interface).
func (n *Network) Kind() string { return "uniform" }

// InputDim is the feature width the network consumes.
func (n *Network) InputDim() int { return n.Layers[0].In }

// OutputDim is the number of output logits.
func (n *Network) OutputDim() int { return n.Layers[len(n.Layers)-1].Out }

// NumLayers is the layer count.
func (n *Network) NumLayers() int { return len(n.Layers) }

// Ariths returns the (single) arithmetic repeated for every layer.
func (n *Network) Ariths() []emac.Arithmetic {
	out := make([]emac.Arithmetic, len(n.Layers))
	for i := range out {
		out[i] = n.Arith
	}
	return out
}

// ArithNames returns the per-layer arithmetic descriptors.
func (n *Network) ArithNames() []string {
	out := make([]string, len(n.Layers))
	for i := range out {
		out[i] = n.Arith.Name()
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
// every weight and bias at the arithmetic's bit width (the paper's local
// memory blocks).
func (n *Network) MemoryBits() int {
	params := 0
	for _, l := range n.Layers {
		params += l.In*l.Out + l.Out
	}
	return params * int(n.Arith.BitWidth())
}

// String renders like "DeepPositron[posit(8,0): 30-16-8-2]".
func (n *Network) String() string {
	s := fmt.Sprintf("DeepPositron[%s:", n.Arith.Name())
	if len(n.Layers) > 0 {
		s += fmt.Sprintf(" %d", n.Layers[0].In)
		for _, l := range n.Layers {
			s += fmt.Sprintf("-%d", l.Out)
		}
	}
	return s + "]"
}
