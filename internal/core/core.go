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
	"math"
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
	// posit arithmetic with es=0, see Validate).
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

// Validate reports whether the network is well formed. It is the one
// statement of that rule: both JSON codec directions, both binary
// artifact directions, NewSession and the engine's Runtime all apply
// it, so every route into the kernel accepts and refuses the same
// networks. A well-formed network
//   - names one non-nil arithmetic per layer when mixed, and a non-nil
//     Arith when uniform, each able to build its EMACs: a posit
//     arithmetic's QuireDrop must leave at least one of the quire's
//     2·MaxScale fraction bits (posit.NewTruncatedQuire);
//   - sets Sigmoid only where a session can apply it: never on a mixed
//     network (ErrMixedSigmoid), and on a uniform one only over an es=0
//     posit, the only format the fast-sigmoid bit trick is valid on;
//   - has at least one layer, each with In, Out ≥ 1, Out rows of In
//     weight codes and Out bias codes, and each taking its predecessor's
//     Out as its In;
//   - holds only codes below 2^BitWidth of its layer's arithmetic (the
//     width of that layer's local memory);
//   - carries, if any, a standardizer of exactly Layers[0].In finite
//     means and scales, none of the scales zero (JSON has no NaN or
//     infinity, so only a finite standardizer has both artifact forms).
func (n *Network) Validate() error {
	if n.LayerAriths != nil {
		if len(n.LayerAriths) != len(n.Layers) {
			return fmt.Errorf("core: mixed network has %d arithmetics for %d layers", len(n.LayerAriths), len(n.Layers))
		}
	} else if n.Arith == nil {
		return errors.New("core: uniform network has no arithmetic")
	}
	if n.Sigmoid {
		if n.LayerAriths != nil {
			return ErrMixedSigmoid
		}
		if pa, ok := n.Arith.(emac.PositArith); !ok || !pa.F.FastSigmoidValid() {
			return fmt.Errorf("core: Sigmoid activation requires a posit arithmetic with es=0, got %s", n.Arith.Name())
		}
	}
	if len(n.Layers) == 0 {
		return errors.New("core: model has no layers")
	}
	for li, l := range n.Layers {
		a := n.Arith
		if n.LayerAriths != nil {
			a = n.LayerAriths[li]
		}
		if a == nil {
			return fmt.Errorf("core: layer %d has no arithmetic", li)
		}
		if pa, ok := a.(emac.PositArith); ok && pa.QuireDrop >= uint(2*pa.F.MaxScale()) {
			return fmt.Errorf("core: layer %d: %s quire drop %d leaves no fraction bits", li, a.Name(), pa.QuireDrop)
		}
		if l == nil || l.In < 1 || l.Out < 1 || len(l.W) != l.Out || len(l.B) != l.Out {
			return fmt.Errorf("core: layer %d malformed", li)
		}
		if li > 0 && l.In != n.Layers[li-1].Out {
			return fmt.Errorf("core: layer %d input %d does not match previous output %d", li, l.In, n.Layers[li-1].Out)
		}
		w := a.BitWidth()
		over := ^emac.Code(0) << w // the bits no code of width w may set (0 at w ≥ 64)
		for j, row := range l.W {
			if len(row) != l.In {
				return fmt.Errorf("core: layer %d row %d has %d codes", li, j, len(row))
			}
			for _, c := range row {
				if c&over != 0 {
					return fmt.Errorf("core: layer %d code %#x exceeds %d bits", li, c, w)
				}
			}
		}
		for _, c := range l.B {
			if c&over != 0 {
				return fmt.Errorf("core: layer %d bias code %#x exceeds %d bits", li, c, w)
			}
		}
	}
	if st := n.Stand; st != nil {
		in0 := n.Layers[0].In
		if len(st.Mean) != in0 || len(st.Std) != in0 {
			return fmt.Errorf("core: standardizer has %d/%d features for %d inputs", len(st.Mean), len(st.Std), in0)
		}
		for i, s := range st.Std {
			switch m := st.Mean[i]; {
			case s == 0:
				return fmt.Errorf("core: standardizer feature %d has zero scale", i)
			case math.IsNaN(m) || math.IsInf(m, 0) || math.IsNaN(s) || math.IsInf(s, 0):
				return fmt.Errorf("core: standardizer feature %d is not finite", i)
			}
		}
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
