package core

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
)

// MixedNetwork is a Deep Positron variant with per-layer arithmetic — the
// natural generalisation of the paper's "precision-adaptable" EMACs
// (every layer already owns its own EMAC array and local memory, so
// nothing in the architecture requires a single global format). At layer
// boundaries activations are re-encoded into the next layer's format by a
// format-conversion unit (decode → round), the same single-rounding step
// the EMAC output stage already performs. Like Network, a MixedNetwork is
// the immutable model plane; execution state lives in a Session.
type MixedNetwork struct {
	LayerAriths []emac.Arithmetic // one per layer
	Layers      []*Layer
	// Stand, when non-nil, is a per-feature standardizer folded into the
	// deployment artifact (see Network.Stand).
	Stand *datasets.Standardizer
	// def is the lazily-built default session backing the convenience
	// wrappers (not safe for concurrent use; see Network.def).
	def *Session
}

// QuantizeMixed lowers a trained float64 network with one arithmetic per
// layer. len(ariths) must equal the number of layers.
func QuantizeMixed(src *nn.Network, ariths []emac.Arithmetic) *MixedNetwork {
	if len(ariths) != len(src.Layers) {
		panic(fmt.Sprintf("core: %d arithmetics for %d layers", len(ariths), len(src.Layers)))
	}
	net := &MixedNetwork{LayerAriths: ariths}
	for li, l := range src.Layers {
		a := ariths[li]
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

// session returns the lazily-built default session.
func (n *MixedNetwork) session() *Session {
	if n.def == nil {
		n.def = n.NewSession()
	}
	return n.def
}

// Infer runs one input through the mixed-precision pipeline via the
// default session. Not safe for concurrent use — build one Session per
// goroutine with NewSession for that.
func (n *MixedNetwork) Infer(x []float64) []float64 { return n.session().Infer(x) }

// Predict returns the argmax class (default session; not safe for
// concurrent use).
func (n *MixedNetwork) Predict(x []float64) int { return n.session().Predict(x) }

// Accuracy evaluates classification accuracy (default session; not safe
// for concurrent use).
func (n *MixedNetwork) Accuracy(ds *datasets.Dataset) float64 { return n.session().Accuracy(ds) }

// NewInferer builds an independent execution plane (Model interface).
func (n *MixedNetwork) NewInferer() Inferer { return n.NewSession() }

// Kind identifies the artifact kind (Model interface).
func (n *MixedNetwork) Kind() string { return "mixed" }

// InputDim is the feature width the network consumes.
func (n *MixedNetwork) InputDim() int { return n.Layers[0].In }

// OutputDim is the number of output logits.
func (n *MixedNetwork) OutputDim() int { return n.Layers[len(n.Layers)-1].Out }

// NumLayers is the layer count.
func (n *MixedNetwork) NumLayers() int { return len(n.Layers) }

// Ariths returns a copy of the per-layer arithmetics.
func (n *MixedNetwork) Ariths() []emac.Arithmetic {
	return append([]emac.Arithmetic(nil), n.LayerAriths...)
}

// ArithNames returns the per-layer arithmetic descriptors.
func (n *MixedNetwork) ArithNames() []string {
	out := make([]string, len(n.LayerAriths))
	for i, a := range n.LayerAriths {
		out[i] = a.Name()
	}
	return out
}

// Standardizer returns the folded input standardizer, or nil.
func (n *MixedNetwork) Standardizer() *datasets.Standardizer { return n.Stand }

// MemoryBits returns the per-layer-format parameter storage.
func (n *MixedNetwork) MemoryBits() int {
	total := 0
	for li, l := range n.Layers {
		total += (l.In*l.Out + l.Out) * int(n.LayerAriths[li].BitWidth())
	}
	return total
}

// String renders like "DeepPositron[posit(8,0)|posit(6,1)|posit(8,0)]".
func (n *MixedNetwork) String() string {
	s := "DeepPositron["
	for i, a := range n.LayerAriths {
		if i > 0 {
			s += "|"
		}
		s += a.Name()
	}
	return s + "]"
}

// SearchPerLayerFixed performs one pass of coordinate descent over
// per-layer fixed-point fraction widths at total width n: start from the
// best global q, then re-optimise each layer's q holding the others
// fixed. A single shared Q-format must compromise between layers whose
// activations live at different scales; per-layer q removes that
// compromise (the global-q collapse on WBC is the paper's Table II
// fixed-point story).
func SearchPerLayerFixed(src *nn.Network, test *datasets.Dataset, n uint) (*MixedNetwork, []uint) {
	_, _, fixeds := Candidates(n)
	globalBest := Best(src, test, fixeds)
	globalQ := globalBest.Arith.(emac.FixedArith).F.Q()

	qs := make([]uint, len(src.Layers))
	for i := range qs {
		qs[i] = globalQ
	}
	build := func(qs []uint) *MixedNetwork {
		ariths := make([]emac.Arithmetic, len(qs))
		for i, q := range qs {
			ariths[i] = emac.NewFixed(n, q)
		}
		return QuantizeMixed(src, ariths)
	}
	bestAcc := build(qs).Accuracy(test)
	for li := range qs {
		for q := uint(1); q < n; q++ {
			if q == qs[li] {
				continue
			}
			trial := append([]uint(nil), qs...)
			trial[li] = q
			if acc := build(trial).Accuracy(test); acc > bestAcc {
				bestAcc = acc
				qs = trial
			}
		}
	}
	return build(qs), qs
}
