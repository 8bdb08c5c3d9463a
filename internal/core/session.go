package core

// The execution plane. A Session owns every piece of mutable inference
// state for one Network, uniform or mixed — each layer's fused kernel or
// EMAC bank and the tiled pass's activation planes — mirroring the
// nn.Scratch pattern: one Session serves one goroutine, and any number of
// sessions can share one immutable model. Single-sample inference is the
// tiled pass (batchsession.go) over a one-sample flush. This is the
// shared-nothing substrate the batch engine (internal/engine) builds its
// worker pool on.

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
)

// execLayer is the execution-plane state for one model layer: the fused
// batch kernel when the arithmetic offers one for this configuration,
// and a bank of per-neuron EMACs otherwise.
type execLayer struct {
	model *Layer
	// kernel is the layer's fused datapath (nil when the arithmetic has
	// none); bit-identical to the MACs.
	kernel emac.BatchLayerKernel
	// macs holds one EMAC unit per neuron, reused across inputs exactly
	// like the hardware units are. Built only when there is no kernel.
	macs []emac.MAC
}

// newExecLayer builds the execution state for one layer under one
// arithmetic.
func newExecLayer(l *Layer, a emac.Arithmetic) execLayer {
	e := execLayer{model: l}
	if bb, ok := a.(emac.BatchKernelBuilder); ok {
		if k, ok := bb.NewBatchLayerKernel(l.W, l.B); ok {
			e.kernel = k
			return e
		}
	}
	e.macs = make([]emac.MAC, l.Out)
	for j := range e.macs {
		e.macs[j] = a.NewMAC(l.In)
	}
	return e
}

// Session is the per-goroutine execution state for one Network, uniform
// or mixed. Sessions are cheap relative to a dataset sweep
// (construction pre-decodes the weights once per layer) and are not safe
// for concurrent use; the model they execute is never written through
// them. A session copies the model's standardizer and sigmoid flag when
// it is built, so later changes to those fields reach only new sessions.
type Session struct {
	// layers is each layer's execution plane.
	layers []execLayer
	// ariths is each layer's arithmetic (a uniform network's repeated).
	ariths []emac.Arithmetic
	// stand is the model's folded input standardizer, or nil.
	stand *datasets.Standardizer
	// sigmoid selects the posit fast sigmoid on hidden layers.
	sigmoid bool
	// planes are the two reused ping-pong activation planes a tile flows
	// through (flat sample-major), grown to at most BatchTile × the
	// widest layer whatever the flush size.
	planes [2][]emac.Code
	// one is the one-sample flush Infer and InferInto run.
	one [1][]float64
}

// NewSession builds an independent execution plane for the network. Any
// number of sessions may run concurrently over the same Network. It
// panics with Validate's error on a network that is not well formed:
// the tiled pass slices its planes by each layer's shape and indexes
// the standardizer by feature, so such a network would read stale plane
// entries or fail mid-inference.
func (n *Network) NewSession() *Session {
	if err := n.Validate(); err != nil {
		panic(err)
	}
	s := &Session{layers: make([]execLayer, len(n.Layers)), ariths: n.Ariths(), stand: n.Stand, sigmoid: n.Sigmoid}
	for i, l := range n.Layers {
		s.layers[i] = newExecLayer(l, s.ariths[i])
	}
	return s
}

// Infer runs one input through the model and returns the decoded output
// logits. The compute follows the paper's dataflow: each layer's EMACs
// reset to their bias, consume one activation per cycle, and the layer
// fires when its predecessor finishes. Layers whose arithmetic provides a
// fused kernel run it instead of stepping per-neuron MACs (identical
// results, one pre-decoded pass); steady-state inference only allocates
// the returned logits.
func (s *Session) Infer(x []float64) []float64 {
	return s.InferInto(make([]float64, s.outDim()), x)
}

// InferInto is Infer with the logits decoded into a caller-provided
// buffer (len must equal the model's output width): the allocation-free
// inference path for single requests. It runs the tiled pass over a
// one-sample flush.
func (s *Session) InferInto(dst []float64, x []float64) []float64 {
	if od := s.outDim(); len(dst) != od {
		panic(fmt.Sprintf("core: InferInto buffer has %d slots for %d logits", len(dst), od))
	}
	s.one[0] = x
	s.InferBatchInto(dst, s.one[:])
	s.one[0] = nil // hold no reference to the caller's input
	return dst
}

// Predict returns the argmax class for one input.
func (s *Session) Predict(x []float64) int { return nn.Argmax(s.Infer(x)) }

// Accuracy evaluates classification accuracy on a dataset: the split runs
// through InferBatchInto one tile at a time into one reused logits plane.
func (s *Session) Accuracy(ds *datasets.Dataset) float64 {
	od := s.outDim()
	plane := make([]float64, min(len(ds.X), BatchTile)*od)
	correct := 0
	for s0 := 0; s0 < len(ds.X); s0 += BatchTile {
		xs := ds.X[s0:min(s0+BatchTile, len(ds.X))]
		logits := s.InferBatchInto(plane[:len(xs)*od], xs)
		for i := range xs {
			if nn.Argmax(logits[i*od:(i+1)*od]) == ds.Y[s0+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}
