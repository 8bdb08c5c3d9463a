package core

// The execution plane. A Session owns every piece of mutable inference
// state for one Network — EMAC banks, pre-decoded layer kernels and
// activation scratch — mirroring the nn.Scratch pattern: one Session
// serves one goroutine, and any number of sessions can share one
// immutable Network. This is the shared-nothing substrate the batch
// engine (internal/engine) builds its worker pool on.

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
)

// execLayer is the execution-plane state for one model layer: either a
// pre-decoded batched kernel (when the arithmetic offers one) or a bank
// of per-neuron EMACs, plus the layer's reused output activation buffer.
type execLayer struct {
	model *Layer
	// kernel is the batched pre-decoded datapath for the whole layer
	// (nil when the arithmetic has none); bit-identical to the MACs.
	kernel emac.LayerKernel
	// bkernel is the whole-flush batched datapath (nil when the
	// arithmetic offers none); bit-identical to per-sample forwards.
	bkernel emac.BatchLayerKernel
	// macs holds one EMAC unit per neuron, reused across inputs exactly
	// like the hardware units are. Built only when there is no kernel.
	macs []emac.MAC
	// act is the layer's reused output activation buffer.
	act []emac.Code
}

// newExecLayer builds the execution state for one layer under one
// arithmetic.
func newExecLayer(l *Layer, a emac.Arithmetic) execLayer {
	e := execLayer{model: l, act: make([]emac.Code, l.Out)}
	if bb, ok := a.(emac.BatchKernelBuilder); ok {
		if bk, ok := bb.NewBatchLayerKernel(l.W, l.B); ok {
			e.bkernel = bk
		}
	}
	if kb, ok := a.(emac.KernelBuilder); ok {
		if k, ok := kb.NewLayerKernel(l.W, l.B); ok {
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

// forward computes the layer's raw MAC outputs (bias + dot product, one
// rounding each, no activation function) into the reused act buffer, via
// the batched kernel when one exists and per-neuron EMACs otherwise.
// Single- and mixed-precision inference share this one implementation.
func (e *execLayer) forward(act []emac.Code) []emac.Code {
	next := e.act
	if e.kernel != nil {
		e.kernel.Forward(act, next)
		return next
	}
	l := e.model
	for j := 0; j < l.Out; j++ {
		mac := e.macs[j]
		mac.Reset(l.B[j])
		wrow := l.W[j]
		for i, a := range act {
			mac.Step(wrow[i], a)
		}
		next[j] = mac.Result()
	}
	return next
}

// Session is the per-goroutine execution state for one Network. Sessions
// are cheap relative to a dataset sweep (construction pre-decodes the
// weights once per layer) and are not safe for concurrent use; the
// Network they execute is never written through them.
type Session struct {
	net *Network
	// tiledPass holds the layers' execution plane, the network's
	// arithmetic repeated per layer, and the batched pass's planes.
	tiledPass
	// in is the reused input-code buffer.
	in []emac.Code
}

// NewSession builds an independent execution plane for the network. Any
// number of sessions may run concurrently over the same Network.
func (n *Network) NewSession() *Session {
	return &Session{net: n, tiledPass: newTiledPass(n.Layers, n.Ariths())}
}

// Network returns the model plane this session executes.
func (s *Session) Network() *Network { return s.net }

// quantizeInput converts a raw feature vector into the session's reused
// input-code buffer, applying the network's folded standardizer first
// when one is present.
func (s *Session) quantizeInput(x []float64) []emac.Code {
	if cap(s.in) < len(x) {
		s.in = make([]emac.Code, len(x))
	}
	codes := s.in[:len(x)]
	quantizeInto(codes, x, s.net.Arith, s.net.Stand)
	return codes
}

// run executes the full forward pass and returns the final activation
// codes (living in the last layer's reused buffer).
func (s *Session) run(x []float64) []emac.Code {
	n := s.net
	if len(x) != n.Layers[0].In {
		panic(fmt.Sprintf("core: network expects %d inputs, got %d", n.Layers[0].In, len(x)))
	}
	act := s.quantizeInput(x)
	for li := range s.layers {
		e := &s.layers[li]
		if len(act) != e.model.In {
			panic(fmt.Sprintf("core: layer %d expects %d inputs, got %d", li, e.model.In, len(act)))
		}
		next := e.forward(act)
		if li < len(s.layers)-1 {
			for j, c := range next {
				next[j] = n.activate(c)
			}
		}
		act = next
	}
	return act
}

// Infer runs one input through the network and returns the decoded output
// logits. The compute follows the paper's dataflow: each layer's EMACs
// reset to their bias, consume one activation per cycle, and the layer
// fires when its predecessor finishes. Layers whose arithmetic provides a
// batched kernel run it instead of stepping per-neuron MACs (identical
// results, one pre-decoded pass); activations flow through per-layer
// reused buffers, so steady-state inference only allocates the returned
// logits.
func (s *Session) Infer(x []float64) []float64 {
	act := s.run(x)
	logits := make([]float64, len(act))
	for i, c := range act {
		logits[i] = s.net.Arith.Decode(c)
	}
	return logits
}

// InferInto is Infer with the logits decoded into a caller-provided
// buffer (len must equal the network's output width): the allocation-free
// inference path for dataset sweeps and shared-output batches.
func (s *Session) InferInto(dst []float64, x []float64) []float64 {
	act := s.run(x)
	if len(dst) != len(act) {
		panic(fmt.Sprintf("core: InferInto buffer has %d slots for %d logits", len(dst), len(act)))
	}
	for i, c := range act {
		dst[i] = s.net.Arith.Decode(c)
	}
	return dst
}

// Predict returns the argmax class for one input.
func (s *Session) Predict(x []float64) int { return nn.Argmax(s.Infer(x)) }

// Accuracy evaluates classification accuracy on a dataset.
func (s *Session) Accuracy(ds *datasets.Dataset) float64 {
	correct := 0
	for i := range ds.X {
		if s.Predict(ds.X[i]) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// MixedSession is the per-goroutine execution state for one MixedNetwork.
type MixedSession struct {
	net *MixedNetwork
	tiledPass
	in []emac.Code
}

// NewSession builds an independent execution plane for the mixed network.
func (n *MixedNetwork) NewSession() *MixedSession {
	return &MixedSession{net: n, tiledPass: newTiledPass(n.Layers, n.LayerAriths)}
}

// Network returns the model plane this session executes.
func (s *MixedSession) Network() *MixedNetwork { return s.net }

// run executes the full mixed-precision forward pass and returns the
// final activation codes (living in the last layer's reused buffer).
func (s *MixedSession) run(x []float64) []emac.Code {
	n := s.net
	if len(x) != n.Layers[0].In {
		panic("core: mixed input size mismatch")
	}
	// quantise input in the first layer's format (reused buffer),
	// standardizing first when the artifact folds a standardizer
	if cap(s.in) < len(x) {
		s.in = make([]emac.Code, len(x))
	}
	act := s.in[:len(x)]
	quantizeInto(act, x, n.LayerAriths[0], n.Stand)
	for li := range s.layers {
		a := n.LayerAriths[li]
		next := s.layers[li].forward(act)
		if li < len(s.layers)-1 {
			for j, c := range next {
				next[j] = a.ReLU(c)
			}
			// format-conversion unit at the layer boundary
			to := n.LayerAriths[li+1]
			if to != a {
				for j, c := range next {
					next[j] = to.Quantize(a.Decode(c))
				}
			}
		}
		act = next
	}
	return act
}

// Infer runs one input through the mixed-precision pipeline.
func (s *MixedSession) Infer(x []float64) []float64 {
	act := s.run(x)
	last := s.net.LayerAriths[len(s.net.LayerAriths)-1]
	logits := make([]float64, len(act))
	for i, c := range act {
		logits[i] = last.Decode(c)
	}
	return logits
}

// InferInto is Infer with the logits decoded into a caller-provided
// buffer (len must equal the network's output width).
func (s *MixedSession) InferInto(dst []float64, x []float64) []float64 {
	act := s.run(x)
	if len(dst) != len(act) {
		panic(fmt.Sprintf("core: InferInto buffer has %d slots for %d logits", len(dst), len(act)))
	}
	last := s.net.LayerAriths[len(s.net.LayerAriths)-1]
	for i, c := range act {
		dst[i] = last.Decode(c)
	}
	return dst
}

// Predict returns the argmax class.
func (s *MixedSession) Predict(x []float64) int { return nn.Argmax(s.Infer(x)) }

// Accuracy evaluates classification accuracy.
func (s *MixedSession) Accuracy(ds *datasets.Dataset) float64 {
	correct := 0
	for i := range ds.X {
		if s.Predict(ds.X[i]) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}
