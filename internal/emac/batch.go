package emac

// The batched kernel tier. A BatchLayerKernel runs a whole flush of
// samples through one layer in a single fused call: activations are
// decoded once per flush instead of once per sample, and the pre-decoded
// weight traversal is cache-blocked so each row streams through many
// samples while hot. Each arm's NewBatchDenseKernel
// (internal/{posit,fixedpoint,minifloat}) takes the layer's Code weight
// and bias patterns as they are, generic over ~uint64, and its fused
// datapath (posit.ForwardBatch, fixedpoint.ForwardBatch, or
// termtile.Forward for the float arm) reads and writes the Code planes in
// place. Every one skips zero activations, which add nothing to the exact
// sum:
//
//   - Posit layers with n <= 8 whose eq.-(4) register fits one word, and
//     float layers with n <= 8 whose eq.-(3) register does, run one
//     kernel, internal/termtile, over per-format tables it builds and
//     caches from what each arm's format supplies: term tables over
//     256-sample tiles. A tile column with enough zeros is compacted to
//     its nonzero entries; the others keep the dense loop. Sums round
//     through the tables rather than the encoder.
//   - Other posit layers up to a 128-bit register take exact int64
//     windows over per-sample lists of nonzero activations, with a
//     two-word fallback.
//   - Fixed layers with n <= 8 take two signed 32-bit lanes per int64
//     multiply, over the columns where either sample of a pair is
//     nonzero when half or more are zero in both; they qualify while
//     in·2^(2n−2) < 2^31 keeps every lane sum exact.
//
// Configurations beyond that (posit(16,2), posit32, wider float and
// fixed registers, the truncated-quire ablation) have no kernel: their
// builders decline, and core runs those layers on the MAC bank, which
// stays the reference every kernel is bit-identical to.

import (
	"repro/internal/fixedpoint"
	"repro/internal/minifloat"
	"repro/internal/posit"
	"repro/internal/termtile"
)

// BatchLayerKernel is a whole-flush batched layer datapath.
// ForwardBatchStrided computes out[s*Out+j] = Result(bias[j] + Σ_i
// W[j][i]·act[s*In+i]) for every sample s of a flat sample-major flush
// (len(act) = b·in, len(out) = b·out), bit-identical to driving one MAC
// per neuron through each sample. Kernels reuse internal scratch and are
// not safe for concurrent use.
type BatchLayerKernel interface {
	ForwardBatchStrided(act, out []Code, b int)
}

// BatchKernelBuilder is implemented by arithmetics that offer a batched
// layer datapath. NewBatchLayerKernel returns ok == false when this
// configuration has no kernel (callers fall back to per-neuron MACs, per
// sample); w is row-major [out][in] and must not be mutated afterwards.
type BatchKernelBuilder interface {
	NewBatchLayerKernel(w [][]Code, b []Code) (BatchLayerKernel, bool)
}

// fusedBatchKernel is an arm's fused datapath bound to its kernel; the
// arm checks the plane sizes.
type fusedBatchKernel func(act, out []Code, b int)

func (f fusedBatchKernel) ForwardBatchStrided(act, out []Code, b int) { f(act, out, b) }

// NewBatchLayerKernel implements BatchKernelBuilder: the fused posit
// datapath when the quire fits two words. The truncated-quire ablation
// has no kernel tier.
func (p PositArith) NewBatchLayerKernel(w [][]Code, b []Code) (BatchLayerKernel, bool) {
	if p.QuireDrop > 0 {
		return nil, false
	}
	if k, ok := posit.NewBatchDenseKernel(p.F, w, b); ok {
		return fusedBatchKernel(func(act, out []Code, b int) { posit.ForwardBatch(k, act, out, b) }), true
	}
	return nil, false
}

// NewBatchLayerKernel implements BatchKernelBuilder: the fused float
// term-table datapath when the format is at most 8 bits wide and the
// register fits one word.
func (p FloatArith) NewBatchLayerKernel(w [][]Code, b []Code) (BatchLayerKernel, bool) {
	if k, ok := minifloat.NewBatchDenseKernel(p.F, w, b); ok {
		return fusedBatchKernel(func(act, out []Code, b int) { termtile.Forward(k, act, out, b) }), true
	}
	return nil, false
}

// NewBatchLayerKernel implements BatchKernelBuilder: the fused
// signed-lane datapath when the format is at most 8 bits wide and the
// register and lane bounds allow.
func (p FixedArith) NewBatchLayerKernel(w [][]Code, b []Code) (BatchLayerKernel, bool) {
	if k, ok := fixedpoint.NewBatchDenseKernel(p.F, w, b, p.RoundNearest); ok {
		return fusedBatchKernel(func(act, out []Code, b int) { fixedpoint.ForwardBatch(k, act, out, b) }), true
	}
	return nil, false
}

// compile-time checks: the three hardware arms offer batched kernels.
var (
	_ BatchKernelBuilder = PositArith{}
	_ BatchKernelBuilder = FloatArith{}
	_ BatchKernelBuilder = FixedArith{}
)
