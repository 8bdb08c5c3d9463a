package emac

// The batched kernel tier. A BatchLayerKernel runs a whole flush of
// samples through one layer in a single fused call: activations are
// decoded once per flush instead of once per sample, and the pre-decoded
// weight traversal is cache-blocked so each row streams through many
// samples while hot. The arms' fused datapaths
// (internal/{posit,fixedpoint,minifloat} BatchDenseKernel) read and write
// the Code planes in place through their generic ForwardBatch entry
// points, and every one skips zero activations, which add nothing to the
// exact sum:
//
//   - Posit layers with n <= 8 whose eq.-(4) register fits one word, and
//     float layers with n <= 8 whose eq.-(3) register does, take term
//     tables over 256-sample tiles. A tile column with enough zeros is
//     compacted to its nonzero entries; the others keep the dense loop.
//     Sums round through per-format tables rather than the encoder.
//   - Other posit layers up to a 128-bit register take exact int64
//     windows over per-sample lists of nonzero activations, with a
//     two-word fallback.
//   - Fixed layers with n <= 8 take two signed 32-bit lanes per int64
//     multiply, over the columns where either sample of a pair is
//     nonzero when half or more are zero in both; they qualify while
//     in·2^(2n−2) < 2^31 keeps every lane sum exact.
//
// Configurations beyond that (posit(16,2), posit32, wide float/fixed
// registers) loop their per-sample kernel, so a BatchLayerKernel exists
// whenever a LayerKernel does and results are always bit-identical to
// per-sample Forward calls.

import (
	"repro/internal/fixedpoint"
	"repro/internal/minifloat"
	"repro/internal/posit"
)

// BatchLayerKernel is a whole-flush batched layer datapath.
// ForwardBatchStrided computes out[s*Out+j] = Result(bias[j] + Σ_i
// W[j][i]·act[s*In+i]) for every sample s of a flat sample-major flush
// (len(act) = b·in, len(out) = b·out), bit-identical to calling
// LayerKernel.Forward once per sample. Kernels reuse internal scratch and
// are not safe for concurrent use.
type BatchLayerKernel interface {
	ForwardBatchStrided(act, out []Code, b int)
}

// BatchKernelBuilder is implemented by arithmetics that offer a batched
// layer datapath. NewBatchLayerKernel returns ok == false when this
// configuration has no kernel at all (callers fall back to per-neuron
// MACs, per sample); w is row-major [out][in] and must not be mutated
// afterwards.
type BatchKernelBuilder interface {
	NewBatchLayerKernel(w [][]Code, b []Code) (BatchLayerKernel, bool)
}

// fusedBatchKernel is an arm's fused datapath bound to its kernel; the
// arm checks the plane sizes.
type fusedBatchKernel func(act, out []Code, b int)

func (f fusedBatchKernel) ForwardBatchStrided(act, out []Code, b int) { f(act, out, b) }

// loopBatchKernel is the scalar fallback: a per-sample LayerKernel
// driven once per sample. It keeps the BatchLayerKernel contract
// available for every configuration that has a per-sample kernel, with
// trivially identical results.
type loopBatchKernel struct {
	lk      LayerKernel
	in, out int
}

func (k *loopBatchKernel) ForwardBatchStrided(act, out []Code, b int) {
	if b < 0 || len(act) != b*k.in || len(out) != b*k.out {
		panic("emac: batch kernel size mismatch")
	}
	for s := 0; s < b; s++ {
		k.lk.Forward(act[s*k.in:(s+1)*k.in], out[s*k.out:(s+1)*k.out])
	}
}

// NewBatchLayerKernel implements BatchKernelBuilder: the fused posit
// datapath when the quire fits two words, else a loop over the
// per-sample kernel. The truncated-quire ablation has no kernel tier.
func (p PositArith) NewBatchLayerKernel(w [][]Code, b []Code) (BatchLayerKernel, bool) {
	if p.QuireDrop > 0 || len(w) == 0 || len(w[0]) == 0 {
		return nil, false
	}
	pw := make([][]posit.Posit, len(w))
	for j, row := range w {
		pr := make([]posit.Posit, len(row))
		for i, c := range row {
			pr[i] = p.F.FromBits(uint64(c))
		}
		pw[j] = pr
	}
	pb := make([]posit.Posit, len(b))
	for j, c := range b {
		pb[j] = p.F.FromBits(uint64(c))
	}
	if k, ok := posit.NewBatchDenseKernel(p.F, pw, pb); ok {
		return fusedBatchKernel(func(act, out []Code, b int) { posit.ForwardBatch(k, act, out, b) }), true
	}
	lk, ok := p.NewLayerKernel(w, b)
	if !ok {
		return nil, false
	}
	return &loopBatchKernel{lk: lk, in: len(w[0]), out: len(w)}, true
}

// NewBatchLayerKernel implements BatchKernelBuilder: the fused float
// term-table datapath when the register fits one word, else a loop over
// the per-sample kernel.
func (p FloatArith) NewBatchLayerKernel(w [][]Code, b []Code) (BatchLayerKernel, bool) {
	if len(w) == 0 || len(w[0]) == 0 {
		return nil, false
	}
	fw := make([][]minifloat.Float, len(w))
	for j, row := range w {
		fr := make([]minifloat.Float, len(row))
		for i, c := range row {
			fr[i] = p.F.FromBits(uint64(c))
		}
		fw[j] = fr
	}
	fb := make([]minifloat.Float, len(b))
	for j, c := range b {
		fb[j] = p.F.FromBits(uint64(c))
	}
	if k, ok := minifloat.NewBatchDenseKernel(p.F, fw, fb); ok {
		return fusedBatchKernel(func(act, out []Code, b int) { minifloat.ForwardBatch(k, act, out, b) }), true
	}
	lk, ok := p.NewLayerKernel(w, b)
	if !ok {
		return nil, false
	}
	return &loopBatchKernel{lk: lk, in: len(w[0]), out: len(w)}, true
}

// NewBatchLayerKernel implements BatchKernelBuilder: the fused
// signed-lane datapath when the register and lane bounds allow, else a
// loop over the per-sample kernel.
func (p FixedArith) NewBatchLayerKernel(w [][]Code, b []Code) (BatchLayerKernel, bool) {
	if len(w) == 0 || len(w[0]) == 0 {
		return nil, false
	}
	fw := make([][]fixedpoint.Fixed, len(w))
	for j, row := range w {
		fr := make([]fixedpoint.Fixed, len(row))
		for i, c := range row {
			fr[i] = p.F.FromBits(uint64(c))
		}
		fw[j] = fr
	}
	fb := make([]fixedpoint.Fixed, len(b))
	for j, c := range b {
		fb[j] = p.F.FromBits(uint64(c))
	}
	if k, ok := fixedpoint.NewBatchDenseKernel(p.F, fw, fb, p.RoundNearest); ok {
		return fusedBatchKernel(func(act, out []Code, b int) { fixedpoint.ForwardBatch(k, act, out, b) }), true
	}
	lk, ok := p.NewLayerKernel(w, b)
	if !ok {
		return nil, false
	}
	return &loopBatchKernel{lk: lk, in: len(w[0]), out: len(w)}, true
}

// compile-time checks: the three hardware arms offer batched kernels.
var (
	_ BatchKernelBuilder = PositArith{}
	_ BatchKernelBuilder = FloatArith{}
	_ BatchKernelBuilder = FixedArith{}
)
