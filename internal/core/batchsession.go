package core

// The batched execution plane. InferBatchInto walks a flush in tiles of
// batchTile samples. Each tile is quantised into one flat sample-major
// plane and passes through every layer's BatchLayerKernel in one call per
// layer (decoding every activation column once per tile and streaming
// each pre-decoded weight row through the tile's samples while hot); the
// hidden layers' activation and any format conversion follow, and the
// logits decode straight into the tile's slice of dst. Two ping-pong
// planes of at most batchTile × the widest layer are reused across tiles
// and flushes, so the steady state allocates nothing and a session's
// memory does not grow with the flush. Uniform and mixed-precision
// sessions run this one pass. Results are bit-identical to per-sample
// inference — each sample's arithmetic is unchanged, only the loop order
// differs.

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/posit"
)

// batchTile is the forward pass's sample tile. It is a multiple of the
// term-table kernel's 256-sample tile and of the posit window tier's 64,
// and even, so the fixed-point kernel's sample pairs do not move: every
// kernel sees the same tile boundaries as over the whole flush, and
// results stay bit-identical. Serving flushes are at most 64 samples (the
// registry's default max batch), so each runs as a single tile.
const batchTile = 256

// tiledPass is the execution state both session types share: each
// layer's execution plane and arithmetic, and the batched pass's planes.
type tiledPass struct {
	layers []execLayer
	ariths []emac.Arithmetic
	// planes are the two reused ping-pong activation planes a tile flows
	// through (flat sample-major), grown to at most batchTile × the
	// widest layer whatever the flush size.
	planes [2][]emac.Code
}

// newTiledPass builds the execution state for layers under their
// per-layer arithmetics.
func newTiledPass(layers []*Layer, ariths []emac.Arithmetic) tiledPass {
	p := tiledPass{layers: make([]execLayer, len(layers)), ariths: ariths}
	for i, l := range layers {
		p.layers[i] = newExecLayer(l, ariths[i])
	}
	return p
}

// growPlane sizes one reused activation plane.
func growPlane(p *[]emac.Code, n int) []emac.Code {
	if cap(*p) < n {
		*p = make([]emac.Code, n)
	}
	return (*p)[:n]
}

// quantizeInto quantises the raw feature vector x into dst under a,
// applying the folded standardizer st first when it is non-nil.
func quantizeInto(dst []emac.Code, x []float64, a emac.Arithmetic, st *datasets.Standardizer) {
	if st != nil {
		for i, v := range x {
			dst[i] = a.Quantize((v - st.Mean[i]) / st.Std[i])
		}
		return
	}
	for i, v := range x {
		dst[i] = a.Quantize(v)
	}
}

// sigmoidFormat returns the posit format whose fast sigmoid the Sigmoid
// activation applies under a, and panics for any other arithmetic.
func sigmoidFormat(a emac.Arithmetic) posit.Format {
	pa, ok := a.(emac.PositArith)
	if !ok || !pa.F.FastSigmoidValid() {
		panic("core: Sigmoid activation requires a posit arithmetic with es=0")
	}
	return pa.F
}

// forwardBatch computes the layer's raw MAC outputs for a tile of b
// samples over flat sample-major planes, via the batch kernel when one
// exists and per-sample forwards otherwise.
func (e *execLayer) forwardBatch(act, dst []emac.Code, b int) {
	if e.bkernel != nil {
		e.bkernel.ForwardBatchStrided(act, dst, b)
		return
	}
	l := e.model
	for s := 0; s < b; s++ {
		row := act[s*l.In : (s+1)*l.In]
		drow := dst[s*l.Out : (s+1)*l.Out]
		if e.kernel != nil {
			e.kernel.Forward(row, drow)
			continue
		}
		for j := 0; j < l.Out; j++ {
			mac := e.macs[j]
			mac.Reset(l.B[j])
			wrow := l.W[j]
			for i, a := range row {
				mac.Step(wrow[i], a)
			}
			drow[j] = mac.Result()
		}
	}
}

// activate applies hidden layer li's activation to a tile's plane in
// place — the posit fast sigmoid when sigmoid is set, ReLU otherwise —
// and then, where layer li+1's arithmetic differs, the format-conversion
// unit into it.
func (p *tiledPass) activate(li int, plane []emac.Code, sigmoid bool) {
	a := p.ariths[li]
	if sigmoid {
		f := sigmoidFormat(a)
		for j, c := range plane {
			plane[j] = emac.Code(f.FromBits(uint64(c)).FastSigmoid().Bits())
		}
	} else {
		for j, c := range plane {
			plane[j] = a.ReLU(c)
		}
	}
	if to := p.ariths[li+1]; to != a {
		for j, c := range plane {
			plane[j] = to.Quantize(a.Decode(c))
		}
	}
}

// inferBatch runs a flush tile by tile, standardizing inputs with st when
// it is non-nil, and decodes the logits into the flat sample-major dst.
func (p *tiledPass) inferBatch(dst []float64, xs [][]float64, st *datasets.Standardizer, sigmoid bool) []float64 {
	last := len(p.layers) - 1
	in0, od := p.layers[0].model.In, p.layers[last].model.Out
	// A bad dst or input panics before any tile is computed.
	if len(dst) != len(xs)*od {
		panic(fmt.Sprintf("core: InferBatchInto buffer has %d slots for %d logits", len(dst), len(xs)*od))
	}
	for _, x := range xs {
		if len(x) != in0 {
			panic(fmt.Sprintf("core: network expects %d inputs, got %d", in0, len(x)))
		}
	}
	for s0 := 0; s0 < len(xs); s0 += batchTile {
		tile := xs[s0:min(s0+batchTile, len(xs))]
		b := len(tile)
		act := growPlane(&p.planes[0], b*in0)
		// A call per sample, not an inline loop: after each Quantize call
		// a loop reloads every value live in it from the stack, and inline
		// that would include the tile loop's.
		for s, x := range tile {
			quantizeInto(act[s*in0:(s+1)*in0], x, p.ariths[0], st)
		}
		for li := range p.layers {
			e := &p.layers[li]
			next := growPlane(&p.planes[(li+1)%2], b*e.model.Out)
			e.forwardBatch(act, next, b)
			if li < last {
				p.activate(li, next, sigmoid)
			}
			act = next
		}
		out, a := dst[s0*od:(s0+b)*od], p.ariths[last]
		for i, c := range act {
			out[i] = a.Decode(c)
		}
	}
	return dst
}

// InferBatchInto runs a flush of inputs through the fused batched layer
// kernels, decoding the logits into the flat sample-major dst (which
// must have len(xs) × the network's output width), and returns dst.
// Results are bit-identical to calling InferInto per sample; with the
// session's planes warm this path allocates nothing.
func (s *Session) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	return s.inferBatch(dst, xs, s.net.Stand, s.net.Sigmoid)
}

// InferBatchInto runs a flush through the mixed-precision fused
// pipeline, decoding the logits into the flat sample-major dst, and
// returns dst. Bit-identical to per-sample InferInto.
func (s *MixedSession) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	return s.inferBatch(dst, xs, s.net.Stand, false)
}
