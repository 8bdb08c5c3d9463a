package core

// The tiled forward pass every session runs. InferBatchInto walks a flush
// in tiles of BatchTile samples, and Infer and InferInto run it over a
// one-sample flush. Each tile is quantised into one flat sample-major
// plane and passes through every layer in one call per layer: the layer's
// fused BatchLayerKernel (decoding every activation column once per tile
// and streaming each pre-decoded weight row through the tile's samples
// while hot), or its EMAC bank sample by sample where the arithmetic has
// no fused kernel. The hidden layers' activation and any format
// conversion follow, and the logits decode straight into the tile's slice
// of dst. Two ping-pong planes of at most BatchTile × the widest layer
// are reused across tiles and flushes, so the steady state allocates
// nothing and a session's memory does not grow with the flush. Results
// are bit-identical to the MAC bank sample by sample — each sample's
// arithmetic is unchanged, only the loop order differs.

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/emac"
)

// BatchTile is the forward pass's sample tile. It is a multiple of the
// term-table kernel's 256-sample tile and of the posit window tier's 64,
// and even, so the fixed-point kernel's sample pairs do not move: every
// kernel sees the same tile boundaries as over the whole flush, and
// results stay bit-identical. Serving flushes are at most 64 samples (the
// registry's default max batch), so each runs as a single tile, and
// engine.Runtime splits a flush over its workers only into chunks of at
// least one tile.
const BatchTile = 256

// outDim is the width of the last layer: the logits per sample.
func (s *Session) outDim() int { return s.layers[len(s.layers)-1].model.Out }

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

// forwardBatch computes the layer's raw MAC outputs (bias + dot product,
// one rounding each, no activation function) for a tile of b samples over
// flat sample-major planes, via the fused kernel when one exists and the
// EMAC bank sample by sample otherwise.
func (e *execLayer) forwardBatch(act, dst []emac.Code, b int) {
	if e.kernel != nil {
		e.kernel.ForwardBatchStrided(act, dst, b)
		return
	}
	l := e.model
	for s := 0; s < b; s++ {
		row := act[s*l.In : (s+1)*l.In]
		drow := dst[s*l.Out : (s+1)*l.Out]
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
// place — the posit fast sigmoid when the session's sigmoid flag is set,
// ReLU otherwise — and then, where layer li+1's arithmetic differs, the
// format-conversion unit into it.
func (s *Session) activate(li int, plane []emac.Code) {
	a := s.ariths[li]
	if s.sigmoid {
		f := a.(emac.PositArith).F // NewSession ran Validate
		for j, c := range plane {
			plane[j] = emac.Code(f.FromBits(uint64(c)).FastSigmoid().Bits())
		}
	} else {
		for j, c := range plane {
			plane[j] = a.ReLU(c)
		}
	}
	if to := s.ariths[li+1]; to != a {
		for j, c := range plane {
			plane[j] = to.Quantize(a.Decode(c))
		}
	}
}

// InferBatchInto runs a flush of inputs through the tiled pass, decoding
// the logits into the flat sample-major dst (which must have len(xs) ×
// the model's output width), and returns dst. Results are bit-identical
// to calling InferInto per sample; with the session's planes warm this
// path allocates nothing.
func (s *Session) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	last := len(s.layers) - 1
	in0, od := s.layers[0].model.In, s.layers[last].model.Out
	// A bad dst or input panics before any tile is computed.
	if len(dst) != len(xs)*od {
		panic(fmt.Sprintf("core: InferBatchInto buffer has %d slots for %d logits", len(dst), len(xs)*od))
	}
	for _, x := range xs {
		if len(x) != in0 {
			panic(fmt.Sprintf("core: network expects %d inputs, got %d", in0, len(x)))
		}
	}
	for s0 := 0; s0 < len(xs); s0 += BatchTile {
		tile := xs[s0:min(s0+BatchTile, len(xs))]
		b := len(tile)
		act := growPlane(&s.planes[0], b*in0)
		// A call per sample, not an inline loop: after each Quantize call
		// a loop reloads every value live in it from the stack, and inline
		// that would include the tile loop's.
		for i, x := range tile {
			quantizeInto(act[i*in0:(i+1)*in0], x, s.ariths[0], s.stand)
		}
		for li := range s.layers {
			e := &s.layers[li]
			next := growPlane(&s.planes[(li+1)%2], b*e.model.Out)
			e.forwardBatch(act, next, b)
			if li < last {
				s.activate(li, next)
			}
			act = next
		}
		out, a := dst[s0*od:(s0+b)*od], s.ariths[last]
		for i, c := range act {
			out[i] = a.Decode(c)
		}
	}
	return dst
}
