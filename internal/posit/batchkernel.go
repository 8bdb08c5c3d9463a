package posit

// BatchDenseKernel is the GEMM-style batched datapath for one dense
// layer: it computes a whole flush of samples through the layer, each
// activation decoded once per flush and each pre-decoded weight row
// streamed through many samples while hot. It covers every layer whose
// eq.-(4) register is at most two words (128 bits), in one of two tiers:
//
//   - Term tables, for formats narrow enough to enumerate (n <= 8) whose
//     register fits one word: the termtile kernel over the tables it
//     builds from termFormat. They hold the full signed MAC contribution
//     ±(sig_w·sig_a) << (fb+adj_w+adj_a) of every (weight, activation)
//     pattern pair, map NaR to the special flag and round each sum
//     through a table keyed by its bit length and top bits
//     (bitutil.RoundKey); a negative sum's pattern is the two's
//     complement.
//   - Exact windows, for everything else up to 128 bits (posit(16,1),
//     posit(8,2) at large fan-in, n = 9..16 in general). The flush is
//     walked in tiles of batchTile samples. Each tile is decoded once into
//     per-sample lists of its real activations (zeros add nothing to the
//     exact sum and are skipped), each packed with its signed significand
//     and LSB scale adj. Per row and tile, the weights' and activations'
//     scale ranges bound where any term can land; when that window plus
//     its carries fits an int64, the row accumulates exactly in one word
//     relative to the window floor lo (acc += (w·a) << (adj_w+adj_a−lo))
//     and rounds with one encode. Otherwise that row-tile takes a two-word
//     register with accSigned128 and rounds through Quire.Result.
//
// Either way the sum is exact and rounded once, so results are
// bit-identical to driving a Quire through ResetToBias/MulAdd/Result per
// sample, which the equivalence tests verify. Wider registers
// (posit(16,2), posit32) have no batched tier: NewBatchDenseKernel
// reports ok == false and callers run per-neuron quires.

import (
	"math/bits"

	"repro/internal/termtile"
)

// batchTile is the window tier's sample tile: the tile's decoded
// activations (8 bytes per nonzero) stay cache-resident while every row
// streams through them, the scale window stays that of 64 samples rather
// than the whole flush, and the flush scratch stays O(in × batchTile)
// whatever the flush size.
const batchTile = 64

// BatchDenseKernel holds the pre-decoded parameters and reused flush
// scratch for one layer. Not safe for concurrent use.
type BatchDenseKernel struct {
	f       Format
	in, out int
	// term is the term tier's kernel; nil in the window tier, which the
	// remaining fields serve.
	term *termtile.Kernel

	fracBits uint // quire fraction depth 2^(es+1)(n-2)
	narBits  uint64
	// narRow[j] records a NaR weight or bias in row j.
	narRow []bool
	// wPack[j*in+i] packs weight (j,i) as sig<<8 | uint8(adj): its signed
	// significand (0 for zero/NaR) over its LSB scale.
	wPack []int64
	// wLo[j], wHi[j] bound the scales of row j's real weights (wLo > wHi
	// when the row has none).
	wLo, wHi []int8
	// wAlign[j*in+i] is weight (j,i) as an integer at its row's lowest
	// scale: sig << (adj − wLo[j]). Only rows whose scale range fits the
	// int64 window read it, and for those it is exact.
	wAlign []int64
	bias   []pdec
	// headroom is the window's width beyond hi−lo: two significands, the
	// carries of in+1 terms, and a sign.
	headroom int
	q        Quire // rounds the two-word fallback
	// Tile scratch: the tile's real activations, packed as
	// sig<<32 | i<<8 | uint8(adj) and grouped by sample, sample s owning
	// ents[start[s]:start[s+1]]. Zero activations are left out: they add
	// nothing to the exact sum. aAlign[n] is ents[n] as an integer at the
	// tile's lowest scale, read under the same condition as wAlign.
	ents   []int64
	aAlign []int64
	start  []int

	narS []bool // per-sample NaR flag of the current tile
}

// NewBatchDenseKernel pre-decodes a row-major weight matrix (out rows of
// in weights) and bias vector of format f, given as n-bit patterns in any
// uint64-backed code type, into a batched layer kernel. ok is false when
// this configuration has no batched fast path: the eq.-(4) quire for this
// fan-in is wider than two machine words (or the fan-in reaches 2^24,
// beyond the window tier's packed index).
func NewBatchDenseKernel[C ~uint64](f Format, w [][]C, b []C) (*BatchDenseKernel, bool) {
	f.mustValid()
	out := len(w)
	if out == 0 || len(b) != out || len(w[0]) == 0 {
		return nil, false
	}
	in := len(w[0])
	width := QuireSize(f, in)
	if width > 128 || in >= 1<<24 {
		return nil, false
	}
	k := &BatchDenseKernel{f: f, in: in, out: out}
	if f.n <= opTabMaxN && width <= 64 {
		// The quire never wraps: sums take the full 64-bit register.
		k.term = termtile.New(termFormat(f), w, b, 64)
		return k, true
	}
	k.fracBits = (uint(1) << (f.es + 1)) * (f.n - 2)
	k.narBits = f.NaR().bits
	k.narRow = make([]bool, out)
	k.wPack = make([]int64, out*in)
	k.wAlign = make([]int64, out*in)
	k.wLo = make([]int8, out)
	k.wHi = make([]int8, out)
	k.bias = make([]pdec, out)
	k.headroom = 2*max(int(f.n)-2-int(f.es), 1) + bits.Len(uint(in)) + 1
	k.q.init(f, in, 0)
	k.ents = make([]int64, 0, in*batchTile)
	k.aAlign = make([]int64, in*batchTile)
	k.start = make([]int, batchTile+1)
	k.narS = make([]bool, batchTile)
	dec, mask := f.decTab(), f.Mask()
	wd := make([]pdec, in)
	for j, row := range w {
		if len(row) != in {
			panic("posit: BatchDenseKernel ragged weight matrix")
		}
		for i, c := range row {
			wd[i] = predecodeBits(f, dec, uint64(c)&mask)
		}
		bd := predecodeBits(f, dec, uint64(b[j])&mask)
		nar := bd.cls == pdNaR
		for _, d := range wd {
			nar = nar || d.cls == pdNaR
		}
		k.narRow[j] = nar
		k.initWindowRow(j, wd, bd)
	}
	return k, true
}

func (k *BatchDenseKernel) initWindowRow(j int, wd []pdec, bd pdec) {
	dst := k.wPack[j*k.in : (j+1)*k.in]
	lo, hi := int8(127), int8(-128)
	for i, d := range wd {
		dst[i] = signedSig(d)<<8 | int64(uint8(d.adj))
		if d.cls == pdReal {
			lo, hi = min(lo, int8(d.adj)), max(hi, int8(d.adj))
		}
	}
	k.wLo[j], k.wHi[j] = lo, hi
	k.bias[j] = bd
	for i, d := range wd {
		if d.cls == pdReal {
			k.wAlign[j*k.in+i] = signedSig(d) << uint(d.adj-int32(lo))
		}
	}
}

// signedSig is d's significand with its sign applied (0 for zero/NaR).
// Significands of formats up to 32 bits fit 30 bits, so any product of
// two stays below 2^60.
func signedSig(d pdec) int64 {
	return (int64(d.sig) ^ int64(d.sgn)) - int64(d.sgn)
}

// round rounds the exact value a × 2^lsb to a posit pattern: the
// one-word Quire.Result step (the magnitude fits 64 bits, so there is no
// extraction and no sticky bit).
func (k *BatchDenseKernel) round(a int64, lsb int) uint64 {
	sign := a < 0
	m := uint64(a)
	if sign {
		m = -m
	}
	if m == 0 {
		return 0
	}
	l := bits.Len64(m)
	return k.f.encode(sign, l-1+lsb, m, uint(l), false).bits
}

// ForwardBatch computes dst[s*out+j] = round(b[j] + Σ_i
// W[j][i]·act[s*in+i]) for every sample s in the flush: flat
// sample-major planes of n-bit patterns, len(act) = b·in, len(dst) =
// b·out. The planes may be any uint64-backed code type and are read and
// written in place. No activation function is applied. Not safe for
// concurrent use of one kernel (the flush scratch is reused).
func ForwardBatch[C ~uint64](k *BatchDenseKernel, act, dst []C, b int) {
	if b < 0 || len(act) != b*k.in || len(dst) != b*k.out {
		panic("posit: BatchDenseKernel batch size mismatch")
	}
	if k.term != nil {
		termtile.Forward(k.term, act, dst, b)
		return
	}
	for s0 := 0; s0 < b; s0 += batchTile {
		ts := min(batchTile, b-s0)
		forwardTile(k, act[s0*k.in:(s0+ts)*k.in], dst[s0*k.out:(s0+ts)*k.out], ts)
	}
}

// forwardTile is the window tier over one tile of ts <= batchTile
// samples: act and dst are the tile's slices of the flush planes.
func forwardTile[C ~uint64](k *BatchDenseKernel, act, dst []C, ts int) {
	in, out := k.in, k.out
	// Decode the tile once: each sample's real activations, with the
	// scale range over the whole tile.
	t, mask := k.f.decTab(), k.f.Mask()
	ents, start, narS := k.ents[:0], k.start[:ts+1], k.narS[:ts]
	aLo, aHi := 127, -128
	for s := 0; s < ts; s++ {
		start[s] = len(ents)
		nar := false
		for i, c := range act[s*in : (s+1)*in] {
			p := uint64(c) & mask
			if p == 0 {
				continue
			}
			d := predecodeBits(k.f, t, p)
			if d.cls != pdReal {
				nar = true
				continue
			}
			ents = append(ents, signedSig(d)<<32|int64(i)<<8|int64(uint8(d.adj)))
			aLo, aHi = min(aLo, int(d.adj)), max(aHi, int(d.adj))
		}
		narS[s] = nar
	}
	start[ts] = len(ents)
	aAlign := k.aAlign[:len(ents)]
	for n, e := range ents {
		aAlign[n] = (e >> 32) << (uint(int(int8(e))-aLo) & 63)
	}
	for j := 0; j < out; j++ {
		if k.narRow[j] {
			for s := 0; s < ts; s++ {
				dst[s*out+j] = C(k.narBits)
			}
			continue
		}
		// The exact term window [lo, hi]: every term's LSB scale lies in
		// it, so relative to lo the whole sum needs hi−lo+headroom bits.
		// Rows without real weights contribute zero products, whatever
		// their scale fields hold.
		wLo, wHi := int(k.wLo[j]), int(k.wHi[j])
		products := wLo <= wHi && aLo <= aHi
		lo, hi := 0, 0
		if products {
			lo, hi = wLo+aLo, wHi+aHi
		}
		bias := &k.bias[j]
		if bias.cls == pdReal {
			lo, hi = int(bias.adj), int(bias.adj)
			if products {
				lo, hi = min(wLo+aLo, lo), max(wHi+aHi, hi)
			}
		}
		if hi-lo+k.headroom <= 63 {
			// Aligned operands make each term a plain product at scale
			// wLo+aLo, base steps above lo. Without products the dot
			// product is 0, whatever base holds.
			var bt int64
			if bias.cls == pdReal {
				bt = signedSig(*bias) << uint(int(bias.adj)-lo)
			}
			base := uint(wLo+aLo-lo) & 63
			wrow := k.wAlign[j*in : (j+1)*in]
			for s := 0; s < ts; s++ {
				if narS[s] {
					dst[s*out+j] = C(k.narBits)
					continue
				}
				dot := dotAligned(wrow, ents[start[s]:start[s+1]], aAlign[start[s]:start[s+1]])
				dst[s*out+j] = C(k.round(bt+dot<<base, lo))
			}
			continue
		}
		// Two-word fallback at the quire's own scale.
		fb := int(k.fracBits)
		var b0, b1 uint64
		if bias.cls == pdReal {
			b0, b1 = acc128(0, 0, bias.sig, uint(fb+int(bias.adj)), bias.sgn != 0)
		}
		q := &k.q
		wrow := k.wPack[j*in : (j+1)*in]
		for s := 0; s < ts; s++ {
			if narS[s] {
				dst[s*out+j] = C(k.narBits)
				continue
			}
			q.acc.SetInt128(dotWide(b0, b1, wrow, ents[start[s]:start[s+1]], fb))
			dst[s*out+j] = C(q.Result().bits)
		}
	}
}

// dotAligned is one sample's dot product over its real activations:
// Σ wrow[i]·a for each entry (i, a) of ents/aAlign, in one int64. The loop
// stays out of line: inlined into forwardTile, its operands spill to the
// stack.
//
//go:noinline
func dotAligned(wrow, ents, aAlign []int64) int64 {
	var acc int64
	aAlign = aAlign[:len(ents)]
	for n, e := range ents {
		acc += wrow[uint32(e)>>8] * aAlign[n]
	}
	return acc
}

// dotWide adds one sample's terms (w·a) << (fb+adj_w+adj_a) to the
// two-word register a1:a0: wrow is a packed weight row (sig<<8 | adj),
// ents the sample's packed activations.
//
//go:noinline
func dotWide(a0, a1 uint64, wrow, ents []int64, fb int) (uint64, uint64) {
	for _, e := range ents {
		w := wrow[uint32(e)>>8]
		p := (w >> 8) * (e >> 32)
		sm := uint64(p >> 63)
		a0, a1 = accSigned128(a0, a1, (uint64(p)^sm)-sm, uint(fb+int(int8(w))+int(int8(e))), sm)
	}
	return a0, a1
}

// termFormat follows the window tier in this file because the compiler
// lays functions out in source order: placed before it, it moved
// dotAligned's loop across a 64-byte line in the bench binary.

// termFormat is a format of at most 8 bits as termtile builds its
// tables: terms at the quire's fraction depth 2^(es+1)·(n−2), NaR the
// special, and the encoder rounding each sum once.
type termFormat Format

func (f termFormat) Bits() uint      { return f.n }
func (f termFormat) FracBits() int   { return int((uint(1) << (f.es + 1)) * (f.n - 2)) }
func (f termFormat) Special() uint64 { return Format(f).NaR().bits }

func (f termFormat) Decode(p uint64) termtile.Operand {
	d := predecodeBits(Format(f), Format(f).decTab(), p)
	return termtile.Operand{Sig: d.sig, LSB: int(d.adj), Neg: d.sgn != 0, Special: d.cls == pdNaR}
}

func (f termFormat) Negate(p uint64) uint64 { return -p & Format(f).Mask() }

func (f termFormat) Round(m uint64, lsb int) uint64 {
	l := bits.Len64(m)
	return Format(f).encode(false, l-1+lsb, m, uint(l), false).bits
}
