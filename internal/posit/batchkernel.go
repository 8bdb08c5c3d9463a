package posit

// BatchDenseKernel is the GEMM-style batched datapath for one dense
// layer: it computes a whole flush of samples through the layer, each
// activation decoded once per flush and each pre-decoded weight row
// streamed through many samples while hot. It covers every layer whose
// eq.-(4) register is at most two words (128 bits), in one of two tiers:
//
//   - Term tables, for formats narrow enough to enumerate (n <= 8) whose
//     register fits one word. The full signed MAC contribution
//     ±(sig_w·sig_a) << (fb+adj_w+adj_a) of every (weight, activation)
//     pattern pair is precomputed, so the inner loop is acc[s] +=
//     tab[w][a]: no multiply, no shift, no sign fix-up at MAC time. The
//     flush is walked in tiles of termtile.Size samples, each transposed
//     once into column-major bytes; the loop order is (row j, weight i,
//     sample s), so one table row stays hot across the tile. Zeros add
//     nothing to the exact sum, so a column with enough of them is
//     compacted into entries s | a<<8 of its nonzero activations and the
//     row loop runs acc[uint8(e)] += tab[w][e>>8] over those alone;
//     other columns keep the dense loop. Each sum rounds through a
//     per-format table keyed by its bit length and top bits
//     (bitutil.RoundKey) rather than through the encoder.
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
// bit-identical to DenseKernel.ForwardBits per sample, which the
// equivalence tests verify. Wider registers (posit(16,2), posit32) have
// no batched tier: NewBatchDenseKernel reports ok == false and callers
// loop the per-sample kernel.

import (
	"math/bits"

	"repro/internal/bitutil"
	"repro/internal/termtile"
)

// termTabStride is the padded row length of a term table: rows are
// indexed by the activation pattern, stored as a byte, so a fixed
// 256-entry stride lets the inner loop convert the row to a *[256]int64
// and index it with no bounds check. Formats narrower than 8 bits simply
// leave the upper entries zero (their patterns never occur).
const termTabStride = 256

// batchTile is the window tier's sample tile: the tile's decoded
// activations (8 bytes per nonzero) stay cache-resident while every row
// streams through them, the scale window stays that of 64 samples rather
// than the whole flush, and the flush scratch stays O(in × batchTile)
// whatever the flush size.
const batchTile = 64

// termTab returns the signed MAC-term table for f (one int64 per
// (weight, activation) pattern pair, at the quire's fraction depth),
// building and caching it on first use; nil when f is too wide for one.
// Memory cost: 2^n × 256 × 8 bytes — 512 KiB at the n = 8 ceiling.
func (f Format) termTab() []int64 {
	if f.n > opTabMaxN {
		return nil
	}
	if p := termTabs[f.n][f.es].Load(); p != nil {
		return *p
	}
	return f.buildTermTab()
}

func (f Format) buildTermTab() []int64 {
	// Build the decode table first: tabMu is not reentrant.
	dec := f.decTab()
	tabMu.Lock()
	defer tabMu.Unlock()
	if p := termTabs[f.n][f.es].Load(); p != nil {
		return *p
	}
	fb := int((uint(1) << (f.es + 1)) * (f.n - 2))
	count := 1 << f.n
	t := make([]int64, count*termTabStride)
	for wb := 0; wb < count; wb++ {
		wd := predecodeBits(f, dec, uint64(wb))
		if wd.cls != pdReal {
			continue // zero/NaR rows stay all-zero
		}
		row := t[wb*termTabStride : (wb+1)*termTabStride]
		for ab := 0; ab < count; ab++ {
			ad := predecodeBits(f, dec, uint64(ab))
			if ad.cls != pdReal {
				continue
			}
			// Exactly the per-sample single-word tier's term: the
			// significand product shifted to the quire's fraction depth,
			// signed by the XOR mask (two's complement in uint64 is the
			// int64 bit pattern).
			v := wd.sig * ad.sig << uint(fb+int(wd.adj)+int(ad.adj))
			sm := wd.sgn ^ ad.sgn
			row[ab] = int64((v ^ sm) - sm)
		}
	}
	termTabs[f.n][f.es].Store(&t)
	return t
}

// roundTab returns f's rounding table for the term tier (f.n <= 8),
// building and caching it on first use: entry bitutil.RoundKey(m) holds
// the pattern of the positive exact value m × 2^-fb (fb the quire's
// fraction depth). An n <= 8 posit keeps at most five fraction bits, so
// the key decides the rounding. Memory cost: 16 KiB per format.
func (f Format) roundTab() []uint8 {
	if p := roundTabs[f.n][f.es].Load(); p != nil {
		return *p
	}
	tabMu.Lock()
	defer tabMu.Unlock()
	if p := roundTabs[f.n][f.es].Load(); p != nil {
		return *p
	}
	lsb := -int((uint(1) << (f.es + 1)) * (f.n - 2))
	t := make([]uint8, 64<<8)
	for key := range t {
		m := bitutil.RoundKeyValue(key)
		l := bits.Len64(m)
		t[key] = uint8(f.encode(false, l-1+lsb, m, uint(l), false).bits)
	}
	roundTabs[f.n][f.es].Store(&t)
	return t
}

// BatchDenseKernel holds the pre-decoded parameters and reused flush
// scratch for one layer. Not safe for concurrent use.
type BatchDenseKernel struct {
	f        Format
	in, out  int
	fracBits uint // quire fraction depth 2^(es+1)(n-2)
	narBits  uint64
	// narRow[j] records a NaR weight or bias in row j.
	narRow []bool

	// Term tier (tab != nil).
	tab []int64
	// wRow[j*in+i] is the term-table row offset of weight (j,i), already
	// multiplied by termTabStride; -1 for zero/NaR weights (their table
	// row is all zeros, so skipping them is free and exact).
	wRow []int32
	// biasTerm[j] is the bias contribution at the quire's fraction depth.
	biasTerm []int64
	rtab     *[64 << 8]uint8 // f.roundTab()
	// Tile scratch (see termtile): the tile's patterns column-major
	// (actT[i*ts+s], NaR stored as 0: its table entries are 0), the
	// compacted entries of its sparse columns, each column's span of them,
	// and the registers of the current row.
	actT  []uint8
	lists []uint16
	spans []int32
	acc   []int64

	// Window tier (tab == nil).
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
// in weights) and bias vector of format f into a batched layer kernel.
// ok is false when this configuration has no batched fast path: the
// eq.-(4) quire for this fan-in is wider than two machine words (or the
// fan-in reaches 2^24, beyond the window tier's packed index).
func NewBatchDenseKernel(f Format, w [][]Posit, b []Posit) (*BatchDenseKernel, bool) {
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
	k := &BatchDenseKernel{
		f:        f,
		in:       in,
		out:      out,
		fracBits: (uint(1) << (f.es + 1)) * (f.n - 2),
		narBits:  f.NaR().bits,
		narRow:   make([]bool, out),
	}
	if f.n <= opTabMaxN && width <= 64 {
		k.tab = f.termTab()
		k.rtab = (*[64 << 8]uint8)(f.roundTab())
		k.wRow = make([]int32, out*in)
		k.biasTerm = make([]int64, out)
		k.spans = make([]int32, 2*in)
		k.acc = make([]int64, termtile.Size)
		k.narS = make([]bool, termtile.Size)
	} else {
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
	}
	wd := make([]pdec, in)
	for j, row := range w {
		if len(row) != in {
			panic("posit: BatchDenseKernel ragged weight matrix")
		}
		predecodeInto(wd, row, f)
		bd := predecodeBits(f, f.decTab(), b[j].mustFormat(f).bits)
		nar := bd.cls == pdNaR
		for _, d := range wd {
			nar = nar || d.cls == pdNaR
		}
		k.narRow[j] = nar
		if k.tab != nil {
			k.initTermRow(j, row, wd, bd)
		} else {
			k.initWindowRow(j, wd, bd)
		}
	}
	return k, true
}

func (k *BatchDenseKernel) initTermRow(j int, row []Posit, wd []pdec, bd pdec) {
	dst := k.wRow[j*k.in : (j+1)*k.in]
	for i, d := range wd {
		dst[i] = -1
		if d.cls == pdReal {
			dst[i] = int32(row[i].bits) * termTabStride
		}
	}
	if bd.cls == pdReal {
		v := bd.sig << uint(int(k.fracBits)+int(bd.adj))
		k.biasTerm[j] = int64((v ^ bd.sgn) - bd.sgn)
	}
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

// mustFormat panics unless p has format f (mirrors predecodeInto's check
// for the bias vector, which is decoded one element at a time here).
func (p Posit) mustFormat(f Format) Posit {
	if p.f != f {
		panic("posit: mixed formats in kernel operand")
	}
	return p
}

// In returns the layer fan-in.
func (k *BatchDenseKernel) In() int { return k.in }

// Out returns the layer width.
func (k *BatchDenseKernel) Out() int { return k.out }

// Format returns the kernel's posit format.
func (k *BatchDenseKernel) Format() Format { return k.f }

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

// roundTerm is round at the term tier's scale 2^-fracBits, read from
// the format's rounding table.
func (k *BatchDenseKernel) roundTerm(a int64) uint64 {
	m := uint64(a)
	if a < 0 {
		m = -m
	}
	if m == 0 {
		return 0
	}
	p := uint64(k.rtab[bitutil.RoundKey(m)&(64<<8-1)])
	if a < 0 {
		p = -p & k.f.Mask()
	}
	return p
}

// ForwardBatch computes dst[s*k.Out()+j] = round(b[j] + Σ_i
// W[j][i]·act[s*k.In()+i]) for every sample s in the flush: flat
// sample-major planes of n-bit patterns, len(act) = b·In(), len(dst) =
// b·Out(). The planes may be any uint64-backed code type and are read and
// written in place. No activation function is applied. Not safe for
// concurrent use of one kernel (the flush scratch is reused).
func ForwardBatch[C ~uint64](k *BatchDenseKernel, act, dst []C, b int) {
	if b < 0 || len(act) != b*k.in || len(dst) != b*k.out {
		panic("posit: BatchDenseKernel batch size mismatch")
	}
	if b == 0 {
		return
	}
	if k.tab != nil {
		forwardTerms(k, act, dst, b)
		return
	}
	for s0 := 0; s0 < b; s0 += batchTile {
		ts := min(batchTile, b-s0)
		forwardTile(k, act[s0*k.in:(s0+ts)*k.in], dst[s0*k.out:(s0+ts)*k.out], ts)
	}
}

// forwardTerms is the term-table tier, walked in tiles of
// termtile.Size samples.
func forwardTerms[C ~uint64](k *BatchDenseKernel, act, dst []C, b int) {
	if n := k.in * min(b, termtile.Size); len(k.actT) < n {
		k.actT = make([]uint8, n)
		k.lists = make([]uint16, n)
	}
	for s0 := 0; s0 < b; s0 += termtile.Size {
		ts := min(termtile.Size, b-s0)
		forwardTermTile(k, act[s0*k.in:(s0+ts)*k.in], dst[s0*k.out:(s0+ts)*k.out], ts)
	}
}

// forwardTermTile is the term tier over one tile of ts <= termtile.Size
// samples: act and dst are the tile's slices of the flush planes.
func forwardTermTile[C ~uint64](k *BatchDenseKernel, act, dst []C, ts int) {
	in, out := k.in, k.out
	actT, narS := k.actT[:in*ts], k.narS[:ts]
	mask, narPat := k.f.Mask(), k.f.signBit()
	// Decode once per tile: transpose the patterns into column-major bytes
	// (column s-contiguous, matching the dense loop), record which samples
	// carry a NaR activation (poisoning every row, exactly as per-sample
	// accumulation would).
	for s := 0; s < ts; s++ {
		nar := false
		for i, c := range act[s*in : (s+1)*in] {
			p := uint64(c) & mask
			if p == narPat {
				nar, p = true, 0
			}
			actT[i*ts+s] = uint8(p)
		}
		narS[s] = nar
	}
	sparse := termtile.Compact(actT, k.lists, k.spans, ts, out)
	acc := (*[termtile.Size]int64)(k.acc)
	for j := 0; j < out; j++ {
		if k.narRow[j] {
			for s := 0; s < ts; s++ {
				dst[s*out+j] = C(k.narBits)
			}
			continue
		}
		bt := k.biasTerm[j]
		for s := 0; s < ts; s++ {
			acc[s] = bt
		}
		k.addRow(acc, k.wRow[j*in:(j+1)*in], actT, ts, sparse)
		for s := 0; s < ts; s++ {
			v := k.narBits
			if !narS[s] {
				v = k.roundTerm(acc[s])
			}
			dst[s*out+j] = C(v)
		}
	}
}

// addRow adds one row's terms for a tile to acc: wRow holds the row's
// table offsets, actT the tile's column-major patterns, and sparse says
// whether termtile.Compact compacted any column. Out of line: inlined
// into the tile loop, its loop state spills to the stack.
//
//go:noinline
func (k *BatchDenseKernel) addRow(acc *[termtile.Size]int64, wRow []int32, actT []uint8, ts int, sparse bool) {
	lists, spans := k.lists, k.spans
	for i, off := range wRow {
		if off < 0 {
			continue // zero/NaR weight: all-zero table row
		}
		// One table row (2 KiB) stays hot across the tile; the fixed-size
		// array views remove the inner bounds checks.
		row := (*[termTabStride]int64)(k.tab[off:])
		if sparse && spans[2*i+1] >= 0 {
			if lo, hi := spans[2*i], spans[2*i+1]; hi > lo {
				termtile.AddEntries(acc, row, lists[lo:hi])
			}
			continue
		}
		col := actT[i*ts : i*ts+ts]
		a := acc[:len(col)]
		for s, p := range col {
			a[s] += row[p]
		}
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
			a0, a1 := dotWide(b0, b1, wrow, ents[start[s]:start[s+1]], fb)
			q.sw[0] = a0
			if q.words == 2 {
				q.sw[1] = a1
			}
			q.snorm()
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
