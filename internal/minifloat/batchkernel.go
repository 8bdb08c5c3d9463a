package minifloat

// BatchDenseKernel is the GEMM-style batched datapath for one dense
// layer in the float arm, mirroring the posit batch kernel's term tier:
// the inner loop adds precomputed signed MAC terms — the exact product
// (-1)^s·sig_w·sig_a·2^(lsb_w+lsb_a) of every (weight, activation)
// pattern pair at the register's fraction depth — from a per-format
// table, so one table row streams through many samples while hot. The
// flush is walked in tiles of termtile.Size samples, each transposed
// once into column-major bytes. Zeros (of either sign) add nothing to the
// exact sum, so a column with enough of them is compacted into entries
// s | a<<8 of its nonzero activations and the row loop visits those
// alone; other columns keep the dense loop. It qualifies only when the
// format is narrow enough to enumerate (n <= 8) and the eq.-(3) register
// for the fan-in fits one int64; rounding then replicates
// Accumulator.Result on a single machine word, read from a per-format
// table keyed by the register's bit length and top bits
// (bitutil.RoundKey). NewBatchDenseKernel reports ok == false otherwise.
// Results are bit-identical to DenseKernel.ForwardBits per sample,
// verified by the exhaustive equivalence tests.

import (
	"math/bits"
	"sync"

	"repro/internal/bitutil"
	"repro/internal/termtile"
)

// batchTabStride pads every term-table row to 256 entries so the byte-
// indexed inner loop can use a fixed-size array view (no bounds check).
const batchTabStride = 256

var (
	batchTabMu sync.Mutex
	batchTabs  = map[Format][]int64{}
	roundTabs  = map[Format][]uint8{}
)

// termTab returns the signed MAC-term table for f (nil when n > 8),
// built lazily and cached for the process lifetime. Memory cost:
// 2^n × 256 × 8 bytes — 512 KiB at the n = 8 ceiling.
func (f Format) termTab() []int64 {
	if f.N() > 8 {
		return nil
	}
	batchTabMu.Lock()
	defer batchTabMu.Unlock()
	if t, ok := batchTabs[f]; ok {
		return t
	}
	fracBits := 2 * (f.Bias() - 1 + int(f.wf))
	count := 1 << f.N()
	t := make([]int64, count*batchTabStride)
	for wb := 0; wb < count; wb++ {
		wd := predecodeFloat(f, uint64(wb))
		if wd.special || wd.sig == 0 {
			continue // specials are handled by the row/sample scans
		}
		row := t[wb*batchTabStride : (wb+1)*batchTabStride]
		for ab := 0; ab < count; ab++ {
			ad := predecodeFloat(f, uint64(ab))
			if ad.special || ad.sig == 0 {
				continue
			}
			// The per-sample kernel's term: exact significand product at
			// the register's fraction depth. The shift is non-negative
			// (a product's LSB scale is at least -fracBits) and the term
			// fits int64 because a single product fits the eq.-(3)
			// register, which the constructor caps at 64 bits.
			v := wd.sig * ad.sig << uint(fracBits+int(wd.lsb)+int(ad.lsb))
			if wd.neg != ad.neg {
				row[ab] = -int64(v)
			} else {
				row[ab] = int64(v)
			}
		}
	}
	batchTabs[f] = t
	return t
}

// roundTab returns f's rounding table (nil when n > 8), built lazily
// and cached for the process lifetime: entry bitutil.RoundKey(m) holds
// the unsigned pattern of m × 2^-fb (fb the register's fraction depth).
// An n <= 8 float keeps at most five fraction bits, so the key decides
// the rounding, normal or subnormal. Memory cost: 16 KiB.
func (f Format) roundTab() []uint8 {
	if f.N() > 8 {
		return nil
	}
	batchTabMu.Lock()
	defer batchTabMu.Unlock()
	if t, ok := roundTabs[f]; ok {
		return t
	}
	fb := 2 * (f.Bias() - 1 + int(f.wf))
	t := make([]uint8, 64<<8)
	for key := range t {
		m := bitutil.RoundKeyValue(key)
		l := bits.Len64(m)
		t[key] = uint8(f.encode(false, l-1-fb, m, uint(l), false).Bits())
	}
	roundTabs[f] = t
	return t
}

// BatchDenseKernel holds the pre-decoded parameters and reused flush
// scratch for one layer. Not safe for concurrent use.
type BatchDenseKernel struct {
	f       Format
	in, out int
	tab     []int64
	// wRow[j*in+i] is the term-table row offset of weight (j,i) (already
	// ×batchTabStride); -1 for zero/special weights.
	wRow []int32
	// biasTerm[j] is the bias contribution at the register's fraction
	// depth (0 for zero or special biases; specials set specialRow).
	biasTerm []int64
	// specialRow[j] records a NaN/Inf weight or bias in row j.
	specialRow []bool
	width      uint // AccumSize(f, in) <= 64
	widthMask  uint64
	fracBits   uint
	nanBits    uint64
	signBit    uint64
	rtab       *[64 << 8]uint8 // f.roundTab()
	// actCode[p] is activation pattern p as a tile stores it: 0 for ±0 and
	// NaN/Inf (their table entries are all 0), p otherwise, with bit 8 set
	// for NaN/Inf.
	actCode [batchTabStride]uint16

	// Tile scratch (see termtile): the tile's patterns column-major
	// (actT[i*ts+s]), the compacted entries of its sparse columns, each
	// column's span of them, the registers of the current row and the
	// per-sample NaN/Inf flags.
	actT  []uint8
	lists []uint16
	spans []int32
	acc   []int64
	spS   []bool
}

// NewBatchDenseKernel pre-decodes a row-major weight matrix and bias
// vector of format f into a batched layer kernel. ok is false when the
// format is too wide to enumerate (n > 8) or the eq.-(3) register for
// this fan-in does not fit one machine word.
func NewBatchDenseKernel(f Format, w [][]Float, b []Float) (*BatchDenseKernel, bool) {
	f.mustValid()
	out := len(w)
	if out == 0 || len(b) != out || len(w[0]) == 0 {
		return nil, false
	}
	in := len(w[0])
	width := AccumSize(f, in)
	if f.N() > 8 || width > 64 {
		return nil, false
	}
	k := &BatchDenseKernel{
		f:          f,
		in:         in,
		out:        out,
		tab:        f.termTab(),
		wRow:       make([]int32, out*in),
		biasTerm:   make([]int64, out),
		specialRow: make([]bool, out),
		width:      width,
		widthMask:  bitutil.Mask(width),
		fracBits:   2 * uint(f.Bias()-1+int(f.wf)),
		nanBits:    f.NaN().Bits(),
		signBit:    f.signBit(),
		rtab:       (*[64 << 8]uint8)(f.roundTab()),
		spans:      make([]int32, 2*in),
		acc:        make([]int64, termtile.Size),
		spS:        make([]bool, termtile.Size),
	}
	for p := range 1 << f.N() {
		switch d := predecodeFloat(f, uint64(p)); {
		case d.special:
			k.actCode[p] = 1 << 8
		case d.sig != 0:
			k.actCode[p] = uint16(p)
		}
	}
	for j, row := range w {
		if len(row) != in {
			panic("minifloat: BatchDenseKernel ragged weight matrix")
		}
		special := false
		dst := k.wRow[j*in : (j+1)*in]
		for i, v := range row {
			if v.f != f {
				panic("minifloat: BatchDenseKernel weight format mismatch")
			}
			d := predecodeFloat(f, v.bits)
			if d.special {
				special = true
			}
			if d.special || d.sig == 0 {
				dst[i] = -1
			} else {
				dst[i] = int32(v.bits) * batchTabStride
			}
		}
		bv := b[j]
		if bv.f != f {
			panic("minifloat: BatchDenseKernel bias format mismatch")
		}
		bd := predecodeFloat(f, bv.bits)
		if bd.special {
			special = true
		} else if bd.sig != 0 {
			v := int64(bd.sig << uint(int(k.fracBits)+int(bd.lsb)))
			if bd.neg {
				v = -v
			}
			k.biasTerm[j] = v
		}
		k.specialRow[j] = special
	}
	return k, true
}

// In returns the layer fan-in.
func (k *BatchDenseKernel) In() int { return k.in }

// Out returns the layer width.
func (k *BatchDenseKernel) Out() int { return k.out }

// Format returns the kernel's float format.
func (k *BatchDenseKernel) Format() Format { return k.f }

// encodeAcc rounds one sample's register — Accumulator.Result on a
// single machine word (the register residue is the int64 masked to the
// eq.-(3) width; the whole magnitude fits 64 bits, so there is no
// extraction), read from the format's rounding table.
func (k *BatchDenseKernel) encodeAcc(a int64) uint64 {
	m := uint64(a) & k.widthMask
	sign := m>>(k.width-1)&1 == 1
	if sign {
		m = -m & k.widthMask
	}
	if m == 0 {
		return 0
	}
	p := uint64(k.rtab[bitutil.RoundKey(m)&(64<<8-1)])
	if sign {
		p |= k.signBit
	}
	return p
}

// ForwardBatch computes dst[s*k.Out()+j] = round(b[j] + Σ_i
// W[j][i]·act[s*k.In()+i]) for every sample s: flat sample-major planes
// of any uint64-backed code type, read and written in place, with
// len(act) = b·In(), len(dst) = b·Out(). Not safe for concurrent use of
// one kernel.
func ForwardBatch[C ~uint64](k *BatchDenseKernel, act, dst []C, b int) {
	if b < 0 || len(act) != b*k.in || len(dst) != b*k.out {
		panic("minifloat: BatchDenseKernel batch size mismatch")
	}
	if n := k.in * min(b, termtile.Size); len(k.actT) < n {
		k.actT = make([]uint8, n)
		k.lists = make([]uint16, n)
	}
	for s0 := 0; s0 < b; s0 += termtile.Size {
		ts := min(termtile.Size, b-s0)
		forwardTile(k, act[s0*k.in:(s0+ts)*k.in], dst[s0*k.out:(s0+ts)*k.out], ts)
	}
}

// forwardTile runs one tile of ts <= termtile.Size samples: act and dst
// are the tile's slices of the flush planes.
func forwardTile[C ~uint64](k *BatchDenseKernel, act, dst []C, ts int) {
	in, out := k.in, k.out
	actT, spS := k.actT[:in*ts], k.spS[:ts]
	mask := k.f.Mask()
	// Decode once per tile: transpose the stored patterns into
	// column-major bytes, flag the samples carrying a NaN/Inf activation
	// (their outputs are NaN).
	for s := 0; s < ts; s++ {
		var special uint16
		for i, c := range act[s*in : (s+1)*in] {
			v := k.actCode[uint8(uint64(c)&mask)]
			special |= v
			actT[i*ts+s] = uint8(v)
		}
		spS[s] = special>>8 != 0
	}
	sparse := termtile.Compact(actT, k.lists, k.spans, ts, out)
	acc := (*[termtile.Size]int64)(k.acc)
	for j := 0; j < out; j++ {
		if k.specialRow[j] {
			for s := 0; s < ts; s++ {
				dst[s*out+j] = C(k.nanBits)
			}
			continue
		}
		bt := k.biasTerm[j]
		for s := 0; s < ts; s++ {
			acc[s] = bt
		}
		k.addRow(acc, k.wRow[j*in:(j+1)*in], actT, ts, sparse)
		for s := 0; s < ts; s++ {
			v := k.nanBits
			if !spS[s] {
				v = k.encodeAcc(acc[s])
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
			continue
		}
		row := (*[batchTabStride]int64)(k.tab[off:])
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
