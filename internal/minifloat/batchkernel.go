package minifloat

// BatchDenseKernel is the GEMM-style batched datapath for one dense
// layer in the float arm, mirroring the posit batch kernel's structure:
// activations are classified and transposed into a column-major byte
// plane once per flush, and the inner loop adds precomputed signed MAC
// terms — the exact product (-1)^s·sig_w·sig_a·2^(lsb_w+lsb_a) of every
// (weight, activation) pattern pair at the register's fraction depth —
// from a per-format table, so one table row streams through all samples
// while hot. It qualifies only when the format is narrow enough to
// enumerate (n <= 8) and the eq.-(3) register for the fan-in fits one
// int64; rounding then replicates Accumulator.Result on a single
// machine word. NewBatchDenseKernel reports ok == false otherwise.
// Results are bit-identical to DenseKernel.ForwardBits per sample,
// verified by the exhaustive equivalence tests.

import (
	"math/bits"
	"sync"

	"repro/internal/bitutil"
)

// batchTabStride pads every term-table row to 256 entries so the byte-
// indexed inner loop can use a fixed-size array view (no bounds check).
const batchTabStride = 256

var (
	batchTabMu sync.Mutex
	batchTabs  = map[Format][]int64{}
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

	actT []uint8
	spS  []bool
	acc  []int64
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

func (k *BatchDenseKernel) grow(b int) {
	if cap(k.actT) < k.in*b {
		k.actT = make([]uint8, k.in*b)
	}
	if cap(k.spS) < b {
		k.spS = make([]bool, b)
	}
	if cap(k.acc) < b {
		k.acc = make([]int64, b)
	}
}

// encodeAcc rounds one sample's register — Accumulator.Result on a
// single machine word (the register residue is the int64 masked to the
// eq.-(3) width; the significand never needs truncation or sticky bits
// because the whole magnitude fits 64 bits).
func (k *BatchDenseKernel) encodeAcc(a int64) uint64 {
	m := uint64(a) & k.widthMask
	sign := m>>(k.width-1)&1 == 1
	if sign {
		m = -m & k.widthMask
	}
	if m == 0 {
		return 0
	}
	l := uint(bits.Len64(m))
	return k.f.encode(sign, int(l)-1-int(k.fracBits), m, l, false).Bits()
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
	if b == 0 {
		return
	}
	k.grow(b)
	mask := k.f.Mask()
	in, out := k.in, k.out
	actT, spS := k.actT, k.spS
	for s := 0; s < b; s++ {
		special := false
		row := act[s*in : (s+1)*in]
		for i, c := range row {
			p := uint64(c) & mask
			x := Float{f: k.f, bits: p}
			if x.IsNaN() || x.IsInf() {
				special = true
			}
			actT[i*b+s] = uint8(p)
		}
		spS[s] = special
	}
	acc := k.acc[:b]
	for j := 0; j < out; j++ {
		bt := k.biasTerm[j]
		for s := range acc {
			acc[s] = bt
		}
		wr := k.wRow[j*in : (j+1)*in]
		for i, off := range wr {
			if off < 0 {
				continue
			}
			row := (*[batchTabStride]int64)(k.tab[off:])
			col := actT[i*b : i*b+b]
			for s, a := range col {
				acc[s] += row[a]
			}
		}
		if k.specialRow[j] {
			for s := 0; s < b; s++ {
				dst[s*out+j] = C(k.nanBits)
			}
			continue
		}
		for s, a := range acc {
			if spS[s] {
				dst[s*out+j] = C(k.nanBits)
			} else {
				dst[s*out+j] = C(k.encodeAcc(a))
			}
		}
	}
}
