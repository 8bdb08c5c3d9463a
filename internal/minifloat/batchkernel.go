package minifloat

// BatchDenseKernel is the GEMM-style batched datapath for one dense
// layer in the float arm: the termtile kernel over this format's tables
// (termTables), shared with the posit arm's term tier. The tables hold
// the exact product (-1)^s·sig_w·sig_a·2^(lsb_w+lsb_a) of every (weight,
// activation) pattern pair at the register's fraction depth, map NaN and
// ±Inf to the special flag and ±0 to a zero, and round each sum as
// Accumulator.Result does on a single machine word, through a table keyed
// by the register's bit length and top bits (bitutil.RoundKey); a
// negative sum sets the sign bit. It qualifies only when the format is
// narrow enough to enumerate (n <= 8) and the eq.-(3) register for the
// fan-in fits one int64, in which the kernel's sums wrap as the register
// does. NewBatchDenseKernel reports ok == false otherwise, and the layer
// runs on per-neuron Accumulators. Results are bit-identical to driving
// an Accumulator through ResetToBias/MulAdd/Result per sample, verified
// by the exhaustive equivalence tests.

import (
	"math/bits"
	"sync"

	"repro/internal/bitutil"
	"repro/internal/termtile"
)

// fdec is one pre-decoded operand: value = (-1)^neg × sig × 2^lsb.
// Zero is sig == 0; NaN/Inf carry special (and sig == 0 so a special
// operand contributes nothing if it ever reaches an accumulation loop).
type fdec struct {
	sig     uint64
	lsb     int32
	neg     bool
	special bool
}

// predecodeFloat unpacks one raw pattern.
func predecodeFloat(f Format, bits uint64) fdec {
	x := f.FromBits(bits)
	if x.IsNaN() || x.IsInf() {
		return fdec{special: true}
	}
	if x.IsZero() {
		return fdec{}
	}
	d := x.decode()
	return fdec{sig: d.sig, lsb: int32(d.sf - int(d.sigW) + 1), neg: d.sign}
}

var (
	termTabMu sync.Mutex
	termTabs  = map[Format]*termtile.Tables{}
)

// termTables returns f's kernel tables (f.N() <= 8), built lazily and
// cached for the process lifetime. Terms are at the register's fraction
// depth fb, and Round holds the unsigned pattern of each positive m ×
// 2^-fb. Memory cost: 2^n × 256 × 8 bytes of terms (512 KiB at n = 8)
// and 16 KiB of rounding.
func (f Format) termTables() *termtile.Tables {
	termTabMu.Lock()
	defer termTabMu.Unlock()
	if t, ok := termTabs[f]; ok {
		return t
	}
	fb := 2 * (f.Bias() - 1 + int(f.wf))
	mask, count := f.Mask(), 1<<f.N()
	t := &termtile.Tables{
		Terms:   make([]int64, count<<8),
		Round:   new([64 << 8]uint8),
		Special: f.NaN().Bits(),
	}
	for p := range t.Act {
		q := uint64(p) & mask
		switch d := predecodeFloat(f, q); {
		case d.special:
			t.Act[p] = 1 << 8
		case d.sig != 0:
			t.Act[p] = uint16(q)
		}
		t.Neg[p] = uint8(f.FromBits(q).Neg().Bits())
	}
	for wb := 0; wb < count; wb++ {
		wd := predecodeFloat(f, uint64(wb))
		if wd.special || wd.sig == 0 {
			continue // specials are handled by the row/sample scans
		}
		row := t.Terms[wb<<8 : (wb+1)<<8]
		for ab := 0; ab < count; ab++ {
			ad := predecodeFloat(f, uint64(ab))
			if ad.special || ad.sig == 0 {
				continue
			}
			// The Accumulator's term: exact significand product at the
			// register's fraction depth. The shift is non-negative
			// (a product's LSB scale is at least -fb) and the term fits
			// int64 because a single product fits the eq.-(3) register,
			// which the constructor caps at 64 bits.
			v := wd.sig * ad.sig << uint(fb+int(wd.lsb)+int(ad.lsb))
			if wd.neg != ad.neg {
				row[ab] = -int64(v)
			} else {
				row[ab] = int64(v)
			}
		}
	}
	// An n <= 8 float keeps at most five fraction bits, so the key decides
	// the rounding, normal or subnormal.
	for key := range t.Round {
		m := bitutil.RoundKeyValue(key)
		l := bits.Len64(m)
		t.Round[key] = uint8(f.encode(false, l-1-fb, m, uint(l), false).Bits())
	}
	termTabs[f] = t
	return t
}

// BatchDenseKernel holds one layer's term-table kernel. Not safe for
// concurrent use.
type BatchDenseKernel struct {
	f       Format
	in, out int
	term    *termtile.Kernel
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
	fb := 2 * (f.Bias() - 1 + int(f.wf))
	pats := make([][]uint8, out)
	biasTerm := make([]int64, out)
	biasSpecial := make([]bool, out)
	for j, row := range w {
		pats[j] = make([]uint8, len(row))
		for i, v := range row {
			if v.f != f {
				panic("minifloat: BatchDenseKernel weight format mismatch")
			}
			pats[j][i] = uint8(v.bits)
		}
		if b[j].f != f {
			panic("minifloat: BatchDenseKernel bias format mismatch")
		}
		bd := predecodeFloat(f, b[j].bits)
		biasSpecial[j] = bd.special
		if bd.sig != 0 {
			biasTerm[j] = int64(bd.sig << uint(fb+int(bd.lsb)))
			if bd.neg {
				biasTerm[j] = -biasTerm[j]
			}
		}
	}
	term := termtile.New(f.termTables(), pats, biasTerm, biasSpecial, width)
	return &BatchDenseKernel{f: f, in: in, out: out, term: term}, true
}

// In returns the layer fan-in.
func (k *BatchDenseKernel) In() int { return k.in }

// Out returns the layer width.
func (k *BatchDenseKernel) Out() int { return k.out }

// Format returns the kernel's float format.
func (k *BatchDenseKernel) Format() Format { return k.f }

// ForwardBatch computes dst[s*k.Out()+j] = round(b[j] + Σ_i
// W[j][i]·act[s*k.In()+i]) for every sample s: flat sample-major planes
// of any uint64-backed code type, read and written in place, with
// len(act) = b·In(), len(dst) = b·Out(). Not safe for concurrent use of
// one kernel.
func ForwardBatch[C ~uint64](k *BatchDenseKernel, act, dst []C, b int) {
	termtile.Forward(k.term, act, dst, b)
}
