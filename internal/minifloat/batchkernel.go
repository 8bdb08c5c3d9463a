package minifloat

// The float arm's batched datapath for one dense layer is the termtile
// kernel, shared with the posit arm's term tier, over the tables termtile
// builds from termFormat. The tables hold the exact product
// (-1)^s·sig_w·sig_a·2^(lsb_w+lsb_a) of every (weight, activation)
// pattern pair at the register's fraction depth, map NaN and ±Inf to the
// special flag and ±0 to a zero, and round each sum as
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

	"repro/internal/termtile"
)

// termFormat is a format of at most 8 bits as termtile builds its
// tables: terms at the register's fraction depth 2·(bias−1+wf), NaN and
// ±Inf special, and the encoder rounding each sum once, normal or
// subnormal.
type termFormat Format

func (f termFormat) Bits() uint      { return Format(f).N() }
func (f termFormat) FracBits() int   { return 2 * (Format(f).Bias() - 1 + int(f.wf)) }
func (f termFormat) Special() uint64 { return Format(f).NaN().Bits() }

func (f termFormat) Decode(p uint64) termtile.Operand {
	x := Format(f).FromBits(p)
	switch {
	case x.IsNaN() || x.IsInf():
		return termtile.Operand{Special: true}
	case x.IsZero():
		return termtile.Operand{}
	}
	d := x.decode()
	return termtile.Operand{Sig: d.sig, LSB: d.sf - int(d.sigW) + 1, Neg: d.sign}
}

func (f termFormat) Negate(p uint64) uint64 { return Format(f).FromBits(p).Neg().Bits() }

func (f termFormat) Round(m uint64, lsb int) uint64 {
	l := bits.Len64(m)
	return Format(f).encode(false, l-1+lsb, m, uint(l), false).Bits()
}

// NewBatchDenseKernel builds the term-table kernel of a layer of format
// f from its row-major weight matrix and bias vector, given as n-bit
// patterns in any uint64-backed code type; termtile.Forward runs it. ok
// is false when the format is too wide to enumerate (n > 8) or the
// eq.-(3) register for this fan-in does not fit one machine word.
func NewBatchDenseKernel[C ~uint64](f Format, w [][]C, b []C) (*termtile.Kernel, bool) {
	f.mustValid()
	out := len(w)
	if out == 0 || len(b) != out || len(w[0]) == 0 {
		return nil, false
	}
	width := AccumSize(f, len(w[0]))
	if f.N() > 8 || width > 64 {
		return nil, false
	}
	return termtile.New(termFormat(f), w, b, width), true
}
