// Package wide implements the one exact register behind every
// multiply-and-accumulate unit in the repository: a fixed-width
// two's-complement integer. The paper's fixed-point accumulator (Fig. 3),
// the float EMAC's wide fixed-point register (Fig. 4) and the posit quire
// (Fig. 5, eq. (4)) are all instances of Int at different widths. The
// posit and float EMACs round through the one Readout; the fixed EMAC's
// truncating shift reads its register with Extract.
//
// Registers of up to 256 bits keep their words inside the struct, so a
// register in a stack value or a preallocated MAC accumulates and reads
// out without touching the heap; wider ones hold a slice allocated once
// at construction. All operations wrap modulo 2^width, exactly as the
// synthesized register would, and widths are fixed at construction:
// there is no reallocation during accumulation, mirroring hardware.
package wide

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/bitutil"
)

// inlineWords is the word count a register stores inside the struct: the
// quires of 8-bit formats up to es = 3 and 16-bit ones up to es = 2 fit
// at the paper's fan-ins (posit(16,2) needs 226 + ⌈log2 k⌉ bits).
const inlineWords = 4

// Int is a width-bit two's-complement integer. The zero value is
// unusable; construct with Make. Words store the value little-endian;
// bits above width inside the top word are kept zeroed (canonical form).
// Copying an Int copies an inline register but shares a heap one.
type Int struct {
	width uint
	n     int                 // words in use, ⌈width/64⌉
	mask  uint64              // the valid bits of the top word
	in    [inlineWords]uint64 // the words of a register up to 256 bits
	heap  []uint64            // the words of a wider one (nil otherwise)
}

// Make returns a zero-valued integer of the given bit width (width >= 1).
func Make(width uint) Int {
	if width == 0 {
		panic("wide: width must be >= 1")
	}
	x := Int{width: width, n: int((width + 63) / 64), mask: bitutil.Mask((width-1)%64 + 1)}
	if x.n > inlineWords {
		x.heap = make([]uint64, x.n)
	}
	return x
}

// words returns the register's words.
func (x *Int) words() []uint64 {
	if x.heap != nil {
		return x.heap
	}
	return x.in[:x.n]
}

// Width returns the bit width.
func (x *Int) Width() uint { return x.width }

// sign reports whether the two's-complement value is negative.
func (x *Int) sign() bool {
	return x.words()[x.n-1]>>((x.width-1)%64)&1 == 1
}

// SetZero clears x to zero.
func (x *Int) SetZero() {
	x.in = [inlineWords]uint64{}
	clear(x.heap)
}

// SetInt128 sets x to the two's-complement value hi:lo, sign-extended or
// wrapped to the width: how a kernel that accumulated in one or two
// machine words hands its exact sum over for the readout.
func (x *Int) SetInt128(lo, hi uint64) {
	w := x.words()
	w[0] = lo
	if len(w) > 1 {
		w[1] = hi
		fill := uint64(int64(hi) >> 63)
		for i := 2; i < len(w); i++ {
			w[i] = fill
		}
	}
	w[len(w)-1] &= x.mask
}

// AddUint64Shifted adds v << shift into x (mod 2^width). v is treated as
// unsigned. This is the core "shift to fixed-point position then add"
// operation of every EMAC (Alg. 2 lines 13–14).
func (x *Int) AddUint64Shifted(v uint64, shift uint) {
	w := x.words()
	k := int(shift / 64)
	if k >= len(w) {
		return // entirely above the register: hardware drops it
	}
	lo, hi := shifted(v, shift%64)
	var c uint64
	w[k], c = bits.Add64(w[k], lo, 0)
	for i := k + 1; i < len(w) && hi|c != 0; i++ {
		w[i], c = bits.Add64(w[i], hi, c)
		hi = 0
	}
	w[len(w)-1] &= x.mask
}

// SubUint64Shifted subtracts v << shift from x (mod 2^width).
func (x *Int) SubUint64Shifted(v uint64, shift uint) {
	w := x.words()
	k := int(shift / 64)
	if k >= len(w) {
		return
	}
	lo, hi := shifted(v, shift%64)
	var b uint64
	w[k], b = bits.Sub64(w[k], lo, 0)
	for i := k + 1; i < len(w) && hi|b != 0; i++ {
		w[i], b = bits.Sub64(w[i], hi, b)
		hi = 0
	}
	w[len(w)-1] &= x.mask
}

// shifted splits v << off (off < 64) into its low and high words.
func shifted(v uint64, off uint) (lo, hi uint64) {
	return v << off, v >> (63 - off) >> 1
}

// Extract returns the count bits of x starting at bit lo (little-endian
// positions), zero-padded if the range runs past the top. count <= 64.
func (x *Int) Extract(lo, count uint) uint64 {
	if count > 64 {
		panic("wide: Extract count must be <= 64")
	}
	if count == 0 || lo >= x.width {
		return 0
	}
	w := x.words()
	k, off := lo/64, lo%64
	v := w[k] >> off
	if off != 0 && int(k)+1 < len(w) {
		v |= w[k+1] << (64 - off)
	}
	return v & bitutil.Mask(count)
}

// Readout splits x for its one rounding: the sign, the bit length l of
// |x| (the leading one sits at bit l−1; 0 when x is zero), the top
// min(l, 64) bits of |x| as sig, and sticky, whether any bit of |x| below
// those is set. It reads the words in place and allocates nothing, at any
// width.
func (x *Int) Readout() (neg bool, l uint, sig uint64, sticky bool) {
	if x.n == 1 {
		// One word: |x| fits a uint64 outright, so there is nothing to
		// extract and no bit below the significand.
		v := x.in[0]
		if neg = v>>(x.width-1)&1 == 1; neg {
			v = -v & x.mask
		}
		return neg, uint(bits.Len64(v)), v, false
	}
	w := x.words()
	// z is the lowest nonzero word. For a negative x, |x| = ^x + 1: the
	// +1 carries through the zero words below z, so those stay 0, word z
	// becomes -w[z] and every word above it ^w[i]. Negation keeps the
	// trailing zeros, so |x| and x also share their lowest set bit.
	z := 0
	for z < len(w) && w[z] == 0 {
		z++
	}
	if z == len(w) {
		return false, 0, 0, false
	}
	neg = x.sign()
	top := len(w) - 1
	mag := func(i int) uint64 {
		v := w[i]
		if neg {
			if i > z {
				v = ^v
			} else {
				v = -v // 0 below z
			}
		}
		if i == top {
			v &= x.mask
		}
		return v
	}
	i := top
	for mag(i) == 0 {
		i-- // stops at z at the latest
	}
	l = uint(i*64 + bits.Len64(mag(i)))
	lo := l - min(l, 64)
	k, off := int(lo/64), lo%64
	sig = mag(k) >> off
	if off != 0 {
		sig |= mag(k+1) << (64 - off)
	}
	sticky = z < k || z == k && w[k]&bitutil.Mask(off) != 0
	return neg, l, sig, sticky
}

// Big returns the signed value of x as a new big.Int.
func (x *Int) Big() *big.Int {
	w := x.words()
	out := new(big.Int)
	for i := len(w) - 1; i >= 0; i-- {
		out.Lsh(out, 64)
		out.Or(out, new(big.Int).SetUint64(w[i]))
	}
	if x.sign() {
		out.Sub(out, new(big.Int).Lsh(big.NewInt(1), x.width))
	}
	return out
}

// HexString renders the raw two's-complement pattern in hex, most
// significant word first, for debugging register contents.
func (x *Int) HexString() string {
	w := x.words()
	s := ""
	for i := len(w) - 1; i >= 0; i-- {
		s += fmt.Sprintf("%016x", w[i])
	}
	return "0x" + s
}
