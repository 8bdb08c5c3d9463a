// Package bitutil provides the small bit-level helpers shared by every
// number-system package in this repository: leading-zero detection (the
// hardware LZD block of the paper's Fig. 5), ceil-log2 sizing used by the
// accumulator-width equations (3) and (4), masking, and a bit writer that
// implements round-to-nearest-even at an arbitrary cut point.
package bitutil

import (
	"encoding/binary"
	"math/bits"
)

// Clog2 returns ceil(log2(x)) for x >= 1. Clog2(1) == 0.
// It mirrors the clog2 function used throughout the paper's hardware
// descriptions to size counters and accumulators.
func Clog2(x uint64) uint {
	if x <= 1 {
		return 0
	}
	return uint(bits.Len64(x - 1))
}

// Mask returns a mask with the low w bits set. w must be <= 64.
// Mask(0) == 0 and Mask(64) == all ones.
func Mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Bit reports bit i of x as 0 or 1.
func Bit(x uint64, i uint) uint64 {
	return (x >> i) & 1
}

// LeadingZeros counts the number of leading zero bits within a w-bit field,
// exactly like the hardware leading-zero detector (LZD) in the posit decoder
// (Alg. 1 line 7). If the low w bits are all zero it returns w.
func LeadingZeros(x uint64, w uint) uint {
	x &= Mask(w)
	if x == 0 {
		return w
	}
	return w - uint(bits.Len64(x))
}

// Len returns the minimal number of bits needed to represent x
// (0 for x == 0). It is bits.Len64 re-exported for symmetry.
func Len(x uint64) uint {
	return uint(bits.Len64(x))
}

// AbsInt returns the absolute value of v as a uint64 along with the sign.
// Safe for math.MinInt64.
func AbsInt(v int64) (mag uint64, neg bool) {
	if v < 0 {
		return uint64(-v), true // two's complement wraps correctly for MinInt64
	}
	return uint64(v), false
}

// SignExtend interprets the low w bits of x as a two's-complement integer
// and sign-extends it to int64. w must be in [1,64].
func SignExtend(x uint64, w uint) int64 {
	if w >= 64 {
		return int64(x)
	}
	x &= Mask(w)
	sign := uint64(1) << (w - 1)
	return int64((x ^ sign)) - int64(sign)
}

// TwosComplement returns the two's complement of the low w bits of x,
// masked back to w bits.
func TwosComplement(x uint64, w uint) uint64 {
	return (^x + 1) & Mask(w)
}

// ShiftRightSticky shifts x right by s and reports whether any 1 bits were
// shifted out (the "sticky" condition used by round-to-nearest-even).
// s may exceed 64, in which case the result is 0 and sticky is x != 0.
func ShiftRightSticky(x uint64, s uint) (shifted uint64, sticky bool) {
	if s == 0 {
		return x, false
	}
	if s >= 64 {
		return 0, x != 0
	}
	return x >> s, x&Mask(s) != 0
}

// RoundNearestEven rounds the value whose kept bits are q, whose first
// discarded bit is guard, and whose remaining discarded bits OR to sticky.
// It returns q or q+1 per IEEE-754 round-to-nearest, ties-to-even — the
// rounding the paper mandates for both the float and posit EMAC outputs.
func RoundNearestEven(q uint64, guard, sticky bool) uint64 {
	if guard && (sticky || q&1 == 1) {
		return q + 1
	}
	return q
}

// ZeroBytes counts the zero bytes of b, eight at a time: in each word,
// a byte's top bit survives the complement below iff the byte is zero
// (its low seven bits carry into bit 7 when any is set, and its own bit 7
// is or'd in).
func ZeroBytes(b []byte) int {
	const low7 = 0x7F7F7F7F7F7F7F7F
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		x := binary.LittleEndian.Uint64(b)
		n += bits.OnesCount64(^(x&low7 + low7 | x | low7))
	}
	for _, c := range b {
		if c == 0 {
			n++
		}
	}
	return n
}

// RoundKey indexes a table of 64 × 256 rounding results by the parts of
// a nonzero magnitude m that decide how a format keeping at most six bits
// below the leading one rounds it (the guard bit then lies among the next
// seven): m's bit length l, the seven bits T below its leading one, and
// whether any lower bit is set. The key is (l−1)<<8 | T<<1 | sticky.
func RoundKey(m uint64) int {
	l := bits.Len64(m)
	if l <= 8 {
		return (l-1)<<8 | int(m<<uint(8-l)&0x7F)<<1
	}
	key := (l-1)<<8 | int(m>>uint(l-8)&0x7F)<<1
	if m<<uint(72-l) != 0 { // any bit below the top eight
		key |= 1
	}
	return key
}

// RoundKeyValue returns a magnitude whose RoundKey is key, for building
// a table RoundKey indexes. Keys no magnitude has (T bits below a short
// m's LSB, or sticky with l <= 8) map to a neighbour's magnitude.
func RoundKeyValue(key int) uint64 {
	l := key>>8 + 1
	top := uint64(1<<7 | key>>1&0x7F)
	if l <= 8 {
		return top >> uint(8-l)
	}
	return top<<uint(l-8) | uint64(key&1)
}
