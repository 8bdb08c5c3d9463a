// Package posit implements the posit number system (Type III unum) exactly
// as used by the paper: arbitrary formats posit(n, es) with 3 <= n <= 32,
// bit-level decode (the paper's Algorithm 1), round-to-nearest-even encode
// (the tail of Algorithm 2), exact scalar arithmetic, and the quire — the
// wide Kulisch accumulator of eq. (4) that gives the posit EMAC its
// "exact multiply-and-accumulate" semantics. The quire's register is a
// wide.Int, the register every EMAC arm uses; DotProduct and the window
// tier's two-word fallback accumulate in local words and hand the sum to
// it for the one rounding.
//
// A posit is stored as its raw bit pattern in the low n bits of a uint64.
// Two patterns are special: all zeros is the real number 0 and
// 1 followed by zeros is NaR ("Not a Real"), which absorbs all exception
// cases. Every other pattern encodes
//
//	(-1)^s × (2^(2^es))^k × 2^e × 1.f
//
// where k is the run-length-encoded regime, e the unsigned exponent and f
// the fraction (paper eq. (2)); negative posits store the two's complement.
package posit

import (
	"fmt"
	"math"

	"repro/internal/bitutil"
)

// MaxN is the largest supported posit width. 32 covers everything the
// paper evaluates (n in [5,8]) with generous headroom, while keeping every
// significand product inside a uint64.
const MaxN = 32

// MaxES is the largest supported exponent-field width. es <= 4 already
// exceeds every configuration in the paper (es in {0,1,2,3} are swept).
const MaxES = 5

// Format identifies a posit format by total width n and exponent width es.
// The zero Format is invalid; construct with NewFormat or MustFormat.
type Format struct {
	n  uint
	es uint
}

// NewFormat validates and returns a posit format.
func NewFormat(n, es uint) (Format, error) {
	if n < 3 || n > MaxN {
		return Format{}, fmt.Errorf("posit: n must be in [3,%d], got %d", MaxN, n)
	}
	if es > MaxES {
		return Format{}, fmt.Errorf("posit: es must be in [0,%d], got %d", MaxES, es)
	}
	return Format{n: n, es: es}, nil
}

// MustFormat is NewFormat that panics on invalid parameters; intended for
// constants and tests.
func MustFormat(n, es uint) Format {
	f, err := NewFormat(n, es)
	if err != nil {
		panic(err)
	}
	return f
}

// N returns the total bit width.
func (f Format) N() uint { return f.n }

// ES returns the exponent field width.
func (f Format) ES() uint { return f.es }

// valid reports whether f was built through NewFormat.
func (f Format) valid() bool { return f.n >= 3 }

func (f Format) mustValid() {
	if !f.valid() {
		panic("posit: zero Format; use NewFormat")
	}
}

// Mask returns the n-bit mask for patterns of this format.
func (f Format) Mask() uint64 { return bitutil.Mask(f.n) }

// signBit returns the mask of the sign bit.
func (f Format) signBit() uint64 { return uint64(1) << (f.n - 1) }

// USeed returns useed = 2^(2^es), the regime base.
func (f Format) USeed() float64 {
	return math.Ldexp(1, 1<<f.es)
}

// MaxScale returns the largest power-of-two scale: (n-2) * 2^es
// (the scale of maxpos = useed^(n-2)).
func (f Format) MaxScale() int { return int(f.n-2) * (1 << f.es) }

// MinScale returns the smallest scale: -(n-2) * 2^es (scale of minpos).
func (f Format) MinScale() int { return -f.MaxScale() }

// MaxPos returns the largest positive posit.
func (f Format) MaxPos() Posit {
	f.mustValid()
	return Posit{f: f, bits: bitutil.Mask(f.n - 1)}
}

// MinPos returns the smallest positive posit.
func (f Format) MinPos() Posit {
	f.mustValid()
	return Posit{f: f, bits: 1}
}

// Zero returns the posit zero.
func (f Format) Zero() Posit {
	f.mustValid()
	return Posit{f: f}
}

// NaR returns the Not-a-Real pattern (1 followed by zeros).
func (f Format) NaR() Posit {
	f.mustValid()
	return Posit{f: f, bits: f.signBit()}
}

// One returns the posit 1.0 (pattern 01xx...: regime k=0, e=0, f=0).
func (f Format) One() Posit {
	f.mustValid()
	return Posit{f: f, bits: uint64(1) << (f.n - 2)}
}

// FromBits wraps a raw pattern (low n bits) as a posit of this format.
func (f Format) FromBits(bits uint64) Posit {
	f.mustValid()
	return Posit{f: f, bits: bits & f.Mask()}
}

// Count returns the number of distinct patterns, 2^n.
func (f Format) Count() uint64 { return uint64(1) << f.n }

// DynamicRangeLog10 returns log10(max/min), the dynamic-range metric the
// paper plots on the x axis of Fig. 6.
func (f Format) DynamicRangeLog10() float64 {
	// max/min = useed^(2(n-2)) => log10 = 2(n-2) * 2^es * log10(2)
	return float64(2*(f.n-2)) * float64(uint64(1)<<f.es) * math.Log10(2)
}

// String renders the format like "posit(8,1)".
func (f Format) String() string { return fmt.Sprintf("posit(%d,%d)", f.n, f.es) }

// Posit is a single posit value: a format plus its n-bit pattern.
// The zero value is the (invalid-format) zero; obtain values through a
// Format. Posit is a small value type and is passed by value everywhere.
type Posit struct {
	f    Format
	bits uint64
}

// Format returns the value's format.
func (p Posit) Format() Format { return p.f }

// Bits returns the raw n-bit pattern.
func (p Posit) Bits() uint64 { return p.bits }

// IsZero reports whether p is exactly zero.
func (p Posit) IsZero() bool { return p.bits == 0 }

// IsNaR reports whether p is Not-a-Real.
func (p Posit) IsNaR() bool { return p.bits == p.f.signBit() }

// Negative reports whether p < 0 (sign bit set and not NaR).
func (p Posit) Negative() bool {
	return !p.IsNaR() && p.bits&p.f.signBit() != 0
}

// Neg returns -p. Negation is exact for every posit: the two's complement
// of the pattern. -0 = 0 and -NaR = NaR fall out naturally.
func (p Posit) Neg() Posit {
	if p.IsNaR() {
		return p
	}
	return Posit{f: p.f, bits: bitutil.TwosComplement(p.bits, p.f.n)}
}

// Abs returns |p|.
func (p Posit) Abs() Posit {
	if p.Negative() {
		return p.Neg()
	}
	return p
}

// SignedBits returns the pattern interpreted as an n-bit two's-complement
// integer. Posits are monotone in this interpretation, which makes
// comparison a plain integer compare — one of the format's hardware
// selling points.
func (p Posit) SignedBits() int64 {
	return bitutil.SignExtend(p.bits, p.f.n)
}

// Cmp orders p and q numerically (-1, 0, +1). NaR sorts below every real
// value (matching the posit standard's total order on patterns).
func (p Posit) Cmp(q Posit) int {
	if p.f != q.f {
		panic("posit: Cmp across formats")
	}
	a, b := p.SignedBits(), q.SignedBits()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Less reports p < q in the pattern total order.
func (p Posit) Less(q Posit) bool { return p.Cmp(q) < 0 }

// Equal reports bitwise equality (same format, same pattern).
func (p Posit) Equal(q Posit) bool { return p.f == q.f && p.bits == q.bits }
