// Package fixedpoint implements parameterised two's-complement Q-format
// fixed point — the third arm of the paper's EMAC comparison (Fig. 3).
// A Format(n, q) value stores an n-bit signed integer i and represents
// i × 2^-q; weights, biases and activations share the same layout. The
// EMAC accumulates 2n-bit exact products in a register sized by eq. (3),
// then shifts right by q and, following the paper, *truncates* to n bits
// with clipping at the maximum magnitude (an RNE variant is provided for
// the rounding ablation study).
package fixedpoint

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/bitutil"
	"repro/internal/dyadic"
	"repro/internal/wide"
)

// MaxN bounds the supported width so that products fit in int64:
// |v·w| <= 2^(2n-2) = 2^62 at n = 32.
const MaxN = 32

// Format describes a Q(n, q) fixed-point layout: n total bits of which q
// are fraction bits (n-q integer bits including sign).
type Format struct {
	n, q uint
}

// NewFormat validates and returns a fixed-point format. q may be at most
// n-1 (at least the sign bit must remain integer).
func NewFormat(n, q uint) (Format, error) {
	if n < 2 || n > MaxN {
		return Format{}, fmt.Errorf("fixedpoint: n must be in [2,%d], got %d", MaxN, n)
	}
	if q >= n {
		return Format{}, fmt.Errorf("fixedpoint: q must be < n, got q=%d n=%d", q, n)
	}
	return Format{n: n, q: q}, nil
}

// MustFormat panics on invalid parameters.
func MustFormat(n, q uint) Format {
	f, err := NewFormat(n, q)
	if err != nil {
		panic(err)
	}
	return f
}

// N returns the total width.
func (f Format) N() uint { return f.n }

// Q returns the number of fraction bits.
func (f Format) Q() uint { return f.q }

func (f Format) valid() bool { return f.n >= 2 }

func (f Format) mustValid() {
	if !f.valid() {
		panic("fixedpoint: zero Format; use NewFormat")
	}
}

// MaxInt returns the largest stored integer, 2^(n-1) - 1.
func (f Format) MaxInt() int64 { return int64(1)<<(f.n-1) - 1 }

// MinInt returns the smallest stored integer, -2^(n-1).
func (f Format) MinInt() int64 { return -(int64(1) << (f.n - 1)) }

// MaxValue returns the largest representable value.
func (f Format) MaxValue() float64 { return math.Ldexp(float64(f.MaxInt()), -int(f.q)) }

// MinPositive returns the smallest positive value, 2^-q (the format ULP).
func (f Format) MinPositive() float64 { return math.Ldexp(1, -int(f.q)) }

// ULP returns the uniform spacing 2^-q.
func (f Format) ULP() float64 { return f.MinPositive() }

// DynamicRangeLog10 returns log10(max/min) = log10(2^(n-1) - 1): the
// paper's dynamic-range metric for the fixed format.
func (f Format) DynamicRangeLog10() float64 { return math.Log10(float64(f.MaxInt())) }

// CeilLog2Ratio returns ceil(log2(max/min)) = ceil(log2(2^(n-1)-1)):
// n-1, except 0 at n = 2.
func (f Format) CeilLog2Ratio() uint { return bitutil.Clog2(uint64(f.MaxInt())) }

// String renders like "fixed(8,q=4)".
func (f Format) String() string { return fmt.Sprintf("fixed(%d,q=%d)", f.n, f.q) }

// Zero returns the fixed-point zero.
func (f Format) Zero() Fixed { f.mustValid(); return Fixed{f: f} }

// Max returns the largest positive value.
func (f Format) Max() Fixed { f.mustValid(); return Fixed{f: f, v: f.MaxInt()} }

// Min returns the most negative value.
func (f Format) Min() Fixed { f.mustValid(); return Fixed{f: f, v: f.MinInt()} }

// One returns 1.0, saturated if the integer field cannot hold it
// (q == n-1 has no room for 1.0).
func (f Format) One() Fixed { return f.FromFloat64(1) }

// FromRaw wraps a stored integer, saturating into range.
func (f Format) FromRaw(v int64) Fixed {
	f.mustValid()
	if v > f.MaxInt() {
		v = f.MaxInt()
	}
	if v < f.MinInt() {
		v = f.MinInt()
	}
	return Fixed{f: f, v: v}
}

// FromBits reinterprets a raw n-bit two's-complement pattern.
func (f Format) FromBits(b uint64) Fixed {
	f.mustValid()
	return Fixed{f: f, v: bitutil.SignExtend(b, f.n)}
}

// Count returns the number of patterns, 2^n.
func (f Format) Count() uint64 { return uint64(1) << f.n }

// FromFloat64 rounds x to the nearest representable value
// (round-to-nearest-even on the integer grid) and saturates.
func (f Format) FromFloat64(x float64) Fixed {
	f.mustValid()
	if math.IsNaN(x) {
		return f.Zero() // fixed point has no NaN; zero is the least bad
	}
	scaled := math.Ldexp(x, int(f.q))
	r := math.RoundToEven(scaled)
	if r > float64(f.MaxInt()) {
		return f.Max()
	}
	if r < float64(f.MinInt()) {
		return f.Min()
	}
	return Fixed{f: f, v: int64(r)}
}

// FromDyadic rounds an exact dyadic value (RNE on the integer grid,
// saturating). Exactness relies on the dyadic mantissa being odd
// (normalised), which pins the sticky computation.
func (f Format) FromDyadic(d dyadic.D) Fixed {
	f.mustValid()
	if d.IsZero() {
		return f.Zero()
	}
	scaled := d.MulPow2(int(f.q)) // want round(scaled)
	sig, exp, sign := scaled.MantExp()
	finish := func(v int64) Fixed {
		if sign < 0 {
			v = -v
		}
		return f.FromRaw(v)
	}
	if exp >= 0 { // already an integer
		if sig.BitLen()+exp > 62 {
			return finish(int64(1) << 62) // saturates
		}
		return finish(sig.Int64() << uint(exp))
	}
	shift := uint(-exp)
	bl := uint(sig.BitLen())
	if bl > shift+62 {
		return finish(int64(1) << 62)
	}
	kept := uint64(0)
	if bl > shift {
		kept = new(big.Int).Rsh(sig, shift).Uint64()
	}
	var guard bool
	if shift >= 1 && shift <= bl {
		guard = sig.Bit(int(shift-1)) == 1
	}
	// sig is odd, so any shift >= 2 leaves a set bit below the guard.
	sticky := shift >= 2
	return finish(int64(bitutil.RoundNearestEven(kept, guard, sticky)))
}

// Fixed is one fixed-point value: format plus stored integer.
type Fixed struct {
	f Format
	v int64
}

// Format returns the value's format.
func (x Fixed) Format() Format { return x.f }

// Raw returns the stored integer i (value = i × 2^-q).
func (x Fixed) Raw() int64 { return x.v }

// Bits returns the n-bit two's-complement pattern.
func (x Fixed) Bits() uint64 { return uint64(x.v) & bitutil.Mask(x.f.n) }

// IsZero reports x == 0.
func (x Fixed) IsZero() bool { return x.v == 0 }

// Negative reports x < 0.
func (x Fixed) Negative() bool { return x.v < 0 }

// Float64 returns the exact value.
func (x Fixed) Float64() float64 { return math.Ldexp(float64(x.v), -int(x.f.q)) }

// Dyadic returns the exact value.
func (x Fixed) Dyadic() dyadic.D { return dyadic.New(x.v, -int(x.f.q)) }

// Neg returns -x, saturating (the minimum value negates to the maximum).
func (x Fixed) Neg() Fixed { return x.f.FromRaw(-x.v) }

// Abs returns |x|, saturating.
func (x Fixed) Abs() Fixed {
	if x.v < 0 {
		return x.Neg()
	}
	return x
}

// Add returns x+y saturating.
func (x Fixed) Add(y Fixed) Fixed {
	if x.f != y.f {
		panic("fixedpoint: Add across formats")
	}
	return x.f.FromRaw(x.v + y.v)
}

// Sub returns x-y saturating.
func (x Fixed) Sub(y Fixed) Fixed {
	if x.f != y.f {
		panic("fixedpoint: Sub across formats")
	}
	return x.f.FromRaw(x.v - y.v)
}

// Mul returns x*y with the paper's post-shift truncation (shift right by
// q, truncate toward negative infinity) and saturation.
func (x Fixed) Mul(y Fixed) Fixed {
	if x.f != y.f {
		panic("fixedpoint: Mul across formats")
	}
	prod := x.v * y.v // exact: 2n <= 60 bits
	return x.f.FromRaw(prod >> x.f.q)
}

// MulRNE returns x*y with round-to-nearest-even after the shift
// (the ablation alternative).
func (x Fixed) MulRNE(y Fixed) Fixed {
	if x.f != y.f {
		panic("fixedpoint: MulRNE across formats")
	}
	prod := x.v * y.v
	return x.f.FromRaw(shiftRNE(prod, x.f.q))
}

// shiftRNE arithmetic-shifts v right by s with round-to-nearest-even.
func shiftRNE(v int64, s uint) int64 {
	if s == 0 {
		return v
	}
	kept := v >> s
	guard := (v>>(s-1))&1 == 1
	var sticky bool
	if s >= 2 {
		sticky = v&int64(bitutil.Mask(s-1)) != 0
	}
	if guard && (sticky || kept&1 == 1) {
		kept++
	}
	return kept
}

// Cmp orders values numerically.
func (x Fixed) Cmp(y Fixed) int {
	if x.f != y.f {
		panic("fixedpoint: Cmp across formats")
	}
	switch {
	case x.v < y.v:
		return -1
	case x.v > y.v:
		return 1
	default:
		return 0
	}
}

// String renders the value.
func (x Fixed) String() string {
	return fmt.Sprintf("%s[%d]=%g", x.f, x.v, x.Float64())
}

// AccumSize returns the paper's eq. (3) width for the fixed EMAC:
// wa = ceil(log2 k) + 2(n-1) + 2. The largest product, the most negative
// code squared, is 2^(2n-2); that is n-1 bits per operand even at n = 2,
// where ceil(log2(max/min)) is 0.
func AccumSize(f Format, k int) uint {
	if k < 1 {
		panic("fixedpoint: accumulator capacity must be >= 1")
	}
	return bitutil.Clog2(uint64(k)) + 2*(f.n-1) + 2
}

// Accumulator is the fixed-point EMAC register (Fig. 3): 2n-bit exact
// products accumulate; the result is shifted right by q and truncated (or
// RNE-rounded when the ablation flag is set), then clipped.
type Accumulator struct {
	f        Format
	capacity int
	acc      wide.Int
	adds     int
	// RoundNearest switches the post-shift truncation (paper default)
	// to round-to-nearest-even.
	RoundNearest bool
}

// NewAccumulator returns an empty accumulator sized by eq. (3).
func NewAccumulator(f Format, k int) *Accumulator {
	f.mustValid()
	return &Accumulator{f: f, capacity: k, acc: wide.Make(AccumSize(f, k))}
}

// Format returns the accumulated format.
func (a *Accumulator) Format() Format { return a.f }

// Capacity returns the sized-for count.
func (a *Accumulator) Capacity() int { return a.capacity }

// Width returns the register width.
func (a *Accumulator) Width() uint { return a.acc.Width() }

// Adds returns accumulations since reset.
func (a *Accumulator) Adds() int { return a.adds }

// Reset clears the register.
func (a *Accumulator) Reset() {
	a.acc.SetZero()
	a.adds = 0
}

// ResetToBias preloads the register with the bias (at product scale 2^-2q:
// the bias is shifted left by q so it aligns with accumulated products).
func (a *Accumulator) ResetToBias(bias Fixed) {
	if bias.f != a.f {
		panic("fixedpoint: accumulator format mismatch")
	}
	a.Reset()
	mag, neg := bitutil.AbsInt(bias.v)
	if neg {
		a.acc.SubUint64Shifted(mag, a.f.q)
	} else {
		a.acc.AddUint64Shifted(mag, a.f.q)
	}
}

// MulAdd accumulates the exact 2n-bit product w × x.
func (a *Accumulator) MulAdd(w, x Fixed) {
	if w.f != a.f || x.f != a.f {
		panic("fixedpoint: accumulator format mismatch")
	}
	a.adds++
	prod := w.v * x.v
	mag, neg := bitutil.AbsInt(prod)
	if neg {
		a.acc.SubUint64Shifted(mag, 0)
	} else {
		a.acc.AddUint64Shifted(mag, 0)
	}
}

// Result shifts the register right by q (aligning the 2q-fraction product
// scale back to q), truncates or rounds, and clips to n bits.
func (a *Accumulator) Result() Fixed {
	// Registers up to 64 bits (every paper configuration: eq. (3) stays
	// under 64 until n > 23 at k = 256) read out through one
	// sign-extended machine word with no heap traffic; resultBig is the
	// arbitrary-width reference, and the two are cross-checked in the
	// tests.
	if w := a.acc.Width(); w <= 64 {
		v := bitutil.SignExtend(a.acc.Extract(0, w), w)
		if a.RoundNearest {
			return a.f.FromRaw(shiftRNE(v, a.f.q))
		}
		return a.f.FromRaw(v >> a.f.q)
	}
	return a.resultBig()
}

// resultBig is Result for registers beyond 64 bits (and the readout
// oracle for the word-sized fast path).
func (a *Accumulator) resultBig() Fixed {
	v := a.acc.Big()
	// register holds value × 2^2q; target integer = value × 2^q
	if a.RoundNearest {
		d := dyadic.FromBig(v, -2*int(a.f.q))
		return a.f.FromDyadic(d)
	}
	// truncation toward negative infinity (arithmetic shift), per paper;
	// big.Int.Rsh is a floor shift, matching hardware truncation.
	shifted := new(big.Int).Rsh(v, a.f.q)
	if !shifted.IsInt64() {
		if v.Sign() < 0 {
			return a.f.Min()
		}
		return a.f.Max()
	}
	return a.f.FromRaw(shifted.Int64())
}

// Dyadic returns the exact register value (value scale, oracle hook).
func (a *Accumulator) Dyadic() dyadic.D {
	return dyadic.FromBig(a.acc.Big(), -2*int(a.f.q))
}

// DotProduct computes the exact dot product with a single
// truncate-and-clip at the end (paper semantics).
func DotProduct(w, x []Fixed) Fixed {
	if len(w) != len(x) {
		panic("fixedpoint: DotProduct length mismatch")
	}
	if len(w) == 0 {
		panic("fixedpoint: DotProduct of empty vectors")
	}
	a := NewAccumulator(w[0].f, len(w))
	for i := range w {
		a.MulAdd(w[i], x[i])
	}
	return a.Result()
}
