package minifloat

// Division and square root for minifloats, giving the float arm API
// parity with the posit package (the EMACs never divide, but a complete
// number-system library should). Both are correctly rounded (RNE) with
// the same clip-at-max overflow semantics as the rest of the package.

import (
	"math/bits"

	"repro/internal/bitutil"
)

// Div returns x/y with a single rounding. IEEE special cases: x/0 is
// ±Inf for finite nonzero x (sign by XOR), 0/0 and Inf/Inf are NaN.
func (x Float) Div(y Float) Float {
	if x.f != y.f {
		panic("minifloat: Div across formats")
	}
	switch {
	case x.IsNaN() || y.IsNaN():
		return x.f.NaN()
	case x.IsInf() && y.IsInf():
		return x.f.NaN()
	case x.IsInf():
		return x.f.Inf(boolSign(x.SignBit() != y.SignBit()))
	case y.IsInf():
		z := x.f.Zero()
		if x.SignBit() != y.SignBit() {
			z.bits |= x.f.signBit()
		}
		return z
	case y.IsZero():
		if x.IsZero() {
			return x.f.NaN()
		}
		return x.f.Inf(boolSign(x.SignBit() != y.SignBit()))
	case x.IsZero():
		z := x.f.Zero()
		if x.SignBit() != y.SignBit() {
			z.bits |= x.f.signBit()
		}
		return z
	}
	dx, dy := x.decode(), y.decode()
	// Q = floor(sig_x << s / sig_y) with >= wf+4 quotient bits.
	s := int(x.f.wf) + 6 + int(dy.sigW) - int(dx.sigW)
	if s < 1 {
		s = 1
	}
	hi, lo := bitutil.Shl128(dx.sig, uint(s))
	quo, rem := bits.Div64(hi, lo, dy.sig)
	l := uint(bits.Len64(quo))
	sf := dx.sf - dy.sf - int(dx.sigW) + int(dy.sigW) - s + int(l) - 1
	return x.f.encode(dx.sign != dy.sign, sf, quo, l, rem != 0)
}

// Sqrt returns the square root (RNE); NaN for negative nonzero inputs.
func (x Float) Sqrt() Float {
	switch {
	case x.IsNaN():
		return x
	case x.IsZero():
		return x // ±0
	case x.SignBit():
		return x.f.NaN()
	case x.IsInf():
		return x
	}
	d := x.decode()
	prec := 2 * (int(x.f.wf) + 6)
	e := d.sf - int(d.sigW) + 1
	shift := prec - int(d.sigW)
	if shift < 0 {
		shift = 0
	}
	if (e-shift)%2 != 0 {
		shift++
	}
	hi, lo := bitutil.Shl128(d.sig, uint(shift))
	root, inexact := bitutil.Sqrt128(hi, lo)
	l := uint(bits.Len64(root))
	sf := (e-shift)/2 + int(l) - 1
	return x.f.encode(false, sf, root, l, inexact)
}

// FMA returns x*y + z with a single rounding, via a two-term accumulator.
func (x Float) FMA(y, z Float) Float {
	if x.f != y.f || x.f != z.f {
		panic("minifloat: FMA across formats")
	}
	if x.IsNaN() || y.IsNaN() || z.IsNaN() || x.IsInf() || y.IsInf() || z.IsInf() {
		// fall back to two-step semantics for specials
		return x.Mul(y).Add(z)
	}
	a := NewAccumulator(x.f, 2)
	a.AddFloat(z)
	a.MulAdd(x, y)
	return a.Result()
}
