package posit

import (
	"math/bits"

	"repro/internal/bitutil"
)

// Mul returns p*q rounded to nearest even. Formats with n <= 8 resolve
// through the full 2^n × 2^n result table (built lazily from the
// reference path, so the two are bit-identical by construction); wider
// formats compute directly: the significand product of two n<=32 posits
// fits in a uint64 (at most 2(n-2) bits), so multiplication is a single
// integer multiply plus normalisation — the same structure as the
// multiplication stage of the paper's Algorithm 2 (lines 6-10).
func (p Posit) Mul(q Posit) Posit {
	if p.f != q.f {
		panic("posit: Mul across formats")
	}
	if t := p.f.mulTab(); t != nil {
		return Posit{f: p.f, bits: uint64(t[p.bits<<p.f.n|q.bits])}
	}
	return p.mulRef(q)
}

// mulRef is the direct (non-tabled) multiplication used for wide formats
// and for building the result tables.
func (p Posit) mulRef(q Posit) Posit {
	if p.IsNaR() || q.IsNaR() {
		return p.f.NaR()
	}
	if p.bits == 0 || q.bits == 0 {
		return p.f.Zero()
	}
	dp, dq := p.decode(), q.decode()
	prod := dp.sig * dq.sig
	l := uint(bits.Len64(prod))
	// value = prod × 2^(sf_p + sf_q - (w_p-1) - (w_q-1)); renormalise so
	// the MSB of prod is the hidden bit.
	sf := dp.sf + dq.sf - int(dp.sigW) - int(dq.sigW) + 2 + int(l) - 1
	return p.f.encode(dp.sign != dq.sign, sf, prod, l, false)
}

// Add returns p+q rounded to nearest even. Formats with n <= 8 resolve
// through the full result table; wider formats align the two exact values
// in a double-width register — for low-precision posits everything stays
// well inside 64 bits unless the scales are very far apart, in which case
// the smaller operand collapses into guard/sticky information exactly as
// in a hardware near/far-path adder.
func (p Posit) Add(q Posit) Posit {
	if p.f != q.f {
		panic("posit: Add across formats")
	}
	if t := p.f.addTab(); t != nil {
		return Posit{f: p.f, bits: uint64(t[p.bits<<p.f.n|q.bits])}
	}
	return p.addRef(q)
}

// addRef is the direct (non-tabled) addition used for wide formats and
// for building the result tables.
func (p Posit) addRef(q Posit) Posit {
	if p.IsNaR() || q.IsNaR() {
		return p.f.NaR()
	}
	if p.bits == 0 {
		return q
	}
	if q.bits == 0 {
		return p
	}
	dp, dq := p.decode(), q.decode()
	// Normalise both significands so the hidden bit sits at position 61,
	// leaving 2 headroom bits for the carry-out and sign handling.
	const top = 61
	sp := dp.sig << (top - (dp.sigW - 1))
	sq := dq.sig << (top - (dq.sigW - 1))
	ep, eq := dp.sf, dq.sf
	// Ensure |p-term| has the larger (or equal) scale.
	signP, signQ := dp.sign, dq.sign
	if eq > ep || (eq == ep && sq > sp) {
		sp, sq = sq, sp
		ep, eq = eq, ep
		signP, signQ = signQ, signP
	}
	d := uint(ep - eq)
	var sticky bool
	sq, sticky = bitutil.ShiftRightSticky(sq, d)
	var mag uint64
	sign := signP
	if signP == signQ {
		mag = sp + sq // headroom bit absorbs the carry
	} else {
		mag = sp - sq
		if sticky {
			// The true subtrahend was slightly larger than its
			// truncation, so the difference is slightly smaller:
			// borrow one ULP and re-inject via sticky.
			mag--
		}
		if mag == 0 {
			if !sticky {
				return p.f.Zero()
			}
			// Cancellation down to the sticky residue cannot
			// happen: sticky implies scale gap > 61 bits while
			// cancellation to zero requires equal scales.
			panic("posit: Add cancellation with sticky residue")
		}
	}
	l := uint(bits.Len64(mag))
	sf := ep + int(l) - 1 - top
	return p.f.encode(sign, sf, mag, l, sticky)
}

// Sub returns p-q rounded to nearest even.
func (p Posit) Sub(q Posit) Posit { return p.Add(q.Neg()) }

// Div returns p/q rounded to nearest even. Division by zero returns NaR,
// matching the posit standard (NaR absorbs all exception cases).
func (p Posit) Div(q Posit) Posit {
	if p.f != q.f {
		panic("posit: Div across formats")
	}
	if p.IsNaR() || q.IsNaR() || q.bits == 0 {
		return p.f.NaR()
	}
	if p.bits == 0 {
		return p.f.Zero()
	}
	dp, dq := p.decode(), q.decode()
	n := p.f.n
	// Compute Q = floor(sig_p << s / sig_q) with enough quotient bits
	// (>= n+4) that guard and sticky are exact. The 128-bit numerator
	// keeps the shift safe for every supported format.
	s := int(n) + 4 + int(dq.sigW) - int(dp.sigW)
	if s < 1 {
		s = 1
	}
	hi, lo := bitutil.Shl128(dp.sig, uint(s))
	quo, rem := bits.Div64(hi, lo, dq.sig)
	sticky := rem != 0
	l := uint(bits.Len64(quo))
	// value = Q × 2^(-s) × 2^(sf_p - sf_q - (w_p-1) + (w_q-1))
	sf := dp.sf - dq.sf - int(dp.sigW) + int(dq.sigW) - s + int(l) - 1
	return p.f.encode(dp.sign != dq.sign, sf, quo, l, sticky)
}

// FMA returns p*q + r with a single rounding, using a two-product quire
// internally — the scalar version of the EMAC guarantee.
func (p Posit) FMA(q, r Posit) Posit {
	if p.f != q.f || p.f != r.f {
		panic("posit: FMA across formats")
	}
	qr := NewQuire(p.f, 2)
	qr.AddPosit(r)
	qr.MulAdd(p, q)
	return qr.Result()
}

// Sqrt returns the square root of p rounded to nearest even; NaR for
// negative inputs or NaR.
func (p Posit) Sqrt() Posit {
	if p.IsNaR() || p.Negative() {
		return p.f.NaR()
	}
	if p.bits == 0 {
		return p.f.Zero()
	}
	d := p.decode()
	// Work on value = sig × 2^(sf - (sigW-1)). Arrange an even exponent:
	// sqrt(m × 2^(2t)) = sqrt(m) × 2^t. Shift sig left so that it has
	// plenty of precision (about 2(n+4) bits) and an even exponent.
	prec := 2 * (int(p.f.n) + 5)
	e := d.sf - int(d.sigW) + 1 // exponent of sig's LSB
	shift := prec - int(d.sigW)
	if (e-shift)%2 != 0 {
		shift++
	}
	hi, lo := bitutil.Shl128(d.sig, uint(shift))
	root, rem := bitutil.Sqrt128(hi, lo)
	l := uint(bits.Len64(root))
	sf := (e-shift)/2 + int(l) - 1
	return p.f.encode(false, sf, root, l, rem)
}
