package posit

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/bitutil"
	"repro/internal/dyadic"
	"repro/internal/wide"
)

// QuireSize returns the accumulator width of eq. (4) of the paper:
//
//	qsize = 2^(es+2) × (n-2) + 2 + ceil(log2(k)),   n >= 3
//
// wide enough to hold the exact sum of k products of posits without any
// rounding: 2^(es+1)(n-2) fraction bits (down to minpos²), the same again
// in integer bits (up to maxpos²), a sign bit, and ceil(log2 k) carry bits.
func QuireSize(f Format, k int) uint {
	f.mustValid()
	if k < 1 {
		panic("posit: quire capacity must be >= 1")
	}
	return (uint(1)<<(f.es+2))*(f.n-2) + 2 + bitutil.Clog2(uint64(k))
}

// Quire is the posit Kulisch accumulator: a wide two's-complement
// fixed-point register into which exact products of posits are added, with
// a single round-to-nearest-even when the final value is read out. It
// implements the accumulation loop of the paper's Algorithm 2
// (lines 11-19) in software, bit-for-bit.
//
// The register is a wide.Int, which keeps every register up to 256 bits
// inside the struct (8-bit formats up to es = 3 and 16-bit ones up to
// es = 2 at the paper's fan-ins), so a Quire value on the stack
// accumulates and rounds without touching the heap. It wraps modulo 2^width, exactly like the
// synthesized register.
type Quire struct {
	f        Format
	capacity int
	fracBits uint // position of the binary point: 2^(es+1)(n-2)
	acc      wide.Int
	adds     int
	nar      bool
	// dropped counts fraction bits removed from the bottom of the
	// register (0 for the exact eq.-(4) quire; >0 for the truncated
	// ablation variant). Product bits below the register floor are
	// discarded, exactly as narrower hardware would.
	dropped uint
}

// NewQuire returns an empty quire for format f sized for k accumulations.
func NewQuire(f Format, k int) *Quire {
	q := &Quire{}
	q.init(f, k, 0)
	return q
}

// NewTruncatedQuire returns the ablation variant: a register shortened by
// `drop` fraction bits at the bottom. Products contributing only below
// the register floor vanish, and partial products lose their low bits —
// the accuracy/area trade-off hardware designers take when the full
// eq.-(4) width (e.g. 103 bits for posit(8,2), k=32) is too expensive.
// drop must be less than the fraction depth 2^(es+1)(n-2).
func NewTruncatedQuire(f Format, k int, drop uint) *Quire {
	frac := (uint(1) << (f.es + 1)) * (f.n - 2)
	if drop >= frac {
		panic("posit: truncated quire would drop all fraction bits")
	}
	q := &Quire{}
	q.init(f, k, drop)
	return q
}

// init configures q in place (the allocation-free constructor behind
// NewQuire, used directly by the vector kernels for stack quires).
func (q *Quire) init(f Format, k int, drop uint) {
	f.mustValid()
	*q = Quire{
		f:        f,
		capacity: k,
		fracBits: (uint(1)<<(f.es+1))*(f.n-2) - drop,
		acc:      wide.Make(QuireSize(f, k) - drop),
		dropped:  drop,
	}
}

// Dropped returns the number of truncated low fraction bits (0 for the
// exact quire).
func (q *Quire) Dropped() uint { return q.dropped }

// Format returns the posit format this quire accumulates.
func (q *Quire) Format() Format { return q.f }

// Capacity returns the number of accumulations the register was sized for.
func (q *Quire) Capacity() int { return q.capacity }

// Width returns the register width in bits (eq. (4)).
func (q *Quire) Width() uint { return q.acc.Width() }

// Adds returns how many accumulation operations have been performed since
// the last Reset.
func (q *Quire) Adds() int { return q.adds }

// IsNaR reports whether a NaR has been absorbed.
func (q *Quire) IsNaR() bool { return q.nar }

// Reset clears the accumulator to zero.
func (q *Quire) Reset() {
	q.acc.SetZero()
	q.adds = 0
	q.nar = false
}

// ResetToBias clears the accumulator and preloads it with the fixed-point
// representation of the bias posit — the paper's trick of resetting the
// accumulation flip-flop to the bias so products accumulate on top of it.
func (q *Quire) ResetToBias(bias Posit) {
	q.Reset()
	q.AddPosit(bias)
	q.adds = 0
}

// --- accumulation ---

// AddPosit accumulates the exact value of p into the register.
func (q *Quire) AddPosit(p Posit) {
	if p.f != q.f {
		panic("posit: quire format mismatch")
	}
	if p.IsNaR() {
		q.nar = true
		return
	}
	q.adds++
	if p.bits == 0 {
		return
	}
	d := p.decode()
	sig, shift, ok := q.place(d.sig, d.sf-int(d.sigW)+1)
	if !ok {
		return
	}
	if d.sign {
		q.acc.SubUint64Shifted(sig, shift)
	} else {
		q.acc.AddUint64Shifted(sig, shift)
	}
}

// place aligns a magnitude with LSB scale lsbScale to the register,
// truncating below the register floor when the quire is the shortened
// ablation variant. ok reports whether anything remains to add.
func (q *Quire) place(sig uint64, lsbScale int) (uint64, uint, bool) {
	shift := int(q.fracBits) + lsbScale
	if shift >= 0 {
		return sig, uint(shift), sig != 0
	}
	if q.dropped == 0 {
		panic("posit: quire shift underflow") // impossible for the exact quire
	}
	s := uint(-shift)
	if s >= 64 {
		return 0, 0, false
	}
	sig >>= s // magnitude truncation: low bits fall below the floor
	return sig, 0, sig != 0
}

// MulAdd accumulates the exact product w × a into the register: the
// multiplication stage (Alg. 2 lines 6-10) followed by fixed-point
// conversion and wide addition (lines 11-14). No rounding occurs.
func (q *Quire) MulAdd(w, a Posit) {
	if w.f != q.f || a.f != q.f {
		panic("posit: quire format mismatch")
	}
	if w.IsNaR() || a.IsNaR() {
		q.nar = true
		return
	}
	q.adds++
	if w.bits == 0 || a.bits == 0 {
		return
	}
	dw, da := w.decode(), a.decode()
	prod := dw.sig * da.sig
	// LSB weight of the product: 2^(sf_w - (w_w-1) + sf_a - (w_a-1)).
	lsbScale := dw.sf - int(dw.sigW) + 1 + da.sf - int(da.sigW) + 1
	sig, shift, ok := q.place(prod, lsbScale)
	if !ok {
		return
	}
	if dw.sign != da.sign {
		q.acc.SubUint64Shifted(sig, shift)
	} else {
		q.acc.AddUint64Shifted(sig, shift)
	}
}

// SubPosit accumulates -p.
func (q *Quire) SubPosit(p Posit) { q.AddPosit(p.Neg()) }

// Result rounds the accumulated value to the nearest posit — the single
// rounding of the exact dot product (Alg. 2 lines 15-43).
func (q *Quire) Result() Posit {
	if q.nar {
		return q.f.NaR()
	}
	neg, l, sig, sticky := q.acc.Readout() // Alg. 2 line 17: LZD
	if l == 0 {
		return q.f.Zero()
	}
	return q.f.encode(neg, int(l)-1-int(q.fracBits), sig, min(l, 64), sticky)
}

// Float64 returns the current exact register value as a float64 (rounded
// to double, for diagnostics).
func (q *Quire) Float64() float64 {
	f := new(big.Float).SetPrec(256).SetInt(q.acc.Big())
	f.SetMantExp(f, -int(q.fracBits)) // value = acc × 2^-fracBits
	out, _ := f.Float64()
	return out
}

// Dyadic returns the current exact register value as a dyadic rational,
// used by the oracle tests to check that the quire really is exact.
func (q *Quire) Dyadic() dyadic.D {
	return dyadic.FromBig(q.acc.Big(), -int(q.fracBits))
}

// DotProduct computes the exactly-rounded dot product of two posit
// vectors: Σ w[i]·a[i] with one rounding at the end. The quire lives on
// the stack, so registers up to 256 bits cost no heap allocation; wider
// ones (32-bit formats) allocate their words once per call. Formats with a decode table and a register of at
// most 128 bits accumulate in local words first.
func DotProduct(w, a []Posit) Posit {
	if len(w) != len(a) {
		panic("posit: DotProduct length mismatch")
	}
	if len(w) == 0 {
		panic("posit: DotProduct of empty vectors")
	}
	f := w[0].f
	var q Quire
	q.init(f, len(w), 0)
	if t := f.decTab(); t != nil && q.Width() <= 128 {
		// Table fast path: fetch the decode table once for the whole
		// kernel and run the MAC loop directly on packed entries into a
		// local one- or two-word register, handed to the quire for the
		// readout — no per-MAC decode call, no function calls, no
		// allocation. Every standard small format lands here (es <= 2
		// registers fit 128 bits at any realistic k). The bits&m mask
		// proves the table index in range, eliding the bounds check.
		// The loops are branchless: zero and NaR entries carry sig = 0,
		// so they accumulate nothing; NaR markers are OR-collected and
		// checked once at the end, and the sign applies as a XOR mask.
		fb := int(q.fracBits)
		m := uint64(len(t) - 1)
		var narAcc uint32
		q.adds = len(w)
		if q.Width() <= 64 {
			// Single-word tier: the whole register is one uint64
			// (posit(8,0) needs 34 bits, posit(8,1) 50), so a MAC is
			// two loads, one multiply, one shift and one add.
			var acc uint64
			for i := range w {
				if w[i].f != f || a[i].f != f {
					panic("posit: quire format mismatch")
				}
				ew, ea := t[w[i].bits&m], t[a[i].bits&m]
				narAcc |= (ew | ea) & decNaREntry
				prod, shift, sm := macEntry(ew, ea, fb)
				v := prod << shift
				acc += (v ^ sm) - sm
			}
			if narAcc != 0 {
				return f.NaR()
			}
			q.acc.SetInt128(acc, 0) // the register keeps acc's low width bits
			return q.Result()
		}
		var a0, a1 uint64
		for i := range w {
			if w[i].f != f || a[i].f != f {
				panic("posit: quire format mismatch")
			}
			ew, ea := t[w[i].bits&m], t[a[i].bits&m]
			narAcc |= (ew | ea) & decNaREntry
			prod, shift, sm := macEntry(ew, ea, fb)
			a0, a1 = accSigned128(a0, a1, prod, shift, sm)
		}
		if narAcc != 0 {
			return f.NaR()
		}
		q.acc.SetInt128(a0, a1)
		return q.Result()
	}
	for i := range w {
		q.MulAdd(w[i], a[i])
	}
	return q.Result()
}

// accSigned128 adds (v << shift) with sign mask sm (0 to add, ^0 to
// subtract) into the 128-bit two's-complement register a1:a0; shift must
// be < 128. This is THE hot inner step of every small dot-product and
// dense-layer kernel — all tiers share it so the branchless shift-split
// and sign arithmetic cannot diverge between call sites. Wrap beyond bit
// 127 cannot occur for a correctly sized quire.
func accSigned128(a0, a1, v uint64, shift uint, sm uint64) (uint64, uint64) {
	var lo, hi uint64
	if shift < 64 {
		lo = v << shift
		if shift != 0 {
			hi = v >> (64 - shift)
		}
	} else {
		hi = v << (shift - 64)
	}
	var c uint64
	a0, c = bits.Add64(a0, lo^sm, sm&1)
	a1 += (hi ^ sm) + c
	return a0, a1
}

// acc128 is accSigned128 with a boolean sign (the per-row bias step).
func acc128(a0, a1, v uint64, shift uint, neg bool) (uint64, uint64) {
	var sm uint64
	if neg {
		sm = ^uint64(0)
	}
	return accSigned128(a0, a1, v, shift, sm)
}

// Sum computes the exactly-rounded sum of posits with one rounding.
func Sum(xs []Posit) Posit {
	if len(xs) == 0 {
		panic("posit: Sum of empty slice")
	}
	var q Quire
	q.init(xs[0].f, len(xs), 0)
	for _, x := range xs {
		q.AddPosit(x)
	}
	return q.Result()
}

// String renders the quire state for debugging.
func (q *Quire) String() string {
	return fmt.Sprintf("quire[%s,k=%d,w=%d] %s", q.f, q.capacity, q.Width(), q.acc.HexString())
}
