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

// regWords is the word count of the inline register fast path: registers
// up to regWords×64 bits live directly inside the Quire struct (no heap
// words, no per-word loop bounds from a slice). Every format the paper
// evaluates fits — posit(8,2) with k = 2^30 needs 128 bits, posit(16,2)
// needs 226+clog2(k) — so the generic wide.Int register is only reached
// by 32-bit formats and enormous capacities.
const regWords = 4

// Quire is the posit Kulisch accumulator: a wide two's-complement
// fixed-point register into which exact products of posits are added, with
// a single round-to-nearest-even when the final value is read out. It
// implements the accumulation loop of the paper's Algorithm 2
// (lines 11-19) in software, bit-for-bit.
//
// Registers of at most 64·regWords bits are stored inline in the struct
// (the common case: every small-format quire), so a Quire value on the
// stack accumulates without touching the heap; wider registers fall back
// to a heap-backed wide.Int. Both paths wrap modulo 2^width, exactly like
// the synthesized register.
type Quire struct {
	f        Format
	capacity int
	fracBits uint // position of the binary point: 2^(es+1)(n-2)
	width    uint // register width in bits (eq. (4), minus dropped)
	words    int  // inline words in use (0 selects the wide fallback)
	sw       [regWords]uint64
	acc      *wide.Int // wide fallback register (nil on the inline path)
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
	width := QuireSize(f, k) - drop
	*q = Quire{
		f:        f,
		capacity: k,
		fracBits: (uint(1)<<(f.es+1))*(f.n-2) - drop,
		width:    width,
		dropped:  drop,
	}
	if width <= regWords*64 {
		q.words = int((width + 63) / 64)
	} else {
		q.acc = wide.New(width)
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
func (q *Quire) Width() uint { return q.width }

// Adds returns how many accumulation operations have been performed since
// the last Reset.
func (q *Quire) Adds() int { return q.adds }

// IsNaR reports whether a NaR has been absorbed.
func (q *Quire) IsNaR() bool { return q.nar }

// Reset clears the accumulator to zero.
func (q *Quire) Reset() {
	if q.words > 0 {
		q.sw = [regWords]uint64{}
	} else {
		q.acc.SetZero()
	}
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

// --- inline register primitives ---

// snorm masks the top inline word so the register stays canonical
// (wrapping modulo 2^width, like the hardware register and wide.Int).
func (q *Quire) snorm() {
	if r := q.width % 64; r != 0 {
		q.sw[q.words-1] &= bitutil.Mask(r)
	}
}

// saddShifted adds v << shift into the inline register (mod 2^width).
func (q *Quire) saddShifted(v uint64, shift uint) {
	word := int(shift / 64)
	if word >= q.words {
		return // entirely above the register: hardware would drop it
	}
	off := shift % 64
	lo := v << off
	var hi uint64
	if off != 0 {
		hi = v >> (64 - off)
	}
	var carry uint64
	q.sw[word], carry = bits.Add64(q.sw[word], lo, 0)
	for i := word + 1; i < q.words; i++ {
		add := carry
		if i == word+1 {
			q.sw[i], carry = bits.Add64(q.sw[i], hi, add)
		} else {
			if add == 0 {
				break
			}
			q.sw[i], carry = bits.Add64(q.sw[i], 0, add)
		}
	}
	q.snorm()
}

// ssubShifted subtracts v << shift from the inline register (mod 2^width).
func (q *Quire) ssubShifted(v uint64, shift uint) {
	word := int(shift / 64)
	if word >= q.words {
		return
	}
	off := shift % 64
	lo := v << off
	var hi uint64
	if off != 0 {
		hi = v >> (64 - off)
	}
	var borrow uint64
	q.sw[word], borrow = bits.Sub64(q.sw[word], lo, 0)
	for i := word + 1; i < q.words; i++ {
		sub := borrow
		if i == word+1 {
			q.sw[i], borrow = bits.Sub64(q.sw[i], hi, sub)
		} else {
			if sub == 0 {
				break
			}
			q.sw[i], borrow = bits.Sub64(q.sw[i], 0, sub)
		}
	}
	q.snorm()
}

// smallWords returns the inline word count when the register qualifies
// for the local-accumulator fast tiers (1 or 2 words), and 0 otherwise —
// including the wide heap fallback (words == 0), which the tiers must
// never touch. Every fast-tier guard goes through this one predicate so
// the call sites cannot diverge.
func (q *Quire) smallWords() int {
	if q.words >= 1 && q.words <= 2 {
		return q.words
	}
	return 0
}

// addShifted dispatches v << shift to the active register.
func (q *Quire) addShifted(v uint64, shift uint) {
	if q.words > 0 {
		q.saddShifted(v, shift)
	} else {
		q.acc.AddUint64Shifted(v, shift)
	}
}

// subShifted dispatches -(v << shift) to the active register.
func (q *Quire) subShifted(v uint64, shift uint) {
	if q.words > 0 {
		q.ssubShifted(v, shift)
	} else {
		q.acc.SubUint64Shifted(v, shift)
	}
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
		q.subShifted(sig, shift)
	} else {
		q.addShifted(sig, shift)
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
		q.subShifted(sig, shift)
	} else {
		q.addShifted(sig, shift)
	}
}

// mulAddPre is MulAdd on pre-decoded operands: the batched-kernel hot
// path, with no format checks and no decode (both were hoisted to
// predecodeInto). Bit-identical to MulAdd on the same operands.
func (q *Quire) mulAddPre(w, a *pdec) {
	if w.cls != pdReal || a.cls != pdReal {
		if w.cls == pdNaR || a.cls == pdNaR {
			q.nar = true
			return
		}
		q.adds++ // one of them is zero
		return
	}
	q.adds++
	sig, shift, ok := q.place(w.sig*a.sig, int(w.adj)+int(a.adj))
	if !ok {
		return
	}
	if w.sgn != a.sgn {
		q.subShifted(sig, shift)
	} else {
		q.addShifted(sig, shift)
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
	if q.words > 0 {
		return q.resultInline()
	}
	if q.acc.IsZero() {
		return q.f.Zero()
	}
	mag := q.acc.Clone()
	sign := mag.Sign()
	if sign {
		mag.Neg()
	}
	l := mag.Len() // MSB position + 1 (Alg. 2 line 17: LZD)
	var count uint = 64
	if l < count {
		count = l
	}
	sig := mag.Extract(l-count, count)
	sticky := mag.AnyBelow(l - count)
	sf := int(l) - 1 - int(q.fracBits)
	return q.f.encode(sign, sf, sig, count, sticky)
}

// magnitude returns a copy of the inline register as (magnitude, sign):
// the two's-complement negation applied when the sign bit is set. Shared
// by the rounding path and the big.Int oracle view so the two can never
// disagree on the negation.
func (q *Quire) magnitude() ([regWords]uint64, bool) {
	mag := q.sw
	neg := false
	if r := (q.width - 1) % 64; mag[q.words-1]>>r&1 == 1 {
		neg = true
		var carry uint64 = 1
		for i := 0; i < q.words; i++ {
			mag[i], carry = bits.Add64(^mag[i], 0, carry)
		}
		if r := q.width % 64; r != 0 {
			mag[q.words-1] &= bitutil.Mask(r)
		}
	}
	return mag, neg
}

// resultInline is Result for the inline register: the same LZD, extract
// and sticky steps on the [regWords]uint64 copy, with no heap traffic.
func (q *Quire) resultInline() Posit {
	if q.words == 1 {
		// Single-word register: the magnitude fits a uint64 outright,
		// so the significand needs no extraction and sticky is empty.
		v := q.sw[0]
		sign := v>>(q.width-1)&1 == 1
		if sign {
			v = -v & bitutil.Mask(q.width)
		}
		if v == 0 {
			return q.f.Zero()
		}
		l := uint(bits.Len64(v))
		return q.f.encode(sign, int(l)-1-int(q.fracBits), v, l, false)
	}
	mag, sign := q.magnitude()
	// LZD: highest set word
	l := uint(0)
	for i := q.words - 1; i >= 0; i-- {
		if mag[i] != 0 {
			l = uint(i*64 + bits.Len64(mag[i]))
			break
		}
	}
	if l == 0 {
		return q.f.Zero()
	}
	var count uint = 64
	if l < count {
		count = l
	}
	lo := l - count
	// extract count bits starting at lo (spans at most two words)
	word, off := lo/64, lo%64
	sig := mag[word] >> off
	if off != 0 && int(word+1) < q.words {
		sig |= mag[word+1] << (64 - off)
	}
	if count < 64 {
		sig &= bitutil.Mask(count)
	}
	// sticky: any bit strictly below lo
	sticky := false
	for i := uint(0); i < word; i++ {
		if mag[i] != 0 {
			sticky = true
			break
		}
	}
	if !sticky && off != 0 && mag[word]&bitutil.Mask(off) != 0 {
		sticky = true
	}
	sf := int(l) - 1 - int(q.fracBits)
	return q.f.encode(sign, sf, sig, count, sticky)
}

// bigValue returns the signed register contents as a big.Int.
func (q *Quire) bigValue() *big.Int {
	if q.words == 0 {
		return q.acc.Big()
	}
	mag, neg := q.magnitude()
	out := new(big.Int)
	for i := q.words - 1; i >= 0; i-- {
		out.Lsh(out, 64)
		out.Or(out, new(big.Int).SetUint64(mag[i]))
	}
	if neg {
		out.Neg(out)
	}
	return out
}

// Float64 returns the current exact register value as a float64 (rounded
// to double, for diagnostics).
func (q *Quire) Float64() float64 {
	f := new(big.Float).SetPrec(256).SetInt(q.bigValue())
	f.SetMantExp(f, -int(q.fracBits)) // value = acc × 2^-fracBits
	out, _ := f.Float64()
	return out
}

// Dyadic returns the current exact register value as a dyadic rational,
// used by the oracle tests to check that the quire really is exact.
func (q *Quire) Dyadic() dyadic.D {
	return dyadic.FromBig(q.bigValue(), -int(q.fracBits))
}

// DotProduct computes the exactly-rounded dot product of two posit
// vectors: Σ w[i]·a[i] with one rounding at the end. For every small
// format the accumulator is an inline register on the stack and each
// operand decodes through the format table, so the loop performs no heap
// allocation at all.
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
	if t := f.decTab(); t != nil && q.smallWords() > 0 {
		// Table fast path: fetch the decode table once for the whole
		// kernel and run the MAC loop directly on packed entries into a
		// local register — no per-MAC decode call, no function calls, no
		// allocation. Every standard small format lands here (es <= 2
		// registers fit 128 bits at any realistic k). The bits&m mask
		// proves the table index in range, eliding the bounds check.
		// The loops are branchless: zero and NaR entries carry sig = 0,
		// so they accumulate nothing; NaR markers are OR-collected and
		// checked once at the end, and the sign applies as a XOR mask.
		fb := int(q.fracBits)
		m := uint64(len(t) - 1)
		var narAcc uint32
		if q.words == 1 {
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
			q.adds = len(w)
			q.sw[0] = acc
			q.snorm()
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
		q.adds = len(w)
		q.sw[0], q.sw[1] = a0, a1
		q.snorm()
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
	hex := ""
	if q.words > 0 {
		for i := q.words - 1; i >= 0; i-- {
			hex += fmt.Sprintf("%016x", q.sw[i])
		}
	} else {
		hex = q.acc.HexString()[2:]
	}
	return fmt.Sprintf("quire[%s,k=%d,w=%d] 0x%s", q.f, q.capacity, q.width, hex)
}
