// Package emac defines the exact multiply-and-accumulate abstraction the
// Deep Positron architecture is built from (paper §III). An Arithmetic
// bundles a low-precision number format with its codec and EMAC factory;
// the three implementations mirror the paper's Figs. 3-5 (fixed, float,
// posit) and share the same structure: quantised inputs, an exact wide
// accumulator, and a single rounding at readout. The accumulator is the
// same register in all three, a wide.Int sized by eq. (3) or eq. (4),
// and the posit and float MACs round it through its one Readout. A
// fourth, deliberately *inexact* float32 arithmetic provides the paper's
// 32-bit baseline and the "naive MAC" ablation arm.
package emac

import (
	"fmt"
	"math"

	"repro/internal/fixedpoint"
	"repro/internal/minifloat"
	"repro/internal/posit"
)

func float32bits(x float32) uint32     { return math.Float32bits(x) }
func float32frombits(b uint32) float32 { return math.Float32frombits(b) }

// Code is a quantised scalar in some Arithmetic's wire format: the raw
// bit pattern for the hardware formats, or a float32's bits for the
// baseline. Codes are only meaningful together with the Arithmetic that
// produced them.
type Code uint64

// MAC is one exact multiply-and-accumulate unit: the neuron datapath.
// Reset preloads the bias (the paper resets the accumulation flip-flop to
// the bias), Step feeds one weight/activation pair per cycle, Result
// rounds the accumulated value once.
type MAC interface {
	Reset(bias Code)
	Step(weight, activation Code)
	Result() Code
}

// Arithmetic abstracts one number system at one parameterisation.
type Arithmetic interface {
	// Name identifies the arm, e.g. "posit(8,0)".
	Name() string
	// BitWidth is the storage width n of weights and activations.
	BitWidth() uint
	// Quantize rounds a real value into the format.
	Quantize(x float64) Code
	// Decode returns the exact real value of a code.
	Decode(c Code) float64
	// NewMAC builds an EMAC sized for k accumulations.
	NewMAC(k int) MAC
	// ReLU applies max(0, x) directly on a code.
	ReLU(c Code) Code
	// DynamicRangeLog10 is log10(max/min) (Fig. 6 x-axis).
	DynamicRangeLog10() float64
}

// --- posit ---

// PositArith is the posit arm (Fig. 5, Algorithms 1-2).
type PositArith struct {
	F posit.Format
	// QuireDrop shortens the quire by this many low fraction bits — the
	// truncated-quire ablation (0 = the paper's exact eq.-(4) register).
	QuireDrop uint
}

// NewPosit builds a posit Arithmetic.
func NewPosit(n, es uint) PositArith {
	return PositArith{F: posit.MustFormat(n, es)}
}

// Name implements Arithmetic.
func (p PositArith) Name() string { return p.F.String() }

// BitWidth implements Arithmetic.
func (p PositArith) BitWidth() uint { return p.F.N() }

// Quantize implements Arithmetic.
func (p PositArith) Quantize(x float64) Code { return Code(p.F.FromFloat64(x).Bits()) }

// Decode implements Arithmetic.
func (p PositArith) Decode(c Code) float64 { return p.F.FromBits(uint64(c)).Float64() }

// ReLU implements Arithmetic: negative posits (sign bit set, not NaR)
// clamp to zero. NaR also maps to zero so a poisoned activation cannot
// propagate through an entire network silently.
func (p PositArith) ReLU(c Code) Code {
	v := p.F.FromBits(uint64(c))
	if v.Negative() || v.IsNaR() {
		return 0
	}
	return c
}

// DynamicRangeLog10 implements Arithmetic.
func (p PositArith) DynamicRangeLog10() float64 { return p.F.DynamicRangeLog10() }

// NewMAC implements Arithmetic.
func (p PositArith) NewMAC(k int) MAC {
	if p.QuireDrop > 0 {
		return &positMAC{f: p.F, q: posit.NewTruncatedQuire(p.F, k, p.QuireDrop)}
	}
	return &positMAC{f: p.F, q: posit.NewQuire(p.F, k)}
}

type positMAC struct {
	f posit.Format
	q *posit.Quire
}

func (m *positMAC) Reset(bias Code) { m.q.ResetToBias(m.f.FromBits(uint64(bias))) }

func (m *positMAC) Step(w, a Code) {
	m.q.MulAdd(m.f.FromBits(uint64(w)), m.f.FromBits(uint64(a)))
}

func (m *positMAC) Result() Code { return Code(m.q.Result().Bits()) }

// --- minifloat ---

// FloatArith is the parameterised floating-point arm (Fig. 4).
type FloatArith struct {
	F minifloat.Format
}

// NewFloat builds a float Arithmetic from exponent and fraction widths.
func NewFloat(we, wf uint) FloatArith {
	return FloatArith{F: minifloat.MustFormat(we, wf)}
}

// NewFloatN builds an n-bit float Arithmetic with the given we
// (wf = n-1-we).
func NewFloatN(n, we uint) FloatArith {
	if we+1 >= n {
		panic(fmt.Sprintf("emac: float width %d cannot fit we=%d", n, we))
	}
	return FloatArith{F: minifloat.MustFormat(we, n-1-we)}
}

// Name implements Arithmetic.
func (p FloatArith) Name() string { return p.F.String() }

// BitWidth implements Arithmetic.
func (p FloatArith) BitWidth() uint { return p.F.N() }

// Quantize implements Arithmetic.
func (p FloatArith) Quantize(x float64) Code { return Code(p.F.FromFloat64(x).Bits()) }

// Decode implements Arithmetic.
func (p FloatArith) Decode(c Code) float64 { return p.F.FromBits(uint64(c)).Float64() }

// ReLU implements Arithmetic. Negative values (including -0) map to +0;
// NaN maps to zero as a safety net (the paper's nets never produce NaN).
func (p FloatArith) ReLU(c Code) Code {
	v := p.F.FromBits(uint64(c))
	if v.SignBit() || v.IsNaN() {
		return 0
	}
	return c
}

// DynamicRangeLog10 implements Arithmetic.
func (p FloatArith) DynamicRangeLog10() float64 { return p.F.DynamicRangeLog10() }

// NewMAC implements Arithmetic.
func (p FloatArith) NewMAC(k int) MAC {
	return &floatMAC{f: p.F, a: minifloat.NewAccumulator(p.F, k)}
}

type floatMAC struct {
	f minifloat.Format
	a *minifloat.Accumulator
}

func (m *floatMAC) Reset(bias Code) { m.a.ResetToBias(m.f.FromBits(uint64(bias))) }

func (m *floatMAC) Step(w, a Code) {
	m.a.MulAdd(m.f.FromBits(uint64(w)), m.f.FromBits(uint64(a)))
}

func (m *floatMAC) Result() Code { return Code(m.a.Result().Bits()) }

// --- fixed point ---

// FixedArith is the Q-format arm (Fig. 3).
type FixedArith struct {
	F fixedpoint.Format
	// RoundNearest selects the RNE post-shift ablation instead of the
	// paper's truncation.
	RoundNearest bool
}

// NewFixed builds a fixed-point Arithmetic.
func NewFixed(n, q uint) FixedArith {
	return FixedArith{F: fixedpoint.MustFormat(n, q)}
}

// Name implements Arithmetic.
func (p FixedArith) Name() string { return p.F.String() }

// BitWidth implements Arithmetic.
func (p FixedArith) BitWidth() uint { return p.F.N() }

// Quantize implements Arithmetic.
func (p FixedArith) Quantize(x float64) Code { return Code(p.F.FromFloat64(x).Bits()) }

// Decode implements Arithmetic.
func (p FixedArith) Decode(c Code) float64 { return p.F.FromBits(uint64(c)).Float64() }

// ReLU implements Arithmetic.
func (p FixedArith) ReLU(c Code) Code {
	if p.F.FromBits(uint64(c)).Negative() {
		return 0
	}
	return c
}

// DynamicRangeLog10 implements Arithmetic.
func (p FixedArith) DynamicRangeLog10() float64 { return p.F.DynamicRangeLog10() }

// NewMAC implements Arithmetic.
func (p FixedArith) NewMAC(k int) MAC {
	a := fixedpoint.NewAccumulator(p.F, k)
	a.RoundNearest = p.RoundNearest
	return &fixedMAC{f: p.F, a: a}
}

type fixedMAC struct {
	f fixedpoint.Format
	a *fixedpoint.Accumulator
}

func (m *fixedMAC) Reset(bias Code) { m.a.ResetToBias(m.f.FromBits(uint64(bias))) }

func (m *fixedMAC) Step(w, a Code) {
	m.a.MulAdd(m.f.FromBits(uint64(w)), m.f.FromBits(uint64(a)))
}

func (m *fixedMAC) Result() Code { return Code(m.a.Result().Bits()) }

// --- float32 baseline ---

// Float32Arith is the paper's 32-bit floating point baseline. Its MAC is
// deliberately a plain sequential float32 multiply-add (rounding after
// every step), exactly what commodity hardware does — this is the
// reference Deep Positron is compared against, not an EMAC.
type Float32Arith struct{}

// Name implements Arithmetic.
func (Float32Arith) Name() string { return "float32" }

// BitWidth implements Arithmetic.
func (Float32Arith) BitWidth() uint { return 32 }

// Quantize implements Arithmetic.
func (Float32Arith) Quantize(x float64) Code {
	return Code(float32bits(float32(x)))
}

// Decode implements Arithmetic.
func (Float32Arith) Decode(c Code) float64 {
	return float64(float32frombits(uint32(c)))
}

// ReLU implements Arithmetic.
func (a Float32Arith) ReLU(c Code) Code {
	if float32frombits(uint32(c)) <= 0 {
		return a.Quantize(0)
	}
	return c
}

// DynamicRangeLog10 implements Arithmetic: binary32 spans ~83 decades
// (subnormal min to max).
func (Float32Arith) DynamicRangeLog10() float64 { return 83.38 }

// NewMAC implements Arithmetic.
func (Float32Arith) NewMAC(int) MAC { return &float32MAC{} }

type float32MAC struct{ sum float32 }

func (m *float32MAC) Reset(bias Code) { m.sum = float32frombits(uint32(bias)) }

func (m *float32MAC) Step(w, a Code) {
	m.sum += float32frombits(uint32(w)) * float32frombits(uint32(a))
}

func (m *float32MAC) Result() Code { return Code(float32bits(m.sum)) }
