package emac

import (
	"math"
	"testing"

	"repro/internal/dyadic"
	"repro/internal/rng"
)

func allAriths() []Arithmetic {
	return []Arithmetic{
		NewPosit(8, 0), NewPosit(8, 1), NewPosit(8, 2),
		NewPosit(7, 0), NewPosit(6, 1), NewPosit(5, 0),
		NewFloat(4, 3), NewFloat(3, 4), NewFloat(3, 2),
		NewFixed(8, 4), NewFixed(8, 6), NewFixed(6, 3),
		Float32Arith{},
	}
}

func TestQuantizeDecodeRoundTrip(t *testing.T) {
	for _, a := range allAriths() {
		for _, x := range []float64{0, 1, -1, 0.5, -0.75, 3.25, -2.125} {
			c := a.Quantize(x)
			got := a.Decode(c)
			// re-quantising the decoded value must be a fixed point
			if a.Quantize(got) != c {
				t.Errorf("%s: quantize not idempotent at %g (code %#x -> %g)", a.Name(), x, c, got)
			}
		}
	}
}

// TestQuantizeErrorBounded checks each arm's *provable* error envelope:
// fixed is within half a ULP (absolute), float within half a mantissa ULP
// (relative, in its normal range), posit within half a fraction ULP for
// values in the central regimes.
func TestQuantizeErrorBounded(t *testing.T) {
	r := rng.New(77)
	for _, a := range allAriths() {
		for i := 0; i < 500; i++ {
			x := r.NormMS(0, 1)
			got := a.Decode(a.Quantize(x))
			err := math.Abs(got - x)
			switch arm := a.(type) {
			case FixedArith:
				if math.Abs(x) >= arm.F.MaxValue() {
					continue // saturation territory
				}
				if err > arm.F.ULP()/2+1e-15 {
					t.Errorf("%s: |quantize(%g)-x| = %g > ulp/2", a.Name(), x, err)
				}
			case FloatArith:
				ax := math.Abs(x)
				if ax < arm.F.MinNormal() || ax > arm.F.MaxValue() {
					continue
				}
				bound := math.Ldexp(1, -int(arm.F.WF())-1) // half mantissa ULP, relative
				if err/ax > bound+1e-15 {
					t.Errorf("%s: rel err %g > %g at %g", a.Name(), err/ax, bound, x)
				}
			case PositArith:
				ax := math.Abs(x)
				if ax < 0.5 || ax > 2 { // central regimes k in {-1,0}
					continue
				}
				fw := int(arm.F.N()) - 3 - int(arm.F.ES())
				if fw < 0 {
					fw = 0
				}
				bound := math.Ldexp(1, -fw-1) // half fraction ULP, relative (x2 margin at binade edge)
				if err/ax > 2*bound+1e-15 {
					t.Errorf("%s: rel err %g > %g at %g", a.Name(), err/ax, 2*bound, x)
				}
			case Float32Arith:
				if x != 0 && err/math.Abs(x) > math.Ldexp(1, -24) {
					t.Errorf("float32 rel err %g at %g", err/math.Abs(x), x)
				}
			}
		}
	}
}

func TestReLU(t *testing.T) {
	for _, a := range allAriths() {
		if got := a.Decode(a.ReLU(a.Quantize(-2.5))); got != 0 {
			t.Errorf("%s: ReLU(-2.5) = %g", a.Name(), got)
		}
		pos := a.Quantize(1.5)
		if got := a.ReLU(pos); got != pos {
			t.Errorf("%s: ReLU(+) must be identity", a.Name())
		}
		if got := a.Decode(a.ReLU(a.Quantize(0))); got != 0 {
			t.Errorf("%s: ReLU(0) = %g", a.Name(), got)
		}
	}
}

// TestMACMatchesExactDot: for the three exact arms, the MAC result equals
// the dyadic dot product rounded once through the arm's own quantizer.
func TestMACMatchesExactDot(t *testing.T) {
	r := rng.New(123)
	for _, a := range allAriths() {
		if _, ok := a.(Float32Arith); ok {
			continue // deliberately inexact
		}
		for trial := 0; trial < 50; trial++ {
			k := 1 + r.Intn(24)
			mac := a.NewMAC(k)
			bias := a.Quantize(r.NormMS(0, 0.5))
			mac.Reset(bias)
			exact := dyadic.FromFloat64(a.Decode(bias))
			for i := 0; i < k; i++ {
				w := a.Quantize(r.NormMS(0, 1))
				x := a.Quantize(math.Abs(r.NormMS(0, 1)))
				mac.Step(w, x)
				exact = exact.Add(dyadic.FromFloat64(a.Decode(w)).Mul(dyadic.FromFloat64(a.Decode(x))))
			}
			got := a.Decode(mac.Result())
			// Reference: quantise the exact sum. For fixed the EMAC
			// truncates, so allow one ULP below; for float/posit it must
			// match the RNE quantisation exactly.
			want := a.Decode(a.Quantize(exact.Float64()))
			switch a.(type) {
			case FixedArith:
				ulp := a.Decode(a.Quantize(want)) // want itself on grid
				_ = ulp
				diff := want - got
				step := fixedStep(a)
				if diff < 0 || diff > step+1e-12 {
					t.Fatalf("%s: MAC=%g exact-rounded=%g (trunc window %g)", a.Name(), got, want, step)
				}
			default:
				if got != want && !(math.Abs(got-want) <= macGridSlack(a, want)) {
					t.Fatalf("%s: MAC=%g want %g (exact %g)", a.Name(), got, want, exact.Float64())
				}
			}
		}
	}
}

// fixedStep returns the ULP of a fixed arithmetic.
func fixedStep(a Arithmetic) float64 {
	fa := a.(FixedArith)
	return fa.F.ULP()
}

// macGridSlack: posit/float MACs round the exact register value directly;
// Quantize(exact.Float64()) can differ by one grid step only when the
// float64 intermediate itself rounded (impossible here: sums of
// low-precision products are exact in float64 for k <= 24... keep 0).
func macGridSlack(Arithmetic, float64) float64 { return 0 }

func TestMACBiasOnly(t *testing.T) {
	for _, a := range allAriths() {
		mac := a.NewMAC(4)
		bias := a.Quantize(0.75)
		mac.Reset(bias)
		if got := a.Decode(mac.Result()); got != a.Decode(bias) {
			t.Errorf("%s: bias-only MAC = %g want %g", a.Name(), got, a.Decode(bias))
		}
	}
}

func TestMACZeroSteps(t *testing.T) {
	for _, a := range allAriths() {
		mac := a.NewMAC(8)
		mac.Reset(a.Quantize(0))
		for i := 0; i < 8; i++ {
			mac.Step(a.Quantize(0), a.Quantize(5))
		}
		if got := a.Decode(mac.Result()); got != 0 {
			t.Errorf("%s: all-zero weights give %g", a.Name(), got)
		}
	}
}

func TestFloat32MACIsSequential(t *testing.T) {
	a := Float32Arith{}
	mac := a.NewMAC(3)
	mac.Reset(a.Quantize(0))
	// A classic cancellation float32 cannot survive: 1e8 + 1 - 1e8
	mac.Step(a.Quantize(1e8), a.Quantize(1))
	mac.Step(a.Quantize(1), a.Quantize(1))
	mac.Step(a.Quantize(-1e8), a.Quantize(1))
	if got := a.Decode(mac.Result()); got == 1 {
		t.Error("float32 MAC unexpectedly exact (should lose the +1)")
	}
	// while every exact arm with enough dynamic range... (posit8 can't
	// represent 1e8; use fixed with wide accumulator at small scale)
}

func TestNames(t *testing.T) {
	if NewPosit(8, 0).Name() != "posit(8,0)" {
		t.Error(NewPosit(8, 0).Name())
	}
	if NewFixed(8, 4).Name() != "fixed(8,q=4)" {
		t.Error(NewFixed(8, 4).Name())
	}
	if (Float32Arith{}).Name() != "float32" {
		t.Error("float32 name")
	}
}

func TestNewFloatN(t *testing.T) {
	a := NewFloatN(8, 4)
	if a.F.WE() != 4 || a.F.WF() != 3 || a.BitWidth() != 8 {
		t.Errorf("NewFloatN(8,4) = %s", a.Name())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewFloatN(4,4) must panic")
		}
	}()
	NewFloatN(4, 4)
}

func TestDynamicRangeOrdering(t *testing.T) {
	// The paper's Fig. 6 premise: at 8 bits, posit es>=1 offers more
	// dynamic range than float we=4, which beats fixed.
	p := NewPosit(8, 1).DynamicRangeLog10()
	f := NewFloatN(8, 4).DynamicRangeLog10()
	x := NewFixed(8, 4).DynamicRangeLog10()
	if !(p > f && f > x) {
		t.Errorf("dynamic range ordering: posit=%.2f float=%.2f fixed=%.2f", p, f, x)
	}
}

func TestFixedRNEAblationArm(t *testing.T) {
	trunc := NewFixed(8, 4)
	rne := NewFixed(8, 4)
	rne.RoundNearest = true
	// 9·ulp²: truncation loses it, RNE keeps one ulp
	mt := trunc.NewMAC(16)
	mr := rne.NewMAC(16)
	mt.Reset(trunc.Quantize(0))
	mr.Reset(rne.Quantize(0))
	u := Code(1) // raw ulp pattern
	for i := 0; i < 9; i++ {
		mt.Step(u, u)
		mr.Step(u, u)
	}
	if trunc.Decode(mt.Result()) != 0 {
		t.Error("truncating EMAC should lose 9·ulp²")
	}
	if rne.Decode(mr.Result()) == 0 {
		t.Error("RNE EMAC should keep 9·ulp²")
	}
}

// TestMACBankAllocFree: a warm MAC resets, steps and rounds without
// allocating, in every arm, for every register up to 256 bits
// (posit(16,2) at fan-in 30 is 233 bits), as the MAC bank runs it.
func TestMACBankAllocFree(t *testing.T) {
	r := rng.New(6)
	for _, a := range []Arithmetic{NewPosit(8, 0), NewFloatN(8, 4), NewFixed(8, 4), NewPosit(16, 1), NewPosit(16, 2), NewFloatN(16, 5), NewFixed(16, 8)} {
		const in = 30
		w, x := make([]Code, in), make([]Code, in)
		for i := range w {
			w[i], x[i] = a.Quantize(r.NormMS(0, 1)), a.Quantize(r.NormMS(0, 1))
		}
		bias := a.Quantize(-0.25)
		mac := a.NewMAC(in)
		if allocs := testing.AllocsPerRun(10, func() {
			mac.Reset(bias)
			for i := range w {
				mac.Step(w[i], x[i])
			}
			mac.Result()
		}); allocs != 0 {
			t.Errorf("%s: a warm MAC allocates %v objects per neuron; want 0", a.Name(), allocs)
		}
	}
}
