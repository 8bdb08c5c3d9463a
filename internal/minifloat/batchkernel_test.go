package minifloat

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/rng"
	"repro/internal/termtile"
)

// Equivalence tests for the term-table batch kernel: it must be
// bit-identical to the per-neuron Accumulator reference over the entire
// operand space (NaN/Inf/subnormal patterns included) of the 8-bit
// formats it accepts, and on random multi-term layers.

func randFloats(f Format, n int, r *rng.Source) []Float {
	out := make([]Float, n)
	for i := range out {
		out[i] = f.FromBits(r.Uint64() & f.Mask())
	}
	return out
}

// patterns returns a layer's weights and biases as the n-bit patterns
// the kernel constructor takes.
func patterns(w [][]Float, b []Float) ([][]uint64, []uint64) {
	pw := make([][]uint64, len(w))
	for j, row := range w {
		pw[j] = make([]uint64, len(row))
		for i, x := range row {
			pw[j][i] = x.Bits()
		}
	}
	pb := make([]uint64, len(b))
	for j, x := range b {
		pb[j] = x.Bits()
	}
	return pw, pb
}

// macForward is the reference the kernel is held to: one Accumulator per
// row, driven through ResetToBias/MulAdd/Result for every sample of a flat
// sample-major flush.
func macForward(f Format, w [][]Float, b []Float, act []uint64) []uint64 {
	in, out := len(w[0]), len(w)
	batch := len(act) / in
	dst := make([]uint64, batch*out)
	a := NewAccumulator(f, in)
	for s := 0; s < batch; s++ {
		for j := range w {
			a.ResetToBias(b[j])
			for i, x := range act[s*in : (s+1)*in] {
				a.MulAdd(w[j][i], f.FromBits(x))
			}
			dst[s*out+j] = a.Result().Bits()
		}
	}
	return dst
}

// checkBatchFlush runs one flush through the batch kernel and each sample
// through per-row accumulators, requiring identical outputs.
func checkBatchFlush(t *testing.T, f Format, w [][]Float, b []Float, act []uint64) {
	t.Helper()
	in, out := len(w[0]), len(w)
	pw, pb := patterns(w, b)
	bk, ok := NewBatchDenseKernel(f, pw, pb)
	if !ok {
		t.Fatalf("%v: no batch kernel for %dx%d", f, out, in)
	}
	batch := len(act) / in
	got := make([]uint64, batch*out)
	termtile.Forward(bk, act, got, batch)
	for i, wb := range macForward(f, w, b, act) {
		if s, j := i/out, i%out; got[i] != wb {
			t.Fatalf("%v %dx%d b=%d: sample %d row %d (bias %#x, act %#x): batch %#x, accumulator %#x",
				f, out, in, batch, s, j, b[j].Bits(), act[s*in:(s+1)*in], got[i], wb)
		}
	}
}

// TestBatchDenseKernelMatchesPerSample checks random layers (NaN/Inf
// patterns included) against per-sample accumulators for several paper
// formats.
func TestBatchDenseKernelMatchesPerSample(t *testing.T) {
	r := rng.New(13)
	for _, tc := range []struct{ we, wf uint }{{4, 3}, {3, 4}, {2, 5}, {3, 2}, {2, 2}} {
		f := MustFormat(tc.we, tc.wf)
		for trial := 0; trial < 4; trial++ {
			in, out := 1+r.Intn(30), 1+r.Intn(10)
			if AccumSize(f, in) > 64 {
				continue
			}
			w := make([][]Float, out)
			for j := range w {
				w[j] = randFloats(f, in, r)
			}
			b := randFloats(f, out, r)
			batch := 1 + r.Intn(9)
			act := make([]uint64, batch*in)
			for i := range act {
				act[i] = r.Uint64() & f.Mask()
			}
			checkBatchFlush(t, f, w, b, act)
		}
	}
}

// TestBatchDenseKernelExhaustive sweeps every (weight, activation) 8-bit
// pattern pair through a 1×1 float(4,3) layer for several bias classes
// (zero, subnormal, normal, NaN) against the accumulator.
func TestBatchDenseKernelExhaustive(t *testing.T) {
	f := MustFormat(4, 3)
	count := 1 << f.N()
	act := make([]uint64, count)
	for ab := range act {
		act[ab] = uint64(ab)
	}
	for _, bias := range []uint64{0, 0x01, 0x42, f.NaN().Bits()} {
		bv := []Float{f.FromBits(bias)}
		for wb := 0; wb < count; wb++ {
			checkBatchFlush(t, f, [][]Float{{f.FromBits(uint64(wb))}}, bv, act)
		}
	}
}

// TestBatchDenseKernelExhaustiveZeroHeavy is the zero-skipping
// counterpart of the sweep above: one layer carries every weight pattern
// as a row (NaN, ±Inf and -0 included) over two inputs, and the flush
// holds every activation pattern, alternating between the two columns,
// each followed by three all-zero samples. Four tiles of columns at
// least 7/8 zero take the compacted loop with every pattern, specials
// and -0 included, inside.
func TestBatchDenseKernelExhaustiveZeroHeavy(t *testing.T) {
	for _, f := range []Format{MustFormat(4, 3), MustFormat(2, 3)} {
		count := 1 << f.N()
		for _, bias := range []uint64{0, 0x01, f.signBit(), 0x22, f.NaN().Bits()} {
			w := make([][]Float, count)
			bv := make([]Float, count)
			for wb := range w {
				w[wb] = []Float{f.FromBits(uint64(wb)), f.FromBits(uint64(wb))}
				bv[wb] = f.FromBits(bias & f.Mask())
			}
			const in, gap = 2, 4
			act := make([]uint64, count*gap*in)
			for ab := 0; ab < count; ab++ {
				act[ab*gap*in+ab%in] = uint64(ab)
			}
			checkBatchFlush(t, f, w, bv, act)
		}
	}
}

// TestBatchDenseKernelGates checks the decline conditions.
func TestBatchDenseKernelGates(t *testing.T) {
	zw, zb := [][]uint64{{0}}, []uint64{0} // a 1x1 layer of zeros
	f := MustFormat(4, 3)
	bk, ok := NewBatchDenseKernel(f, zw, zb)
	if !ok {
		t.Fatal("float(4,3) 1x1 should qualify")
	}
	termtile.Forward[uint64](bk, nil, nil, 0) // empty flush must not panic
	wide := MustFormat(5, 10)                 // 16-bit: too wide to enumerate
	if _, ok := NewBatchDenseKernel(wide, zw, zb); ok {
		t.Fatal("16-bit float must have no term-table batch kernel")
	}
	// float(8) with we=5 spans 2^-16..2^16: its register is 66 bits even
	// at fan-in 1, so its layers run the MAC bank.
	f52 := MustFormat(5, 2)
	if _, ok := NewBatchDenseKernel(f52, zw, zb); ok {
		t.Fatalf("%v: register of %d bits must have no batch kernel", f52, AccumSize(f52, 1))
	}
}

// sweepPairs runs every (weight, activation) pattern pair of f through one
// flush: a fan-in-1 layer whose row j holds weight pattern j, over a flush
// holding every activation pattern, against the accumulator.
func sweepPairs(t *testing.T, f Format, bias Float) {
	t.Helper()
	count := int(f.Count())
	w := make([][]Float, count)
	b := make([]Float, count)
	act := make([]uint64, count)
	for j := range w {
		w[j] = []Float{f.FromBits(uint64(j))}
		b[j] = bias
		act[j] = uint64(j)
	}
	checkBatchFlush(t, f, w, b, act)
}

// TestKernelExhaustive8Bit: every (weight, activation) pair — NaN, Inf,
// subnormals and all — of the paper's float(8,4) format and the we=2
// split at n = 8, against the MAC reference, for zero, saturated,
// subnormal and special biases. (The we=5 split has no kernel; see
// TestBatchDenseKernelGates.)
func TestKernelExhaustive8Bit(t *testing.T) {
	f := MustFormat(4, 3) // float(8): we=4, wf=3 — the Table II arm
	biases := []Float{
		f.Zero(), f.Max(), f.Max().Neg(), f.One(),
		f.FromBits(1), // smallest subnormal
		f.NaN(), f.Inf(1),
	}
	for _, bias := range biases {
		sweepPairs(t, f, bias)
	}
	fe := MustFormat(2, 5)
	sweepPairs(t, fe, fe.FromFloat64(-0.375))
}

// TestKernelExhaustiveSmall: all pairs of every format with n <= 6 and a
// nonzero bias.
func TestKernelExhaustiveSmall(t *testing.T) {
	for we := uint(2); we <= 4; we++ {
		for wf := uint(1); 1+we+wf <= 6; wf++ {
			f := MustFormat(we, wf)
			sweepPairs(t, f, f.FromFloat64(0.75))
		}
	}
}

// TestKernelRandomLayers: multi-term rows against per-neuron
// accumulators, random patterns including specials, for the 8-bit splits
// the kernel accepts. 16-bit formats have no kernel
// (TestBatchDenseKernelGates) and run the MAC bank.
func TestKernelRandomLayers(t *testing.T) {
	r := rng.New(78)
	for _, cfg := range []struct{ we, wf uint }{{4, 3}, {2, 5}} {
		f := MustFormat(cfg.we, cfg.wf)
		const in, out, batch = 30, 16, 50
		w := make([][]Float, out)
		for j := range w {
			w[j] = randFloats(f, in, r)
		}
		b := randFloats(f, out, r)
		act := make([]uint64, batch*in)
		for i := range act {
			act[i] = r.Uint64() & f.Mask()
		}
		checkBatchFlush(t, f, w, b, act)
	}
}

// TestTermTablesMatchFormat checks the tables of every float(n <= 8)
// format with a term-table kernel exhaustively: each activation byte's
// classification, each pattern's negation and bias term, and the
// rounding of register magnitudes of every bit length, ties and sticky
// tails included, through Round and Neg against the encoder.
func TestTermTablesMatchFormat(t *testing.T) {
	r := rng.New(23)
	for we := uint(2); we <= 7; we++ {
		for wf := uint(0); 1+we+wf <= 8; wf++ {
			f := MustFormat(we, wf)
			if _, ok := NewBatchDenseKernel(f, [][]uint64{{0}}, []uint64{0}); !ok {
				continue // register wider than a word: no kernel
			}
			tab := termtile.TablesOf(termFormat(f))
			if tab.Special != f.NaN().Bits() {
				t.Fatalf("%v: special %#x", f, tab.Special)
			}
			fb := 2 * (f.Bias() - 1 + int(f.wf))
			for p := range 256 {
				x := f.FromBits(uint64(p) & f.Mask())
				want := uint16(x.Bits())
				switch {
				case x.IsZero():
					want = 0
				case x.IsNaN() || x.IsInf():
					want = 1 << 8
				}
				if tab.Act[p] != want {
					t.Fatalf("%v: Act[%#x] = %#x, want %#x", f, p, tab.Act[p], want)
				}
				neg := f.FromBits(uint64(tab.Neg[p]))
				if x.IsNaN() != neg.IsNaN() || !x.IsNaN() && math.Float64bits(neg.Float64()) != math.Float64bits(-x.Float64()) {
					t.Fatalf("%v: Neg[%#x] = %v, want -%v", f, p, neg, x)
				}
				var bias float64 // a special's term is 0: Act flags it
				if want < 1<<8 {
					bias = math.Ldexp(x.Float64(), fb)
				}
				if float64(tab.Bias[p]) != bias {
					t.Fatalf("%v: Bias[%#x] = %d, want %v", f, p, tab.Bias[p], bias)
				}
			}
			check := func(m uint64, sign bool) {
				var got, want uint64
				if m != 0 {
					got = uint64(tab.Round[bitutil.RoundKey(m)])
					if sign {
						got = uint64(tab.Neg[got])
					}
					l := uint(bits.Len64(m))
					want = f.encode(sign, int(l)-1-fb, m, l, false).Bits()
				}
				if got != want {
					t.Fatalf("%v: magnitude %#x (negative %v) rounds to %#x through the tables, %#x through encode", f, m, sign, got, want)
				}
			}
			for l := uint(0); l < 64; l++ {
				top := uint64(1) << l
				for _, m := range []uint64{top, top - 1, top + 1, top | top>>1, top | top>>8, top | top>>8 | 1} {
					check(m, false)
					check(m, true)
				}
				for i := 0; i < 200; i++ {
					m := r.Uint64() >> (63 - l)
					check(m, false)
					check(m, true)
				}
			}
		}
	}
}
