package posit

import (
	"math"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/rng"
	"repro/internal/termtile"
)

// randPosits fills a slice with patterns drawn from the full code space
// (zero and NaR included).
func randPosits(f Format, n int, r *rng.Source) []Posit {
	out := make([]Posit, n)
	for i := range out {
		out[i] = Posit{f: f, bits: uint64(r.Uint64()) & f.Mask()}
	}
	return out
}

// patterns returns a layer's weights and biases as the n-bit patterns
// the kernel constructor takes.
func patterns(w [][]Posit, b []Posit) ([][]uint64, []uint64) {
	pw := make([][]uint64, len(w))
	for j, row := range w {
		pw[j] = make([]uint64, len(row))
		for i, p := range row {
			pw[j][i] = p.bits
		}
	}
	pb := make([]uint64, len(b))
	for j, p := range b {
		pb[j] = p.bits
	}
	return pw, pb
}

// quireForward is the reference the kernels are held to: one Quire per
// row, driven through ResetToBias/MulAdd/Result for every sample of a flat
// sample-major flush.
func quireForward(f Format, w [][]Posit, b []Posit, act []uint64) []uint64 {
	in, out := len(w[0]), len(w)
	batch := len(act) / in
	dst := make([]uint64, batch*out)
	q := NewQuire(f, in)
	for s := 0; s < batch; s++ {
		for j := range w {
			q.ResetToBias(b[j])
			for i, x := range act[s*in : (s+1)*in] {
				q.MulAdd(w[j][i], f.FromBits(x))
			}
			dst[s*out+j] = q.Result().bits
		}
	}
	return dst
}

// TestBatchDenseKernelMatchesPerSample drives random layers of every
// gated small format, and of posit(8,2) and posit(12,1) on the window
// tier, through the batch kernel and per-sample quires and requires
// bit-identical outputs, NaR patterns included.
func TestBatchDenseKernelMatchesPerSample(t *testing.T) {
	r := rng.New(7)
	for _, tc := range []struct{ n, es uint }{{5, 0}, {6, 1}, {7, 0}, {8, 0}, {8, 1}, {8, 2}, {12, 1}} {
		f := MustFormat(tc.n, tc.es)
		for trial := 0; trial < 4; trial++ {
			in, out := 1+int(r.Uint64()%24), 1+int(r.Uint64()%12)
			w := make([][]Posit, out)
			for j := range w {
				w[j] = randPosits(f, in, r)
			}
			b := randPosits(f, out, r)
			batch := 1 + int(r.Uint64()%9)
			act := make([]uint64, batch*in)
			for i := range act {
				act[i] = uint64(r.Uint64()) & f.Mask()
			}
			checkBatchFlush(t, f, w, b, act)
		}
	}
}

// TestBatchDenseKernelExhaustive sweeps every (weight, activation)
// 8-bit pattern pair through a 1×1 layer with every bias class (zero,
// real, NaR) and checks the batch path against the quire.
func TestBatchDenseKernelExhaustive(t *testing.T) {
	f := MustFormat(8, 0)
	count := int(uint64(1) << f.n)
	act := make([]uint64, count)
	for ab := range act {
		act[ab] = uint64(ab)
	}
	for _, bias := range []uint64{0, 0x37, f.signBit()} {
		bv := []Posit{{f: f, bits: bias}}
		for wb := 0; wb < count; wb++ {
			checkBatchFlush(t, f, [][]Posit{{{f: f, bits: uint64(wb)}}}, bv, act)
		}
	}
}

// TestBatchDenseKernelExhaustiveZeroHeavy is the zero-skipping
// counterpart of the sweep above: one layer carries every weight pattern
// as a row (NaR included) over two inputs, and the flush holds every
// activation pattern, alternating between the two columns, each followed
// by three all-zero samples. Four tiles of columns at least 7/8 zero
// take the compacted loop with every pattern, NaR included, inside.
func TestBatchDenseKernelExhaustiveZeroHeavy(t *testing.T) {
	for _, f := range []Format{MustFormat(8, 0), MustFormat(8, 1), MustFormat(6, 1)} {
		count := int(uint64(1) << f.n)
		for _, bias := range []uint64{0, 0x17, f.signBit()} {
			w := make([][]Posit, count)
			bv := make([]Posit, count)
			for wb := range w {
				w[wb] = []Posit{{f: f, bits: uint64(wb)}, {f: f, bits: uint64(wb)}}
				bv[wb] = Posit{f: f, bits: bias & f.Mask()}
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

// checkBatchFlush runs one flush through the batch kernel and each sample
// through per-row quires, requiring identical outputs.
func checkBatchFlush(t *testing.T, f Format, w [][]Posit, b []Posit, act []uint64) {
	t.Helper()
	in, out := len(w[0]), len(w)
	pw, pb := patterns(w, b)
	bk, ok := NewBatchDenseKernel(f, pw, pb)
	if !ok {
		t.Fatalf("%v: no batch kernel for %dx%d", f, out, in)
	}
	batch := len(act) / in
	got := make([]uint64, batch*out)
	ForwardBatch(bk, act, got, batch)
	want := quireForward(f, w, b, act)
	for i, wbits := range want {
		if s, j := i/out, i%out; got[i] != wbits {
			t.Fatalf("%v %dx%d b=%d: sample %d row %d (w %#x, bias %#x, act %#x): batch %#x, quire %#x",
				f, out, in, batch, s, j, w[j][0].bits, b[j].bits, act[s*in:(s+1)*in], got[i], wbits)
		}
	}
}

// TestBatchDenseKernelGates checks the fallback conditions: registers
// wider than two words must decline, everything up to 128 bits must not.
func TestBatchDenseKernelGates(t *testing.T) {
	for _, tc := range []struct {
		n, es uint
		in    int
		ok    bool
	}{
		{16, 1, 1, true},       // 114 bits: the window tier
		{16, 1, 1 << 14, true}, // 128 bits exactly
		{16, 1, 1<<14 + 1, false},
		{9, 2, 30, true},  // 119 bits
		{10, 2, 1, false}, // 130 bits
		{16, 2, 1, false}, // 226 bits
		{8, 3, 1, false},  // 194 bits
	} {
		f := MustFormat(tc.n, tc.es)
		if got := QuireSize(f, tc.in) <= 128; got != tc.ok {
			t.Fatalf("%v in=%d: register %d bits, case expects fit=%v", f, tc.in, QuireSize(f, tc.in), tc.ok)
		}
		if _, ok := NewBatchDenseKernel(f, [][]uint64{make([]uint64, tc.in)}, []uint64{0}); ok != tc.ok {
			t.Fatalf("%v in=%d: batch kernel ok=%v, want %v", f, tc.in, ok, tc.ok)
		}
	}
	if QuireSize(MustFormat(8, 0), 30) > 64 {
		t.Fatal("posit(8,0) k=30 quire should fit one word")
	}
}

// TestBatchDenseKernelEmptyFlush checks the b = 0 edge.
func TestBatchDenseKernelEmptyFlush(t *testing.T) {
	f := MustFormat(8, 0)
	bk, ok := NewBatchDenseKernel(f, [][]uint64{{0}}, []uint64{0})
	if !ok {
		t.Fatal("no batch kernel")
	}
	ForwardBatch[uint64](bk, nil, nil, 0) // must not panic
}

// TestTermTablesMatchFormat checks every posit(n <= 8, es <= 2) term
// tier's tables exhaustively: each activation byte's classification, each
// pattern's negation, each bias term where the quire fits one word, and
// the rounding of exact sums of every bit length, ties and sticky tails
// included, through Round and Neg against the encoder.
func TestTermTablesMatchFormat(t *testing.T) {
	r := rng.New(19)
	for n := uint(3); n <= 8; n++ {
		for es := uint(0); es <= 2; es++ {
			f := MustFormat(n, es)
			tab := termtile.TablesOf(termFormat(f))
			if tab.Special != f.NaR().Bits() {
				t.Fatalf("%v: special %#x", f, tab.Special)
			}
			lsb := -int((uint(1) << (es + 1)) * (n - 2))
			for p := range 256 {
				x := f.FromBits(uint64(p) & f.Mask())
				want := uint16(x.Bits())
				switch {
				case x.IsZero():
					want = 0
				case x.IsNaR():
					want = 1 << 8
				}
				if tab.Act[p] != want {
					t.Fatalf("%v: Act[%#x] = %#x, want %#x", f, p, tab.Act[p], want)
				}
				neg := f.FromBits(uint64(tab.Neg[p]))
				if x.IsNaR() != neg.IsNaR() || !x.IsNaR() && neg.Float64() != -x.Float64() {
					t.Fatalf("%v: Neg[%#x] = %v, want -%v", f, p, neg, x)
				}
				var bias float64 // NaR's term is 0: Act flags it
				if !x.IsNaR() {
					bias = math.Ldexp(x.Float64(), -lsb)
				}
				if QuireSize(f, 1) <= 64 && float64(tab.Bias[p]) != bias {
					t.Fatalf("%v: Bias[%#x] = %d, want %v", f, p, tab.Bias[p], bias)
				}
			}
			k := &BatchDenseKernel{f: f}
			check := func(a int64) {
				m := uint64(a)
				if a < 0 {
					m = -m
				}
				var got uint64
				if m != 0 {
					got = uint64(tab.Round[bitutil.RoundKey(m)])
					if a < 0 {
						got = uint64(tab.Neg[got])
					}
				}
				if want := k.round(a, lsb); got != want {
					t.Fatalf("%v: sum %#x rounds to %#x through the tables, %#x through encode", f, a, got, want)
				}
			}
			for l := uint(0); l < 64; l++ {
				top := int64(1) << l
				for _, a := range []int64{top, top - 1, top + 1, top | top>>1, top | top>>8, top | top>>8 | 1} {
					check(a)
					check(-a)
				}
				for i := 0; i < 200; i++ {
					a := int64(r.Uint64()>>1) >> (62 - l)
					check(a)
					check(-a)
				}
			}
		}
	}
}
