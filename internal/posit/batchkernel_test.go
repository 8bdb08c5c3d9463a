package posit

import (
	"testing"

	"repro/internal/rng"
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

// TestBatchDenseKernelMatchesPerSample drives random layers of every
// gated small format through both kernels and requires bit-identical
// outputs, NaR patterns included.
func TestBatchDenseKernelMatchesPerSample(t *testing.T) {
	r := rng.New(7)
	for _, tc := range []struct{ n, es uint }{{5, 0}, {6, 1}, {7, 0}, {8, 0}, {8, 1}} {
		f := MustFormat(tc.n, tc.es)
		for trial := 0; trial < 4; trial++ {
			in, out := 1+int(r.Uint64()%24), 1+int(r.Uint64()%12)
			w := make([][]Posit, out)
			for j := range w {
				w[j] = randPosits(f, in, r)
			}
			b := randPosits(f, out, r)
			bk, ok := NewBatchDenseKernel(f, w, b)
			if !ok {
				t.Fatalf("%v: no batch kernel for in=%d", f, in)
			}
			sk := NewDenseKernel(f, w, b)
			batch := 1 + int(r.Uint64()%9)
			act := make([]uint64, batch*in)
			for i := range act {
				act[i] = uint64(r.Uint64()) & f.Mask()
			}
			got := make([]uint64, batch*out)
			ForwardBatch(bk, act, got, batch)
			want := make([]uint64, out)
			for s := 0; s < batch; s++ {
				sk.ForwardBits(act[s*in:(s+1)*in], want)
				for j, wbits := range want {
					if got[s*out+j] != wbits {
						t.Fatalf("%v in=%d out=%d: sample %d row %d: batch %#x, per-sample %#x",
							f, in, out, s, j, got[s*out+j], wbits)
					}
				}
			}
		}
	}
}

// TestBatchDenseKernelExhaustive sweeps every (weight, activation)
// 8-bit pattern pair through a 1×1 layer with every bias class (zero,
// real, NaR) and checks the batch path against the per-sample kernel —
// the batch analogue of the kernel equivalence sweeps.
func TestBatchDenseKernelExhaustive(t *testing.T) {
	f := MustFormat(8, 0)
	count := int(uint64(1) << f.n)
	for _, bias := range []uint64{0, 0x37, f.signBit()} {
		bv := []Posit{{f: f, bits: bias}}
		for wb := 0; wb < count; wb++ {
			w := [][]Posit{{{f: f, bits: uint64(wb)}}}
			bk, ok := NewBatchDenseKernel(f, w, bv)
			if !ok {
				t.Fatal("no batch kernel for 1x1 posit(8,0)")
			}
			sk := NewDenseKernel(f, w, bv)
			act := make([]uint64, count)
			for ab := range act {
				act[ab] = uint64(ab)
			}
			got := make([]uint64, count)
			ForwardBatch(bk, act, got, count)
			want := make([]uint64, 1)
			for ab := 0; ab < count; ab++ {
				sk.ForwardBits(act[ab:ab+1], want)
				if got[ab] != want[0] {
					t.Fatalf("bias %#x w %#x a %#x: batch %#x, per-sample %#x",
						bias, wb, ab, got[ab], want[0])
				}
			}
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
// through the per-sample kernel, requiring identical outputs.
func checkBatchFlush(t *testing.T, f Format, w [][]Posit, b []Posit, act []uint64) {
	t.Helper()
	in, out := len(w[0]), len(w)
	bk, ok := NewBatchDenseKernel(f, w, b)
	if !ok {
		t.Fatalf("%v: no batch kernel for %dx%d", f, out, in)
	}
	sk := NewDenseKernel(f, w, b)
	batch := len(act) / in
	got := make([]uint64, batch*out)
	ForwardBatch(bk, act, got, batch)
	want := make([]uint64, out)
	for s := 0; s < batch; s++ {
		sk.ForwardBits(act[s*in:(s+1)*in], want)
		for j, wbits := range want {
			if got[s*out+j] != wbits {
				t.Fatalf("%v %dx%d b=%d: sample %d row %d (w %#x, bias %#x, act %#x): batch %#x, per-sample %#x",
					f, out, in, batch, s, j, w[j][0].bits, b[j].bits, act[s*in:(s+1)*in], got[s*out+j], wbits)
			}
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
		w := [][]Posit{make([]Posit, tc.in)}
		for i := range w[0] {
			w[0][i] = f.Zero()
		}
		if got := QuireSize(f, tc.in) <= 128; got != tc.ok {
			t.Fatalf("%v in=%d: register %d bits, case expects fit=%v", f, tc.in, QuireSize(f, tc.in), tc.ok)
		}
		if _, ok := NewBatchDenseKernel(f, w, []Posit{f.Zero()}); ok != tc.ok {
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
	bk, ok := NewBatchDenseKernel(f, [][]Posit{{f.Zero()}}, []Posit{f.Zero()})
	if !ok {
		t.Fatal("no batch kernel")
	}
	ForwardBatch[uint64](bk, nil, nil, 0) // must not panic
}

// TestRoundTermMatchesEncode checks the term tier's table rounding
// against the encoder for exact sums of every bit length, ties and
// sticky tails included, in every format narrow enough for the tier.
func TestRoundTermMatchesEncode(t *testing.T) {
	r := rng.New(19)
	for n := uint(3); n <= 8; n++ {
		for es := uint(0); es <= 2; es++ {
			f := MustFormat(n, es)
			k := &BatchDenseKernel{f: f, fracBits: (uint(1) << (es + 1)) * (n - 2)}
			k.rtab = (*[64 << 8]uint8)(f.roundTab())
			lsb := -int(k.fracBits)
			check := func(a int64) {
				if got, want := k.roundTerm(a), k.round(a, lsb); got != want {
					t.Fatalf("%v: sum %#x rounds to %#x through the table, %#x through encode", f, a, got, want)
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
