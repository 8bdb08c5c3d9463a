package fixedpoint

import (
	"testing"

	"repro/internal/rng"
)

func randFixed(f Format, n int, r *rng.Source) []Fixed {
	out := make([]Fixed, n)
	for i := range out {
		out[i] = f.FromBits(r.Uint64())
	}
	return out
}

// TestBatchDenseKernelMatchesPerSample checks random layers in both
// rounding modes against the per-sample kernel, odd and even batch sizes
// included (the odd tail takes the single-lane path).
func TestBatchDenseKernelMatchesPerSample(t *testing.T) {
	r := rng.New(11)
	for _, tc := range []struct{ n, q uint }{{4, 2}, {8, 4}, {8, 7}, {8, 0}, {6, 3}} {
		f := MustFormat(tc.n, tc.q)
		for _, rne := range []bool{false, true} {
			for trial := 0; trial < 4; trial++ {
				in, out := 1+r.Intn(30), 1+r.Intn(10)
				w := make([][]Fixed, out)
				for j := range w {
					w[j] = randFixed(f, in, r)
				}
				b := randFixed(f, out, r)
				bk, ok := NewBatchDenseKernel(f, w, b, rne)
				if !ok {
					t.Fatalf("%v: no batch kernel for in=%d", f, in)
				}
				sk, ok := NewDenseKernel(f, w, b, rne)
				if !ok {
					t.Fatalf("%v: no per-sample kernel", f)
				}
				batch := 1 + r.Intn(9)
				act := make([]uint64, batch*in)
				for i := range act {
					act[i] = r.Uint64()
				}
				got := make([]uint64, batch*out)
				ForwardBatch(bk, act, got, batch)
				want := make([]uint64, out)
				for s := 0; s < batch; s++ {
					sk.ForwardBits(act[s*in:(s+1)*in], want)
					for j, wb := range want {
						if got[s*out+j] != wb {
							t.Fatalf("%v rne=%v in=%d: sample %d row %d: batch %#x, per-sample %#x",
								f, rne, in, s, j, got[s*out+j], wb)
						}
					}
				}
			}
		}
	}
}

// TestBatchDenseKernelExhaustive sweeps every (weight, activation) 8-bit
// pattern pair through a 1×1 layer with extreme biases in both rounding
// modes — both signed lanes must hold on every operand pair.
func TestBatchDenseKernelExhaustive(t *testing.T) {
	f := MustFormat(8, 4)
	count := int(f.Count())
	for _, bias := range []uint64{0, 0x7F, 0x80, 0x2A} {
		for _, rne := range []bool{false, true} {
			bv := []Fixed{f.FromBits(bias)}
			for wb := 0; wb < count; wb++ {
				w := [][]Fixed{{f.FromBits(uint64(wb))}}
				bk, ok := NewBatchDenseKernel(f, w, bv, rne)
				if !ok {
					t.Fatal("no batch kernel for 1x1 Q(8,4)")
				}
				sk, _ := NewDenseKernel(f, w, bv, rne)
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
						t.Fatalf("bias %#x rne=%v w %#x a %#x: batch %#x, per-sample %#x",
							bias, rne, wb, ab, got[ab], want[0])
					}
				}
			}
		}
	}
}

// TestBatchDenseKernelExhaustiveZeroHeavy is the zero-skipping
// counterpart of the sweep above: one layer carries every weight pattern
// as a row over four inputs, and the flush holds every activation
// pattern in column s mod 4 of its own sample, each followed by three
// all-zero samples. Every pair then has at least half its columns zero
// in both samples and takes the gathered list, in both rounding modes
// and with an even and an odd flush.
func TestBatchDenseKernelExhaustiveZeroHeavy(t *testing.T) {
	f := MustFormat(8, 4)
	count := int(f.Count())
	const in, gap = 4, 4
	for _, bias := range []uint64{0, 0x7F, 0x80, 0x2A} {
		w := make([][]Fixed, count)
		bv := make([]Fixed, count)
		for wb := range w {
			w[wb] = make([]Fixed, in)
			for i := range w[wb] {
				w[wb][i] = f.FromBits(uint64(wb))
			}
			bv[wb] = f.FromBits(bias)
		}
		act := make([]uint64, (count*gap+1)*in)
		for ab := 0; ab < count; ab++ {
			act[ab*gap*in+ab%in] = uint64(ab)
		}
		act[len(act)-in+1] = 0x80 // the odd flush's tail sample
		for _, rne := range []bool{false, true} {
			for _, batch := range []int{count * gap, count*gap + 1} {
				checkBatchFlush(t, f, w, bv, act[:batch*in], rne)
			}
		}
	}
}

// checkBatchFlush runs one flush through the batch kernel and each sample
// through the per-sample kernel, requiring identical outputs.
func checkBatchFlush(t *testing.T, f Format, w [][]Fixed, b []Fixed, act []uint64, rne bool) {
	t.Helper()
	in, out := len(w[0]), len(w)
	bk, ok := NewBatchDenseKernel(f, w, b, rne)
	if !ok {
		t.Fatalf("%v: no batch kernel for %dx%d", f, out, in)
	}
	sk, ok := NewDenseKernel(f, w, b, rne)
	if !ok {
		t.Fatalf("%v: no per-sample kernel for %dx%d", f, out, in)
	}
	batch := len(act) / in
	got := make([]uint64, batch*out)
	ForwardBatch(bk, act, got, batch)
	want := make([]uint64, out)
	for s := 0; s < batch; s++ {
		sk.ForwardBits(act[s*in:(s+1)*in], want)
		for j, wb := range want {
			if got[s*out+j] != wb {
				t.Fatalf("%v %dx%d rne=%v b=%d: sample %d row %d (act %#x): batch %#x, per-sample %#x",
					f, out, in, rne, batch, s, j, act[s*in:(s+1)*in], got[s*out+j], wb)
			}
		}
	}
}

// TestBatchDenseKernelGates checks the packed path declines what it
// cannot carry: formats wider than 8 bits, and fan-ins whose lane sum
// could reach 2^31 in magnitude (in·2^(2n−2) >= 2^31). At the largest
// fan-in the lane gate admits, the extreme lane sum — every weight and
// activation at −2^(n−1), so every term is +2^(2n−2) — must still match
// the per-sample kernel in both lanes and in an odd tail.
func TestBatchDenseKernelGates(t *testing.T) {
	for _, wide := range []Format{MustFormat(16, 8), MustFormat(9, 4)} {
		w := [][]Fixed{{wide.Zero()}}
		if _, ok := NewBatchDenseKernel(wide, w, []Fixed{wide.Zero()}, false); ok {
			t.Fatalf("%v must have no signed-lane batch kernel", wide)
		}
	}
	f := MustFormat(8, 4)
	bk, ok := NewBatchDenseKernel(f, [][]Fixed{{f.Zero()}}, []Fixed{f.Zero()}, false)
	if !ok {
		t.Fatal("Q(8,4) 1x1 should qualify")
	}
	ForwardBatch[uint64](bk, nil, nil, 0) // empty flush must not panic

	maxIn := 1<<(31-(2*f.N()-2)) - 1 // 131071 for n = 8
	if _, ok := NewBatchDenseKernel(f, [][]Fixed{make([]Fixed, maxIn+1)}, []Fixed{f.Zero()}, false); ok {
		t.Fatalf("fan-in %d must decline: its lane sum reaches 2^31", maxIn+1)
	}
	row := make([]Fixed, maxIn)
	for i := range row {
		row[i] = f.Min()
	}
	// Samples 0 and 2 (the odd tail) carry the extreme positive lane sum;
	// sample 1, all +(2^(n−1)−1), the largest negative one beside it.
	const batch = 3
	act := make([]uint64, batch*maxIn)
	for i := range act {
		act[i] = f.Min().Bits()
		if i/maxIn == 1 {
			act[i] = f.Max().Bits()
		}
	}
	for _, bias := range []Fixed{f.Zero(), f.Max(), f.Min()} {
		for _, rne := range []bool{false, true} {
			checkBatchFlush(t, f, [][]Fixed{row, row}, []Fixed{bias, f.Zero()}, act, rne)
		}
	}
}
