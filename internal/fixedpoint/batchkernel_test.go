package fixedpoint

import (
	"testing"

	"repro/internal/rng"
)

// Equivalence tests for the signed-lane batch kernel: it must be
// bit-identical to the per-neuron Accumulator reference over the entire
// operand space of the paper's 8-bit formats (both rounding arms),
// exhaustively for every small format, and on random multi-term layers.

func randFixed(f Format, n int, r *rng.Source) []Fixed {
	out := make([]Fixed, n)
	for i := range out {
		out[i] = f.FromBits(r.Uint64())
	}
	return out
}

// patterns returns a layer's weights and biases as the n-bit patterns
// the kernel constructor takes.
func patterns(w [][]Fixed, b []Fixed) ([][]uint64, []uint64) {
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
func macForward(f Format, w [][]Fixed, b []Fixed, act []uint64, rne bool) []uint64 {
	in, out := len(w[0]), len(w)
	batch := len(act) / in
	dst := make([]uint64, batch*out)
	a := NewAccumulator(f, in)
	a.RoundNearest = rne
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

// TestBatchDenseKernelMatchesPerSample checks random layers in both
// rounding modes against per-sample accumulators, odd and even batch
// sizes included (the odd tail takes the single-lane path).
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
				batch := 1 + r.Intn(9)
				act := make([]uint64, batch*in)
				for i := range act {
					act[i] = r.Uint64()
				}
				checkBatchFlush(t, f, w, b, act, rne)
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
	act := make([]uint64, count)
	for ab := range act {
		act[ab] = uint64(ab)
	}
	for _, bias := range []uint64{0, 0x7F, 0x80, 0x2A} {
		for _, rne := range []bool{false, true} {
			bv := []Fixed{f.FromBits(bias)}
			for wb := 0; wb < count; wb++ {
				checkBatchFlush(t, f, [][]Fixed{{f.FromBits(uint64(wb))}}, bv, act, rne)
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
// through per-row accumulators, requiring identical outputs.
func checkBatchFlush(t *testing.T, f Format, w [][]Fixed, b []Fixed, act []uint64, rne bool) {
	t.Helper()
	in, out := len(w[0]), len(w)
	pw, pb := patterns(w, b)
	bk, ok := NewBatchDenseKernel(f, pw, pb, rne)
	if !ok {
		t.Fatalf("%v: no batch kernel for %dx%d", f, out, in)
	}
	batch := len(act) / in
	got := make([]uint64, batch*out)
	ForwardBatch(bk, act, got, batch)
	for i, wb := range macForward(f, w, b, act, rne) {
		if s, j := i/out, i%out; got[i] != wb {
			t.Fatalf("%v %dx%d rne=%v b=%d: sample %d row %d (act %#x): batch %#x, accumulator %#x",
				f, out, in, rne, batch, s, j, act[s*in:(s+1)*in], got[i], wb)
		}
	}
}

// sweepPairs runs every (weight, activation) pattern pair of f through one
// flush: a fan-in-1 layer whose row j holds weight pattern j, over a flush
// holding every activation pattern, against the accumulator.
func sweepPairs(t *testing.T, f Format, bias Fixed, rne bool) {
	t.Helper()
	count := int(f.Count())
	w := make([][]Fixed, count)
	b := make([]Fixed, count)
	act := make([]uint64, count)
	for j := range w {
		w[j] = []Fixed{f.FromBits(uint64(j))}
		b[j] = bias
		act[j] = uint64(j)
	}
	checkBatchFlush(t, f, w, b, act, rne)
}

// TestKernelExhaustive8Bit: every (weight, activation) pair of the
// paper's fixed(8,q) formats through the kernel vs the MAC reference,
// with zero, saturated and mid-scale biases, truncation and RNE arms.
func TestKernelExhaustive8Bit(t *testing.T) {
	f := MustFormat(8, 4)
	biases := []Fixed{f.Zero(), f.Max(), f.Min(), f.FromFloat64(0.8125)}
	for _, bias := range biases {
		for _, rne := range []bool{false, true} {
			sweepPairs(t, f, bias, rne)
		}
	}
	// Extreme fraction splits at n = 8, one bias each.
	for _, q := range []uint{1, 7} {
		fq := MustFormat(8, q)
		sweepPairs(t, fq, fq.FromFloat64(-0.5), false)
		sweepPairs(t, fq, fq.FromFloat64(0.25), true)
	}
}

// TestKernelExhaustiveSmall: all (w, x) pairs of every format with
// n <= 6, every q, both rounding arms, one nonzero bias.
func TestKernelExhaustiveSmall(t *testing.T) {
	for n := uint(2); n <= 6; n++ {
		for q := uint(1); q < n; q++ {
			f := MustFormat(n, q)
			bias := f.FromFloat64(-0.75)
			for _, rne := range []bool{false, true} {
				sweepPairs(t, f, bias, rne)
			}
		}
	}
}

// TestKernelRandomLayers: multi-term rows (the register carries real
// accumulation, not just one product) against per-neuron accumulators,
// across the fraction splits of the widths the kernel accepts. Wider
// formats have no kernel (TestBatchDenseKernelGates) and run the MAC
// bank.
func TestKernelRandomLayers(t *testing.T) {
	r := rng.New(77)
	for _, cfg := range []struct{ n, q uint }{{8, 4}, {8, 2}, {7, 3}} {
		f := MustFormat(cfg.n, cfg.q)
		const in, out, batch = 30, 16, 50
		w := make([][]Fixed, out)
		b := make([]Fixed, out)
		for j := range w {
			row := make([]Fixed, in)
			for i := range row {
				row[i] = f.FromBits(r.Uint64() & (f.Count() - 1))
			}
			w[j] = row
			b[j] = f.FromBits(r.Uint64() & (f.Count() - 1))
		}
		for _, rne := range []bool{false, true} {
			act := make([]uint64, batch*in)
			for i := range act {
				act[i] = r.Uint64() & (f.Count() - 1)
			}
			checkBatchFlush(t, f, w, b, act, rne)
		}
	}
}

// TestBatchDenseKernelGates checks the packed path declines what it
// cannot carry: formats wider than 8 bits, and fan-ins whose lane sum
// could reach 2^31 in magnitude (in·2^(2n−2) >= 2^31). At the largest
// fan-in the lane gate admits, the extreme lane sum — every weight and
// activation at −2^(n−1), so every term is +2^(2n−2) — must still match
// the accumulator in both lanes and in an odd tail.
func TestBatchDenseKernelGates(t *testing.T) {
	zw, zb := [][]uint64{{0}}, []uint64{0} // a 1x1 layer of zeros
	for _, wide := range []Format{MustFormat(16, 8), MustFormat(9, 4)} {
		if _, ok := NewBatchDenseKernel(wide, zw, zb, false); ok {
			t.Fatalf("%v must have no signed-lane batch kernel", wide)
		}
	}
	f := MustFormat(8, 4)
	bk, ok := NewBatchDenseKernel(f, zw, zb, false)
	if !ok {
		t.Fatal("Q(8,4) 1x1 should qualify")
	}
	ForwardBatch[uint64](bk, nil, nil, 0) // empty flush must not panic

	maxIn := 1<<(31-(2*f.N()-2)) - 1 // 131071 for n = 8
	if _, ok := NewBatchDenseKernel(f, [][]uint64{make([]uint64, maxIn+1)}, zb, false); ok {
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
