package emac

// Cross-arm batch-kernel tests: every BatchKernelBuilder must produce
// results bit-identical to driving its per-sample LayerKernel once per
// sample — fused term-table/window/signed-lane datapaths and loop fallbacks
// alike.

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// batchAriths are the configurations under test: the fused datapaths
// (posit term tables for posit(8,0)/(8,1); posit exact windows for the
// two-word registers of posit(8,2), posit(12,1) and posit(16,1); float
// term tables for float(8,4) and float(6,2); fixed signed lanes for
// fixed(8,4), fixed(8,1) and fixed(8,4) RNE) plus configurations that
// must take the loop fallback (posit(16,2), whose register exceeds 128
// bits; 12-bit float and fixed).
func batchAriths() []Arithmetic {
	rneFixed := NewFixed(8, 4)
	rneFixed.RoundNearest = true
	return []Arithmetic{
		NewPosit(8, 0), NewPosit(8, 1), NewPosit(8, 2), NewPosit(12, 1),
		NewPosit(16, 1), NewPosit(16, 2),
		NewFloatN(8, 4), NewFloatN(6, 2), NewFloatN(12, 5),
		NewFixed(8, 4), NewFixed(8, 1), NewFixed(12, 6), rneFixed,
	}
}

// codePatterns returns every n-bit pattern for narrow formats, or a
// random subset for wide ones.
func codePatterns(a Arithmetic, r *rng.Source, max int) []Code {
	n := a.BitWidth()
	if n <= 8 {
		out := make([]Code, 1<<n)
		for i := range out {
			out[i] = Code(i)
		}
		return out
	}
	out := make([]Code, max)
	for i := range out {
		out[i] = Code(r.Uint64() & (1<<n - 1))
	}
	return out
}

// TestBatchKernelExhaustiveSweep sweeps every (weight, activation)
// operand pair of each 8-bit arm through a 1×1 layer: one ForwardBatch
// flush carrying the whole code space must match per-sample Forward
// bit-for-bit. Wide formats get a random subset (the posit window tier,
// and the loop fallback elsewhere).
func TestBatchKernelExhaustiveSweep(t *testing.T) {
	r := rng.New(3)
	for _, a := range batchAriths() {
		bb, ok := a.(BatchKernelBuilder)
		if !ok {
			t.Fatalf("%s: no BatchKernelBuilder", a.Name())
		}
		kb := a.(KernelBuilder)
		pats := codePatterns(a, r, 64)
		for _, bias := range []Code{a.Quantize(0), a.Quantize(0.375), a.Quantize(-1)} {
			for _, wc := range pats {
				w, b := [][]Code{{wc}}, []Code{bias}
				bk, ok := bb.NewBatchLayerKernel(w, b)
				if !ok {
					t.Fatalf("%s: no batch kernel", a.Name())
				}
				lk, ok := kb.NewLayerKernel(w, b)
				if !ok {
					t.Fatalf("%s: no layer kernel", a.Name())
				}
				nb := len(pats)
				act := make([]Code, nb)
				copy(act, pats)
				got := make([]Code, nb)
				bk.ForwardBatchStrided(act, got, nb)
				want := make([]Code, 1)
				for s, ac := range pats {
					lk.Forward([]Code{ac}, want)
					if got[s] != want[0] {
						t.Fatalf("%s bias %#x w %#x a %#x: batch %#x, per-sample %#x",
							a.Name(), bias, wc, ac, got[s], want[0])
					}
				}
			}
		}
	}
}

// TestBatchKernelExhaustiveSweepZeroHeavy drives the zero-skipping
// loops with every operand pair: one layer per arm carries each weight
// pattern as a row over two inputs, and the flush holds each activation
// pattern, alternating between the columns, followed by three all-zero
// samples. The flush spans more than one 256-sample tile, and its columns
// are at least 7/8 zero, so the one-word arms take their compacted
// loops with every pattern, specials included, inside.
func TestBatchKernelExhaustiveSweepZeroHeavy(t *testing.T) {
	r := rng.New(5)
	for _, a := range batchAriths() {
		pats := codePatterns(a, r, 80)
		const in, gap = 2, 4
		w := make([][]Code, len(pats))
		for j, wc := range pats {
			w[j] = []Code{wc, wc}
		}
		act := make([]Code, len(pats)*gap*in)
		for i := range act {
			act[i] = a.Quantize(0)
		}
		for k, ac := range pats {
			act[k*gap*in+k%in] = ac
		}
		for _, bias := range []Code{a.Quantize(0), a.Quantize(0.375), a.Quantize(-1)} {
			b := make([]Code, len(pats))
			for j := range b {
				b[j] = bias
			}
			checkBatchFlush(t, a, w, b, act)
		}
	}
}

// TestBatchKernelSparseActivations runs every arm over the activation
// shapes the paper networks feed their layers — one-hot categorical
// inputs (Mushroom: 22 of 117 hot) and ReLU outputs (about half zero) —
// at flush sizes around the 256-sample tile. Rare NaN/Inf and -0
// activations land inside the sparse columns, and in the wider layers
// one row carries a special weight and another a special bias.
func TestBatchKernelSparseActivations(t *testing.T) {
	r := rng.New(29)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for _, a := range batchAriths() {
		for _, shape := range []struct {
			name    string
			in, out int
		}{{"onehot", 117, 32}, {"relu", 32, 16}, {"relu", 16, 2}} {
			w, b := randomLayer(a, shape.in, shape.out, 41)
			if shape.out > 2 {
				w[1][3] = a.Quantize(specials[r.Intn(3)])
				b[2] = a.Quantize(specials[r.Intn(3)])
			}
			for _, batch := range []int{1, 2, 255, 256, 257, 513} {
				act := make([]Code, batch*shape.in)
				for s := 0; s < batch; s++ {
					x := act[s*shape.in : (s+1)*shape.in]
					for i := range x {
						v := r.NormMS(0, 1)
						if shape.name == "onehot" || v < 0 {
							v = 0
						}
						x[i] = a.Quantize(v)
					}
					if shape.name == "onehot" {
						for hot := 0; hot < 22; hot++ {
							x[r.Intn(shape.in)] = a.Quantize(1)
						}
					}
					if r.Intn(40) == 0 {
						x[r.Intn(shape.in)] = a.Quantize(specials[r.Intn(len(specials))])
					}
				}
				checkBatchFlush(t, a, w, b, act)
			}
		}
	}
}

// TestBatchKernelWarmFlushAllocFree: once warm, a flush through each
// one-word arm's fused kernel allocates nothing, from a single sample to
// a Mushroom-sized flush of many tiles, with compacted columns in play.
func TestBatchKernelWarmFlushAllocFree(t *testing.T) {
	r := rng.New(8)
	for _, a := range []Arithmetic{NewPosit(8, 0), NewFloatN(8, 4), NewFixed(8, 4)} {
		const in, out = 117, 32
		w, b := randomLayer(a, in, out, 3)
		bk, ok := a.(BatchKernelBuilder).NewBatchLayerKernel(w, b)
		if !ok {
			t.Fatalf("%s: no batch kernel", a.Name())
		}
		for _, batch := range []int{1, 256, 2708} {
			act := make([]Code, batch*in)
			for i := range act {
				act[i] = a.Quantize(0)
				if r.Intn(5) == 0 {
					act[i] = a.Quantize(1)
				}
			}
			dst := make([]Code, batch*out)
			// AllocsPerRun warms with one untimed flush first.
			if allocs := testing.AllocsPerRun(5, func() { bk.ForwardBatchStrided(act, dst, batch) }); allocs != 0 {
				t.Fatalf("%s b=%d: warm flush allocates %v objects; want 0", a.Name(), batch, allocs)
			}
		}
	}
}

// checkBatchFlush runs one flush through a's batch kernel and each sample
// through its per-sample kernel, requiring identical outputs.
func checkBatchFlush(t *testing.T, a Arithmetic, w [][]Code, b []Code, act []Code) {
	t.Helper()
	in, out := len(w[0]), len(w)
	bk, ok := a.(BatchKernelBuilder).NewBatchLayerKernel(w, b)
	if !ok {
		t.Fatalf("%s: no batch kernel", a.Name())
	}
	lk, ok := a.(KernelBuilder).NewLayerKernel(w, b)
	if !ok {
		t.Fatalf("%s: no layer kernel", a.Name())
	}
	batch := len(act) / in
	got := make([]Code, batch*out)
	bk.ForwardBatchStrided(act, got, batch)
	want := make([]Code, out)
	for s := 0; s < batch; s++ {
		lk.Forward(act[s*in:(s+1)*in], want)
		for j := range want {
			if got[s*out+j] != want[j] {
				t.Fatalf("%s %dx%d b=%d: sample %d row %d: batch %#x, per-sample %#x",
					a.Name(), out, in, batch, s, j, got[s*out+j], want[j])
			}
		}
	}
}

// TestBatchKernelMatchesLayerKernel checks realistic random layers for
// every arm through the strided entry point, with flush sizes crossing
// the scratch-growth boundary and the posit window tier's tile edge.
func TestBatchKernelMatchesLayerKernel(t *testing.T) {
	r := rng.New(17)
	for _, a := range batchAriths() {
		bb := a.(BatchKernelBuilder)
		kb := a.(KernelBuilder)
		const in, out = 30, 16
		w, b := randomLayer(a, in, out, 99)
		bk, ok := bb.NewBatchLayerKernel(w, b)
		if !ok {
			t.Fatalf("%s: no batch kernel", a.Name())
		}
		lk, ok := kb.NewLayerKernel(w, b)
		if !ok {
			t.Fatalf("%s: no layer kernel", a.Name())
		}
		for _, batch := range []int{1, 2, 7, 32, 65, 130} {
			act := make([]Code, batch*in)
			for i := range act {
				act[i] = a.Quantize(r.NormMS(0, 1))
			}
			got := make([]Code, batch*out)
			bk.ForwardBatchStrided(act, got, batch)
			want := make([]Code, out)
			for s := 0; s < batch; s++ {
				lk.Forward(act[s*in:(s+1)*in], want)
				for j := range want {
					if got[s*out+j] != want[j] {
						t.Fatalf("%s b=%d: sample %d row %d: %#x vs %#x",
							a.Name(), batch, s, j, got[s*out+j], want[j])
					}
				}
			}
		}
	}
}

// TestBatchKernelTiers pins which configurations of each arm take a
// fused datapath and which loop the per-sample kernel.
func TestBatchKernelTiers(t *testing.T) {
	rneFixed := NewFixed(8, 4)
	rneFixed.RoundNearest = true
	for _, tc := range []struct {
		a     Arithmetic
		fused bool
	}{
		{NewPosit(8, 0), true},
		{NewPosit(8, 2), true},
		{NewPosit(12, 1), true},
		{NewPosit(16, 1), true},
		{NewPosit(16, 2), false},
		{NewFloatN(8, 4), true},
		{NewFloatN(6, 2), true},
		{NewFloatN(12, 5), false},
		{NewFixed(8, 4), true},
		{rneFixed, true},
		{NewFixed(8, 1), true},
		{NewFixed(12, 6), false},
	} {
		w, b := randomLayer(tc.a, 30, 16, 99)
		bk, ok := tc.a.(BatchKernelBuilder).NewBatchLayerKernel(w, b)
		if !ok {
			t.Fatalf("%s: no batch kernel", tc.a.Name())
		}
		if _, loop := bk.(*loopBatchKernel); loop == tc.fused {
			t.Fatalf("%s: loop fallback = %v, want %v", tc.a.Name(), loop, !tc.fused)
		}
	}
}

// TestBatchKernelDeclines: configurations with no kernel tier at all
// must also decline the batch tier.
func TestBatchKernelDeclines(t *testing.T) {
	drop := NewPosit(8, 0)
	drop.QuireDrop = 2
	w, b := randomLayer(drop, 4, 2, 5)
	if _, ok := drop.NewBatchLayerKernel(w, b); ok {
		t.Fatal("truncated-quire posit must have no batch kernel")
	}
	if _, ok := drop.NewBatchLayerKernel(nil, nil); ok {
		t.Fatal("empty shape must decline")
	}
	if _, ok := any(Float32Arith{}).(BatchKernelBuilder); ok {
		t.Fatal("float32 baseline must not offer a batch kernel")
	}
}

// FuzzBatchStrided fuzzes the strided batch layout: arbitrary bytes
// become a flush of activations for a fixed 5-wide layer in each arm
// (one byte per 8-bit code, two per 16-bit code), and the fused result
// must match the per-sample kernel bit-for-bit.
func FuzzBatchStrided(f *testing.F) {
	f.Add(uint8(1), []byte{0x00, 0x80, 0xFF, 0x7F, 0x01})
	f.Add(uint8(3), []byte("deep positron strided"))
	f.Add(uint8(8), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 1, 2, 3})
	f.Add(uint8(0), []byte{})
	// Zero-heavy: one nonzero per 48 codes, so the one-word arms compact
	// most columns (the posit/float rule for 3 rows needs about 71% zero).
	zeroHeavy := make([]byte, 160)
	for i := 0; i < len(zeroHeavy); i += 48 {
		zeroHeavy[i] = 0x40
	}
	f.Add(uint8(32), zeroHeavy)
	// One-hot: one hot input per sample, nearly always the first.
	oneHot := make([]byte, 160)
	for s := 0; s < 32; s++ {
		hot := 0
		if s%9 == 8 {
			hot = 1 + s%4
		}
		oneHot[s*5+hot] = 0x40
	}
	f.Add(uint8(32), oneHot)
	const in, out = 5, 3
	type arm struct {
		a  Arithmetic
		bk BatchLayerKernel
		lk LayerKernel
	}
	var arms []arm
	for _, a := range []Arithmetic{NewPosit(8, 0), NewFloatN(8, 4), NewFixed(8, 4), NewPosit(16, 1)} {
		w, b := randomLayer(a, in, out, 23)
		bk, ok := a.(BatchKernelBuilder).NewBatchLayerKernel(w, b)
		if !ok {
			f.Fatalf("%s: no batch kernel", a.Name())
		}
		lk, _ := a.(KernelBuilder).NewLayerKernel(w, b)
		arms = append(arms, arm{a, bk, lk})
	}
	f.Fuzz(func(t *testing.T, b uint8, data []byte) {
		batch := int(b % 33)
		byteAt := func(i int) Code {
			if len(data) == 0 {
				return 0
			}
			return Code(data[i%len(data)])
		}
		for _, ar := range arms {
			act := make([]Code, batch*in)
			for i := range act {
				if ar.a.BitWidth() > 8 {
					act[i] = byteAt(2*i)<<8 | byteAt(2*i+1)
				} else {
					act[i] = byteAt(i)
				}
			}
			got := make([]Code, batch*out)
			ar.bk.ForwardBatchStrided(act, got, batch)
			want := make([]Code, out)
			for s := 0; s < batch; s++ {
				ar.lk.Forward(act[s*in:(s+1)*in], want)
				for j := range want {
					if got[s*out+j] != want[j] {
						t.Fatalf("%s sample %d row %d: batch %#x, per-sample %#x",
							ar.a.Name(), s, j, got[s*out+j], want[j])
					}
				}
			}
		}
	})
}
