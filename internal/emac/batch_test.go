package emac

// Cross-arm batch-kernel tests: every BatchKernelBuilder must produce
// results bit-identical to driving its per-sample LayerKernel once per
// sample — fused term-table/window/SWAR datapaths and loop fallbacks
// alike.

import (
	"testing"

	"repro/internal/rng"
)

// batchAriths are the configurations under test: the fused datapaths
// (posit term tables for posit(8,0)/(8,1); posit exact windows for the
// two-word registers of posit(8,2), posit(12,1) and posit(16,1)) plus
// configurations that must take the loop fallback (posit(16,2), whose
// register exceeds 128 bits; 12-bit float and fixed; fixed RNE).
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

// TestBatchKernelTiers pins which posit configurations take a fused
// datapath and which loop the per-sample kernel.
func TestBatchKernelTiers(t *testing.T) {
	for _, tc := range []struct {
		a     PositArith
		fused bool
	}{
		{NewPosit(8, 0), true},
		{NewPosit(8, 2), true},
		{NewPosit(12, 1), true},
		{NewPosit(16, 1), true},
		{NewPosit(16, 2), false},
	} {
		w, b := randomLayer(tc.a, 30, 16, 99)
		bk, ok := tc.a.NewBatchLayerKernel(w, b)
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
