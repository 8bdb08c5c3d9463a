package emac

// Cross-arm batch-kernel tests: every fused datapath a BatchKernelBuilder
// offers — term tables, exact windows and signed lanes — must produce
// results bit-identical to stepping the arm's per-neuron MACs through
// each sample, on the Code plane the core package drives. Configurations
// without a fused datapath must decline, so core runs them on the MACs.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

func randomLayer(a Arithmetic, in, out int, seed uint64) (w [][]Code, b []Code) {
	r := rng.New(seed)
	w = make([][]Code, out)
	b = make([]Code, out)
	for j := range w {
		row := make([]Code, in)
		for i := range row {
			row[i] = a.Quantize(r.NormMS(0, 1))
		}
		w[j] = row
		b[j] = a.Quantize(r.NormMS(0, 0.5))
	}
	return w, b
}

// macForward is the reference every kernel is held to: one MAC per
// neuron, reset to its bias and stepped through every sample of a flat
// sample-major flush.
func macForward(a Arithmetic, w [][]Code, b []Code, act []Code) []Code {
	in, out := len(w[0]), len(w)
	batch := len(act) / in
	dst := make([]Code, batch*out)
	macs := make([]MAC, out)
	for j := range macs {
		macs[j] = a.NewMAC(in)
	}
	for s := 0; s < batch; s++ {
		for j, mac := range macs {
			mac.Reset(b[j])
			for i, c := range act[s*in : (s+1)*in] {
				mac.Step(w[j][i], c)
			}
			dst[s*out+j] = mac.Result()
		}
	}
	return dst
}

// batchAriths are the fused datapaths under test: posit term tables for
// posit(8,0)/(8,1); posit exact windows for the two-word registers of
// posit(8,2), posit(12,1) and posit(16,1); float term tables for
// float(8,4) and float(6,2); fixed signed lanes for fixed(8,4),
// fixed(8,1) and fixed(8,4) RNE.
func batchAriths() []Arithmetic {
	rneFixed := NewFixed(8, 4)
	rneFixed.RoundNearest = true
	return []Arithmetic{
		NewPosit(8, 0), NewPosit(8, 1), NewPosit(8, 2), NewPosit(12, 1),
		NewPosit(16, 1),
		NewFloatN(8, 4), NewFloatN(6, 2),
		NewFixed(8, 4), NewFixed(8, 1), rneFixed,
	}
}

// macAriths are configurations with no fused datapath, which core runs
// on the MAC bank: posit(16,2), whose register exceeds 128 bits; 12- and
// 16-bit float and fixed; the truncated-quire ablation.
func macAriths() []Arithmetic {
	drop := NewPosit(8, 0)
	drop.QuireDrop = 2
	return []Arithmetic{
		NewPosit(16, 2), NewFloatN(12, 5), NewFloatN(16, 5),
		NewFixed(12, 6), NewFixed(16, 8), drop,
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
// flush carrying the whole code space must match the MAC bit-for-bit.
// Wide formats (the posit window tier) get a random subset.
func TestBatchKernelExhaustiveSweep(t *testing.T) {
	r := rng.New(3)
	for _, a := range batchAriths() {
		pats := codePatterns(a, r, 64)
		for _, bias := range []Code{a.Quantize(0), a.Quantize(0.375), a.Quantize(-1)} {
			for _, wc := range pats {
				checkBatchFlush(t, a, [][]Code{{wc}}, []Code{bias}, pats)
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
// through a's per-neuron MACs, requiring identical outputs.
func checkBatchFlush(t *testing.T, a Arithmetic, w [][]Code, b []Code, act []Code) {
	t.Helper()
	in, out := len(w[0]), len(w)
	bk, ok := a.(BatchKernelBuilder).NewBatchLayerKernel(w, b)
	if !ok {
		t.Fatalf("%s: no batch kernel", a.Name())
	}
	batch := len(act) / in
	got := make([]Code, batch*out)
	bk.ForwardBatchStrided(act, got, batch)
	for i, ref := range macForward(a, w, b, act) {
		if got[i] != ref {
			t.Fatalf("%s %dx%d b=%d: sample %d row %d: batch %#x, mac %#x",
				a.Name(), out, in, batch, i/out, i%out, got[i], ref)
		}
	}
}

// TestLayerKernelMatchesMACs: for every fused arm, the layer kernel over
// one-sample flushes — what InferInto runs per layer — and a bank of
// per-neuron MACs must agree bit-for-bit on random activation streams.
func TestLayerKernelMatchesMACs(t *testing.T) {
	const in, out = 30, 16
	for _, a := range batchAriths() {
		w, b := randomLayer(a, in, out, 101)
		r := rng.New(202)
		act := make([]Code, in)
		for trial := 0; trial < 100; trial++ {
			for i := range act {
				act[i] = a.Quantize(r.NormMS(0, 1))
			}
			checkBatchFlush(t, a, w, b, act)
		}
	}
}

// TestBatchKernelMatchesMACs checks realistic random layers for every
// arm through the strided entry point, with flush sizes crossing the
// scratch-growth boundary and the posit window tier's tile edge.
func TestBatchKernelMatchesMACs(t *testing.T) {
	r := rng.New(17)
	for _, a := range batchAriths() {
		const in, out = 30, 16
		w, b := randomLayer(a, in, out, 99)
		for _, batch := range []int{1, 2, 7, 32, 65, 130} {
			act := make([]Code, batch*in)
			for i := range act {
				act[i] = a.Quantize(r.NormMS(0, 1))
			}
			checkBatchFlush(t, a, w, b, act)
		}
	}
}

// TestBatchKernelTiers pins which configurations have a fused datapath
// and which decline it and run the MAC bank.
func TestBatchKernelTiers(t *testing.T) {
	for _, a := range batchAriths() {
		w, b := randomLayer(a, 30, 16, 99)
		if _, ok := a.(BatchKernelBuilder).NewBatchLayerKernel(w, b); !ok {
			t.Fatalf("%s: no fused batch kernel", a.Name())
		}
	}
	for _, a := range macAriths() {
		w, b := randomLayer(a, 30, 16, 99)
		if _, ok := a.(BatchKernelBuilder).NewBatchLayerKernel(w, b); ok {
			t.Fatalf("%s: a batch kernel where the MAC bank was expected", a.Name())
		}
	}
}

// TestBatchKernelDeclines: the truncated-quire ablation has no kernel
// tier at any shape.
func TestBatchKernelDeclines(t *testing.T) {
	drop := NewPosit(8, 0)
	drop.QuireDrop = 2
	w, b := randomLayer(drop, 4, 2, 5)
	if _, ok := drop.NewBatchLayerKernel(w, b); ok {
		t.Fatal("truncated-quire posit must have no batch kernel")
	}
}

// TestFloat32HasNoKernel: the float32 baseline is deliberately a naive
// sequential MAC; it must not grow a batched fast path.
func TestFloat32HasNoKernel(t *testing.T) {
	if _, ok := any(Float32Arith{}).(BatchKernelBuilder); ok {
		t.Fatal("float32 baseline must not offer a batch kernel")
	}
}

// TestKernelDeclinesDegenerateShapes: empty layers fall back cleanly.
func TestKernelDeclinesDegenerateShapes(t *testing.T) {
	for _, a := range []Arithmetic{NewPosit(8, 0), NewFloatN(8, 4), NewFixed(8, 4)} {
		if _, ok := a.(BatchKernelBuilder).NewBatchLayerKernel(nil, nil); ok {
			t.Errorf("%s: kernel accepted an empty layer", a.Name())
		}
	}
}

// FuzzBatchStrided fuzzes the strided batch layout: arbitrary bytes
// become a flush of activations for a fixed 5-wide layer in each arm
// (one byte per 8-bit code, two per 16-bit code), and the fused result
// must match the arm's MACs bit-for-bit.
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
		w  [][]Code
		b  []Code
		bk BatchLayerKernel
	}
	var arms []arm
	for _, a := range []Arithmetic{NewPosit(8, 0), NewFloatN(8, 4), NewFixed(8, 4), NewPosit(16, 1)} {
		w, b := randomLayer(a, in, out, 23)
		bk, ok := a.(BatchKernelBuilder).NewBatchLayerKernel(w, b)
		if !ok {
			f.Fatalf("%s: no batch kernel", a.Name())
		}
		arms = append(arms, arm{a, w, b, bk})
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
			for i, ref := range macForward(ar.a, ar.w, ar.b, act) {
				if got[i] != ref {
					t.Fatalf("%s sample %d row %d: batch %#x, mac %#x",
						ar.a.Name(), i/out, i%out, got[i], ref)
				}
			}
		}
	})
}

// TestPositCarryHeadroom drives each posit register to its carry bound:
// a ±maxpos bias plus k same-sign maxpos² products, at k = 2^j and
// 2^j ± 1 up to 257. The MAC and, where the format has one, the fused
// kernel must equal the exact internal/dyadic sum rounded once — a
// register short of ⌈log2 k⌉ carry bits would wrap instead.
func TestPositCarryHeadroom(t *testing.T) {
	var ks []int
	for j := 0; j <= 8; j++ {
		for _, k := range []int{1<<j - 1, 1 << j, 1<<j + 1} {
			if k > 0 && (len(ks) == 0 || k > ks[len(ks)-1]) {
				ks = append(ks, k)
			}
		}
	}
	for _, f := range [][2]uint{{5, 0}, {6, 1}, {7, 2}, {8, 0}, {8, 1}, {8, 2}, {12, 1}, {16, 1}, {16, 2}} {
		a := NewPosit(f[0], f[1])
		for _, neg := range []bool{false, true} {
			m := a.F.MaxPos()
			if neg {
				m = m.Neg()
			}
			dm, _ := m.Dyadic()
			dmax, _ := a.F.MaxPos().Dyadic()
			mc, maxc := Code(m.Bits()), Code(a.F.MaxPos().Bits())
			for _, k := range ks {
				exact := dm
				w, act := make([]Code, k), make([]Code, k)
				for i := range w {
					w[i], act[i] = mc, maxc
					exact = exact.Add(dm.Mul(dmax))
				}
				want := Code(a.F.FromDyadic(exact).Bits())
				name := fmt.Sprintf("%s k=%d negative=%v", a.Name(), k, neg)
				mac := a.NewMAC(k)
				mac.Reset(mc)
				for i := range w {
					mac.Step(w[i], act[i])
				}
				if got := mac.Result(); got != want {
					t.Errorf("%s: MAC %#x, exact sum rounded once %#x", name, got, want)
				}
				kern, ok := a.NewBatchLayerKernel([][]Code{w}, []Code{mc})
				if !ok {
					continue // posit(16,2) runs the MAC bank
				}
				out := make([]Code, 1)
				kern.ForwardBatchStrided(act, out, 1)
				if out[0] != want {
					t.Errorf("%s: fused kernel %#x, exact sum rounded once %#x", name, out[0], want)
				}
			}
		}
	}
}
