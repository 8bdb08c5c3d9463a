package minifloat

import (
	"math/bits"
	"testing"

	"repro/internal/rng"
)

func randFloats(f Format, n int, r *rng.Source) []Float {
	out := make([]Float, n)
	for i := range out {
		out[i] = f.FromBits(r.Uint64() & f.Mask())
	}
	return out
}

// TestBatchDenseKernelMatchesPerSample checks random layers (NaN/Inf
// patterns included) against the per-sample kernel for several paper
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
			bk, ok := NewBatchDenseKernel(f, w, b)
			if !ok {
				t.Fatalf("%v: no batch kernel for in=%d", f, in)
			}
			sk, ok := NewDenseKernel(f, w, b)
			if !ok {
				t.Fatalf("%v: no per-sample kernel", f)
			}
			batch := 1 + r.Intn(9)
			act := make([]uint64, batch*in)
			for i := range act {
				act[i] = r.Uint64() & f.Mask()
			}
			got := make([]uint64, batch*out)
			ForwardBatch(bk, act, got, batch)
			want := make([]uint64, out)
			for s := 0; s < batch; s++ {
				sk.ForwardBits(act[s*in:(s+1)*in], want)
				for j, wb := range want {
					if got[s*out+j] != wb {
						t.Fatalf("%v in=%d: sample %d row %d: batch %#x, per-sample %#x",
							f, in, s, j, got[s*out+j], wb)
					}
				}
			}
		}
	}
}

// TestBatchDenseKernelExhaustive sweeps every (weight, activation) 8-bit
// pattern pair through a 1×1 float(4,3) layer for several bias classes
// (zero, subnormal, normal, NaN) against the per-sample kernel.
func TestBatchDenseKernelExhaustive(t *testing.T) {
	f := MustFormat(4, 3)
	count := 1 << f.N()
	for _, bias := range []uint64{0, 0x01, 0x42, f.NaN().Bits()} {
		bv := []Float{f.FromBits(bias)}
		for wb := 0; wb < count; wb++ {
			w := [][]Float{{f.FromBits(uint64(wb))}}
			bk, ok := NewBatchDenseKernel(f, w, bv)
			if !ok {
				t.Fatal("no batch kernel for 1x1 float(4,3)")
			}
			sk, _ := NewDenseKernel(f, w, bv)
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
			bk, ok := NewBatchDenseKernel(f, w, bv)
			if !ok {
				t.Fatalf("%v: no batch kernel", f)
			}
			sk, _ := NewDenseKernel(f, w, bv)
			batch := len(act) / in
			got := make([]uint64, batch*count)
			ForwardBatch(bk, act, got, batch)
			want := make([]uint64, count)
			for s := 0; s < batch; s++ {
				sk.ForwardBits(act[s*in:(s+1)*in], want)
				for j, wb := range want {
					if got[s*count+j] != wb {
						t.Fatalf("%v bias %#x w %#x act %#x: batch %#x, per-sample %#x",
							f, bias, j, act[s*in:(s+1)*in], got[s*count+j], wb)
					}
				}
			}
		}
	}
}

// TestBatchDenseKernelGates checks the decline conditions.
func TestBatchDenseKernelGates(t *testing.T) {
	f := MustFormat(4, 3)
	bk, ok := NewBatchDenseKernel(f, [][]Float{{f.Zero()}}, []Float{f.Zero()})
	if !ok {
		t.Fatal("float(4,3) 1x1 should qualify")
	}
	ForwardBatch[uint64](bk, nil, nil, 0) // empty flush must not panic
	wide := MustFormat(5, 10)             // 16-bit: too wide to enumerate
	if _, ok := NewBatchDenseKernel(wide, [][]Float{{wide.Zero()}}, []Float{wide.Zero()}); ok {
		t.Fatal("16-bit float must have no term-table batch kernel")
	}
}

// TestEncodeAccMatchesEncode checks the kernel's table rounding against
// the encoder for register values of every bit length, ties and sticky
// tails included, in every float format narrow enough for the kernel.
func TestEncodeAccMatchesEncode(t *testing.T) {
	r := rng.New(23)
	for n := uint(4); n <= 8; n++ {
		for we := uint(2); we <= n-2; we++ {
			f := MustFormat(we, n-1-we)
			k, ok := NewBatchDenseKernel(f, [][]Float{{f.Zero()}}, []Float{f.Zero()})
			if !ok {
				continue // register wider than a word: no kernel
			}
			check := func(a int64) {
				m := uint64(a) & k.widthMask
				sign := m>>(k.width-1)&1 == 1
				if sign {
					m = -m & k.widthMask
				}
				var want uint64
				if m != 0 {
					l := uint(bits.Len64(m))
					want = f.encode(sign, int(l)-1-int(k.fracBits), m, l, false).Bits()
				}
				if got := k.encodeAcc(a); got != want {
					t.Fatalf("%v: register %#x rounds to %#x through the table, %#x through encode", f, a, got, want)
				}
			}
			for l := uint(0); l < k.width; l++ {
				top := int64(1) << l
				for _, a := range []int64{top, top - 1, top + 1, top | top>>1, top | top>>8, top | top>>8 | 1} {
					check(a)
					check(-a)
				}
				for i := 0; i < 200; i++ {
					a := int64(r.Uint64() >> (64 - l - 1))
					check(a)
					check(-a)
				}
			}
		}
	}
}
