package minifloat

import (
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
