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
// modes — the SWAR identity must hold on every operand pair.
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

// TestBatchDenseKernelGates checks the packed path declines what it
// cannot carry.
func TestBatchDenseKernelGates(t *testing.T) {
	wide := MustFormat(16, 8)
	w := [][]Fixed{{wide.Zero()}}
	if _, ok := NewBatchDenseKernel(wide, w, []Fixed{wide.Zero()}, false); ok {
		t.Fatal("n=16 must have no SWAR batch kernel")
	}
	f := MustFormat(8, 4)
	bk, ok := NewBatchDenseKernel(f, [][]Fixed{{f.Zero()}}, []Fixed{f.Zero()}, false)
	if !ok {
		t.Fatal("Q(8,4) 1x1 should qualify")
	}
	ForwardBatch[uint64](bk, nil, nil, 0) // empty flush must not panic
}
