package core

// Fused-batch execution tests: InferBatchInto must be bit-identical to
// per-sample InferInto for every arm (fused kernels, the loop fallback
// and the MAC-only float32 path alike), for uniform and mixed networks,
// and allocation-free once the planes are warm.

import (
	"testing"

	"repro/internal/emac"
)

// TestInferBatchIntoMatchesPerSample sweeps the iris test split through
// the fused batch path and the per-sample path for each arm.
func TestInferBatchIntoMatchesPerSample(t *testing.T) {
	net, test := trainedIris(t)
	for _, a := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
		emac.NewPosit(12, 1), // fused exact-window tier
		emac.NewPosit(16, 1), // fused exact-window tier
		emac.NewPosit(16, 2), // loop fallback (register beyond 128 bits)
		emac.Float32Arith{},  // per-neuron MAC path, no kernels at all
	} {
		q := Quantize(net, a)
		s := q.NewSession()
		od := q.OutputDim()
		for _, b := range []int{1, 3, 17, len(test.X)} {
			xs := test.X[:b]
			got := make([]float64, b*od)
			s.InferBatchInto(got, xs)
			ref := q.NewSession()
			want := make([]float64, od)
			for i, x := range xs {
				ref.InferInto(want, x)
				for j := range want {
					if got[i*od+j] != want[j] {
						t.Fatalf("%s b=%d sample %d logit %d: batch %v, per-sample %v",
							a.Name(), b, i, j, got[i*od+j], want[j])
					}
				}
			}
		}
	}
}

// TestMixedInferBatchIntoMatchesPerSample does the same over a mixed-
// precision network with a format conversion at every boundary.
func TestMixedInferBatchIntoMatchesPerSample(t *testing.T) {
	net, test := trainedIris(t)
	ariths := []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFixed(8, 4), emac.NewFloatN(8, 4),
	}
	q := QuantizeMixed(net, ariths)
	s := q.NewSession()
	od := q.OutputDim()
	b := len(test.X)
	got := make([]float64, b*od)
	s.InferBatchInto(got, test.X)
	ref := q.NewSession()
	want := make([]float64, od)
	for i, x := range test.X {
		ref.InferInto(want, x)
		for j := range want {
			if got[i*od+j] != want[j] {
				t.Fatalf("mixed sample %d logit %d: batch %v, per-sample %v",
					i, j, got[i*od+j], want[j])
			}
		}
	}
}

// TestInferBatchIntoAllocFree: after one warmup flush, the fused path
// must not allocate, on the term-table and the exact-window tier alike.
func TestInferBatchIntoAllocFree(t *testing.T) {
	net, test := trainedIris(t)
	for _, a := range []emac.Arithmetic{emac.NewPosit(8, 0), emac.NewPosit(16, 1)} {
		q := Quantize(net, a)
		s := q.NewSession()
		od := q.OutputDim()
		xs := test.X[:16]
		dst := make([]float64, len(xs)*od)
		s.InferBatchInto(dst, xs) // warm planes and kernel scratch
		allocs := testing.AllocsPerRun(20, func() {
			s.InferBatchInto(dst, xs)
		})
		if allocs != 0 {
			t.Fatalf("%s: InferBatchInto allocates %v objects per flush; want 0", a.Name(), allocs)
		}
	}
}

// TestInferBatchIntoSigmoid covers the posit fast-sigmoid activation on
// the batch plane.
func TestInferBatchIntoSigmoid(t *testing.T) {
	net, test := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	q.Sigmoid = true
	s := q.NewSession()
	od := q.OutputDim()
	xs := test.X[:8]
	got := make([]float64, len(xs)*od)
	s.InferBatchInto(got, xs)
	ref := q.NewSession()
	want := make([]float64, od)
	for i, x := range xs {
		ref.InferInto(want, x)
		for j := range want {
			if got[i*od+j] != want[j] {
				t.Fatalf("sigmoid sample %d logit %d: batch %v, per-sample %v", i, j, got[i*od+j], want[j])
			}
		}
	}
}
