package core

// Fused-batch execution tests: InferBatchInto must be bit-identical to
// per-sample InferInto for every arm (fused kernels, the loop fallback
// and the MAC-only float32 path alike), for uniform and mixed networks,
// and allocation-free once the planes are warm.

import (
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
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

// tileNets builds one network per path through the tiled pass over a
// seeded 117-32-16-2 MLP (the Mushroom input width, with two hidden
// layers so activations and conversions run at two boundaries), and
// returns them with the Mushroom test split's 2708 inputs.
func tileNets(t *testing.T) (map[string]Model, [][]float64) {
	t.Helper()
	_, test := datasets.MushroomSplit(datasets.MushroomSeed + 1)
	src := nn.NewMLP([]int{datasets.MushroomOneHotDim(), 32, 16, 2}, rng.New(43))
	drop := emac.NewPosit(8, 0)
	drop.QuireDrop = 6
	nets := map[string]Model{"posit(8,0) quire-6": Quantize(src, drop)} // MAC path
	for _, a := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
		emac.NewPosit(16, 1), // fused exact-window tier
		emac.NewPosit(16, 2), // loop fallback (register beyond 128 bits)
		emac.Float32Arith{},  // per-neuron MAC path, no kernels at all
	} {
		nets[a.Name()] = Quantize(src, a)
	}
	sig := Quantize(src, emac.NewPosit(8, 0))
	sig.Sigmoid = true
	sig.Stand = &datasets.Standardizer{Mean: make([]float64, src.Layers[0].In), Std: make([]float64, src.Layers[0].In)}
	for i := range sig.Stand.Std {
		sig.Stand.Mean[i], sig.Stand.Std[i] = 0.25, 0.5
	}
	nets["sigmoid+standardized"] = sig
	nets["mixed"] = QuantizeMixed(src, []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFixed(8, 4), emac.NewFloatN(8, 4),
	})
	return nets, test.X
}

// passOf returns a session's tiled-pass state.
func passOf(s Inferer) *tiledPass {
	if s, ok := s.(*MixedSession); ok {
		return &s.tiledPass
	}
	return &s.(*Session).tiledPass
}

// TestInferBatchIntoTiles runs flushes below, at and across the 256-sample
// tile boundary, up to the whole Mushroom test split, through every path
// the tiled pass takes, against per-sample InferInto.
func TestInferBatchIntoTiles(t *testing.T) {
	nets, xs := tileNets(t)
	for name, m := range nets {
		od := m.OutputDim()
		ref := m.NewInferer()
		want := make([]float64, len(xs)*od)
		for i, x := range xs {
			ref.InferInto(want[i*od:(i+1)*od], x)
		}
		s := m.NewInferer()
		for _, b := range []int{0, 1, 255, 256, 257, 513, len(xs)} {
			got := make([]float64, b*od)
			s.InferBatchInto(got, xs[:b])
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("%s b=%d sample %d logit %d: batch %v, per-sample %v",
						name, b, i/od, i%od, v, want[i])
				}
			}
		}
	}
}

// TestInferBatchIntoBadDstPanicsFirst: a dst of the wrong length panics
// before any sample is quantised or computed, leaving dst and the planes
// untouched.
func TestInferBatchIntoBadDstPanicsFirst(t *testing.T) {
	nets, xs := tileNets(t)
	for _, name := range []string{"posit(8,0)", "mixed"} {
		m := nets[name]
		s := m.NewInferer()
		dst := make([]float64, 300*m.OutputDim()-1)
		for i := range dst {
			dst[i] = -7
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: short dst did not panic", name)
				}
			}()
			s.InferBatchInto(dst, xs[:300])
		}()
		p := passOf(s)
		if p.planes[0] != nil || p.planes[1] != nil {
			t.Fatalf("%s: planes grown before the dst check", name)
		}
		for i, v := range dst {
			if v != -7 {
				t.Fatalf("%s: dst[%d] written before the dst check", name, i)
			}
		}
	}
}

// TestInferBatchIntoTileBounded: a 2708-sample flush leaves both planes
// at most one tile × the widest layer, and warm flushes of that size
// allocate nothing.
func TestInferBatchIntoTileBounded(t *testing.T) {
	nets, xs := tileNets(t)
	for _, name := range []string{"posit(8,0)", "posit(16,1)", "mixed"} {
		m := nets[name]
		s := m.NewInferer()
		dst := make([]float64, len(xs)*m.OutputDim())
		s.InferBatchInto(dst, xs)
		p := passOf(s)
		widest := 0
		for _, e := range p.layers {
			widest = max(widest, e.model.In, e.model.Out)
		}
		for i, pl := range p.planes {
			if cap(pl) > batchTile*widest {
				t.Fatalf("%s: plane %d holds %d codes after a %d-sample flush; want <= %d",
					name, i, cap(pl), len(xs), batchTile*widest)
			}
		}
		if allocs := testing.AllocsPerRun(3, func() { s.InferBatchInto(dst, xs) }); allocs != 0 {
			t.Fatalf("%s: a warm %d-sample flush allocates %v objects; want 0", name, len(xs), allocs)
		}
	}
}
