package core

// Tiled-pass execution tests: every session route — InferBatchInto,
// InferInto and Infer (the pass at b=1), the default wrappers, Accuracy
// and StreamInfer — must be bit-identical to the MAC-bank oracle
// (oracle_test.go) for every arm, fused kernels and MAC-bank layers
// alike, for uniform and mixed networks, and allocation-free once the
// planes are warm.

import (
	"fmt"
	"testing"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
)

// irisRepeat is the length the Iris route tests repeat the 50-sample test
// split to, and irisBatches the flush sizes they run: below, at and
// across the 256-sample tile boundary, up to the repeated split.
const irisRepeat = 600

var irisBatches = []int{0, 1, 3, 17, 255, 256, 257, 513, irisRepeat}

// TestInferBatchIntoMatchesPerSample runs the repeated Iris test split
// through every session route for each arm: the fused kernels, and the
// arms whose layers run the MAC bank.
func TestInferBatchIntoMatchesPerSample(t *testing.T) {
	net, test := trainedIris(t)
	ds := repeatSplit(test, irisRepeat)
	drop := emac.NewPosit(8, 0)
	drop.QuireDrop = 6
	for _, a := range []emac.Arithmetic{
		// fused kernels
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
		emac.NewPosit(12, 1), emac.NewPosit(16, 1),
		// the MAC bank
		emac.NewPosit(16, 2), emac.NewPosit(32, 2), emac.NewFloatN(16, 5),
		emac.NewFixed(16, 8), drop, emac.Float32Arith{},
	} {
		name := a.Name()
		if pa, ok := a.(emac.PositArith); ok && pa.QuireDrop > 0 {
			name = fmt.Sprintf("%s quire-%d", name, pa.QuireDrop)
		}
		checkRoutes(t, name, Quantize(net, a), ds, irisBatches, 64)
	}
}

// TestMixedInferBatchIntoMatchesPerSample does the same over a mixed-
// precision network with a format conversion at every boundary.
func TestMixedInferBatchIntoMatchesPerSample(t *testing.T) {
	net, test := trainedIris(t)
	m := QuantizeMixed(net, []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFixed(8, 4), emac.NewFloatN(8, 4),
	})
	checkRoutes(t, "mixed", m, repeatSplit(test, irisRepeat), irisBatches, 64)
}

// TestInferBatchIntoAllocFree: after one warmup flush, InferBatchInto and
// InferInto must not allocate, on the term-table and the exact-window
// tier alike.
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
		logits := dst[:od]
		if allocs := testing.AllocsPerRun(20, func() { s.InferInto(logits, xs[0]) }); allocs != 0 {
			t.Fatalf("%s: InferInto allocates %v objects per sample; want 0", a.Name(), allocs)
		}
	}
}

// TestInferBatchIntoSigmoid covers the posit fast-sigmoid activation with
// a folded standardizer fed raw features, on every route.
func TestInferBatchIntoSigmoid(t *testing.T) {
	net, _ := trainedIris(t)
	rawTrain, rawTest := datasets.IrisSplit(datasets.IrisSeed)
	q := Quantize(net, emac.NewPosit(8, 0))
	q.Sigmoid = true
	q.Stand = datasets.FitStandardizer(rawTrain)
	checkRoutes(t, "sigmoid+standardized", q, repeatSplit(rawTest, irisRepeat), irisBatches, 64)
}

// tileNets builds one network per fused path through the tiled pass
// over a seeded 117-32-16-2 MLP (the Mushroom input width, with two
// hidden layers so activations and conversions run at two boundaries),
// and returns them with the Mushroom test split's 2708 samples. The
// MAC-bank arms run the Iris routes (TestInferBatchIntoMatchesPerSample).
func tileNets(t *testing.T) (map[string]*Network, *datasets.Dataset) {
	t.Helper()
	_, test := datasets.MushroomSplit(datasets.MushroomSeed + 1)
	src := nn.NewMLP([]int{datasets.MushroomOneHotDim(), 32, 16, 2}, rng.New(43))
	nets := map[string]*Network{}
	for _, a := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
		emac.NewPosit(16, 1), // fused exact-window tier
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
	return nets, test
}

// TestInferBatchIntoTiles runs flushes below, at and across the 256-sample
// tile boundary, up to the whole Mushroom test split, and every other
// session route, through each fused path against the MAC-bank oracle.
func TestInferBatchIntoTiles(t *testing.T) {
	nets, test := tileNets(t)
	for name, m := range nets {
		checkRoutes(t, name, m, test, []int{0, 1, 255, 256, 257, 513, test.Len()}, 64)
	}
}

// TestInferBatchIntoBadDstPanicsFirst: a dst of the wrong length panics
// before any sample is quantised or computed, leaving dst and the planes
// untouched.
func TestInferBatchIntoBadDstPanicsFirst(t *testing.T) {
	nets, test := tileNets(t)
	xs := test.X
	for _, name := range []string{"posit(8,0)", "mixed"} {
		m := nets[name]
		s := m.NewSession()
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
		if s.planes[0] != nil || s.planes[1] != nil {
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
	nets, test := tileNets(t)
	xs := test.X
	for _, name := range []string{"posit(8,0)", "posit(16,1)", "mixed"} {
		m := nets[name]
		s := m.NewSession()
		dst := make([]float64, len(xs)*m.OutputDim())
		s.InferBatchInto(dst, xs)
		widest := 0
		for _, e := range s.layers {
			widest = max(widest, e.model.In, e.model.Out)
		}
		for i, pl := range s.planes {
			if cap(pl) > BatchTile*widest {
				t.Fatalf("%s: plane %d holds %d codes after a %d-sample flush; want <= %d",
					name, i, cap(pl), len(xs), BatchTile*widest)
			}
		}
		if allocs := testing.AllocsPerRun(3, func() { s.InferBatchInto(dst, xs) }); allocs != 0 {
			t.Fatalf("%s: a warm %d-sample flush allocates %v objects; want 0", name, len(xs), allocs)
		}
	}
}
