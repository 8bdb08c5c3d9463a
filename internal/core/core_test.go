package core

import (
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dyadic"
	"repro/internal/emac"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/rng"
)

// trainedIris returns a small trained float network and its test split
// (cached across tests in this package).
var cachedNet *nn.Network
var cachedTest *datasets.Dataset

func trainedIris(t *testing.T) (*nn.Network, *datasets.Dataset) {
	t.Helper()
	if cachedNet != nil {
		return cachedNet, cachedTest
	}
	train, test := datasets.IrisSplit(datasets.IrisSeed)
	strain, stest := datasets.Standardize(train, test)
	net := nn.NewMLP([]int{4, 10, 6, 3}, rng.New(7))
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 60
	nn.Train(net, strain, cfg)
	cachedNet, cachedTest = net, stest
	return net, stest
}

func TestQuantizePreservesShape(t *testing.T) {
	net, _ := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	fanins, widths := q.Shape()
	if len(fanins) != 3 || fanins[0] != 4 || widths[2] != 3 {
		t.Fatalf("shape %v %v", fanins, widths)
	}
	if q.String() != "DeepPositron[posit(8,0): 4-10-6-3]" {
		t.Errorf("String = %s", q.String())
	}
}

func TestInferMatchesFloatReference(t *testing.T) {
	// With a high-precision posit format the quantised network must
	// agree with the float64 reference on (almost) every prediction.
	net, test := trainedIris(t)
	q := Quantize(net, emac.NewPosit(24, 2))
	agree := 0
	for i := range test.X {
		if q.Predict(test.X[i]) == net.Predict(test.X[i]) {
			agree++
		}
	}
	if agree < test.Len()-1 {
		t.Errorf("posit(24,2) agrees on only %d/%d predictions", agree, test.Len())
	}
}

func TestAccuracy8BitPosit(t *testing.T) {
	net, test := trainedIris(t)
	ref := nn.Accuracy(net, test)
	q := Quantize(net, emac.NewPosit(8, 0))
	acc := q.Accuracy(test)
	if acc < ref-0.06 {
		t.Errorf("posit(8,0) accuracy %.3f dropped too far from %.3f", acc, ref)
	}
	t.Logf("Iris: float64 %.3f, posit(8,0) %.3f", ref, acc)
}

// TestEMACNeuronMatchesQuire cross-checks one neuron of the quantised
// network against a hand-built dyadic computation.
func TestEMACNeuronMatchesQuire(t *testing.T) {
	net, test := trainedIris(t)
	a := emac.NewPosit(8, 1)
	q := Quantize(net, a)
	layer := q.Layers[0]
	x := make([]emac.Code, layer.In)
	quantizeInto(x, test.X[0], a, nil)
	// neuron 0 by hand, exactly
	exact := dyadic.FromFloat64(a.Decode(layer.B[0]))
	for i, c := range x {
		w := dyadic.FromFloat64(a.Decode(layer.W[0][i]))
		v := dyadic.FromFloat64(a.Decode(c))
		exact = exact.Add(w.Mul(v))
	}
	want := a.Decode(a.Quantize(exact.Float64()))
	mac := a.NewMAC(layer.In)
	mac.Reset(layer.B[0])
	for i, c := range x {
		mac.Step(layer.W[0][i], c)
	}
	got := a.Decode(mac.Result())
	if got != want {
		t.Fatalf("neuron EMAC %g want %g", got, want)
	}
}

func TestCyclesAndMemory(t *testing.T) {
	net, _ := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	// 4-10-6-3: cycles = (4+4)+(10+4)+(6+4) = 32
	if got := q.Cycles(); got != 32 {
		t.Errorf("cycles = %d", got)
	}
	// params = 4*10+10 + 10*6+6 + 6*3+3 = 50+66+21 = 137; ×8 bits
	if got := q.MemoryBits(); got != 137*8 {
		t.Errorf("memory = %d bits", got)
	}
	// float32 costs 4× the memory of the 8-bit formats
	q32 := Quantize(net, emac.Float32Arith{})
	if q32.MemoryBits() != 4*q.MemoryBits() {
		t.Error("32-bit memory must be 4× the 8-bit memory")
	}
}

func TestPipelineDepthInSync(t *testing.T) {
	if pipelineDepth != hw.PipelineDepth {
		t.Fatalf("core pipelineDepth %d != hw.PipelineDepth %d", pipelineDepth, hw.PipelineDepth)
	}
}

func TestCandidates(t *testing.T) {
	posits, floats, fixeds := Candidates(8)
	if len(posits) != 4 { // es 0..3
		t.Errorf("posit candidates: %d", len(posits))
	}
	if len(floats) != 5 { // we 2..6
		t.Errorf("float candidates: %d", len(floats))
	}
	if len(fixeds) != 7 { // q 1..7
		t.Errorf("fixed candidates: %d", len(fixeds))
	}
	// n=5: posit es limited to {0,1,2} (es+3 <= n), float we {2,3}
	posits, floats, _ = Candidates(5)
	if len(posits) != 3 || len(floats) != 2 {
		t.Errorf("n=5 candidates: %d posits %d floats", len(posits), len(floats))
	}
}

func TestBestPerFamilyOrdering(t *testing.T) {
	net, test := trainedIris(t)
	fb := BestPerFamily(net, test, 8)
	// Every family's best must be within sane bounds.
	for _, r := range []Result{fb.Posit, fb.Float, fb.Fixed} {
		if r.Accuracy < 0.3 || r.Accuracy > 1 {
			t.Errorf("%s accuracy %.3f implausible", r.Arith.Name(), r.Accuracy)
		}
	}
	// Paper claim on Iris at 8 bits: posit matches or beats the other
	// families. This test trains a small throwaway network, so allow a
	// one-sample (2%) swing on the 50-sample inference split; the
	// full-strength assertion (with the tuned training recipe) lives in
	// internal/experiments.
	const oneSample = 0.0201
	if fb.Posit.Accuracy < fb.Float.Accuracy-oneSample {
		t.Errorf("posit %.3f < float %.3f on Iris at 8 bits",
			fb.Posit.Accuracy, fb.Float.Accuracy)
	}
	if fb.Posit.Accuracy < fb.Fixed.Accuracy-oneSample {
		t.Errorf("posit %.3f < fixed %.3f on Iris at 8 bits",
			fb.Posit.Accuracy, fb.Fixed.Accuracy)
	}
	t.Logf("Iris 8-bit best: posit %s %.3f | float %s %.3f | fixed %s %.3f",
		fb.Posit.Arith.Name(), fb.Posit.Accuracy,
		fb.Float.Arith.Name(), fb.Float.Accuracy,
		fb.Fixed.Arith.Name(), fb.Fixed.Accuracy)
}

func TestEvaluateSorted(t *testing.T) {
	net, test := trainedIris(t)
	posits, _, _ := Candidates(6)
	rs := Evaluate(net, test, posits)
	for i := 1; i < len(rs); i++ {
		if rs[i].Accuracy > rs[i-1].Accuracy {
			t.Fatal("Evaluate results must be sorted best-first")
		}
	}
}

func TestSigmoidActivation(t *testing.T) {
	net, test := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	q.Sigmoid = true
	// The net was trained with ReLU, so accuracy will differ — the
	// point is that the path works and stays in range.
	acc := q.Accuracy(test)
	if acc < 0 || acc > 1 {
		t.Fatalf("sigmoid accuracy %v", acc)
	}
	// Sigmoid with es!=0 must panic.
	q2 := Quantize(net, emac.NewPosit(8, 1))
	q2.Sigmoid = true
	defer func() {
		if recover() == nil {
			t.Fatal("sigmoid with es=1 must panic")
		}
	}()
	q2.Infer(test.X[0])
}

func TestInferPanicsOnBadInput(t *testing.T) {
	net, _ := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size must panic")
		}
	}()
	q.Infer([]float64{1, 2})
}

func TestFixedQSweepMatters(t *testing.T) {
	// Different q choices must produce different accuracies on Iris —
	// the reason the paper sweeps the parameter.
	net, test := trainedIris(t)
	_, _, fixeds := Candidates(8)
	rs := Evaluate(net, test, fixeds)
	if rs[0].Accuracy == rs[len(rs)-1].Accuracy {
		t.Skip("degenerate: all q equal on this seed")
	}
	if rs[0].Accuracy-rs[len(rs)-1].Accuracy < 0.02 {
		t.Logf("q sweep spread only %.3f", rs[0].Accuracy-rs[len(rs)-1].Accuracy)
	}
}

func TestQuantizedBetterThanChance(t *testing.T) {
	net, test := trainedIris(t)
	for _, a := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
		emac.Float32Arith{},
	} {
		q := Quantize(net, a)
		if acc := q.Accuracy(test); acc < 0.5 {
			t.Errorf("%s: accuracy %.3f below chance level", a.Name(), acc)
		}
	}
}

func TestFloat32MatchesNNForward32(t *testing.T) {
	net, test := trainedIris(t)
	q := Quantize(net, emac.Float32Arith{})
	for i := range test.X {
		a := q.Predict(test.X[i])
		b := net.Predict32(test.X[i])
		if a != b {
			// The two float32 paths round inputs at slightly different
			// points; allow only logit-tie level disagreement.
			la := q.Infer(test.X[i])
			lb := net.Forward32(test.X[i])
			diff := 0.0
			for k := range la {
				diff = math.Max(diff, math.Abs(la[k]-lb[k]))
			}
			if diff > 1e-5 {
				t.Fatalf("float32 paths diverge at %d: %v vs %v", i, la, lb)
			}
		}
	}
}
