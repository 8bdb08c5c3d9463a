package positron

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// The facade tests exercise the public API exactly as the examples do.

func TestFacadePositRoundTrip(t *testing.T) {
	f := MustPositFormat(8, 0)
	p := f.FromFloat64(1.5)
	if p.Float64() != 1.5 {
		t.Fatalf("posit(8,0) 1.5 -> %g", p.Float64())
	}
	if got := p.Mul(f.FromFloat64(2)).Float64(); got != 3 {
		t.Fatalf("1.5*2 = %g", got)
	}
}

func TestFacadeQuire(t *testing.T) {
	f := MustPositFormat(8, 1)
	q := NewQuire(f, 4)
	for i := 0; i < 4; i++ {
		q.MulAdd(f.FromFloat64(0.5), f.FromFloat64(0.5))
	}
	if got := q.Result().Float64(); got != 1 {
		t.Fatalf("4 × 0.25 = %g", got)
	}
	w := []Posit{f.FromFloat64(1), f.FromFloat64(2)}
	a := []Posit{f.FromFloat64(3), f.FromFloat64(-1)}
	if got := PositDot(w, a).Float64(); got != 1 {
		t.Fatalf("dot = %g", got)
	}
}

func TestFacadeFormats(t *testing.T) {
	if _, err := NewPositFormat(2, 0); err == nil {
		t.Error("invalid posit format accepted")
	}
	if _, err := NewFloatFormat(4, 3); err != nil {
		t.Error(err)
	}
	if _, err := NewFixedFormat(8, 4); err != nil {
		t.Error(err)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	train, test := IrisSplit(42)
	strain, stest := Standardize(train, test)
	net := NewMLP([]int{4, 8, 3}, 1)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 40
	Train(net, strain, cfg)
	ref := Accuracy(net, stest)
	dp := QuantizeNetwork(net, PositArith(8, 0))
	acc := dp.Accuracy(stest)
	if acc < ref-0.1 {
		t.Errorf("posit(8,0) %.3f far below float64 %.3f", acc, ref)
	}
	// hardware costing through the facade
	rep, ok := Synthesize(PositArith(8, 0), 16)
	if !ok || rep.FMaxMHz <= 0 {
		t.Fatal("Synthesize failed")
	}
	cost := NetworkCost(rep, dp)
	if cost.LatencyNs <= 0 || cost.EnergyJ <= 0 {
		t.Error("degenerate network cost")
	}
	if _, ok := Synthesize(Float32Baseline(), 16); ok {
		t.Error("float32 baseline must not synthesize")
	}
}

func TestFacadeBestConfig(t *testing.T) {
	train, test := IrisSplit(42)
	strain, stest := Standardize(train, test)
	net := NewMLP([]int{4, 8, 3}, 1)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 30
	Train(net, strain, cfg)
	posits, floats, fixeds := Candidates(8)
	if len(posits) == 0 || len(floats) == 0 || len(fixeds) == 0 {
		t.Fatal("empty candidate sets")
	}
	best := BestConfig(net, stest, posits)
	if best.Accuracy < 0.5 {
		t.Errorf("best posit accuracy %.3f", best.Accuracy)
	}
}

// TestFacadeServingPath walks the deployment story end to end through
// the public API: train, quantise (mixed precision), save the versioned
// artifact, reload it behind Model, and serve it with a context-aware
// Runtime — bit-identical to a serial Inferer.
func TestFacadeServingPath(t *testing.T) {
	train, test := IrisSplit(42)
	std := FitStandardizer(train)
	net := NewMLP([]int{4, 8, 3}, 1)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 30
	Train(net, std.Apply(train), cfg)

	mixed := QuantizeMixed(net, []Arithmetic{PositArith(8, 0), FixedArith(8, 4)})
	mixed.Stand = std // serve raw features
	path := filepath.Join(t.TempDir(), "iris-mixed.json")
	if err := mixed.Save(path); err != nil {
		t.Fatal(err)
	}
	model, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if model.Kind() != "mixed" || model.InputDim() != 4 || model.OutputDim() != 3 {
		t.Fatalf("model metadata: %s %s", model.Kind(), model)
	}

	rt, err := NewRuntime(model, WithWorkers(4), WithWarmTables(), WithQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.InferBatch(context.Background(), test.X)
	if err != nil {
		t.Fatal(err)
	}
	serial := model.NewInferer()
	for i, x := range test.X {
		want := serial.Infer(x)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("sample %d logit %d: runtime %v != inferer %v", i, j, got[i][j], want[j])
			}
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.InferBatch(context.Background(), test.X); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("InferBatch after Close = %v, want ErrRuntimeClosed", err)
	}
}

// TestFacadeRegistryServing walks the multi-model serving story through
// the public API: two models (posit8 uniform + mixed) in one registry,
// micro-batched inference bit-identical to a serial Inferer, metrics,
// and graceful unload.
func TestFacadeRegistryServing(t *testing.T) {
	train, test := IrisSplit(42)
	std := FitStandardizer(train)
	net := NewMLP([]int{4, 8, 3}, 1)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 30
	Train(net, std.Apply(train), cfg)

	uni := QuantizeNetwork(net, PositArith(8, 0))
	uni.Stand = std
	mixed := QuantizeMixed(net, []Arithmetic{PositArith(8, 0), FixedArith(8, 4)})
	mixed.Stand = std

	reg := NewRegistry(
		WithRuntimeOptions(WithWorkers(2), WithWarmTables()),
		WithMaxBatch(16),
	)
	defer reg.Close()
	if err := reg.Load("posit8", uni); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("mixed", mixed); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("posit8", uni); !errors.Is(err, ErrModelExists) {
		t.Fatalf("duplicate load: %v", err)
	}

	for _, name := range []string{"posit8", "mixed"} {
		h, err := reg.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Batcher().Infer(context.Background(), test.X[0])
		if err != nil {
			t.Fatal(err)
		}
		want := h.Model().NewInferer().Infer(test.X[0])
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s logit %d: batched %v != serial %v", name, j, got[j], want[j])
			}
		}
		h.Release()
	}

	stats := reg.Stats()
	if len(stats) != 2 || stats[0].Name != "mixed" || stats[1].Name != "posit8" {
		t.Fatalf("stats: %+v", stats)
	}
	if stats[0].Metrics.Requests != 1 {
		t.Fatalf("mixed metrics: %+v", stats[0].Metrics)
	}

	if err := reg.Unload("mixed"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Acquire("mixed"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("acquire after unload: %v", err)
	}

	// The HTTP surface is public too.
	srv := NewServer(reg, "posit8")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/models", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"posit8"`) {
		t.Fatalf("/v1/models = %d %s", rec.Code, rec.Body.String())
	}
}

// TestFacadeParseArithmetic pins the CLI-facing spec grammar.
func TestFacadeParseArithmetic(t *testing.T) {
	for spec, want := range map[string]string{
		"posit(8,0)":   "posit(8,0)",
		"float(8,4)":   "float(8: we=4,wf=3)",
		"fixed(8,4)":   "fixed(8,q=4)",
		"fixed(8,q=4)": "fixed(8,q=4)",
		"float32":      "float32",
	} {
		a, err := ParseArithmetic(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if a.Name() != want {
			t.Fatalf("%s -> %s, want %s", spec, a.Name(), want)
		}
	}
	for _, bad := range []string{
		"posit(2,0)", "float(8,9)", "quaternion(8)", "",
		"posit(8,0)x", "fixed(8,4)garbage", "float32x",
	} {
		if _, err := ParseArithmetic(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}
