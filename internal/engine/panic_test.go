package engine

// Panic-isolation contract: a model kernel that panics fails its own
// request with ErrPanic, leaves every other request untouched, keeps the
// worker alive (with a fresh inferer, since the panic may have corrupted
// scratch state) and bumps the panics counter. CI runs this under -race.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
)

// panicModel is a minimal core.Model whose inferer panics whenever the
// first feature is negative ("poisoned" inputs); otherwise it echoes the
// input's first two features as logits.
type panicModel struct{}

type panicInferer struct{}

func (panicModel) NewInferer() core.Inferer             { return panicInferer{} }
func (panicModel) Kind() string                         { return "test" }
func (panicModel) InputDim() int                        { return 2 }
func (panicModel) OutputDim() int                       { return 2 }
func (panicModel) NumLayers() int                       { return 1 }
func (panicModel) Ariths() []emac.Arithmetic            { return nil }
func (panicModel) ArithNames() []string                 { return []string{"test"} }
func (panicModel) Standardizer() *datasets.Standardizer { return nil }
func (panicModel) MemoryBits() int                      { return 0 }
func (panicModel) Save(string) error                    { return errors.New("not serialisable") }
func (panicModel) String() string                       { return "panicModel" }

func (panicInferer) Infer(x []float64) []float64 {
	if x[0] < 0 {
		panic("poisoned input")
	}
	return []float64{x[0], x[1]}
}

func (panicInferer) InferInto(dst []float64, x []float64) []float64 {
	copy(dst, panicInferer{}.Infer(x))
	return dst
}

func (panicInferer) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	for i, x := range xs {
		panicInferer{}.InferInto(dst[i*2:(i+1)*2], x)
	}
	return dst
}

func (panicInferer) Predict(x []float64) int { return 0 }

func (panicInferer) Accuracy(*datasets.Dataset) float64 { return 0 }

func TestWorkerSurvivesPanic(t *testing.T) {
	rt, err := NewRuntime(panicModel{}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// A poisoned batch fails with ErrPanic instead of killing the worker.
	if _, err := rt.InferBatch(context.Background(), [][]float64{{-1, 0}}); !errors.Is(err, ErrPanic) {
		t.Fatalf("poisoned batch: err = %v, want ErrPanic", err)
	}
	if n := rt.Panics(); n != 1 {
		t.Fatalf("Panics = %d, want 1", n)
	}

	// The single worker is still alive and serving: a clean batch works
	// and is computed correctly.
	out, err := rt.InferBatch(context.Background(), [][]float64{{3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("clean batch after panic: %v", err)
	}
	if out[0][0] != 3 || out[1][1] != 6 {
		t.Fatalf("clean batch results corrupted: %v", out)
	}
}

func TestSharedOutputBatchSurfacesPanic(t *testing.T) {
	rt, err := NewRuntime(panicModel{}, WithWorkers(2), WithSharedOutputs())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if _, err := rt.InferBatch(context.Background(), [][]float64{{1, 2}, {-1, 0}}); !errors.Is(err, ErrPanic) {
		t.Fatalf("shared-output poisoned batch: err = %v, want ErrPanic", err)
	}
	// The panic error must not leak into the next (clean) batch.
	out, err := rt.InferBatch(context.Background(), [][]float64{{7, 8}})
	if err != nil {
		t.Fatalf("clean shared batch after panic: %v", err)
	}
	if out[0][0] != 7 {
		t.Fatalf("clean shared batch corrupted: %v", out)
	}
}
