package engine

// Panic-isolation contract: a model kernel, or an inferer's
// construction, that panics fails its own request with ErrPanic, leaves
// every other request untouched, keeps the worker alive (with a fresh
// inferer, since the panic may have corrupted scratch state) and bumps
// the panics counter. CI runs this under -race.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
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
func (panicModel) Validate() error                      { return nil }
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

// cleanBatch returns n copies of the clean input {1, 2}.
func cleanBatch(n int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{1, 2}
	}
	return xs
}

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

// TestSharedOutputBatchSurfacesPanic: a batch split into a clean chunk
// and a poisoned one fails with the poisoned chunk's ErrPanic, on the
// caller-owned path and in a leased slot alike, and the error does not
// leak into the slot's next batch.
func TestSharedOutputBatchSurfacesPanic(t *testing.T) {
	rt, err := NewRuntime(panicModel{}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	slot, err := rt.AcquireFlushSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer slot.Release()

	xs := make([][]float64, 2*core.BatchTile) // chunks [0, 256) and [256, 512)
	for i := range xs {
		xs[i] = []float64{1, 2}
	}
	xs[core.BatchTile+1] = []float64{-1, 0}
	for i, route := range []struct {
		name  string
		infer func(context.Context, [][]float64) ([][]float64, error)
	}{{"caller-owned", rt.InferBatch}, {"slot", slot.InferBatch}} {
		_, err = route.infer(context.Background(), xs)
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("%s poisoned batch: err = %v, want ErrPanic", route.name, err)
		}
		if want := fmt.Sprintf("chunk at input %d:", core.BatchTile); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s poisoned batch: err = %v, want it to name the chunk at input %d", route.name, err, core.BatchTile)
		}
		if n := rt.Panics(); n != int64(i+1) {
			t.Fatalf("%s: Panics = %d, want %d (only the second chunk is poisoned)", route.name, n, i+1)
		}
	}
	// The panic error must not leak into the slot's next (clean) batch.
	out, err := slot.InferBatch(context.Background(), [][]float64{{7, 8}})
	if err != nil {
		t.Fatalf("clean slot batch after panic: %v", err)
	}
	if out[0][0] != 7 {
		t.Fatalf("clean slot batch corrupted: %v", out)
	}
}

// TestSpawnedChunkPanicIsRecovered: a batch's earlier chunks run on
// goroutines of their own, off the caller's stack, and a panic in one
// fails the batch with ErrPanic naming that chunk, as a panic in the
// caller's own chunk does.
func TestSpawnedChunkPanicIsRecovered(t *testing.T) {
	rt, err := NewRuntime(panicModel{}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	xs := cleanBatch(2 * core.BatchTile) // chunks [0, 256) and [256, 512)
	xs[1] = []float64{-1, 0}
	_, err = rt.InferBatch(context.Background(), xs)
	if !errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), "chunk at input 0:") {
		t.Fatalf("poisoned first chunk: err = %v, want ErrPanic naming the chunk at input 0", err)
	}
	if n := rt.Panics(); n != 1 {
		t.Fatalf("Panics = %d, want 1", n)
	}
}

// buildPanicModel is panicModel whose NewInferer panics on every
// odd-numbered call: a worker's first build, and the first rebuild after
// a task panicked.
type buildPanicModel struct {
	panicModel
	builds *atomic.Int64
}

func (m buildPanicModel) NewInferer() core.Inferer {
	if m.builds.Add(1)%2 == 1 {
		panic("inferer construction failed")
	}
	return panicInferer{}
}

// TestWorkerSurvivesInfererConstructionPanic: a panic while a worker
// builds its inferer fails that task with ErrPanic and counts as a panic,
// and the worker builds again on its next task instead of dying with the
// process.
func TestWorkerSurvivesInfererConstructionPanic(t *testing.T) {
	m := buildPanicModel{builds: new(atomic.Int64)}
	rt, err := NewRuntime(m, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	clean, poisoned := [][]float64{{3, 4}}, [][]float64{{-1, 0}}
	for i, step := range []struct {
		xs     [][]float64
		builds int64
	}{
		{clean, 1},    // the first build panics
		{poisoned, 2}, // the second build serves, and the input panics
		{clean, 3},    // the rebuild after that panic panics too
	} {
		if _, err := rt.InferBatch(context.Background(), step.xs); !errors.Is(err, ErrPanic) {
			t.Fatalf("batch %d: err = %v, want ErrPanic", i, err)
		}
		if n := rt.Panics(); n != int64(i+1) {
			t.Fatalf("batch %d: Panics = %d, want %d", i, n, i+1)
		}
		if n := m.builds.Load(); n != step.builds {
			t.Fatalf("batch %d: %d inferer builds, want %d", i, n, step.builds)
		}
	}
	out, err := rt.InferBatch(context.Background(), clean)
	if err != nil {
		t.Fatalf("clean batch after construction panics: %v", err)
	}
	if out[0][0] != 3 || out[0][1] != 4 {
		t.Fatalf("clean batch results corrupted: %v", out)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}
