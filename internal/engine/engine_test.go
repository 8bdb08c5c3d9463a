package engine

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
)

// fixture builds a quantised network and a synthetic dataset (no
// training needed: bit-identity is a property of the datapath, not of
// accuracy).
func fixture(a emac.Arithmetic, samples int) (*core.Network, *datasets.Dataset) {
	src := nn.NewMLP([]int{12, 16, 8, 3}, rng.New(5))
	net := core.Quantize(src, a)
	r := rng.New(6)
	ds := &datasets.Dataset{Name: "synthetic", NumClasses: 3}
	for i := 0; i < samples; i++ {
		x := make([]float64, 12)
		for j := range x {
			x[j] = r.NormMS(0, 1)
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, i%3)
	}
	return net, ds
}

// splitN is the batch size the bit-identity and lifecycle tests run:
// 2×core.BatchTile+1 samples, one more than the smallest batch the pool
// splits, so it splits unevenly (256 + 257 samples on two or more
// workers) and each test crosses a chunk boundary.
const splitN = 2*core.BatchTile + 1

// startRuntime starts a pool of the given size over net (workers <= 0
// selects GOMAXPROCS), closed when the test ends.
func startRuntime(t *testing.T, net core.Model, workers int) *Runtime {
	t.Helper()
	rt, err := NewRuntime(net, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// wantChunks fails the test unless m's inferers have served exactly the
// given chunk sizes, in any order.
func wantChunks(t *testing.T, m *chunkModel, chunks ...int) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	slices.Sort(m.sizes)
	if want := slices.Sorted(slices.Values(chunks)); !slices.Equal(m.sizes, want) {
		t.Fatalf("chunks %v, want %v", m.sizes, want)
	}
}

func TestInferBatchMatchesSerial(t *testing.T) {
	for _, a := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4), emac.Float32Arith{},
	} {
		net, ds := fixture(a, 4*core.BatchTile+3)
		want := make([][]float64, len(ds.X))
		s := net.NewSession()
		for i, x := range ds.X {
			want[i] = s.Infer(x)
		}
		m := &chunkModel{Model: net}
		rt := startRuntime(t, m, 8)
		if rt.Workers() != 8 {
			t.Fatalf("workers = %d", rt.Workers())
		}
		got, err := rt.InferBatch(context.Background(), ds.X)
		if err != nil {
			t.Fatal(err)
		}
		wantChunks(t, m, 256, 257, 257, 257)
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s sample %d logit %d: %v != %v", a.Name(), i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestAccuracyMatchesCore(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), splitN)
	rt := startRuntime(t, net, 0) // GOMAXPROCS workers
	if rt.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers = %d", rt.Workers())
	}
	got, err := rt.Accuracy(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if want := net.Accuracy(ds); got != want {
		t.Fatalf("runtime accuracy %v != core accuracy %v", got, want)
	}
}

func TestConcurrentBatches(t *testing.T) {
	net, ds := fixture(emac.NewFloatN(8, 4), splitN)
	s := net.NewSession()
	want := make([][]float64, len(ds.X))
	for i, x := range ds.X {
		want[i] = s.Infer(x)
	}
	m := &chunkModel{Model: net}
	rt := startRuntime(t, m, 4)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := rt.InferBatch(context.Background(), ds.X)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range got {
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Errorf("sample %d: %v != %v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	wantChunks(t, m, slices.Repeat([]int{256, 257}, 6)...)
}

func TestCloseIdempotent(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt := startRuntime(t, net, 2)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil { // a second close is a no-op
		t.Fatal(err)
	}
}

// chunkModel wraps a model so that every inferer records the size of
// each InferBatchInto call it serves.
type chunkModel struct {
	core.Model
	mu    sync.Mutex
	sizes []int
}

func (m *chunkModel) NewInferer() core.Inferer {
	return chunkInferer{Inferer: m.Model.NewInferer(), m: m}
}

type chunkInferer struct {
	core.Inferer
	m *chunkModel
}

func (c chunkInferer) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	c.m.mu.Lock()
	c.m.sizes = append(c.m.sizes, len(xs))
	c.m.mu.Unlock()
	return c.Inferer.InferBatchInto(dst, xs)
}

// TestInferBatchChunksWholeTiles: a batch is split over the pool only
// into chunks of at least one forward-pass tile (core.BatchTile = 256
// samples), at most one per worker and as even as the split allows, and
// the logits stay bit-identical to one session's.
func TestInferBatchChunksWholeTiles(t *testing.T) {
	if core.BatchTile != 256 {
		t.Fatalf("core.BatchTile = %d; the chunk table below assumes 256", core.BatchTile)
	}
	net, ds := fixture(emac.NewPosit(8, 0), 2708)
	od := net.OutputDim()
	want := net.NewSession().InferBatchInto(make([]float64, len(ds.X)*od), ds.X)
	for _, c := range []struct {
		n       int
		workers int
		chunks  []int // sorted
	}{
		{1, 1, []int{1}}, {1, 2, []int{1}}, {1, 4, []int{1}},
		{64, 1, []int{64}}, {64, 2, []int{64}}, {64, 4, []int{64}},
		{255, 1, []int{255}}, {255, 2, []int{255}}, {255, 4, []int{255}},
		{256, 1, []int{256}}, {256, 2, []int{256}}, {256, 4, []int{256}},
		{511, 1, []int{511}}, {511, 2, []int{511}}, {511, 4, []int{511}},
		{512, 1, []int{512}}, {512, 2, []int{256, 256}}, {512, 4, []int{256, 256}},
		{513, 1, []int{513}}, {513, 2, []int{256, 257}}, {513, 4, []int{256, 257}},
		{2708, 1, []int{2708}}, {2708, 2, []int{1354, 1354}}, {2708, 4, []int{677, 677, 677, 677}},
	} {
		m := &chunkModel{Model: net}
		rt := startRuntime(t, m, c.workers)
		got, err := rt.InferBatch(context.Background(), ds.X[:c.n])
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(m.sizes)
		if !slices.Equal(m.sizes, c.chunks) {
			t.Errorf("%d samples on %d workers: chunks %v, want %v", c.n, c.workers, m.sizes, c.chunks)
		}
		for i := range got {
			for j, v := range got[i] {
				if math.Float64bits(v) != math.Float64bits(want[i*od+j]) {
					t.Fatalf("%d samples on %d workers: sample %d logit %d: %v != %v", c.n, c.workers, i, j, v, want[i*od+j])
				}
			}
		}
		_ = rt.Close()
	}
}
