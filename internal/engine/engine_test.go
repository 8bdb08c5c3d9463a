package engine

import (
	"context"
	"runtime"
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

func TestInferBatchMatchesSerial(t *testing.T) {
	for _, a := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4), emac.Float32Arith{},
	} {
		net, ds := fixture(a, 200)
		want := make([][]float64, len(ds.X))
		s := net.NewSession()
		for i, x := range ds.X {
			want[i] = s.Infer(x)
		}
		rt := startRuntime(t, net, 8)
		if rt.Workers() != 8 {
			t.Fatalf("workers = %d", rt.Workers())
		}
		got, err := rt.InferBatch(context.Background(), ds.X)
		if err != nil {
			t.Fatal(err)
		}
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
	net, ds := fixture(emac.NewPosit(8, 0), 300)
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

func TestStreaming(t *testing.T) {
	net, ds := fixture(emac.NewFixed(8, 4), 100)
	want := make([][]float64, len(ds.X))
	s := net.NewSession()
	for i, x := range ds.X {
		want[i] = s.Infer(x)
	}
	rt := startRuntime(t, net, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	seen := make([]bool, len(ds.X))
	go func() {
		defer wg.Done()
		for res := range rt.Results() {
			if seen[res.ID] {
				t.Errorf("duplicate result id %d", res.ID)
			}
			seen[res.ID] = true
			for j := range res.Logits {
				if res.Logits[j] != want[res.ID][j] {
					t.Errorf("id %d logit %d: %v != %v", res.ID, j, res.Logits[j], want[res.ID][j])
				}
			}
			if res.Class != nn.Argmax(want[res.ID]) {
				t.Errorf("id %d class %d", res.ID, res.Class)
			}
		}
	}()
	for i, x := range ds.X {
		if err := rt.Submit(context.Background(), i, x); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close() // drains in-flight work, closes Results
	wg.Wait()
	for i, ok := range seen {
		if !ok {
			t.Fatalf("result %d never arrived", i)
		}
	}
}

func TestConcurrentBatches(t *testing.T) {
	net, ds := fixture(emac.NewFloatN(8, 4), 60)
	s := net.NewSession()
	want := make([][]float64, len(ds.X))
	for i, x := range ds.X {
		want[i] = s.Infer(x)
	}
	rt := startRuntime(t, net, 4)
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
	if _, ok := <-rt.Results(); ok {
		t.Fatal("results channel open after Close")
	}
}
