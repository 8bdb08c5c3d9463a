package registry

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emac"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/rng"
)

// testModel quantises a small deterministic MLP; in/out dims match the
// Iris topology so inputs are cheap to fabricate.
func testModel(seed uint64, a emac.Arithmetic) core.Model {
	net := nn.NewMLP([]int{4, 8, 3}, rng.New(seed))
	return core.Quantize(net, a)
}

func posit8Model(seed uint64) core.Model { return testModel(seed, emac.NewPosit(8, 0)) }

func testInput(i int) []float64 {
	return []float64{float64(i%7) - 3, 0.5, float64(i % 3), -1.25}
}

func TestLoadAcquireUnload(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(2)))
	defer r.Close()
	if err := r.Load("iris", posit8Model(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("iris", posit8Model(2)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate load: %v, want ErrExists", err)
	}
	if got := r.Names(); len(got) != 1 || got[0] != "iris" {
		t.Fatalf("Names = %v", got)
	}

	h, err := r.Acquire("iris")
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Batcher().Infer(context.Background(), testInput(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d logits", len(out))
	}
	h.Release()

	if err := r.Unload("iris"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("iris"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("acquire after unload: %v, want ErrNotFound", err)
	}
	if err := r.Unload("iris"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double unload: %v, want ErrNotFound", err)
	}
}

// TestSharedOutputsTracksBatching: every entry's runtime owns the
// engine's default flush pipeline, so the batcher's flushes pipeline
// without any registry option.
func TestSharedOutputsTracksBatching(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	t.Cleanup(func() { r.Close() })
	if err := r.Load("m", posit8Model(20)); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	// Released before the registry closes, even on failure: a held
	// handle would block Close on the entry's drain.
	t.Cleanup(h.Release)
	if d := h.Runtime().FlushPipelineDepth(); d != engine.DefaultFlushPipeline {
		t.Fatalf("FlushPipelineDepth = %d, want %d", d, engine.DefaultFlushPipeline)
	}
}

// TestRuntimeOptionsSetFlushPipeline: the flush-pipeline depth given in
// WithRuntimeOptions reaches the served runtime, its stat record and its
// batcher, which runs that many lone flushes before a call queues.
func TestRuntimeOptionsSetFlushPipeline(t *testing.T) {
	h, open := newParkingRegistry(t, WithRuntimeOptions(engine.WithFlushPipeline(3)))
	st, err := h.r.Stat("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.FlushPipeline != 3 {
		t.Fatalf("Stat FlushPipeline = %d, want 3", st.FlushPipeline)
	}
	if n := h.Batcher().Flushing(); n != 3 {
		t.Fatalf("%d flushes running with 3 planes pinned, want 3", n)
	}
	done := make(chan error, 1)
	go func() {
		_, err := h.Batcher().Infer(context.Background(), testInput(3))
		done <- err
	}()
	waitFor(t, "a fourth call queueing", func() bool { return h.Batcher().Queued() == 1 })
	open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestHandleRuntimeInferBatchIsCallerOwned: a served model's runtime
// hands every InferBatch call rows of its own, so goroutines calling it
// beside each other, with different inputs, each read their own logits.
// CI runs it under -race.
func TestHandleRuntimeInferBatchIsCallerOwned(t *testing.T) {
	h := newAdmissionRegistry(t)
	ref := h.Model().NewInferer()
	inputs := [2][][]float64{{testInput(0)}, {testInput(1)}}
	want := [2][]float64{ref.Infer(inputs[0][0]), ref.Infer(inputs[1][0])}
	if want[0][0] == want[1][0] {
		t.Fatalf("inputs share their first logit %v; pick inputs that differ", want[0][0])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 2
				out, err := h.Runtime().InferBatch(context.Background(), inputs[k])
				if err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched() // let another caller's batch land before this one reads
				for j, v := range want[k] {
					if out[0][j] != v {
						t.Errorf("goroutine %d call %d logit %d: %v, want %v", g, i, j, out[0][j], v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestInvalidNames(t *testing.T) {
	r := New()
	defer r.Close()
	for _, name := range []string{"", "a/b", "a b", "héllo", ".", ".."} {
		if err := r.Load(name, posit8Model(1)); err == nil {
			t.Errorf("Load(%q) succeeded, want error", name)
		}
	}
	for _, name := range []string{"iris", "wbc-8.4", "A_b.c-2"} {
		if err := r.Load(name, posit8Model(1)); err != nil {
			t.Errorf("Load(%q): %v", name, err)
		}
	}
}

// TestUnloadWaitsForHandles: unload must not close the runtime while a
// handle (an in-flight request) is outstanding.
func TestUnloadWaitsForHandles(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	if err := r.Load("m", posit8Model(3)); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}

	unloaded := make(chan struct{})
	go func() {
		if err := r.Unload("m"); err != nil {
			t.Error(err)
		}
		close(unloaded)
	}()

	// The name disappears promptly even while the handle pins the entry.
	deadline := time.Now().Add(2 * time.Second)
	for r.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("entry still listed while unloading")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-unloaded:
		t.Fatal("Unload returned while a handle was outstanding")
	case <-time.After(50 * time.Millisecond):
	}

	// The pinned entry still serves.
	if _, err := h.Batcher().Infer(context.Background(), testInput(1)); err != nil {
		t.Fatalf("infer on pinned handle: %v", err)
	}
	h.Release()
	select {
	case <-unloaded:
	case <-time.After(5 * time.Second):
		t.Fatal("Unload did not return after the last release")
	}
	// The drained runtime is closed.
	if _, err := h.Runtime().InferBatch(context.Background(), [][]float64{testInput(2)}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("runtime after unload: %v, want ErrClosed", err)
	}
}

// TestConcurrentLifecycle hammers one model name from 8 goroutines that
// each load, infer and unload in a loop — run under -race this is the
// registry's central concurrency contract.
func TestConcurrentLifecycle(t *testing.T) {
	r := New(
		WithRuntimeOptions(engine.WithWorkers(1)),
		WithMaxBatch(4),
	)
	defer r.Close()
	model := posit8Model(4)

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch err := r.Load("shared", model); {
				case err == nil, errors.Is(err, ErrExists):
				default:
					t.Errorf("g%d load: %v", g, err)
					return
				}
				h, err := r.Acquire("shared")
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // another goroutine unloaded first
					}
					t.Errorf("g%d acquire: %v", g, err)
					return
				}
				_, err = h.Batcher().Infer(context.Background(), testInput(g*iters+i))
				if err != nil && !errors.Is(err, ErrBatcherClosed) && !errors.Is(err, engine.ErrClosed) {
					t.Errorf("g%d infer: %v", g, err)
				}
				h.Release()
				if err := r.Unload("shared"); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("g%d unload: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLoadBytes is the upload path: a serialised artifact loads from raw
// JSON and serves identically to the in-memory model.
func TestLoadBytes(t *testing.T) {
	model := posit8Model(5)
	data, err := json.Marshal(model.(json.Marshaler))
	if err != nil {
		t.Fatal(err)
	}
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	if err := r.LoadBytes("up", data); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("up")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	x := testInput(6)
	got, err := h.Batcher().Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	want := model.NewInferer().Infer(x)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("logit %d: %v != %v", j, got[j], want[j])
		}
	}

	if err := r.LoadBytes("bad", []byte("{not json")); err == nil {
		t.Fatal("malformed artifact loaded")
	}
}

// TestLoadBytesRejectsInvalidSigmoid: an uploaded JSON artifact whose
// sigmoid flag no session can apply — on a mixed network, empty or not,
// or on a uniform one over fixed point — fails to parse, so nothing
// reaches the store.
func TestLoadBytesRejectsInvalidSigmoid(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	for name, body := range map[string]string{
		"empty mixed": `{"version":1,"kind":"mixed","sigmoid":true}`,
		"mixed": `{"version":1,"kind":"mixed","ariths":[{"family":"posit","n":8},{"family":"posit","n":8}],"sigmoid":true,
			"layers":[{"in":2,"out":2,"w":[[64,64],[64,64]],"b":[0,0]},{"in":2,"out":1,"w":[[64,64]],"b":[0]}]}`,
		"fixed": `{"version":1,"kind":"uniform","arith":{"family":"fixed","n":8,"q":4},"sigmoid":true,
			"layers":[{"in":2,"out":2,"w":[[16,16],[16,16]],"b":[0,0]},{"in":2,"out":1,"w":[[16,16]],"b":[0]}]}`,
	} {
		if err := r.LoadBytes(name, []byte(body)); err == nil {
			t.Errorf("%s: sigmoid artifact loaded", name)
		}
	}
	if st := r.StoreStats(); st.Objects != 0 || st.Puts != 0 {
		t.Fatalf("rejected artifacts reached the store: %+v", st)
	}
}

// TestLoadBytesRejectsAmbiguousAriths: an uploaded JSON artifact that
// carries the arithmetic descriptors of both kinds — "ariths" on a
// uniform artifact, "arith" on a mixed one — fails to parse instead of
// serving whichever set its kind selects, so nothing reaches the store.
func TestLoadBytesRejectsAmbiguousAriths(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	defer r.Close()
	for _, kind := range []string{"uniform", "mixed"} {
		body := `{"version":1,"kind":"` + kind + `","arith":{"family":"posit","n":8},"ariths":[{"family":"fixed","n":8,"q":4}],
			"layers":[{"in":1,"out":1,"w":[[64]],"b":[0]}]}`
		if err := r.LoadBytes(kind, []byte(body)); err == nil {
			t.Errorf("%s artifact with both descriptors loaded", kind)
		}
	}
	if st := r.StoreStats(); st.Objects != 0 || st.Puts != 0 {
		t.Fatalf("rejected artifacts reached the store: %+v", st)
	}
}

func TestStats(t *testing.T) {
	r := New(
		WithRuntimeOptions(engine.WithWorkers(2)),
		WithMaxBatch(16),
	)
	defer r.Close()
	if err := r.Load("b-model", posit8Model(6)); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("a-model", testModel(7, emac.NewFixed(8, 4))); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	if len(stats) != 2 || stats[0].Name != "a-model" || stats[1].Name != "b-model" {
		t.Fatalf("stats order: %+v", stats)
	}
	s := stats[0]
	if s.Kind != "uniform" || s.InputDim != 4 || s.OutputDim != 3 || s.Workers != 2 ||
		s.MaxBatch != 16 {
		t.Fatalf("stat: %+v", s)
	}

	h, _ := r.Acquire("a-model")
	if _, err := h.Batcher().Infer(context.Background(), testInput(1)); err != nil {
		t.Fatal(err)
	}
	h.Release()
	st, err := r.Stat("a-model")
	if err != nil {
		t.Fatal(err)
	}
	if st.Metrics.Requests != 1 || st.Metrics.Batches != 1 || st.Metrics.LatencySamples != 1 {
		t.Fatalf("metrics after one request: %+v", st.Metrics)
	}
	if _, err := r.Stat("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat(nope): %v", err)
	}
}

func TestRegistryClose(t *testing.T) {
	r := New(WithRuntimeOptions(engine.WithWorkers(1)))
	if err := r.Load("a", posit8Model(8)); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("b", posit8Model(9)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := r.Acquire("a"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("acquire after close: %v", err)
	}
	if err := r.Load("c", posit8Model(10)); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("load after close: %v", err)
	}
	// Unload of a model that WAS loaded must report shutdown, not a bad
	// name — clients distinguish "retry elsewhere" from "fix your name".
	if err := r.Unload("a"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("unload after close: %v, want ErrRegistryClosed", err)
	}
	if err := r.Unload("never-existed"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("unload of unknown name after close: %v, want ErrRegistryClosed", err)
	}
}
