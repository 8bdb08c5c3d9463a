package engine

// Runtime contract tests: lifecycle (close drains, calls after close
// error), context cancellation, mixed-precision serving, and caller-owned
// and leased-slot batch results. CI runs this file under -race, which is
// the point of the lifecycle tests — they hammer InferBatch/Close
// concurrently.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
)

// mixedFixture builds a mixed-precision network (one arm per family) and
// a synthetic dataset.
func mixedFixture(samples int) (*core.Network, *datasets.Dataset) {
	src := nn.NewMLP([]int{12, 16, 8, 3}, rng.New(5))
	net := core.QuantizeMixed(src, []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
	})
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

func TestNewRuntimeRejectsNilModel(t *testing.T) {
	if _, err := NewRuntime(nil); err == nil {
		t.Fatal("nil model accepted")
	}
}

// TestQueueOccupancy: the runtime reports its queue capacity and
// occupancy — the backpressure signal the registry's admission gate
// surfaces per model.
func TestQueueOccupancy(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.QueueCap() != 2*rt.Workers() {
		t.Fatalf("QueueCap = %d, want 2 × %d workers", rt.QueueCap(), rt.Workers())
	}
	if n := rt.QueueLen(); n < 0 || n > rt.QueueCap() {
		t.Fatalf("QueueLen = %d out of [0, %d]", n, rt.QueueCap())
	}
}

func TestSubmitAfterCloseErrorsNotPanics(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.InferBatch(context.Background(), ds.X); !errors.Is(err, ErrClosed) {
		t.Fatalf("InferBatch after Close = %v, want ErrClosed", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestCloseDrainsInFlightStreaming closes the runtime while many
// goroutines are still running batches: every call returns either its
// full results, bit-identical to a serial session, or ErrClosed — never
// a partial batch, never a panic. Run under -race this is the lifecycle
// stress of closing concurrently with producers.
func TestCloseDrainsInFlightStreaming(t *testing.T) {
	const producerN, perProducer = 8, 50
	// Every batch starts before input producerN+perProducer, so each
	// holds at least splitN samples and runs in two chunks.
	net, ds := fixture(emac.NewFixed(8, 4), splitN+producerN+perProducer)
	od := net.OutputDim()
	want := net.NewSession().InferBatchInto(make([]float64, len(ds.X)*od), ds.X)
	rt, err := NewRuntime(net, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	var accepted, rejected atomic.Int64
	var producers sync.WaitGroup
	for g := 0; g < producerN; g++ {
		producers.Add(1)
		go func(g int) {
			defer producers.Done()
			for i := 0; i < perProducer; i++ {
				start := (g + i) % len(ds.X)
				out, err := rt.InferBatch(context.Background(), ds.X[start:])
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrClosed):
					rejected.Add(1)
					continue
				default:
					t.Errorf("InferBatch: %v", err)
					return
				}
				if len(out) != len(ds.X)-start {
					t.Errorf("%d results for %d inputs", len(out), len(ds.X)-start)
					return
				}
				for k := range out {
					for j, v := range out[k] {
						if v != want[(start+k)*od+j] {
							t.Errorf("sample %d logit %d: %v != %v", start+k, j, v, want[(start+k)*od+j])
							return
						}
					}
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) // let some work get in flight
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	producers.Wait()
	if t.Failed() {
		return
	}
	if got := accepted.Load() + rejected.Load(); got != producerN*perProducer {
		t.Fatalf("%d calls returned, want %d", got, producerN*perProducer)
	}
	if accepted.Load() == 0 {
		t.Fatal("no batch was accepted before Close")
	}
}

func TestInferBatchObservesCancellation(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), 32)
	rt, err := NewRuntime(net, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.InferBatch(ctx, ds.X); !errors.Is(err, context.Canceled) {
		t.Fatalf("InferBatch with cancelled ctx = %v, want context.Canceled", err)
	}
	// The runtime stays usable after a cancelled batch.
	out, err := rt.InferBatch(context.Background(), ds.X)
	if err != nil || len(out) != len(ds.X) {
		t.Fatalf("recovery batch: %v (%d results)", err, len(out))
	}
}

// gatedModel is panicModel with inferers that announce each batch on
// entered and then hold it until gate closes: a deterministic way to
// keep the pool busy.
type gatedModel struct {
	panicModel
	entered, gate chan struct{}
}

func (m gatedModel) NewInferer() core.Inferer { return gatedInferer{entered: m.entered, gate: m.gate} }

type gatedInferer struct {
	panicInferer
	entered, gate chan struct{}
}

func (g gatedInferer) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	g.entered <- struct{}{}
	<-g.gate
	return g.panicInferer.InferBatchInto(dst, xs)
}

// TestSubmitObservesCancellation saturates the runtime — its one
// inferer held inside a batch, a second batch waiting for it — and
// verifies that a third InferBatch, waiting too, unblocks with the
// context error.
func TestSubmitObservesCancellation(t *testing.T) {
	m := gatedModel{entered: make(chan struct{}, 2), gate: make(chan struct{})}
	rt, err := NewRuntime(m, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	x := [][]float64{{1, 2}}
	var held sync.WaitGroup
	for i := 0; i < 2; i++ {
		held.Add(1)
		go func() {
			defer held.Done()
			if _, err := rt.InferBatch(context.Background(), x); err != nil {
				t.Errorf("held batch: %v", err)
			}
		}()
	}
	<-m.entered // the inferer holds one batch
	for rt.QueueLen() < 1 {
		time.Sleep(100 * time.Microsecond) // the other waits for it
	}
	if n := rt.QueueLen(); n != 1 {
		t.Fatalf("QueueLen = %d with one batch waiting, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := rt.InferBatch(ctx, x); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated InferBatch = %v, want context.DeadlineExceeded", err)
	}
	if n := rt.QueueLen(); n != 1 {
		t.Fatalf("QueueLen = %d once the cancelled batch left, want 1", n)
	}
	close(m.gate)
	held.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// settledGoroutines returns runtime.NumGoroutine once two reads a
// millisecond apart agree, so goroutines of earlier tests still on their
// way out are not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestRuntimeStartsNoGoroutine: NewRuntime and Close each leave the
// goroutine count as they found it. Batches compute on their callers'
// goroutines, so an idle runtime runs none.
func TestRuntimeStartsNoGoroutine(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	before := settledGoroutines()
	rt, err := NewRuntime(net, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if d := settledGoroutines() - before; d != 0 {
		t.Fatalf("NewRuntime changed the goroutine count by %d, want 0", d)
	}
	before = settledGoroutines()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if d := settledGoroutines() - before; d != 0 {
		t.Fatalf("Close changed the goroutine count by %d, want 0", d)
	}
}

// TestBatchGoroutines: a batch computes its last chunk on the calling
// goroutine and each earlier chunk on a goroutine of its own. Parked in
// gated inferers, a one-chunk batch adds no goroutine beyond its
// caller's, and a two-chunk batch adds exactly one.
func TestBatchGoroutines(t *testing.T) {
	for _, c := range []struct{ n, chunks int }{{1, 1}, {2 * core.BatchTile, 2}} {
		m := gatedModel{entered: make(chan struct{}, 2), gate: make(chan struct{})}
		rt := startRuntime(t, m, 2)
		xs := cleanBatch(c.n)
		before := settledGoroutines()
		done := make(chan error, 1)
		go func() {
			_, err := rt.InferBatch(context.Background(), xs)
			done <- err
		}()
		for range c.chunks {
			<-m.entered
		}
		if d := settledGoroutines() - before; d != c.chunks {
			t.Errorf("%d-chunk batch parked: %d goroutines beyond the test's, want its caller and %d more",
				c.chunks, d, c.chunks-1)
		}
		close(m.gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCancelledContextNeverEntersInferer: a batch whose context has
// already ended fails with the context's error before any of its chunks
// reaches an inferer, in one chunk or in two.
func TestCancelledContextNeverEntersInferer(t *testing.T) {
	m := gatedModel{entered: make(chan struct{}, 2), gate: make(chan struct{})}
	close(m.gate)
	rt := startRuntime(t, m, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{1, 2 * core.BatchTile} {
		if _, err := rt.InferBatch(ctx, cleanBatch(n)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d samples, cancelled ctx: err = %v, want context.Canceled", n, err)
		}
		if k := len(m.entered); k != 0 {
			t.Fatalf("%d samples, cancelled ctx: %d chunks entered an inferer", n, k)
		}
	}
}

func TestRuntimeServesMixedModels(t *testing.T) {
	net, ds := mixedFixture(3*core.BatchTile + 2)
	want := make([][]float64, len(ds.X))
	s := net.NewSession()
	for i, x := range ds.X {
		want[i] = s.Infer(x)
	}
	m := &chunkModel{Model: net}
	rt := startRuntime(t, m, 6)
	got, err := rt.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	wantChunks(t, m, 256, 257, 257)
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("mixed sample %d logit %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	acc, err := rt.Accuracy(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if serial := net.Accuracy(ds); acc != serial {
		t.Fatalf("runtime accuracy %v != serial %v", acc, serial)
	}
}

// TestSharedOutputsBitIdenticalAndReused: batches run through one leased
// slot are bit-identical to a serial session and reuse the slot's plane,
// while Runtime.InferBatch hands every call fresh memory of its own.
func TestSharedOutputsBitIdenticalAndReused(t *testing.T) {
	net, ds := fixture(emac.NewFloatN(8, 4), splitN)
	want := make([][]float64, len(ds.X))
	s := net.NewSession()
	for i, x := range ds.X {
		want[i] = s.Infer(x)
	}
	m := &chunkModel{Model: net}
	rt := startRuntime(t, m, 4)
	slot, err := rt.AcquireFlushSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer slot.Release()
	got, err := slot.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	wantChunks(t, m, 256, 257)
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("slot sample %d logit %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// The slot's second batch reuses the same backing memory (the whole
	// point), and still carries correct values.
	again, err := slot.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0][0] != &got[0][0] {
		t.Fatal("flush slot did not reuse its plane")
	}
	for i := range again {
		for j := range again[i] {
			if again[i][j] != want[i][j] {
				t.Fatalf("second slot batch diverged at sample %d", i)
			}
		}
	}
	// The caller-owned path never hands out the slot's plane or another
	// call's.
	owned, err := rt.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	other, err := rt.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	if &owned[0][0] == &got[0][0] || &owned[0][0] == &other[0][0] {
		t.Fatal("Runtime.InferBatch returned memory it does not give away")
	}
}

func TestRuntimeRejectsMisshapenInput(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.InferBatch(context.Background(), [][]float64{make([]float64, 5)}); err == nil {
		t.Fatal("misshapen batch accepted")
	}
}

// TestSharedOutputsConcurrentConsumers hammers PredictBatch/Accuracy
// concurrently on one runtime: classes must be computed from the
// caller's own batch, never another batch's logits (every call decodes
// into its own plane). Run under -race in CI.
func TestSharedOutputsConcurrentConsumers(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), splitN)
	m := &chunkModel{Model: net}
	rt := startRuntime(t, m, 4)
	wantClasses, err := rt.PredictBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	wantChunks(t, m, 256, 257)
	wantAcc, err := rt.Accuracy(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g%2 == 0 {
					got, err := rt.PredictBatch(context.Background(), ds.X)
					if err != nil {
						t.Errorf("PredictBatch: %v", err)
						return
					}
					for j := range got {
						if got[j] != wantClasses[j] {
							t.Errorf("class %d: %d != %d", j, got[j], wantClasses[j])
							return
						}
					}
				} else {
					got, err := rt.Accuracy(context.Background(), ds)
					if err != nil || got != wantAcc {
						t.Errorf("accuracy %v (%v)", got, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
