package engine

// Runtime contract tests: lifecycle (close drains, submit-after-close
// errors), context cancellation, mixed-precision serving and the
// shared-output batch path. CI runs this file under -race, which is the
// point of the lifecycle tests — they hammer Submit/Close concurrently.

import (
	"context"
	"errors"
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
func mixedFixture(samples int) (*core.MixedNetwork, *datasets.Dataset) {
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

// TestQueueOccupancy: the runtime reports its job-queue capacity and
// occupancy — the backpressure signal the registry's admission gate
// surfaces per model.
func TestQueueOccupancy(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(2), WithQueueDepth(7))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.QueueCap() != 7 {
		t.Fatalf("QueueCap = %d, want 7", rt.QueueCap())
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
	if err := rt.Submit(context.Background(), 0, ds.X[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := rt.InferBatch(context.Background(), ds.X); !errors.Is(err, ErrClosed) {
		t.Fatalf("InferBatch after Close = %v, want ErrClosed", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestCloseDrainsInFlightStreaming closes the runtime while many
// goroutines are still submitting: every submission that was accepted
// must produce exactly one result before Results closes, and late
// submissions must observe ErrClosed rather than panic. Run under -race
// this is the lifecycle stress the old Engine forbade ("do not call
// Close concurrently with Submit").
func TestCloseDrainsInFlightStreaming(t *testing.T) {
	net, ds := fixture(emac.NewFixed(8, 4), 64)
	rt, err := NewRuntime(net, WithWorkers(4), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	var accepted, rejected, received atomic.Int64
	var consumers sync.WaitGroup
	consumers.Add(1)
	go func() {
		defer consumers.Done()
		for range rt.Results() {
			received.Add(1)
		}
	}()
	var producers sync.WaitGroup
	for g := 0; g < 8; g++ {
		producers.Add(1)
		go func(g int) {
			defer producers.Done()
			for i := 0; i < 200; i++ {
				err := rt.Submit(context.Background(), g*1000+i, ds.X[i%len(ds.X)])
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrClosed):
					rejected.Add(1)
				default:
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) // let some work get in flight
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	producers.Wait()
	consumers.Wait() // Results closed — all deliveries done
	if got, want := received.Load(), accepted.Load(); got != want {
		t.Fatalf("received %d results for %d accepted submissions", got, want)
	}
	if accepted.Load() == 0 {
		t.Fatal("no submission was accepted before Close")
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

// TestSubmitObservesCancellation saturates the queue (no consumer
// draining Results) and verifies a blocked Submit unblocks with the
// context error.
func TestSubmitObservesCancellation(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), 4)
	rt, err := NewRuntime(net, WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var submitErr error
	for i := 0; i < 1000; i++ {
		if submitErr = rt.Submit(ctx, i, ds.X[0]); submitErr != nil {
			break
		}
	}
	if !errors.Is(submitErr, context.DeadlineExceeded) {
		t.Fatalf("saturated Submit = %v, want context.DeadlineExceeded", submitErr)
	}
	// Drain and close cleanly.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range rt.Results() {
		}
	}()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestRuntimeServesMixedModels(t *testing.T) {
	net, ds := mixedFixture(120)
	want := make([][]float64, len(ds.X))
	s := net.NewSession()
	for i, x := range ds.X {
		want[i] = s.Infer(x)
	}
	rt, err := NewRuntime(net, WithWorkers(6), WithWarmTables())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got, err := rt.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
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

func TestSharedOutputsBitIdenticalAndReused(t *testing.T) {
	net, ds := fixture(emac.NewFloatN(8, 4), 80)
	want := make([][]float64, len(ds.X))
	s := net.NewSession()
	for i, x := range ds.X {
		want[i] = s.Infer(x)
	}
	rt, err := NewRuntime(net, WithWorkers(4), WithSharedOutputs())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got, err := rt.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("shared sample %d logit %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// The second batch reuses the same backing memory (the whole point),
	// and still carries correct values.
	again, err := rt.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0][0] != &got[0][0] {
		t.Fatal("shared-output batch did not reuse its buffer")
	}
	for i := range again {
		for j := range again[i] {
			if again[i][j] != want[i][j] {
				t.Fatalf("second shared batch diverged at sample %d", i)
			}
		}
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
	if err := rt.Submit(context.Background(), 0, make([]float64, 5)); err == nil {
		t.Fatal("misshapen submission accepted")
	}
}

// TestSharedOutputsConcurrentConsumers hammers PredictBatch/Accuracy
// concurrently on a shared-output runtime: classes must be computed from
// the caller's own batch, never another batch's logits (the shared
// buffer is consumed under its lock). Run under -race in CI.
func TestSharedOutputsConcurrentConsumers(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), 60)
	rt, err := NewRuntime(net, WithWorkers(4), WithSharedOutputs())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	wantClasses, err := rt.PredictBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
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
