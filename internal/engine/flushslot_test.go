package engine

// Flush-pipeline contract tests: D distinct leasable planes, bounded
// blocking acquisition with context cancellation, result independence
// between concurrently leased slots (the ping-pong property the
// micro-batcher's overlap correctness rests on), and lifecycle edges.
// CI runs these under -race.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/emac"
)

func TestAcquireFlushSlotRequiresSharedOutputs(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.AcquireFlushSlot(context.Background()); err == nil {
		t.Fatal("AcquireFlushSlot on a non-shared runtime succeeded")
	}
	if d := rt.FlushPipelineDepth(); d != 0 {
		t.Fatalf("FlushPipelineDepth = %d on a non-shared runtime, want 0", d)
	}
}

// TestFlushSlotsDistinctToDepth leases every plane of a depth-3 pipeline
// without releasing: all acquisitions succeed, the slots are distinct,
// and the in-use gauge tracks each lease.
func TestFlushSlotsDistinctToDepth(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(1), WithSharedOutputs(), WithFlushPipeline(3))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if d := rt.FlushPipelineDepth(); d != 3 {
		t.Fatalf("FlushPipelineDepth = %d, want 3", d)
	}
	seen := map[*FlushSlot]bool{}
	for i := 0; i < 3; i++ {
		s, err := rt.AcquireFlushSlot(context.Background())
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if seen[s] {
			t.Fatalf("acquire %d returned an already-leased slot", i)
		}
		seen[s] = true
		if got := rt.FlushSlotsInUse(); got != i+1 {
			t.Fatalf("FlushSlotsInUse = %d after %d leases", got, i+1)
		}
	}
	for s := range seen {
		s.Release()
	}
	if got := rt.FlushSlotsInUse(); got != 0 {
		t.Fatalf("FlushSlotsInUse = %d after releasing all, want 0", got)
	}
}

// TestAcquireFlushSlotBlocksAndCancels exhausts the pipeline, then
// verifies a further acquisition blocks until either a release (success)
// or its context's cancellation (ctx.Err).
func TestAcquireFlushSlotBlocksAndCancels(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(1), WithSharedOutputs(), WithFlushPipeline(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	held, err := rt.AcquireFlushSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := rt.AcquireFlushSlot(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire on full pipeline = %v, want DeadlineExceeded", err)
	}

	got := make(chan error, 1)
	go func() {
		s, err := rt.AcquireFlushSlot(context.Background())
		if err == nil {
			s.Release()
		}
		got <- err
	}()
	held.Release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("acquire after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("acquire did not unblock after Release")
	}
}

// TestFlushSlotPingPongIndependence runs batches in two concurrently
// leased slots and checks each slot's results stay valid — bit-identical
// to a serial session — while the other slot computes into its own
// plane. This is the overlap-correctness property: flush N's readers and
// flush N+1's compute share nothing.
func TestFlushSlotPingPongIndependence(t *testing.T) {
	net, ds := fixture(emac.NewFloatN(8, 4), 2*splitN)
	want := make([][]float64, len(ds.X))
	s := net.NewSession()
	for i, x := range ds.X {
		want[i] = s.Infer(x)
	}
	rt, err := NewRuntime(net, WithWorkers(2), WithSharedOutputs(), WithFlushPipeline(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	a, err := rt.AcquireFlushSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.AcquireFlushSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	loA, hiA := 0, splitN // each window runs in two chunks
	loB, hiB := splitN, 2*splitN
	outA, err := a.InferBatch(context.Background(), ds.X[loA:hiA])
	if err != nil {
		t.Fatal(err)
	}
	// Slot B computes a different window while A's results are still
	// being read; A's plane must be untouched.
	outB, err := b.InferBatch(context.Background(), ds.X[loB:hiB])
	if err != nil {
		t.Fatal(err)
	}
	for i := range outA {
		for j := range outA[i] {
			if outA[i][j] != want[loA+i][j] {
				t.Fatalf("slot A sample %d logit %d: %v != %v (clobbered by slot B?)", i, j, outA[i][j], want[loA+i][j])
			}
		}
	}
	for i := range outB {
		for j := range outB[i] {
			if outB[i][j] != want[loB+i][j] {
				t.Fatalf("slot B sample %d logit %d: %v != %v", i, j, outB[i][j], want[loB+i][j])
			}
		}
	}
	a.Release()
	b.Release()
}

func TestAcquireFlushSlotAfterClose(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(1), WithSharedOutputs(), WithFlushPipeline(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AcquireFlushSlot(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("AcquireFlushSlot after Close = %v, want ErrClosed", err)
	}
}
