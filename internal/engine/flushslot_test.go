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

// TestAcquireFlushSlotOnDefaultRuntime: a runtime built with no options
// owns DefaultFlushPipeline planes, and a leased slot serves a batch
// bit-identical to a serial session.
func TestAcquireFlushSlotOnDefaultRuntime(t *testing.T) {
	net, ds := fixture(emac.NewPosit(8, 0), 3)
	rt, err := NewRuntime(net)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if d := rt.FlushPipelineDepth(); d != DefaultFlushPipeline {
		t.Fatalf("FlushPipelineDepth = %d, want DefaultFlushPipeline (%d)", d, DefaultFlushPipeline)
	}
	slot, err := rt.AcquireFlushSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer slot.Release()
	out, err := slot.InferBatch(context.Background(), ds.X)
	if err != nil {
		t.Fatal(err)
	}
	s := net.NewSession()
	for i, x := range ds.X {
		want := s.Infer(x)
		for j := range want {
			if out[i][j] != want[j] {
				t.Fatalf("sample %d logit %d: %v != %v", i, j, out[i][j], want[j])
			}
		}
	}
}

// TestFlushSlotsDistinctToDepth leases every plane of the pipeline
// without releasing, at each configured depth (d <= 0 selects
// DefaultFlushPipeline): all acquisitions succeed, the slots are
// distinct, and the in-use gauge tracks each lease.
func TestFlushSlotsDistinctToDepth(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	for _, c := range []struct{ d, want int }{
		{3, 3}, {1, 1}, {0, DefaultFlushPipeline}, {-1, DefaultFlushPipeline},
	} {
		rt, err := NewRuntime(net, WithWorkers(1), WithFlushPipeline(c.d))
		if err != nil {
			t.Fatal(err)
		}
		if d := rt.FlushPipelineDepth(); d != c.want {
			t.Fatalf("WithFlushPipeline(%d): FlushPipelineDepth = %d, want %d", c.d, d, c.want)
		}
		seen := map[*FlushSlot]bool{}
		for i := 0; i < c.want; i++ {
			s, err := rt.AcquireFlushSlot(context.Background())
			if err != nil {
				t.Fatalf("depth %d: acquire %d: %v", c.want, i, err)
			}
			if seen[s] {
				t.Fatalf("depth %d: acquire %d returned an already-leased slot", c.want, i)
			}
			seen[s] = true
			if got := rt.FlushSlotsInUse(); got != i+1 {
				t.Fatalf("depth %d: FlushSlotsInUse = %d after %d leases", c.want, got, i+1)
			}
		}
		for s := range seen {
			s.Release()
		}
		if got := rt.FlushSlotsInUse(); got != 0 {
			t.Fatalf("depth %d: FlushSlotsInUse = %d after releasing all, want 0", c.want, got)
		}
		rt.Close()
	}
}

// TestAcquireFlushSlotBlocksAndCancels exhausts the pipeline, then
// verifies a further acquisition blocks until either a release (success)
// or its context's cancellation (ctx.Err).
func TestAcquireFlushSlotBlocksAndCancels(t *testing.T) {
	net, _ := fixture(emac.NewPosit(8, 0), 1)
	rt, err := NewRuntime(net, WithWorkers(1), WithFlushPipeline(1))
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
	rt, err := NewRuntime(net, WithWorkers(2), WithFlushPipeline(2))
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
	rt, err := NewRuntime(net, WithWorkers(1), WithFlushPipeline(2))
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
