package registry

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// newTestBatcher builds a shared-output runtime (as the registry does)
// plus a reference runtime-free inferer for ground truth.
func newTestBatcher(t *testing.T, maxBatch int) (*Batcher, *Metrics) {
	t.Helper()
	model := posit8Model(11)
	rt, err := engine.NewRuntime(model, engine.WithWorkers(2), engine.WithSharedOutputs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	m := &Metrics{}
	return NewBatcher(rt, maxBatch, m), m
}

// TestBatcherBitIdentity is the tentpole exactness contract: results
// demultiplexed from coalesced micro-batches are bit-identical to
// unbatched single-sample calls.
func TestBatcherBitIdentity(t *testing.T) {
	// 2 calls pin both planes and 30 queue behind them: 32 requests, and
	// with maxBatch 8 the finishing flushes must coalesce the queue.
	const n = 32
	_, m, ref, open, wg, outs, errs := queueBehindPinnedPlanes(t, 2, 8, n-2)
	open()
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := ref.Infer(testInput(i))
		if len(outs[i]) != len(want) {
			t.Fatalf("request %d: %d logits, want %d", i, len(outs[i]), len(want))
		}
		for j := range want {
			if outs[i][j] != want[j] {
				t.Fatalf("request %d logit %d: batched %v != unbatched %v",
					i, j, outs[i][j], want[j])
			}
		}
	}

	// At least one flush carried more than one sample, and none more
	// than maxBatch.
	snap := m.Snapshot()
	if snap.Requests != n {
		t.Fatalf("requests = %d, want %d", snap.Requests, n)
	}
	if snap.MaxCoalesced <= 1 {
		t.Fatalf("no coalescing happened: %+v", snap)
	}
	if snap.MaxCoalesced > 8 {
		t.Fatalf("coalesced flush of %d exceeds maxBatch 8", snap.MaxCoalesced)
	}
}

// TestBatcherExplicitBatchMatches: the direct batch path through the
// batcher (serialised + copied out of the shared runtime buffer) is also
// bit-identical, and two interleaved batches never corrupt each other.
func TestBatcherExplicitBatchMatches(t *testing.T) {
	b, _ := newTestBatcher(t, 8)
	ref := b.Runtime().Model().NewInferer()

	const n = 16
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = testInput(i + 100)
	}
	var wg sync.WaitGroup
	results := make([][][]float64, 4)
	wg.Add(len(results))
	for g := range results {
		go func(g int) {
			defer wg.Done()
			out, err := b.InferBatch(context.Background(), xs)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for i, x := range xs {
		want := ref.Infer(x)
		for g, out := range results {
			for j := range want {
				if out[i][j] != want[j] {
					t.Fatalf("goroutine %d sample %d logit %d: %v != %v",
						g, i, j, out[i][j], want[j])
				}
			}
		}
	}
}

// TestBatcherRequiresSharedRuntime: every flush leases a result plane,
// so over an ordinary (allocating) runtime single and batch inferences
// fail with an error — never a hang, never an answer.
func TestBatcherRequiresSharedRuntime(t *testing.T) {
	rt, err := engine.NewRuntime(posit8Model(12), engine.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	m := &Metrics{}
	b := NewBatcher(rt, 8, m)
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := b.Infer(context.Background(), testInput(i))
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("single inference served over an unshared runtime")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("single inference hung over an unshared runtime")
		}
	}
	if _, err := b.InferBatch(context.Background(), [][]float64{testInput(0)}); err == nil {
		t.Fatal("batch served over an unshared runtime")
	}
	b.Close()
	if snap := m.Snapshot(); snap.Batches != 0 {
		t.Fatalf("failed inferences recorded flushes: %+v", snap)
	}
}

// TestBatcherPassthrough: a lone request finds a free plane and flushes
// at once as a batch of one — nothing left queued or running, and the
// flush is not counted as coalesced.
func TestBatcherPassthrough(t *testing.T) {
	b, m := newTestBatcher(t, 8)
	out, err := b.Infer(context.Background(), testInput(1))
	if err != nil || len(out) != 3 {
		t.Fatalf("lone request: %v, %v", out, err)
	}
	want := b.Runtime().Model().NewInferer().Infer(testInput(1))
	for j := range want {
		if out[j] != want[j] {
			t.Fatalf("logit %d: %v != %v", j, out[j], want[j])
		}
	}
	b.mu.Lock()
	pending, running := len(b.pending), b.running
	b.mu.Unlock()
	if pending != 0 || running != 0 {
		t.Fatalf("after a lone request: pending %d, running %d", pending, running)
	}
	snap := m.Snapshot()
	if snap.Batches != 1 || snap.Requests != 1 || snap.BatchSizeHist["1"] != 1 ||
		snap.CoalescedBatches != 0 || snap.MaxCoalesced != 0 {
		t.Fatalf("lone request metrics: %+v", snap)
	}
}

func TestBatcherBadInput(t *testing.T) {
	b, _ := newTestBatcher(t, 8)
	if _, err := b.Infer(context.Background(), []float64{1, 2}); err == nil {
		t.Fatal("wrong-width input accepted")
	}
	if _, err := b.InferBatch(context.Background(), [][]float64{testInput(0), {1}}); err == nil {
		t.Fatal("wrong-width batch element accepted")
	}
}

// TestBatcherCallerCancellation: a caller whose context dies while its
// request waits in the pending queue returns promptly; batch-mates are
// unaffected.
func TestBatcherCallerCancellation(t *testing.T) {
	b, _, _, open, wg, _, _ := queueBehindPinnedPlanes(t, 2, 1000, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Infer(ctx, testInput(0))
		done <- err
	}()
	waitFor(t, "the call joining the pending queue", func() bool { return b.Queued() == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller stuck")
	}
	open()
	wg.Wait()
	b.Close() // the abandoned call left with the pinned flushes' chain; must not hang or panic
}

// TestBatcherCancelledExcludedFromFlush: a caller that cancels while
// its call waits in the pending queue is dropped at flush time — the
// runtime batch carries only live calls, so abandoned requests neither
// consume EMAC compute nor skew the batch-size histogram.
func TestBatcherCancelledExcludedFromFlush(t *testing.T) {
	const depth = 2
	b, m, _, open, pins, _, _ := queueBehindPinnedPlanes(t, depth, 3, 0) // a flush takes up to 3 queued calls

	// Park a call, then cancel it. The caller returns; its entry stays
	// in the pending queue until the next flush.
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := b.Infer(ctx, testInput(0))
		parked <- err
	}()
	waitFor(t, "the call joining the pending queue", func() bool { return b.Queued() == 1 })
	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: %v", err)
	}

	// Two live calls queue beside it; the first finishing pinned flush
	// takes all three up.
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 1; i <= 2; i++ {
		go func(i int) {
			defer wg.Done()
			if _, err := b.Infer(context.Background(), testInput(i)); err != nil {
				t.Errorf("live call %d: %v", i, err)
			}
		}(i)
	}
	waitFor(t, "the live calls joining the pending queue", func() bool { return b.Queued() == 3 })
	open()
	wg.Wait()
	pins.Wait()

	// The pinning calls flushed alone; beside them ran exactly one flush.
	snap := m.Snapshot()
	if snap.Requests != depth+2 {
		t.Fatalf("requests = %d, want %d (cancelled call must not count)", snap.Requests, depth+2)
	}
	if snap.Batches != depth+1 || snap.MaxCoalesced != 2 {
		t.Fatalf("flush shape: %+v, want one coalesced batch of 2 beside %d lone flushes", snap, depth)
	}
	if snap.BatchSizeHist["2"] != 1 || snap.BatchSizeHist["3-4"] != 0 {
		t.Fatalf("histogram skewed by cancelled call: %v", snap.BatchSizeHist)
	}
}

// TestBatcherAllCancelledFlushSkipsRuntime: when every pending call was
// abandoned, the flush never reaches the runtime — no phantom batch is
// recorded (the ObserveFlush(0) bug) and Close does not hang.
func TestBatcherAllCancelledFlushSkipsRuntime(t *testing.T) {
	const depth, n = 2, 4
	b, m, _, open, pins, _, _ := queueBehindPinnedPlanes(t, depth, 1000, 0)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			_, err := b.Infer(ctx, testInput(i))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("call %d: %v", i, err)
			}
		}(i)
	}
	waitFor(t, "the calls joining the pending queue", func() bool { return b.Queued() == n })
	cancel()
	wg.Wait()
	open() // a finishing pinned flush takes up the all-cancelled queue
	pins.Wait()
	b.Close()
	snap := m.Snapshot()
	if snap.Batches != depth || snap.Requests != depth || len(snap.BatchSizeHist) != 1 {
		t.Fatalf("all-cancelled flush recorded a phantom batch beside the %d lone flushes: %+v", depth, snap)
	}
}

// TestBatcherEmptyBatchRejected: a zero-sample explicit batch errors
// before it reaches the runtime.
func TestBatcherEmptyBatchRejected(t *testing.T) {
	b, m := newTestBatcher(t, 8)
	for _, xs := range [][][]float64{nil, {}} {
		if _, err := b.InferBatch(context.Background(), xs); err == nil {
			t.Fatalf("empty batch %v accepted", xs)
		}
	}
	if snap := m.Snapshot(); snap.Batches != 0 {
		t.Fatalf("empty batch reached the metrics: %+v", snap)
	}
}

// TestBatcherClose: a call queued behind busy planes is flushed (not
// dropped) before Close returns, and new work is rejected afterwards.
func TestBatcherClose(t *testing.T) {
	b, _, ref, open, wg, outs, errs := queueBehindPinnedPlanes(t, 2, 1000, 1)
	want := ref.Infer(testInput(2))

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, "Close starting", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.closed
	})
	open()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with a call queued")
	}
	wg.Wait()
	if errs[2] != nil {
		t.Fatal(errs[2])
	}
	for j := range want {
		if outs[2][j] != want[j] {
			t.Fatalf("queued-at-close logit %d: %v != %v", j, outs[2][j], want[j])
		}
	}
	if _, err := b.Infer(context.Background(), testInput(4)); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("infer after close: %v", err)
	}
	if _, err := b.InferBatch(context.Background(), [][]float64{testInput(5)}); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("batch after close: %v", err)
	}
}

func TestMetricsHistogramAndPercentiles(t *testing.T) {
	m := &Metrics{}
	for _, size := range []int{1, 1, 2, 4, 7, 64, 200} {
		m.ObserveFlush(size, true)
	}
	for i := 1; i <= 100; i++ {
		m.ObserveLatency(time.Duration(i) * time.Millisecond)
	}
	s := m.Snapshot()
	if s.Requests != 1+1+2+4+7+64+200 || s.Batches != 7 || s.CoalescedBatches != 7 {
		t.Fatalf("counters: %+v", s)
	}
	wantHist := map[string]int64{"1": 2, "2": 1, "3-4": 1, "5-8": 1, "33-64": 1, "65+": 1}
	for k, v := range wantHist {
		if s.BatchSizeHist[k] != v {
			t.Fatalf("hist[%s] = %d, want %d (%v)", k, s.BatchSizeHist[k], v, s.BatchSizeHist)
		}
	}
	if s.MaxCoalesced != 200 {
		t.Fatalf("max coalesced = %d", s.MaxCoalesced)
	}
	if s.P50Ms != 50 || s.P99Ms != 99 {
		t.Fatalf("percentiles: p50=%v p99=%v", s.P50Ms, s.P99Ms)
	}
	// Size-0 flushes (and negative sizes) must not count: bucketFor(0)
	// would land in the "1" bucket and batches would over-count.
	m.ObserveFlush(0, true)
	m.ObserveFlush(-3, false)
	if s2 := m.Snapshot(); s2.Batches != s.Batches || s2.BatchSizeHist["1"] != s.BatchSizeHist["1"] {
		t.Fatalf("zero-size flush counted: %+v", s2)
	}

	var nilM *Metrics
	nilM.ObserveFlush(1, false) // nil metrics must be a no-op
	nilM.ObserveLatency(time.Second)
	nilM.ObserveAdmit()
	nilM.ObserveDone()
	nilM.ObserveRejected()
	nilM.ObserveTimeout()
	_ = nilM.Snapshot()
}
