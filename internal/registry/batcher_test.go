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
func newTestBatcher(t *testing.T, window time.Duration, maxBatch int) (*Batcher, *Metrics) {
	t.Helper()
	model := posit8Model(11)
	rt, err := engine.NewRuntime(model, engine.WithWorkers(2), engine.WithSharedOutputs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	m := &Metrics{}
	return NewBatcher(rt, window, maxBatch, m), m
}

// TestBatcherBitIdentity is the tentpole exactness contract: results
// demultiplexed from coalesced micro-batches are bit-identical to
// per-request InferBatch calls on a fresh runtime.
func TestBatcherBitIdentity(t *testing.T) {
	b, m := newTestBatcher(t, 200*time.Millisecond, 8)

	// Ground truth: the same model through unbatched single-sample calls.
	ref := b.Runtime().Model().NewInferer()
	const n = 32
	want := make([][]float64, n)
	for i := range want {
		want[i] = ref.Infer(testInput(i))
	}

	got := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = b.Infer(context.Background(), testInput(i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: %d logits, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d logit %d: batched %v != unbatched %v",
					i, j, got[i][j], want[i][j])
			}
		}
	}

	// 32 concurrent requests with maxBatch 8 and a 200ms window must
	// coalesce: at least one flush carried more than one sample.
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
	b, _ := newTestBatcher(t, time.Millisecond, 8)
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
	for _, window := range []time.Duration{0, 50 * time.Millisecond} {
		m := &Metrics{}
		b := NewBatcher(rt, window, 8, m)
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
					t.Fatalf("window %v: single inference served over an unshared runtime", window)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("window %v: single inference hung over an unshared runtime", window)
			}
		}
		if _, err := b.InferBatch(context.Background(), [][]float64{testInput(0)}); err == nil {
			t.Fatalf("window %v: batch served over an unshared runtime", window)
		}
		b.Close()
		if snap := m.Snapshot(); snap.Batches != 0 {
			t.Fatalf("window %v: failed inferences recorded flushes: %+v", window, snap)
		}
	}
}

// TestBatcherPassthrough: at window 0 a lone request finds a free plane
// and flushes at once as a batch of one — no timer armed, nothing left
// queued, and the flush is not counted as coalesced.
func TestBatcherPassthrough(t *testing.T) {
	b, m := newTestBatcher(t, 0, 8)
	if b.Window() != 0 {
		t.Fatalf("Window = %v, want 0", b.Window())
	}
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
	timer, pending, running := b.timer, len(b.pending), b.running
	b.mu.Unlock()
	if timer != nil || pending != 0 || running != 0 {
		t.Fatalf("after a lone request: timer %v, pending %d, running %d", timer, pending, running)
	}
	snap := m.Snapshot()
	if snap.Batches != 1 || snap.Requests != 1 || snap.BatchSizeHist["1"] != 1 ||
		snap.CoalescedBatches != 0 || snap.MaxCoalesced != 0 {
		t.Fatalf("lone request metrics: %+v", snap)
	}
}

func TestBatcherBadInput(t *testing.T) {
	b, _ := newTestBatcher(t, time.Millisecond, 8)
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
	b, _ := newTestBatcher(t, time.Hour, 1000) // flush effectively never fires on its own
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Infer(ctx, testInput(0))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller stuck")
	}
	b.Close() // flushes the abandoned call; must not hang or panic
}

// TestBatcherCancelledExcludedFromFlush: a caller that cancels while
// its call waits in the pending queue is dropped at flush time — the
// runtime batch carries only live calls, so abandoned requests neither
// consume EMAC compute nor skew the batch-size histogram.
func TestBatcherCancelledExcludedFromFlush(t *testing.T) {
	b, m := newTestBatcher(t, time.Hour, 3) // flush only when 3 calls pend

	// Park a call, then cancel it. The caller returns; its entry stays
	// in the pending queue until the next flush.
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := b.Infer(ctx, testInput(0))
		parked <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		n := len(b.pending)
		b.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("call never joined the pending queue")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: %v", err)
	}

	// Two live calls push pending to maxBatch 3 and trigger the flush.
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
	wg.Wait()

	snap := m.Snapshot()
	if snap.Requests != 2 {
		t.Fatalf("requests = %d, want 2 (cancelled call must not count)", snap.Requests)
	}
	if snap.Batches != 1 || snap.MaxCoalesced != 2 {
		t.Fatalf("flush shape: %+v, want one coalesced batch of 2", snap)
	}
	if snap.BatchSizeHist["2"] != 1 || snap.BatchSizeHist["3-4"] != 0 {
		t.Fatalf("histogram skewed by cancelled call: %v", snap.BatchSizeHist)
	}
}

// TestBatcherAllCancelledFlushSkipsRuntime: when every pending call was
// abandoned, the flush never reaches the runtime — no phantom batch is
// recorded (the ObserveFlush(0) bug) and Close does not hang.
func TestBatcherAllCancelledFlushSkipsRuntime(t *testing.T) {
	b, m := newTestBatcher(t, time.Hour, 1000)
	const n = 4
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
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		pend := len(b.pending)
		b.mu.Unlock()
		if pend == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls never joined the pending queue")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	b.Close() // flushes the all-cancelled queue
	snap := m.Snapshot()
	if snap.Batches != 0 || snap.Requests != 0 || len(snap.BatchSizeHist) != 0 {
		t.Fatalf("all-cancelled flush recorded a phantom batch: %+v", snap)
	}
}

// TestBatcherEmptyBatchRejected: a zero-sample explicit batch errors
// before it reaches the runtime.
func TestBatcherEmptyBatchRejected(t *testing.T) {
	b, m := newTestBatcher(t, time.Millisecond, 8)
	for _, xs := range [][][]float64{nil, {}} {
		if _, err := b.InferBatch(context.Background(), xs); err == nil {
			t.Fatalf("empty batch %v accepted", xs)
		}
	}
	if snap := m.Snapshot(); snap.Batches != 0 {
		t.Fatalf("empty batch reached the metrics: %+v", snap)
	}
}

// TestBatcherClose: pending calls are flushed (not dropped) on Close,
// and new work is rejected afterwards.
func TestBatcherClose(t *testing.T) {
	b, _ := newTestBatcher(t, time.Hour, 1000)
	ref := b.Runtime().Model().NewInferer()
	want := ref.Infer(testInput(3))

	done := make(chan []float64, 1)
	go func() {
		out, err := b.Infer(context.Background(), testInput(3))
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	// Wait for the call to join the pending queue before closing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		b.mu.Lock()
		n := len(b.pending)
		b.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("call never joined the pending queue")
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()
	select {
	case out := <-done:
		for j := range want {
			if out[j] != want[j] {
				t.Fatalf("flushed-on-close logit %d: %v != %v", j, out[j], want[j])
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not flushed by Close")
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
