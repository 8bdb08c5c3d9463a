package registry

// Flush-pipeline and admission coverage. The slowModel double
// stretches every fused batch call by a fixed delay, so two explicit
// batches fired together are deterministically in flight at once — the
// pipeline-depth gauge must observe >= 2 leased planes — while results
// stay bit-identical to a serial session. CI runs this file under -race.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// slowModel wraps a core.Model so every fused batch inference takes at
// least delay: long enough that concurrent flushes overlap on any host,
// short enough to keep the tests quick.
type slowModel struct {
	core.Model
	delay time.Duration
}

func (m *slowModel) NewInferer() core.Inferer {
	return &slowInferer{Inferer: m.Model.NewInferer(), delay: m.delay}
}

type slowInferer struct {
	core.Inferer
	delay time.Duration
}

func (s *slowInferer) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	time.Sleep(s.delay)
	return s.Inferer.InferBatchInto(dst, xs)
}

// gatedModel wraps a core.Model so every fused batch inference blocks
// until gate closes: flushes started before then pin their planes for
// as long as a test needs.
type gatedModel struct {
	core.Model
	gate chan struct{}
}

func (m *gatedModel) NewInferer() core.Inferer {
	return &gatedInferer{Inferer: m.Model.NewInferer(), gate: m.gate}
}

type gatedInferer struct {
	core.Inferer
	gate chan struct{}
}

func (g *gatedInferer) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	<-g.gate
	return g.Inferer.InferBatchInto(dst, xs)
}

// waitFor polls ok until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// queueBehindPinnedPlanes builds a batcher over a gated model with depth
// planes, pins every plane with one lone call each, then queues n more
// singles behind them. It returns the batcher, its metrics, the
// undecorated reference inferer, open (which releases the gate; cleanup
// calls it before closing the batcher, so a failed test cannot leave a
// flush parked), and the callers' results and errors, which are complete
// once wg is done.
func queueBehindPinnedPlanes(t *testing.T, depth, maxBatch, n int) (b *Batcher, m *Metrics, ref core.Inferer, open func(), wg *sync.WaitGroup, outs [][]float64, errs []error) {
	t.Helper()
	gate := make(chan struct{})
	model := &gatedModel{Model: posit8Model(49), gate: gate}
	rt, err := engine.NewRuntime(model,
		engine.WithWorkers(depth), engine.WithFlushPipeline(depth))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	m = &Metrics{}
	b = NewBatcher(rt, maxBatch, m)
	t.Cleanup(b.Close)
	open = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open)
	ref = model.Model.NewInferer()
	outs = make([][]float64, depth+n)
	errs = make([]error, depth+n)
	wg = &sync.WaitGroup{}
	infer := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = b.Infer(context.Background(), testInput(i))
		}()
	}
	for i := 0; i < depth; i++ {
		infer(i)
	}
	waitFor(t, "pinning every plane", func() bool { return rt.FlushSlotsInUse() == depth })
	for i := depth; i < depth+n; i++ {
		infer(i)
	}
	waitFor(t, "queueing behind the pinned planes", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.pending) == n && b.running == depth
	})
	return b, m, ref, open, wg, outs, errs
}

// checkServed asserts every caller got a result bit-identical to a
// serial session.
func checkServed(t *testing.T, ref core.Inferer, outs [][]float64, errs []error) {
	t.Helper()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		want := ref.Infer(testInput(i))
		for j := range want {
			if outs[i][j] != want[j] {
				t.Fatalf("caller %d logit %d: %v != serial %v", i, j, outs[i][j], want[j])
			}
		}
	}
}

// TestWorkConservingCoalescesBehindBusyPlanes: with every plane pinned,
// N singles queue; once the planes free, the finishing flushes take
// them up maxBatch at a time — ⌈N/maxBatch⌉ flushes, the largest of
// min(N, maxBatch) — and every result is bit-identical to a serial
// session. The pinning calls flushed at once, alone and uncoalesced.
func TestWorkConservingCoalescesBehindBusyPlanes(t *testing.T) {
	const depth, maxBatch, n = 2, 4, 10
	b, m, ref, open, wg, outs, errs := queueBehindPinnedPlanes(t, depth, maxBatch, n)
	open()
	wg.Wait()
	checkServed(t, ref, outs, errs)

	flushes := (n + maxBatch - 1) / maxBatch
	snap := m.Snapshot()
	if snap.Batches != int64(depth+flushes) || snap.Requests != depth+n {
		t.Fatalf("flushes: %+v, want %d batches / %d requests", snap, depth+flushes, depth+n)
	}
	if snap.CoalescedBatches != int64(flushes) || snap.MaxCoalesced != min(n, maxBatch) {
		t.Fatalf("coalescing: %+v, want %d coalesced flushes of at most %d", snap, flushes, min(n, maxBatch))
	}
	if snap.BatchSizeHist["1"] != depth || snap.BatchSizeHist["3-4"] != 2 || snap.BatchSizeHist["2"] != 1 {
		t.Fatalf("flush sizes: %v, want %d lone flushes, then 4, 4 and 2", snap.BatchSizeHist, depth)
	}
	b.mu.Lock()
	running, pending := b.running, len(b.pending)
	b.mu.Unlock()
	if running != 0 || pending != 0 {
		t.Fatalf("after the drain: running %d, pending %d", running, pending)
	}
}

// TestCloseWithCallersQueuedBehindBusyPlanes closes a work-conserving
// batcher while callers are queued behind pinned planes: new work is
// refused at once, Close waits for the planes to free, and then every
// queued caller leaves with its bit-identical result in exactly
// ⌈N/maxBatch⌉ further flushes — nothing hangs, nothing phantom.
func TestCloseWithCallersQueuedBehindBusyPlanes(t *testing.T) {
	const depth, maxBatch, n = 2, 3, 8
	b, m, ref, open, wg, outs, errs := queueBehindPinnedPlanes(t, depth, maxBatch, n)
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
	if _, err := b.Infer(context.Background(), testInput(99)); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("infer while closing = %v, want ErrBatcherClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with flushes still pinned")
	case <-time.After(20 * time.Millisecond):
	}
	open()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with callers queued")
	}
	wg.Wait()
	checkServed(t, ref, outs, errs)

	flushes := (n + maxBatch - 1) / maxBatch
	snap := m.Snapshot()
	if snap.Batches != int64(depth+flushes) || snap.Requests != depth+n || snap.CoalescedBatches != int64(flushes) {
		t.Fatalf("flush accounting across Close: %+v, want %d batches (%d coalesced) / %d requests",
			snap, depth+flushes, flushes, depth+n)
	}
}

// TestPipelinedBitIdentityAtDepth2 drives the flush pipeline to depth
// >= 2 — concurrent explicit batches each lease their own result plane
// while singles flush between them — and asserts every result
// is bit-identical to an unbatched serial session. This is the tentpole
// exactness contract: overlap must never leak one flush's plane into
// another's results.
func TestPipelinedBitIdentityAtDepth2(t *testing.T) {
	h := newHandle(t, &slowModel{Model: posit8Model(47), delay: 10 * time.Millisecond},
		WithRuntimeOptions(engine.WithFlushPipeline(2)),
		WithMaxBatch(4),
	)
	if d := h.Runtime().FlushPipelineDepth(); d != 2 {
		t.Fatalf("FlushPipelineDepth = %d, want 2", d)
	}
	ref := h.Model().NewInferer()

	const singles, batches, batchSize = 16, 4, 6
	var wg sync.WaitGroup
	singleOut := make([][]float64, singles)
	singleErr := make([]error, singles)
	for i := 0; i < singles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			singleOut[i], singleErr[i] = h.Infer(context.Background(), testInput(i))
		}(i)
	}
	batchOut := make([][][]float64, batches)
	batchErr := make([]error, batches)
	for g := 0; g < batches; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xs := make([][]float64, batchSize)
			for i := range xs {
				xs[i] = testInput(100 + g*batchSize + i)
			}
			batchOut[g], batchErr[g] = h.InferBatch(context.Background(), xs)
		}(g)
	}
	wg.Wait()

	for i := 0; i < singles; i++ {
		if singleErr[i] != nil {
			t.Fatalf("single %d: %v", i, singleErr[i])
		}
		want := ref.Infer(testInput(i))
		for j := range want {
			if singleOut[i][j] != want[j] {
				t.Fatalf("single %d logit %d: pipelined %v != serial %v", i, j, singleOut[i][j], want[j])
			}
		}
	}
	for g := 0; g < batches; g++ {
		if batchErr[g] != nil {
			t.Fatalf("batch %d: %v", g, batchErr[g])
		}
		for i := range batchOut[g] {
			want := ref.Infer(testInput(100 + g*batchSize + i))
			for j := range want {
				if batchOut[g][i][j] != want[j] {
					t.Fatalf("batch %d sample %d logit %d: pipelined %v != serial %v",
						g, i, j, batchOut[g][i][j], want[j])
				}
			}
		}
	}

	snap := h.Metrics().Snapshot()
	if snap.MaxPipelineDepth < 2 {
		t.Fatalf("max pipeline depth = %d: concurrent 10ms flushes never overlapped", snap.MaxPipelineDepth)
	}
	if snap.Requests != singles+batches*batchSize {
		t.Fatalf("requests = %d, want %d", snap.Requests, singles+batches*batchSize)
	}
	// The latency split observed both halves: requests waited (for a
	// plane or a flush to take them up) and flushes computed for >= the
	// injected delay.
	if snap.ComputeP50Ms < 10 {
		t.Fatalf("compute p50 = %vms, want >= the 10ms injected delay", snap.ComputeP50Ms)
	}
	if snap.LatencySamples == 0 || snap.P99Ms < snap.ComputeP50Ms {
		t.Fatalf("latency split inconsistent: %+v", snap)
	}
}

// TestCloseMidPipelineDrains closes the batcher (then the runtime, in
// the registry's entry-teardown order) while flushes are mid-pipeline:
// every in-flight caller must get its bit-identical result — never an
// error, never a hang — and the metrics must count exactly the flushes
// that ran, with no phantom entries from the teardown.
func TestCloseMidPipelineDrains(t *testing.T) {
	model := &slowModel{Model: posit8Model(48), delay: 20 * time.Millisecond}
	rt, err := engine.NewRuntime(model,
		engine.WithWorkers(2), engine.WithFlushPipeline(2))
	if err != nil {
		t.Fatal(err)
	}
	m := &Metrics{}
	b := NewBatcher(rt, 3, m)
	ref := model.Model.NewInferer() // the undecorated plane: same bits, no sleep

	// Two explicit batches occupy both planes; one single call's flush
	// waits for a plane.
	const batchSize = 4
	var wg sync.WaitGroup
	results := make([][][]float64, 2)
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xs := make([][]float64, batchSize)
			for i := range xs {
				xs[i] = testInput(200 + g*batchSize + i)
			}
			results[g], errs[g] = b.InferBatch(context.Background(), xs)
		}(g)
	}
	parked := make(chan struct{})
	var parkedOut []float64
	var parkedErr error
	go func() {
		defer close(parked)
		parkedOut, parkedErr = b.Infer(context.Background(), testInput(300))
	}()
	waitFor(t, "the pipeline filling", func() bool {
		return b.Flushing() == 1 && rt.FlushSlotsInUse() == 2
	})

	// Tear down in the registry's order: batcher (waits out in-flight
	// flushes, the parked call's included), then the runtime.
	b.Close()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	for g := 0; g < 2; g++ {
		if errs[g] != nil {
			t.Fatalf("mid-pipeline batch %d failed across Close: %v", g, errs[g])
		}
		for i := range results[g] {
			want := ref.Infer(testInput(200 + g*batchSize + i))
			for j := range want {
				if results[g][i][j] != want[j] {
					t.Fatalf("batch %d sample %d logit %d diverged across Close", g, i, j)
				}
			}
		}
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("parked caller left hanging by Close")
	}
	if parkedErr != nil {
		t.Fatalf("parked caller: %v", parkedErr)
	}
	want := ref.Infer(testInput(300))
	for j := range want {
		if parkedOut[j] != want[j] {
			t.Fatalf("parked caller logit %d diverged across Close", j)
		}
	}

	// Exactly 3 flushes ran (two explicit, one single); nothing phantom
	// was recorded during teardown.
	snap := m.Snapshot()
	if snap.Batches != 3 || snap.Requests != 2*batchSize+1 {
		t.Fatalf("flush accounting after Close: %+v, want 3 batches / %d requests", snap, 2*batchSize+1)
	}
	if _, err := b.Infer(context.Background(), testInput(0)); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("infer after Close = %v, want ErrBatcherClosed", err)
	}
}

// TestMetricsQueueComputeSplit exercises the new observation channels
// directly: percentile rings, the EWMA-backed retry hint, and the
// pipeline-depth high-water mark (including nil-receiver no-ops).
func TestMetricsQueueComputeSplit(t *testing.T) {
	m := &Metrics{}
	for i := 1; i <= 100; i++ {
		m.ObserveQueueWait(time.Duration(i) * time.Millisecond)
		m.ObserveCompute(time.Duration(2*i) * time.Millisecond)
	}
	m.ObservePipelineDepth(1)
	m.ObservePipelineDepth(3)
	m.ObservePipelineDepth(2)
	s := m.Snapshot()
	if s.QueueWaitP50Ms != 50 || s.QueueWaitP99Ms != 99 {
		t.Fatalf("queue-wait percentiles: p50=%v p99=%v", s.QueueWaitP50Ms, s.QueueWaitP99Ms)
	}
	if s.ComputeP50Ms != 100 || s.ComputeP99Ms != 198 {
		t.Fatalf("compute percentiles: p50=%v p99=%v", s.ComputeP50Ms, s.ComputeP99Ms)
	}
	if s.MaxPipelineDepth != 3 {
		t.Fatalf("max pipeline depth = %d, want 3", s.MaxPipelineDepth)
	}
	if m.RetryHint() <= 0 {
		t.Fatal("retry hint empty after observed queue waits")
	}
	// Two flushes an observed gap apart give the hint its second term.
	m.ObserveFlush(1, false)
	time.Sleep(2 * time.Millisecond)
	m.ObserveFlush(1, false)
	if hint := m.RetryHint(); hint < time.Millisecond {
		t.Fatalf("retry hint %v ignores the flush gap", hint)
	}

	var nilM *Metrics
	nilM.ObserveQueueWait(time.Second)
	nilM.ObserveCompute(time.Second)
	nilM.ObservePipelineDepth(5)
	if nilM.RetryHint() != 0 {
		t.Fatal("nil metrics retry hint")
	}
}

// TestAdmissionMixedBurst fires singles and explicit batches at a small
// gate concurrently: accounting balances (served + rejected = fired, the
// rejected counter matches observed sheds), served results are
// bit-identical to a serial session, and the gauge drains to zero.
func TestAdmissionMixedBurst(t *testing.T) {
	h := newAdmissionRegistry(t,
		WithMaxInFlight(4),
		WithMaxBatch(8),
	)
	ref := h.Model().NewInferer()

	const n = 32
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		rejected int
		served   int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 { // every 4th request is a 3-sample explicit batch
				xs := [][]float64{testInput(i), testInput(i + 1000), testInput(i + 2000)}
				out, err := h.InferBatch(context.Background(), xs)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case errors.Is(err, ErrOverloaded):
					rejected++
				case err != nil:
					t.Errorf("batch %d: %v", i, err)
				default:
					served++
					for s := range xs {
						want := ref.Infer(xs[s])
						for j := range want {
							if out[s][j] != want[j] {
								t.Errorf("batch %d sample %d logit %d diverged", i, s, j)
							}
						}
					}
				}
				return
			}
			out, err := h.Infer(context.Background(), testInput(i))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, ErrOverloaded):
				rejected++
			case err != nil:
				t.Errorf("single %d: %v", i, err)
			default:
				served++
				want := ref.Infer(testInput(i))
				for j := range want {
					if out[j] != want[j] {
						t.Errorf("single %d logit %d diverged", i, j)
					}
				}
			}
		}(i)
	}
	wg.Wait()

	if served == 0 {
		t.Fatal("no request survived the burst")
	}
	if served+rejected != n {
		t.Fatalf("served %d + rejected %d != fired %d", served, rejected, n)
	}
	snap := h.Metrics().Snapshot()
	if snap.Rejected != int64(rejected) {
		t.Fatalf("metrics rejected = %d, observed %d", snap.Rejected, rejected)
	}
	if snap.InFlight != 0 {
		t.Fatalf("in-flight gauge = %d after burst drained", snap.InFlight)
	}
}
