package server

// Flush-pipeline exactness over the wire: with two result planes and a
// deliberately slow model, concurrent HTTP traffic drives the pipeline
// to depth >= 2 — and every coalesced response must still be
// byte-for-byte what a serial per-sample session produces. Also covers
// the dynamic Retry-After derivation and its [1s, 30s] clamp. CI runs
// this file under -race.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/registry"
)

// slowModel stretches every fused batch call by delay so that
// concurrent flushes are reliably in flight together on any host.
// Results are bit-identical to the wrapped model's.
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

// newPipelineServer serves one slow iris model through a depth-2 flush
// pipeline, so flushes queue behind each other and overlap.
func newPipelineServer(t *testing.T) (*httptest.Server, core.Model, *datasets.Dataset) {
	t.Helper()
	m, test := irisModel(t)
	reg := registry.New(
		registry.WithMaxBatch(4),
		registry.WithRuntimeOptions(engine.WithFlushPipeline(2)),
	)
	if err := reg.Load("iris", &slowModel{Model: m, delay: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	s := New(reg, "iris", WithModelDir(t.TempDir()))
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, m, test
}

// TestPipelinedHTTPBytesMatchSerial is the wire-level tentpole contract:
// responses demultiplexed out of overlapping pipelined flushes are
// byte-identical to unbatched serial sessions, and the metrics prove the
// overlap actually happened (max_pipeline_depth >= 2) with the
// queue-wait/compute split populated.
func TestPipelinedHTTPBytesMatchSerial(t *testing.T) {
	ts, m, test := newPipelineServer(t)

	const n = 24
	ref := m.NewInferer()
	want := make([][]byte, n)
	for i := range want {
		logits := ref.Infer(test.X[i%len(test.X)])
		env := inferResponse{Result: &prediction{Logits: logits, Class: nn.Argmax(logits)}}
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(b, '\n')
	}

	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(inferRequest{Input: test.X[i%len(test.X)]})
			if err != nil {
				t.Error(err)
				return
			}
			resp, raw, err := post(ts.URL+"/v1/infer", string(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if resp.StatusCode != 200 {
				t.Errorf("request %d: status %d (%s)", i, resp.StatusCode, raw)
				return
			}
			got[i] = raw
		}(i)
	}
	// A few explicit batches alongside the singles keep both planes
	// leased while flushes demux.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(inferRequest{Inputs: test.X[:6]})
			if err != nil {
				t.Error(err)
				return
			}
			resp, raw, err := post(ts.URL+"/v1/infer", string(body))
			if err != nil {
				t.Errorf("explicit batch: %v", err)
				return
			}
			if resp.StatusCode != 200 {
				t.Errorf("explicit batch: status %d (%s)", resp.StatusCode, raw)
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("request %d response bytes diverge from serial session:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}

	var metrics struct {
		Models []struct {
			Name          string `json:"name"`
			FlushPipeline int    `json:"flush_pipeline"`
			Metrics       struct {
				MaxPipelineDepth int     `json:"max_pipeline_depth"`
				QueueWaitP99Ms   float64 `json:"queue_wait_p99_ms"`
				ComputeP50Ms     float64 `json:"compute_p50_ms"`
			} `json:"metrics"`
		} `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/metrics", &metrics)
	if len(metrics.Models) != 1 {
		t.Fatalf("metrics models = %+v", metrics.Models)
	}
	mm := metrics.Models[0]
	if mm.FlushPipeline != 2 {
		t.Fatalf("flush_pipeline = %d, want 2", mm.FlushPipeline)
	}
	if mm.Metrics.MaxPipelineDepth < 2 {
		t.Fatalf("max_pipeline_depth = %d: flushes never overlapped under sustained load", mm.Metrics.MaxPipelineDepth)
	}
	if mm.Metrics.ComputeP50Ms < 10 {
		t.Fatalf("compute_p50_ms = %v, want >= the injected 10ms", mm.Metrics.ComputeP50Ms)
	}
	if mm.Metrics.QueueWaitP99Ms <= 0 {
		t.Fatalf("queue_wait_p99_ms = %v: split not recorded", mm.Metrics.QueueWaitP99Ms)
	}
}

// TestRetryAfterDynamicClamp: the Retry-After hint tracks the observed
// queue-wait/flush-gap EWMAs, floors at 1s for cold or fast models, and
// clamps at 30s however wedged the queues look.
func TestRetryAfterDynamicClamp(t *testing.T) {
	reg := registry.New()
	t.Cleanup(func() { reg.Close() })
	m, _ := irisModel(t)
	if err := reg.Load("iris", m); err != nil {
		t.Fatal(err)
	}
	h, err := reg.Acquire("iris")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Release)

	// Cold model: nothing observed, hint floors at 1s.
	if got := retryAfter(h); got != "1" {
		t.Fatalf("cold retryAfter = %q, want \"1\"", got)
	}
	// Sub-second observed load still floors at 1s.
	h.Metrics().ObserveQueueWait(3 * time.Millisecond)
	if got := retryAfter(h); got != "1" {
		t.Fatalf("fast-path retryAfter = %q, want \"1\"", got)
	}
	// Sustained multi-second queue waits push the hint up (EWMA of 5s
	// samples converges toward 5; the hint rounds seconds up).
	for i := 0; i < 50; i++ {
		h.Metrics().ObserveQueueWait(5 * time.Second)
	}
	got := retryAfter(h)
	if got == "1" || got == "31" {
		t.Fatalf("loaded retryAfter = %q, want a multi-second hint within the clamp", got)
	}
	// A wedged-looking model (10-minute waits) clamps at 30s.
	for i := 0; i < 50; i++ {
		h.Metrics().ObserveQueueWait(10 * time.Minute)
	}
	if got := retryAfter(h); got != "30" {
		t.Fatalf("wedged retryAfter = %q, want \"30\"", got)
	}
}
