package server

// End-to-end handler coverage over saved artifacts: the HTTP plane must
// return exactly what a core session computes — including through the
// micro-batcher — manage model lifecycle over HTTP, and reject bad
// requests with JSON 400s.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/rng"
)

// irisModel trains a small Iris MLP, quantises it to posit(8,0) with the
// training standardizer folded into the artifact, saves and reloads it —
// the exact deployment path a daemon operator follows.
func irisModel(t *testing.T) (core.Model, *datasets.Dataset) {
	t.Helper()
	train, test := datasets.IrisSplit(0x1715)
	std := datasets.FitStandardizer(train)
	net := nn.NewMLP([]int{4, 10, 6, 3}, rng.New(7))
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 40
	nn.Train(net, std.Apply(train), cfg)
	q := core.Quantize(net, emac.NewPosit(8, 0))
	q.Stand = std

	path := filepath.Join(t.TempDir(), "iris.json")
	if err := q.Save(path); err != nil {
		t.Fatal(err)
	}
	m, err := core.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return m, test
}

// mixedModel quantises a three-arm mixed-precision network.
func mixedModel(t *testing.T) core.Model {
	t.Helper()
	src := nn.NewMLP([]int{4, 8, 6, 3}, rng.New(9))
	mixed := core.QuantizeMixed(src, []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
	})
	path := filepath.Join(t.TempDir(), "mixed.json")
	if err := mixed.Save(path); err != nil {
		t.Fatal(err)
	}
	m, err := core.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newTestServer starts a registry-backed server with the Iris model
// loaded as "iris" (the default model, so the PR 3 alias routes work).
// Path loads are scoped to modelDir (t.TempDir() when the test does not
// need them).
func newTestServerDir(t *testing.T, modelDir string, opts ...registry.Option) (*Server, *httptest.Server, core.Model, *datasets.Dataset) {
	t.Helper()
	m, test := irisModel(t)
	s, ts := serveModel(t, m, modelDir, opts...)
	return s, ts, m, test
}

func newTestServer(t *testing.T, opts ...registry.Option) (*Server, *httptest.Server, core.Model, *datasets.Dataset) {
	t.Helper()
	return newTestServerDir(t, t.TempDir(), opts...)
}

// serveModel starts a registry-backed server with m loaded as "iris".
func serveModel(t *testing.T, m core.Model, modelDir string, opts ...registry.Option) (*Server, *httptest.Server) {
	t.Helper()
	opts = append([]registry.Option{
		registry.WithRuntimeOptions(engine.WithWorkers(4)),
	}, opts...)
	reg := registry.New(opts...)
	if err := reg.Load("iris", m); err != nil {
		t.Fatal(err)
	}
	s := New(reg, "iris", WithModelDir(modelDir))
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// newGatedServer is newTestServer over a gateModel wrapping the Iris
// model. open releases the gate; cleanup calls it before the server
// closes, so a failed test cannot leave a flush parked.
func newGatedServer(t *testing.T, opts ...registry.Option) (ts *httptest.Server, gm *gateModel, open func(), m core.Model, test *datasets.Dataset) {
	t.Helper()
	m, test = irisModel(t)
	gm = &gateModel{Model: m, calls: make(chan gateCall), open: make(chan struct{})}
	_, ts = serveModel(t, gm, t.TempDir(), opts...)
	open = sync.OnceFunc(func() { close(gm.open) })
	t.Cleanup(open)
	return ts, gm, open, m, test
}

// pinPlanes parks one lone flush on each of the model's flush planes in
// gm. The pins go straight to the batcher, so they claim no admission
// unit and carry no deadline; they finish once gm opens.
func pinPlanes(t *testing.T, ts *httptest.Server, gm *gateModel) {
	t.Helper()
	h, err := getServer(t, ts).Registry().Acquire("iris")
	if err != nil {
		t.Fatal(err)
	}
	depth := h.Runtime().FlushPipelineDepth()
	var pins sync.WaitGroup
	pins.Add(depth)
	for i := 0; i < depth; i++ {
		go func() {
			defer pins.Done()
			_, _ = h.Batcher().Infer(context.Background(), make([]float64, h.Model().InputDim()))
		}()
	}
	go func() { pins.Wait(); h.Release() }()
	for i := 0; i < depth; i++ {
		select {
		case <-gm.calls:
		case <-time.After(5 * time.Second):
			t.Fatal("a pinning flush never reached the model")
		}
	}
}

// burstBehindPins sends n requests, send(i) for each, that must
// coalesce: it pins every flush plane, queues the n requests behind the
// pins, then opens the gate. It returns once every send has returned.
func burstBehindPins(t *testing.T, ts *httptest.Server, gm *gateModel, open func(), n int, send func(i int)) {
	t.Helper()
	pinPlanes(t, ts, gm)
	reg := getServer(t, ts).Registry()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			send(i)
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, err := reg.Stat("iris"); err == nil && st.BatchQueued == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests never queued behind the pinned planes", n)
		}
	}
	open()
	wg.Wait()
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, raw, err := post(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// post is postJSON for request goroutines, where t.Fatal would end only
// the goroutine: it returns the error for the caller to report.
func post(url, body string) (*http.Response, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	return resp, buf.Bytes(), nil
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts, _, _ := newTestServer(t)
	var body struct {
		Status string `json:"status"`
	}
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, body)
	}
}

func TestModelMetadataAlias(t *testing.T) {
	_, ts, _, _ := newTestServer(t)
	var info struct {
		Name         string   `json:"name"`
		Kind         string   `json:"kind"`
		InputDim     int      `json:"input_dim"`
		OutputDim    int      `json:"output_dim"`
		Layers       int      `json:"layers"`
		Arithmetics  []string `json:"arithmetics"`
		Standardized bool     `json:"standardized"`
	}
	resp := getJSON(t, ts.URL+"/v1/model", &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/model = %d", resp.StatusCode)
	}
	if info.Name != "iris" || info.Kind != "uniform" || info.InputDim != 4 ||
		info.OutputDim != 3 || info.Layers != 3 || !info.Standardized {
		t.Fatalf("metadata: %+v", info)
	}
	for _, a := range info.Arithmetics {
		if a != "posit(8,0)" {
			t.Fatalf("arithmetics: %v", info.Arithmetics)
		}
	}
}

// TestBatchInferMatchesSession is the core exactness contract: logits
// served over HTTP are bit-identical to core.Session.Infer on the same
// loaded model — through the PR 3 alias route.
func TestBatchInferMatchesSession(t *testing.T) {
	_, ts, m, test := newTestServer(t)

	body, err := json.Marshal(map[string]any{"inputs": test.X})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/infer", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch infer = %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Results []struct {
			Logits []float64 `json:"logits"`
			Class  int       `json:"class"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(test.X) {
		t.Fatalf("%d results for %d inputs", len(out.Results), len(test.X))
	}
	s := m.NewInferer()
	for i, x := range test.X {
		want := s.Infer(x)
		got := out.Results[i].Logits
		if len(got) != len(want) {
			t.Fatalf("sample %d: %d logits", i, len(got))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("sample %d logit %d: HTTP %v != session %v", i, j, got[j], want[j])
			}
		}
		if out.Results[i].Class != nn.Argmax(want) {
			t.Fatalf("sample %d class %d", i, out.Results[i].Class)
		}
	}
}

// TestCoalescedInferBitIdentity is the micro-batching exactness
// contract: concurrent single-sample HTTP requests — which the daemon
// coalesces into shared runtime batches — return logits bit-identical to
// unbatched session inference.
func TestCoalescedInferBitIdentity(t *testing.T) {
	ts, gm, open, m, test := newGatedServer(t, registry.WithMaxBatch(8))
	const n = 24
	errs := make([]error, n)
	got := make([][]float64, n)
	burstBehindPins(t, ts, gm, open, n, func(i int) {
		body, _ := json.Marshal(map[string]any{"input": test.X[i%len(test.X)]})
		resp, err := http.Post(ts.URL+"/v1/models/iris/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			errs[i] = err
			return
		}
		defer resp.Body.Close()
		var out struct {
			Result struct {
				Logits []float64 `json:"logits"`
			} `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			errs[i] = err
			return
		}
		got[i] = out.Result.Logits
	})
	// Verify serially with one session (an Inferer serves one goroutine).
	s := m.NewInferer()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := s.Infer(test.X[i%len(test.X)])
		if err := compareLogits(got[i], want); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// The burst must actually have been coalesced, or this test proved
	// nothing: check the per-model metrics.
	stat, err := getServer(t, ts).Registry().Stat("iris")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Metrics.MaxCoalesced <= 1 {
		t.Fatalf("burst was not coalesced: %+v", stat.Metrics)
	}
}

func compareLogits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d logits, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			return fmt.Errorf("logit %d: batched %v != unbatched %v", j, got[j], want[j])
		}
	}
	return nil
}

// TestMultiModelServing: two models (posit8 uniform + mixed) served side
// by side, each through its named route, then one unloaded while the
// other keeps serving.
func TestMultiModelServing(t *testing.T) {
	_, ts, _, test := newTestServer(t)
	mixed := mixedModel(t)
	if err := getServer(t, ts).Registry().Load("mixed", mixed); err != nil {
		t.Fatal(err)
	}

	var list struct {
		Models []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"models"`
	}
	resp := getJSON(t, ts.URL+"/v1/models", &list)
	if resp.StatusCode != http.StatusOK || len(list.Models) != 2 {
		t.Fatalf("/v1/models = %d %+v", resp.StatusCode, list)
	}
	if list.Models[0].Name != "iris" || list.Models[1].Name != "mixed" ||
		list.Models[1].Kind != "mixed" {
		t.Fatalf("model list: %+v", list.Models)
	}

	// Infer against the named mixed model; must match its own session.
	x := []float64{0.5, -1, 2, 0.25}
	body, _ := json.Marshal(map[string]any{"input": x})
	resp2, raw := postJSON(t, ts.URL+"/v1/models/mixed/infer", string(body))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("mixed infer = %d: %s", resp2.StatusCode, raw)
	}
	var out struct {
		Result struct {
			Logits []float64 `json:"logits"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if err := compareLogits(out.Result.Logits, mixed.NewInferer().Infer(x)); err != nil {
		t.Fatal(err)
	}

	// Unload the mixed model over HTTP; iris keeps serving.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/mixed", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("DELETE mixed = %d", resp3.StatusCode)
	}
	resp4, raw := postJSON(t, ts.URL+"/v1/models/mixed/infer", string(body))
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("infer on unloaded model = %d: %s", resp4.StatusCode, raw)
	}
	irisBody, _ := json.Marshal(map[string]any{"input": test.X[0]})
	resp5, raw := postJSON(t, ts.URL+"/v1/infer", string(irisBody))
	if resp5.StatusCode != http.StatusOK {
		t.Fatalf("iris after mixed unload = %d: %s", resp5.StatusCode, raw)
	}
}

// getServer digs the *Server out of the test fixture (the handler behind
// the httptest server).
func getServer(t *testing.T, ts *httptest.Server) *Server {
	t.Helper()
	s, ok := ts.Config.Handler.(*Server)
	if !ok {
		t.Fatal("handler is not a *Server")
	}
	return s
}

// TestLoadModelOverHTTP exercises both load arms: a filesystem path
// (scoped to the model directory) and an inline uploaded artifact.
func TestLoadModelOverHTTP(t *testing.T) {
	modelDir := t.TempDir()
	_, ts, _, test := newTestServerDir(t, modelDir)

	// Path arm: save a second artifact into the model dir and load it.
	mixed := mixedModel(t)
	path := filepath.Join(modelDir, "second.json")
	if err := mixed.Save(path); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]string{"name": "bypath", "path": path})
	resp, raw := postJSON(t, ts.URL+"/v1/models", string(body))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load by path = %d: %s", resp.StatusCode, raw)
	}
	var stat struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &stat); err != nil || stat.Name != "bypath" || stat.Kind != "mixed" {
		t.Fatalf("load response: %s (%v)", raw, err)
	}

	// Artifact arm: upload the raw JSON inline.
	artifact, err := json.Marshal(mixed)
	if err != nil {
		t.Fatal(err)
	}
	upBody, _ := json.Marshal(map[string]json.RawMessage{
		"name":     json.RawMessage(`"uploaded"`),
		"artifact": artifact,
	})
	resp2, raw2 := postJSON(t, ts.URL+"/v1/models", string(upBody))
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("upload = %d: %s", resp2.StatusCode, raw2)
	}

	// Both serve, and identically (same underlying parameters).
	x := test.X[0]
	inferBody, _ := json.Marshal(map[string]any{"input": x})
	_, rawA := postJSON(t, ts.URL+"/v1/models/bypath/infer", string(inferBody))
	_, rawB := postJSON(t, ts.URL+"/v1/models/uploaded/infer", string(inferBody))
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("path-loaded and uploaded models disagree: %s vs %s", rawA, rawB)
	}

	// Duplicate name -> 409; bad bodies -> 400.
	resp3, _ := postJSON(t, ts.URL+"/v1/models", string(body))
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate load = %d, want 409", resp3.StatusCode)
	}
	resp4, _ := postJSON(t, ts.URL+"/v1/models", `{"name":"x"}`)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("load with neither path nor artifact = %d, want 400", resp4.StatusCode)
	}
	missing, _ := json.Marshal(map[string]string{
		"name": "x", "path": filepath.Join(modelDir, "nonexistent.json")})
	resp5, _ := postJSON(t, ts.URL+"/v1/models", string(missing))
	if resp5.StatusCode != http.StatusBadRequest {
		t.Fatalf("load of missing file = %d, want 400", resp5.StatusCode)
	}
	// Paths outside the model directory are rejected, not probed: the
	// load endpoint must not be a filesystem oracle.
	for _, p := range []string{"/etc/passwd", "../../etc/passwd",
		filepath.Join(modelDir, "..", "escape.json")} {
		outside, _ := json.Marshal(map[string]string{"name": "evil", "path": p})
		resp6, raw6 := postJSON(t, ts.URL+"/v1/models", string(outside))
		if resp6.StatusCode != http.StatusForbidden {
			t.Fatalf("load of %q = %d, want 403 (%s)", p, resp6.StatusCode, raw6)
		}
	}
}

// TestPathLoadsDisabledWithoutModelDir: a server built without a model
// directory only accepts inline uploads.
func TestPathLoadsDisabledWithoutModelDir(t *testing.T) {
	m, _ := irisModel(t)
	reg := registry.New(registry.WithRuntimeOptions(engine.WithWorkers(1)))
	if err := reg.Load("iris", m); err != nil {
		t.Fatal(err)
	}
	s := New(reg, "iris")
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	body, _ := json.Marshal(map[string]string{"name": "x", "path": "/tmp/whatever.json"})
	resp, _ := postJSON(t, ts.URL+"/v1/models", string(body))
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("path load without model dir = %d, want 403", resp.StatusCode)
	}
	artifact, _ := json.Marshal(m)
	upload, _ := json.Marshal(map[string]json.RawMessage{
		"name": json.RawMessage(`"up"`), "artifact": artifact})
	resp2, raw := postJSON(t, ts.URL+"/v1/models", string(upload))
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("upload without model dir = %d: %s", resp2.StatusCode, raw)
	}
}

// TestMetricsEndpoint: after a burst of concurrent single inferences the
// per-model metrics report the traffic, and with the burst queued behind
// busy flush planes at least one coalesced batch formed.
func TestMetricsEndpoint(t *testing.T) {
	ts, gm, open, _, test := newGatedServer(t, registry.WithMaxBatch(8))
	const n = 16
	burstBehindPins(t, ts, gm, open, n, func(i int) {
		body, _ := json.Marshal(map[string]any{"input": test.X[i%len(test.X)]})
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	})
	// The pins' lone flushes count beside the burst.
	pins := int64(engine.DefaultFlushPipeline)

	var metrics struct {
		Models []struct {
			Name    string `json:"name"`
			Metrics struct {
				Requests      int64            `json:"requests"`
				Batches       int64            `json:"batches"`
				MaxCoalesced  int              `json:"max_coalesced"`
				BatchSizeHist map[string]int64 `json:"batch_size_hist"`
				P99Ms         float64          `json:"p99_ms"`
			} `json:"metrics"`
		} `json:"models"`
	}
	resp := getJSON(t, ts.URL+"/v1/metrics", &metrics)
	if resp.StatusCode != http.StatusOK || len(metrics.Models) != 1 {
		t.Fatalf("/v1/metrics = %d %+v", resp.StatusCode, metrics)
	}
	got := metrics.Models[0]
	if got.Name != "iris" || got.Metrics.Requests != n+pins {
		t.Fatalf("metrics: %+v", got)
	}
	if got.Metrics.MaxCoalesced <= 1 {
		t.Fatalf("no coalesced batch formed with %d concurrent requests queued: %+v",
			n, got.Metrics)
	}
	if got.Metrics.Batches < 1 || len(got.Metrics.BatchSizeHist) == 0 || got.Metrics.P99Ms <= 0 {
		t.Fatalf("metrics shape: %+v", got.Metrics)
	}
}

// TestOverloadSheds429: a burst past the max-in-flight cap is shed with
// 429 + Retry-After while admitted requests return logits bit-identical
// to unbatched session inference, and /v1/metrics reports the rejected
// count and in-flight gauge.
func TestOverloadSheds429(t *testing.T) {
	ts, gm, open, m, test := newGatedServer(t,
		registry.WithMaxInFlight(1),
		registry.WithMaxBatch(64),
	)
	s := m.NewInferer()

	const n = 16
	type result struct {
		status     int
		retryAfter string
		logits     []float64
		input      []float64
		err        error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	finished := make(chan struct{}, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() { finished <- struct{}{} }()
			x := test.X[i%len(test.X)]
			results[i].input = x
			body, _ := json.Marshal(map[string]any{"input": x})
			resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			results[i].status = resp.StatusCode
			results[i].retryAfter = resp.Header.Get("Retry-After")
			if resp.StatusCode == http.StatusOK {
				var out struct {
					Result struct {
						Logits []float64 `json:"logits"`
					} `json:"result"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					results[i].err = err
					return
				}
				results[i].logits = out.Result.Logits
			}
		}(i)
	}
	// The first admitted request flushes alone and parks in the model,
	// holding the one admission unit while the rest of the burst
	// arrives; it is served once the others have answered.
	select {
	case <-gm.calls:
	case <-time.After(5 * time.Second):
		t.Fatal("no admitted request reached the model")
	}
	for i := 0; i < n-1; i++ {
		select {
		case <-finished:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of the other %d requests answered", i, n-1)
		}
	}
	open()
	wg.Wait()

	var served, shed int
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		switch r.status {
		case http.StatusOK:
			served++
			if err := compareLogits(r.logits, s.Infer(r.input)); err != nil {
				t.Fatalf("admitted request %d: %v", i, err)
			}
		case http.StatusTooManyRequests:
			shed++
			if r.retryAfter == "" {
				t.Fatalf("request %d: 429 without Retry-After", i)
			}
		default:
			t.Fatalf("request %d: unexpected status %d", i, r.status)
		}
	}
	if served == 0 {
		t.Fatal("no request was admitted")
	}
	if shed == 0 {
		t.Fatalf("burst of %d past max-in-flight 1 shed nothing", n)
	}

	var metrics struct {
		Models []struct {
			MaxInFlight int `json:"max_in_flight"`
			QueueCap    int `json:"queue_cap"`
			Metrics     struct {
				Requests int64 `json:"requests"`
				Rejected int64 `json:"rejected"`
				TimedOut int64 `json:"timed_out"`
				InFlight int64 `json:"in_flight"`
			} `json:"metrics"`
		} `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/metrics", &metrics)
	if len(metrics.Models) != 1 {
		t.Fatalf("metrics models: %+v", metrics)
	}
	got := metrics.Models[0]
	if got.MaxInFlight != 1 || got.QueueCap <= 0 {
		t.Fatalf("stat admission fields: %+v", got)
	}
	if got.Metrics.Rejected != int64(shed) || got.Metrics.Requests != int64(served) {
		t.Fatalf("metrics rejected=%d requests=%d, observed shed=%d served=%d",
			got.Metrics.Rejected, got.Metrics.Requests, shed, served)
	}
	if got.Metrics.InFlight != 0 {
		t.Fatalf("in-flight gauge = %d after burst drained", got.Metrics.InFlight)
	}
}

// TestRequestTimeout503: an admitted request stuck behind pinned flush
// planes gets 503 + Retry-After at the configured deadline, and the
// timed-out counter moves.
func TestRequestTimeout503(t *testing.T) {
	ts, gm, _, _, test := newGatedServer(t, registry.WithRequestTimeout(30*time.Millisecond))
	pinPlanes(t, ts, gm)
	body, _ := json.Marshal(map[string]any{"input": test.X[0]})
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stuck request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	stat, err := getServer(t, ts).Registry().Stat("iris")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Metrics.TimedOut != 1 {
		t.Fatalf("timed_out = %d, want 1", stat.Metrics.TimedOut)
	}
	if stat.RequestTimeout != "30ms" {
		t.Fatalf("stat request_timeout = %q", stat.RequestTimeout)
	}
}

// TestBadRequests pins every 400 text the inference route returns for a
// bad body. Malformed bodies answer with encoding/json's own error, so
// the texts below are that decoder's.
func TestBadRequests(t *testing.T) {
	_, ts, _, test := newTestServer(t)
	wrongDim, _ := json.Marshal(map[string]any{"input": []float64{1, 2}})
	both, _ := json.Marshal(map[string]any{"input": test.X[0], "inputs": test.X[:2]})
	batchWrong, _ := json.Marshal(map[string]any{"inputs": [][]float64{test.X[0], {1}}})
	const neither = `body must set exactly one of "input" or "inputs"`
	for _, c := range []struct{ name, body, want string }{
		{"malformed", "{not json", "malformed body: invalid character 'n' looking for beginning of object key string"},
		{"empty body", "", "malformed body: EOF"},
		{"unterminated", `{"input":[1,2,3,4]`, "malformed body: unexpected EOF"},
		{"out of range", `{"input":[1e400,2,3,4]}`,
			"malformed body: json: cannot unmarshal number 1e400 into Go struct field inferRequest.input of type float64"},
		{"leading zero", `{"input":[01,2,3,4]}`, "malformed body: invalid character '1' after array element"},
		{"NaN", `{"input":[NaN,2,3,4]}`, "malformed body: invalid character 'N' looking for beginning of value"},
		{"hex float", `{"input":[0x1p-2,2,3,4]}`, "malformed body: invalid character 'x' after array element"},
		{"plus sign", `{"input":[+1,2,3,4]}`, "malformed body: invalid character '+' looking for beginning of value"},
		{"bare fraction", `{"input":[.5,2,3,4]}`, "malformed body: invalid character '.' looking for beginning of value"},
		{"bare point", `{"input":[1.,2,3,4]}`, "malformed body: invalid character ',' after decimal point in numeric literal"},
		{"bare exponent", `{"input":[1e,2,3,4]}`, "malformed body: invalid character ',' in exponent of numeric literal"},
		{"bare minus", `{"input":[-,2,3,4]}`, "malformed body: invalid character ',' in numeric literal"},
		{"trailing comma", `{"input":[1,2,3,4,]}`, "malformed body: invalid character ']' looking for beginning of value"},
		{"string element", `{"input":["1",2,3,4]}`,
			"malformed body: json: cannot unmarshal string into Go struct field inferRequest.input of type float64"},
		{"array body", `[1,2]`, "malformed body: json: cannot unmarshal array into Go value of type server.inferRequest"},
		{"unknown field", `{"data":[1,2,3,4]}`, `malformed body: json: unknown field "data"`},
		{"unknown short field", `{"data":[1]}`, `malformed body: json: unknown field "data"`},
		{"too large", `{"input":[1,2,3,4]` + strings.Repeat(" ", MaxBodyBytes) + "}",
			"malformed body: http: request body too large"},
		{"neither", `{}`, neither},
		{"null input", `{"input":null}`, neither},
		{"both input and inputs", string(both), neither},
		{"empty batch", `{"inputs":[]}`, "empty batch"},
		{"empty input", `{"input":[]}`, "input 0 has 0 features, model expects 4"},
		{"empty batch row", `{"inputs":[[]]}`, "input 0 has 0 features, model expects 4"},
		{"null batch row", `{"inputs":[[1,2,3,4],null]}`, "input 1 has 0 features, model expects 4"},
		{"wrong feature count", string(wrongDim), "input 0 has 2 features, model expects 4"},
		{"bad batch element", string(batchWrong), "input 1 has 1 features, model expects 4"},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/infer", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, raw)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", c.name, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &e); err != nil || e.Error != c.want {
			t.Errorf("%s: error %q (%v), want %q", c.name, e.Error, err, c.want)
		}
	}
}

// TestAcceptedBodyQuirks pins the bodies encoding/json accepts beyond the
// two documented shapes: each must be served exactly like its canonical
// body.
func TestAcceptedBodyQuirks(t *testing.T) {
	_, ts, _, _ := newTestServer(t)
	const (
		single = `{"input":[0,3.5,1.4,0.2]}`
		batch  = `{"inputs":[[0,3.5,1.4,0.2],[6.3,2.9,5.6,1.8]]}`
	)
	serve := func(body string) []byte {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/v1/infer", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", body, resp.StatusCode, raw)
		}
		return raw
	}
	wantSingle, wantBatch := serve(single), serve(batch)
	for _, c := range []struct {
		name, body string
		want       []byte
	}{
		{"key case", `{"Input":[0,3.5,1.4,0.2]}`, wantSingle},
		{"batch key case", `{"INPUTS":[[0,3.5,1.4,0.2],[6.3,2.9,5.6,1.8]]}`, wantBatch},
		{"duplicate key, last wins", `{"input":[1,2],"input":[0,3.5,1.4,0.2]}`, wantSingle},
		{"duplicate batch key", `{"inputs":[[1]],"inputs":[[0,3.5,1.4,0.2],[6.3,2.9,5.6,1.8]]}`, wantBatch},
		{"trailing garbage", single + ` garbage`, wantSingle},
		{"trailing object", batch + `{`, wantBatch},
		{"oversized trailing space", single + strings.Repeat(" ", MaxBodyBytes), wantSingle},
		{"whitespace", " \t\r\n{ \"input\" :\n[ 0 ,\t3.5,1.4 , 0.2 ] }\r\n ", wantSingle},
		{"batch whitespace", "{\"inputs\":[ [0,3.5,1.4,0.2] ,\n[6.3,2.9,5.6,1.8]\t]}\n", wantBatch},
		{"negative zero", `{"input":[-0,3.5,1.4,0.2]}`, wantSingle},
		{"exponent forms", `{"input":[0e0,35E-1,0.14e+1,2e-1]}`, wantSingle},
	} {
		if got := serve(c.body); !bytes.Equal(got, c.want) {
			t.Errorf("%s: served %s, want %s", c.name, got, c.want)
		}
	}
}

func TestUnknownModelRoutes(t *testing.T) {
	_, ts, _, test := newTestServer(t)
	body, _ := json.Marshal(map[string]any{"input": test.X[0]})
	resp, _ := postJSON(t, ts.URL+"/v1/models/ghost/infer", string(body))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("infer on unknown model = %d, want 404", resp.StatusCode)
	}
	resp2 := getJSON(t, ts.URL+"/v1/models/ghost", nil)
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("stat of unknown model = %d, want 404", resp2.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/ghost", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown model = %d, want 404", resp3.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/infer = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/models/iris", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/models/iris = %d, want 405", resp.StatusCode)
	}
}

func TestConcurrentRequests(t *testing.T) {
	_, ts, m, test := newTestServer(t)
	s := m.NewInferer()
	want := s.Infer(test.X[1])
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			body, _ := json.Marshal(map[string]any{"input": test.X[1]})
			resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out struct {
				Result struct {
					Logits []float64 `json:"logits"`
				} `json:"result"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			for j := range want {
				if out.Result.Logits[j] != want[j] {
					errs <- fmt.Errorf("logit %d: %v != %v", j, out.Result.Logits[j], want[j])
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
