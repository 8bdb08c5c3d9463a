package server

// Probe + panic-isolation coverage: /healthz drain semantics, /readyz
// readiness states, and the ServeHTTP recovery middleware. CI runs this
// under -race.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/registry"
)

func TestReadyzReady(t *testing.T) {
	_, ts, _, _ := newTestServer(t)
	var body struct {
		Status string `json:"status"`
		Models []struct {
			Name     string `json:"name"`
			QueueLen int    `json:"queue_len"`
			QueueCap int    `json:"queue_cap"`
		} `json:"models"`
	}
	resp := getJSON(t, ts.URL+"/readyz", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
	if body.Status != "ready" {
		t.Fatalf("status = %q, want ready", body.Status)
	}
	if len(body.Models) != 1 || body.Models[0].Name != "iris" || body.Models[0].QueueCap <= 0 {
		t.Fatalf("readyz occupancy body wrong: %+v", body.Models)
	}
}

func TestReadyzNoModels(t *testing.T) {
	reg := registry.New()
	s := New(reg, "")
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	var body struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/readyz", &body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty registry readyz = %d, want 503", resp.StatusCode)
	}
	if body.Status != "no models loaded" {
		t.Fatalf("status = %q", body.Status)
	}
	// Liveness is independent of readiness: healthz stays 200.
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

func TestReadyzClosedRegistry(t *testing.T) {
	reg := registry.New()
	s := New(reg, "")
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close() })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/readyz", &body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed registry readyz = %d, want 503", resp.StatusCode)
	}
	if body.Status != "registry closed" {
		t.Fatalf("status = %q", body.Status)
	}
}

// TestHealthzDrain: BeginShutdown flips the liveness probe to 503 —
// the drain signal upstream routers read — while already-admitted
// requests keep being served.
func TestHealthzDrain(t *testing.T) {
	s, ts, _, test := newTestServer(t)

	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz = %d, want 200", resp.StatusCode)
	}
	s.BeginShutdown()
	var body struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	if body.Status != "draining" {
		t.Fatalf("status = %q, want draining", body.Status)
	}
	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	// Draining rejects nothing by itself: inference still works until the
	// listener stops accepting.
	body2, _ := json.Marshal(map[string]any{"input": test.X[0]})
	resp, raw := postJSON(t, ts.URL+"/v1/infer", string(body2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer while draining = %d (%s), want 200", resp.StatusCode, raw)
	}
	// The metrics endpoint reports the drain.
	var metrics struct {
		Server struct {
			Draining bool `json:"draining"`
		} `json:"server"`
	}
	getJSON(t, ts.URL+"/v1/metrics", &metrics)
	if !metrics.Server.Draining {
		t.Fatal("metrics server.draining = false after BeginShutdown")
	}
}

// flakyStatModel panics on its first String() call — simulating a
// handler-path panic — then behaves. It never serves inference in this
// test.
type flakyStatModel struct{ bombs *int }

type flakyInferer struct{}

func (m flakyStatModel) NewInferer() core.Inferer           { return flakyInferer{} }
func (flakyStatModel) Validate() error                      { return nil }
func (flakyStatModel) Kind() string                         { return "test" }
func (flakyStatModel) InputDim() int                        { return 1 }
func (flakyStatModel) OutputDim() int                       { return 1 }
func (flakyStatModel) NumLayers() int                       { return 1 }
func (flakyStatModel) Ariths() []emac.Arithmetic            { return nil }
func (flakyStatModel) ArithNames() []string                 { return []string{"test"} }
func (flakyStatModel) Standardizer() *datasets.Standardizer { return nil }
func (flakyStatModel) MemoryBits() int                      { return 0 }
func (flakyStatModel) Save(string) error                    { return errors.New("no") }
func (m flakyStatModel) String() string {
	if *m.bombs > 0 {
		*m.bombs--
		panic("stat bomb")
	}
	return "flaky"
}

func (flakyInferer) Infer(x []float64) []float64          { return []float64{0} }
func (flakyInferer) InferInto(dst, x []float64) []float64 { dst[0] = 0; return dst }
func (flakyInferer) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	for i := range xs {
		dst[i] = 0
	}
	return dst
}
func (flakyInferer) Predict([]float64) int              { return 0 }
func (flakyInferer) Accuracy(*datasets.Dataset) float64 { return 0 }

// TestHandlerPanicRecovered: a panic inside a handler becomes a 500 JSON
// error and a panics tick — the daemon keeps serving.
func TestHandlerPanicRecovered(t *testing.T) {
	bombs := 1
	reg := registry.New()
	if err := reg.Load("flaky", flakyStatModel{bombs: &bombs}); err != nil {
		t.Fatal(err)
	}
	s := New(reg, "flaky")
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	var errBody struct {
		Error string `json:"error"`
	}
	resp := getJSON(t, ts.URL+"/v1/models", &errBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", resp.StatusCode)
	}
	if errBody.Error == "" {
		t.Fatal("500 without JSON error envelope")
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("server panics = %d, want 1", got)
	}
	// The bomb is spent: the daemon survived and the route works again,
	// and /v1/metrics reports the recovered panic.
	var metrics struct {
		Server struct {
			Panics int64 `json:"panics"`
		} `json:"server"`
	}
	if resp := getJSON(t, ts.URL+"/v1/metrics", &metrics); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics after panic = %d, want 200", resp.StatusCode)
	}
	if metrics.Server.Panics != 1 {
		t.Fatalf("metrics server.panics = %d, want 1", metrics.Server.Panics)
	}
}

// TestInferencePanicIs500NotCrash: a poisoned input panicking inside the
// engine worker surfaces as a 500 on its own request; the daemon, the
// worker and subsequent requests survive, and the per-model panics
// counter ticks.
func TestInferencePanicIs500NotCrash(t *testing.T) {
	reg := registry.New()
	if err := reg.Load("boom", poisonModel{}); err != nil {
		t.Fatal(err)
	}
	s := New(reg, "boom")
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	resp, raw := postJSON(t, ts.URL+"/v1/infer", `{"input":[-1]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned infer = %d (%s), want 500", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/infer", `{"input":[1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean infer after panic = %d (%s), want 200", resp.StatusCode, raw)
	}
	var metrics struct {
		Models []struct {
			Name   string `json:"name"`
			Panics int64  `json:"panics"`
		} `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/metrics", &metrics)
	if len(metrics.Models) != 1 || metrics.Models[0].Panics != 1 {
		t.Fatalf("per-model panics counter wrong: %+v", metrics.Models)
	}
}

// poisonModel panics for negative inputs, echoes otherwise.
type poisonModel struct{}

type poisonInferer struct{}

func (poisonModel) NewInferer() core.Inferer             { return poisonInferer{} }
func (poisonModel) Validate() error                      { return nil }
func (poisonModel) Kind() string                         { return "test" }
func (poisonModel) InputDim() int                        { return 1 }
func (poisonModel) OutputDim() int                       { return 1 }
func (poisonModel) NumLayers() int                       { return 1 }
func (poisonModel) Ariths() []emac.Arithmetic            { return nil }
func (poisonModel) ArithNames() []string                 { return []string{"test"} }
func (poisonModel) Standardizer() *datasets.Standardizer { return nil }
func (poisonModel) MemoryBits() int                      { return 0 }
func (poisonModel) Save(string) error                    { return errors.New("no") }
func (poisonModel) String() string                       { return "poison" }

func (poisonInferer) Infer(x []float64) []float64 {
	if x[0] < 0 {
		panic("poisoned input")
	}
	return []float64{x[0]}
}
func (poisonInferer) InferInto(dst, x []float64) []float64 {
	copy(dst, poisonInferer{}.Infer(x))
	return dst
}
func (poisonInferer) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	for i, x := range xs {
		poisonInferer{}.InferInto(dst[i:i+1], x)
	}
	return dst
}
func (poisonInferer) Predict([]float64) int              { return 0 }
func (poisonInferer) Accuracy(*datasets.Dataset) float64 { return 0 }
