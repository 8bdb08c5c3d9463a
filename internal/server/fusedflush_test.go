package server

// Coalescing + fused-kernel exactness over the wire: concurrent single-
// input HTTP requests ride the micro-batcher, whose flush now runs one
// fused InferBatchInto per worker chunk. The response bytes must be
// byte-for-byte what a serial core session produces, and the metrics
// must prove the requests really coalesced. CI runs this under -race.

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/nn"
	"repro/internal/registry"
)

func TestCoalescedHTTPBytesMatchFusedFlush(t *testing.T) {
	ts, gm, open, m, test := newGatedServer(t, registry.WithMaxBatch(8))

	// Ground truth: the exact response envelope a serial per-sample
	// session would yield, serialised the same way the handler does.
	const n = 32
	ref := m.NewInferer()
	want := make([][]byte, n)
	for i := range want {
		logits := ref.Infer(test.X[i%len(test.X)])
		env := inferResponse{Result: &prediction{Logits: logits, Class: nn.Argmax(logits)}}
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(b, '\n') // writeJSON uses json.Encoder, which appends \n
	}

	got := make([][]byte, n)
	burstBehindPins(t, ts, gm, open, n, func(i int) {
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
	})
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("request %d response bytes diverge from serial session:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}

	// The requests must actually have shared flushes — otherwise this
	// test silently stops covering the fused batch path.
	var metrics struct {
		Models []struct {
			Name    string `json:"name"`
			Metrics struct {
				MaxCoalesced int `json:"max_coalesced"`
			} `json:"metrics"`
		} `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/metrics", &metrics)
	if len(metrics.Models) != 1 {
		t.Fatalf("metrics models = %+v", metrics.Models)
	}
	if mc := metrics.Models[0].Metrics.MaxCoalesced; mc <= 1 {
		t.Fatalf("no coalescing observed (max_coalesced = %d); fused flush path untested", mc)
	}
}

// TestExplicitHTTPBatchMatchesFusedFlush drives the explicit batch route
// (which goes straight to Runtime.InferBatch's chunked fused path) and
// checks byte identity the same way.
func TestExplicitHTTPBatchMatchesFusedFlush(t *testing.T) {
	_, ts, m, test := newTestServer(t)

	const n = 24
	xs := test.X[:n]
	ref := m.NewInferer()
	preds := make([]prediction, n)
	for i, x := range xs {
		logits := ref.Infer(x)
		preds[i] = prediction{Logits: logits, Class: nn.Argmax(logits)}
	}
	wantBytes, err := json.Marshal(inferResponse{Results: preds})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes = append(wantBytes, '\n')

	body, err := json.Marshal(inferRequest{Inputs: xs})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/infer", string(body))
	if resp.StatusCode != 200 {
		t.Fatalf("batch infer: status %d (%s)", resp.StatusCode, raw)
	}
	if !bytes.Equal(raw, wantBytes) {
		t.Fatalf("batch response bytes diverge from serial session:\n got %s\nwant %s", raw, wantBytes)
	}
}
