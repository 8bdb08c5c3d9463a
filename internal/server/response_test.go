package server

// The inference response writer against encoding/json: prediction and
// inferResponse are the envelope whose encoding/json bytes every 200
// must equal, a fuzz target holds the writer to them for arbitrary
// logits, and a model whose logits are NaN answers 500 on both request
// shapes.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
)

// prediction is one inference result.
type prediction struct {
	Logits []float64 `json:"logits"`
	Class  int       `json:"class"`
}

// inferResponse mirrors the request shape: Result for single, Results
// for batch.
type inferResponse struct {
	Result  *prediction  `json:"result,omitempty"`
	Results []prediction `json:"results,omitempty"`
}

// nonFinite is the 500 body for a non-finite logit in row k.
func nonFinite(k int) string {
	return fmt.Sprintf(`{"error":"inference produced a non-finite logit for input %d"}`+"\n", k)
}

// wantInfer is the answer to logits: encoding/json's bytes for the
// envelope with a 200, or the 500 naming the first row that holds a
// non-finite logit.
func wantInfer(logits [][]float64, single bool) (int, string) {
	preds := make([]prediction, len(logits))
	for k, l := range logits {
		for _, v := range l {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return http.StatusInternalServerError, nonFinite(k)
			}
		}
		preds[k] = prediction{Logits: l, Class: nn.Argmax(l)}
	}
	env := inferResponse{Results: preds}
	if single {
		env = inferResponse{Result: &preds[0]}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(env); err != nil {
		panic(err)
	}
	return http.StatusOK, buf.String()
}

// FuzzInferResponse: for any logits, two or three per row, as one input
// or a batch of up to four, writeInfer answers what wantInfer says, byte for byte,
// with a JSON content type.
func FuzzInferResponse(f *testing.F) {
	bits := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// Each side of encoding/json's switch to 'e' form (1e-6, 1e21) and
	// its e-09 → e-9 trim, signed zeros and the extremes.
	edges := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 9.999999e-7, 1e-6, 9.99e20, 1e21, math.MaxFloat64}
	for i, v := range edges {
		w := edges[(i+1)%len(edges)]
		for _, classes := range []uint8{2, 3} {
			f.Add(bits(v, -w, w, -v, v, w), classes, false)
			f.Add(bits(-v, w, v), classes, true)
		}
	}
	f.Add(bits(1, 2, 3, math.NaN(), 0.5, 0.25), uint8(2), false)
	f.Add(bits(math.Inf(-1), 0, 1), uint8(3), true)
	f.Add(bits(0.1, math.Inf(1), 2, 3, 4, 5), uint8(3), false)
	f.Fuzz(func(t *testing.T, raw []byte, classes uint8, single bool) {
		// At most four rows: more would only repeat the row separator,
		// and the minimiser can cut the bytes past them in one step.
		od := 2 + int(classes%2)
		n := min(len(raw)/(8*od), 4)
		if n == 0 {
			return
		}
		if single {
			n = 1
		}
		logits := make([][]float64, n)
		for k := range logits {
			logits[k] = make([]float64, od)
			for i := range logits[k] {
				logits[k][i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(k*od+i):]))
			}
		}
		rec := httptest.NewRecorder()
		writeInfer(rec, logits, single)
		code, body := wantInfer(logits, single)
		if rec.Code != code || rec.Body.String() != body {
			t.Fatalf("%v (single %v): answered %d %q, want %d %q", logits, single, rec.Code, rec.Body, code, body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
	})
}

// TestNonFiniteLogitAnswers500: a posit(8,0) Iris network whose output
// biases are NaR (code 0x80) is well formed, and every logit it computes
// is NaN. Both request shapes answer 500 with a JSON error rather than a
// 200 with an empty body.
func TestNonFiniteLogitAnswers500(t *testing.T) {
	net := core.Quantize(nn.NewMLP([]int{4, 10, 6, 3}, rng.New(7)), emac.NewPosit(8, 0))
	out := net.Layers[len(net.Layers)-1]
	for j := range out.B {
		out.B[j] = 0x80
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	_, ts := serveModel(t, net, t.TempDir())
	for _, body := range []string{
		`{"input":[5.1,3.5,1.4,0.2]}`,
		`{"inputs":[[5.1,3.5,1.4,0.2],[6.3,2.9,5.6,1.8]]}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/infer", body)
		if resp.StatusCode != http.StatusInternalServerError || string(raw) != nonFinite(0) {
			t.Errorf("%s: answered %d %q, want 500 %q", body, resp.StatusCode, raw, nonFinite(0))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", body, ct)
		}
	}
}
