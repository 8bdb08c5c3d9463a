package server

// The request scanner against encoding/json: a differential fuzz target,
// bodies json.Marshal writes that must take the fast path, the pooled
// plane's lifetime under -race, and the pools' size cap. The warm
// decode's allocations are checked in decode_alloc_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/rng"
)

// decodeJSON is the fallback's decode of body.
func decodeJSON(body []byte) (inferRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req inferRequest
	err := dec.Decode(&req)
	return req, err
}

// sameRequest reports how got differs from want, or "" when every
// feature has the same bits.
func sameRequest(got, want inferRequest) string {
	if (got.Input != nil) != (want.Input != nil) || (got.Inputs != nil) != (want.Inputs != nil) {
		return "different fields set"
	}
	rows := func(r inferRequest) [][]float64 {
		if r.Input != nil {
			return [][]float64{r.Input}
		}
		return r.Inputs
	}
	g, w := rows(got), rows(want)
	if len(g) != len(w) {
		return "different row counts"
	}
	for k := range w {
		if len(g[k]) != len(w[k]) {
			return "different row lengths"
		}
		for i := range w[k] {
			if math.Float64bits(g[k][i]) != math.Float64bits(w[k][i]) {
				return "different feature bits"
			}
		}
	}
	return ""
}

// FuzzInferDecode: for any body, the scanner either declines or decodes
// what encoding/json with DisallowUnknownFields decodes without error.
func FuzzInferDecode(f *testing.F) {
	for _, body := range []string{
		`{"input":[5.1,3.5,1.4,0.2]}`,
		`{"inputs":[[5.1,3.5,1.4,0.2],[6.3,2.9,5.6,1.8]]}`,
		` {"inputs" : [ [1,0] , [] ] } `,
		`{"input":[]}`, `{"inputs":[]}`, `{"inputs":[[]]}`,
		`{"input":null}`, `{"inputs":[[1,2,3,4],null]}`,
		`{"Input":[1,2,3,4]}`, `{"input":[1],"input":[1,2,3,4]}`,
		`{"input":[1,2,3,4]} garbage`, `{"input":[1,2,3,4]}{`,
		`{"input":[-0,0,-0.0,0e0]}`, `{"input":[1e400,2]}`, `{"input":[1e-400,-1e-400]}`,
		`{"input":[01]}`, `{"input":[-01]}`, `{"input":[.5]}`, `{"input":[1.]}`, `{"input":[1e]}`,
		`{"input":[1e+]}`, `{"input":[-]}`, `{"input":[+1]}`, `{"input":[NaN]}`, `{"input":[Infinity]}`,
		`{"input":[0x1p-2]}`, `{"input":[1_000]}`, `{"input":[1,2,]}`, `{"input":["1"]}`,
		`{"input":[123456789012345,1234567890123456,-9007199254740993]}`,
		`{"input":[5e-324,2.2250738585072014e-308,1.7976931348623157e308,1E+2]}`,
		`[1,2]`, `{"data":[1]}`, `{}`, ``, `{"input":[1]}`, `{"input":[1]`,
		"{\"input\":[1]}\n\t\r ", "\xef\xbb\xbf{\"input\":[1]}",
		`{"inputs":[[0,0,1,0,0,0,0,1,0,1,0,0],[1,0,0,0,0,1,0,0,1,0,0,1]]}`,
		`{"input":[1,01]}`, `{"input":[-0]}`, `{"input":[00]}`, `{"input":[0.5,1]}`,
		`{"input":[123456789012345,999999999999999]}`, `{"input":[1234567890123456,9999999999999999]}`,
		`{"input":[12.]}`, `{"input":[12.5]}`, `{"input":[12e1]}`, `{"input":[12E1]}`,
		`{"input":[12 ,3]}`, "{\"input\":[12\n]}", `{"input":[12`, `{"inputs":[[12`,
		`{"inputs":[[-1,0,1],[-7,-0]]}`, `{"input":[-123456789012345,-1234567890123456]}`,
		`{"input":[-12.5,-12e1,-12 ]}`, `{"input":[--1]}`, `{"input":[-00]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanInfer(body, planePool.Get().(*plane))
		if !ok {
			return
		}
		want, err := decodeJSON(body)
		if err != nil {
			t.Fatalf("scanner accepted %q, encoding/json: %v", body, err)
		}
		if diff := sameRequest(got, want); diff != "" {
			t.Fatalf("%q: %s: scanner %v, encoding/json %v", body, diff, got, want)
		}
	})
}

// BenchmarkScanInfer scans the seed-1 64-sample Mushroom body (the
// bench module's mushroom-batch request: 64 one-hot rows of 117
// features) and reports the time per number.
func BenchmarkScanInfer(b *testing.B) {
	_, test := datasets.MushroomSplit(datasets.MushroomSeed + 1)
	body, err := json.Marshal(map[string][][]float64{"inputs": test.X[:64]})
	if err != nil {
		b.Fatal(err)
	}
	p := planePool.New().(*plane)
	for b.Loop() {
		if _, ok := scanInfer(body, p); !ok {
			b.Fatal("scanner declined the Mushroom body")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(p.vals)), "ns/number")
}

// TestScanInferTakesMarshalledBodies keeps the fuzz property from holding
// only because the fast path declines: every body json.Marshal writes
// for either shape, with edge values among the features, must take it.
func TestScanInferTakesMarshalledBodies(t *testing.T) {
	edges := []float64{
		math.Copysign(0, -1), 0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
		math.MaxFloat64, -math.MaxFloat64, 1 << 53, 1<<53 + 2, -(1<<60 + 1<<8), 1e21, 1e15,
		999999999999999, -123456789012345, 0.1, 1e-7, -2.5e-5, 1,
	}
	r := rng.New(0x51)
	feature := func() float64 {
		switch r.Intn(4) {
		case 0:
			return edges[r.Intn(len(edges))]
		case 1:
			return float64(r.Intn(3))
		case 2:
			if r.Intn(2) == 0 {
				return math.Float64frombits(r.Uint64() & (1<<63 | 1<<52 - 1)) // subnormal
			}
			for {
				if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
					return v
				}
			}
		default:
			return r.NormMS(0, 100)
		}
	}
	p := planePool.New().(*plane)
	for trial := 0; trial < 300; trial++ {
		xs := make([][]float64, r.Intn(5))
		for k := range xs {
			xs[k] = make([]float64, r.Intn(40))
			for i := range xs[k] {
				xs[k][i] = feature()
			}
		}
		bodies := []any{map[string][][]float64{"inputs": xs}}
		reqs := []inferRequest{{Inputs: xs}}
		if len(xs) > 0 {
			bodies = append(bodies, map[string][]float64{"input": xs[0]})
			reqs = append(reqs, inferRequest{Input: xs[0]})
		}
		for i, want := range reqs {
			body, err := json.Marshal(bodies[i])
			if err != nil {
				t.Fatal(err)
			}
			got, ok := scanInfer(body, p)
			if !ok {
				t.Fatalf("scanner declined %s", body)
			}
			if diff := sameRequest(got, want); diff != "" {
				t.Fatalf("%s: %s", body, diff)
			}
		}
	}
	// Every row is capped at its own end, so appending to one copies.
	got, ok := scanInfer([]byte(`{"inputs":[[1,2],[3]]}`), p)
	if !ok {
		t.Fatal("scanner declined a two-row batch")
	}
	_ = append(got.Inputs[0], 9)
	if got.Inputs[1][0] != 3 {
		t.Fatalf("appending to row 0 overwrote row 1: %v", got.Inputs)
	}
}

// gateModel parks every fused batch call until the test releases it,
// handing the test the call's sample count and release channel. Once
// open is closed, calls pass straight through. Results are the wrapped
// model's.
type gateModel struct {
	core.Model
	calls chan gateCall
	open  chan struct{}
}

type gateCall struct {
	n       int
	release chan struct{}
}

func (m *gateModel) NewInferer() core.Inferer {
	return &gateInferer{Inferer: m.Model.NewInferer(), m: m}
}

type gateInferer struct {
	core.Inferer
	m *gateModel
}

func (g *gateInferer) InferBatchInto(dst []float64, xs [][]float64) []float64 {
	c := gateCall{n: len(xs), release: make(chan struct{})}
	select {
	case g.m.calls <- c:
		select {
		case <-c.release:
		case <-g.m.open:
		}
	case <-g.m.open:
	}
	return g.Inferer.InferBatchInto(dst, xs)
}

// TestBatchPlaneLifetime: pooled batch planes and single inputs under
// cancellation, on one worker so that flushes reach the model in order.
// Two explicit batches hold both flush planes, and single requests
// queue behind them. The two singles waiting for a plane of their own
// are cancelled, so a flush on another goroutine takes up the four
// queued ones; it parks in the model, and those four are cancelled
// too, while that flush will still read their inputs. A burst of
// explicit batches then decodes into pooled planes as the flush goes
// on. Every answer served must be a core session's, and -race must see
// no input written while a flush may still read it.
func TestBatchPlaneLifetime(t *testing.T) {
	m, test := irisModel(t)
	gm := &gateModel{Model: m, calls: make(chan gateCall), open: make(chan struct{})}
	reg := registry.New(registry.WithRuntimeOptions(engine.WithWorkers(1), engine.WithFlushPipeline(2)))
	if err := reg.Load("iris", gm); err != nil {
		t.Fatal(err)
	}
	s := New(reg, "iris", WithModelDir(t.TempDir()))
	t.Cleanup(func() { s.Close() })
	openGate := sync.OnceFunc(func() { close(gm.open) })
	t.Cleanup(openGate) // before Close, so a failed test cannot hang it
	ref := m.NewInferer()
	want := make([][]float64, len(test.X))
	for i, x := range test.X {
		want[i] = ref.Infer(x)
	}

	// serve posts body and, on a 200, checks its results against the
	// session's logits for test.X[lo:lo+n].
	serve := func(ctx context.Context, body []byte, lo, n int) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)).WithContext(ctx)
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			if ctx.Err() == nil {
				t.Errorf("status %d (%s)", rec.Code, rec.Body)
			}
			return
		}
		var out struct {
			Result  prediction   `json:"result"`
			Results []prediction `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Error(err)
			return
		}
		if out.Results == nil {
			out.Results = []prediction{out.Result}
		}
		if len(out.Results) != n {
			t.Errorf("%d results for %d inputs", len(out.Results), n)
			return
		}
		for i, res := range out.Results {
			for j, w := range want[lo+i] {
				if math.Float64bits(res.Logits[j]) != math.Float64bits(w) {
					t.Errorf("sample %d logit %d: %v, want %v", lo+i, j, res.Logits[j], w)
					return
				}
			}
		}
	}
	var batches sync.WaitGroup
	post := func(wg *sync.WaitGroup, ctx context.Context, v any, lo, n int) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); serve(ctx, body, lo, n) }()
	}
	batch := func(lo, n int) {
		post(&batches, context.Background(), map[string][][]float64{"inputs": test.X[lo : lo+n]}, lo, n)
	}
	singles := func(ctx context.Context, lo, n int) *sync.WaitGroup {
		var wg sync.WaitGroup
		for i := lo; i < lo+n; i++ {
			post(&wg, ctx, map[string][]float64{"input": test.X[i]}, i, 1)
		}
		return &wg
	}
	// parked waits for the model's next call and checks its size.
	parked := func(n int) gateCall {
		select {
		case c := <-gm.calls:
			if c.n != n {
				t.Fatalf("flush of %d samples reached the model, want %d", c.n, n)
			}
			return c
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for a %d-sample flush", n)
		}
		return gateCall{}
	}
	// waitStat polls the model's stats until ok holds.
	waitStat := func(what string, ok func(registry.ModelStat) bool) {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			if st, err := reg.Stat("iris"); err == nil && ok(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Each step waits on the batcher's and runtime's own state, not on
	// admitted requests: an admitted request may not have reached it yet.
	batch(0, 7)
	a := parked(7)
	batch(7, 9) // leases the second plane; its chunk waits for the worker
	waitStat("the second batch's chunk queued", func(st registry.ModelStat) bool {
		return st.PipelineInUse == 2 && st.QueueLen == 1
	})
	ownCtx, cancelOwn := context.WithCancel(context.Background())
	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	defer cancelQueued()
	own := singles(ownCtx, 20, 2) // each waits for a plane to flush alone
	waitStat("2 flushes waiting for a plane", func(st registry.ModelStat) bool { return st.BatchFlushing == 2 })
	queued := singles(queuedCtx, 22, 4) // every plane busy: queued
	// The flush cancelOwn hands on takes the whole queue.
	waitStat("4 queued calls", func(st registry.ModelStat) bool { return st.BatchQueued == 4 })
	cancelOwn()
	own.Wait()
	close(a.release)
	close(parked(9).release)
	parked(4) // the queued four, on a flush goroutine of their own
	cancelQueued()
	queued.Wait()
	for g := 0; g < 6; g++ {
		batch(26+3*g, 3)
	}
	openGate() // nothing orders the burst's decodes before the flush's reads
	batches.Wait()
}

// TestOversizedBodiesAreNotPooled: a body or plane past maxPooled is
// dropped after use rather than kept in its pool.
func TestOversizedBodiesAreNotPooled(t *testing.T) {
	row := "[" + strings.Repeat("1.25,", 999) + "1.25]"
	data := []byte(`{"inputs":[` + strings.Repeat(row+",", 69) + row + `]}`)
	if len(data) <= maxPooled {
		t.Fatalf("test body is %d bytes, want more than %d", len(data), maxPooled)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/infer", io.NopCloser(bytes.NewReader(data)))
	req, p, err := readInfer(httptest.NewRecorder(), r)
	if err != nil || p == nil || len(req.Inputs) != 70 {
		t.Fatalf("decode: %d rows, plane %v, err %v", len(req.Inputs), p != nil, err)
	}
	if cap(p.vals)*8 <= maxPooled {
		t.Fatalf("plane holds %d features, want more than %d bytes", cap(p.vals), maxPooled)
	}
	p.release()
	for i := 0; i < 100; i++ {
		if q := planePool.Get().(*plane); q == p {
			t.Fatal("oversized plane came back from the pool")
		}
		if b := bodyPool.Get().(*bytes.Buffer); b.Cap() > maxPooled {
			t.Fatalf("pooled body buffer holds %d bytes", b.Cap())
		}
	}
}
