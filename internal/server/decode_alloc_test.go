//go:build !race

// The race detector drops sync.Pool items at random, so a warm decode
// allocates there; this test runs only without it.

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/datasets"
)

// mushroomBody is json.Marshal of a 64-sample explicit Mushroom batch.
func mushroomBody(t *testing.T) []byte {
	_, test := datasets.MushroomSplit(datasets.MushroomSeed)
	body, err := json.Marshal(map[string][][]float64{"inputs": test.X[:64]})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// reusableBody is a request body that rewinds itself, so a warm decode
// can be measured without allocating a request per run.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// TestWarmDecodeAllocs: once the pools are warm, reading and decoding the
// 64-sample Mushroom body allocates at most 2 objects.
func TestWarmDecodeAllocs(t *testing.T) {
	data := mushroomBody(t)
	body := new(reusableBody)
	r := httptest.NewRequest(http.MethodPost, "/v1/infer", body)
	r.ContentLength = int64(len(data))
	w := httptest.NewRecorder()
	decode := func() {
		body.Reset(data)
		req, p, err := readInfer(w, r)
		if err != nil || p == nil || len(req.Inputs) != 64 {
			t.Fatalf("decode: %d rows, plane %v, err %v", len(req.Inputs), p != nil, err)
		}
		p.release()
	}
	decode()
	if n := testing.AllocsPerRun(50, decode); n > 2 {
		t.Fatalf("warm decode allocates %v objects, want at most 2", n)
	}
}
