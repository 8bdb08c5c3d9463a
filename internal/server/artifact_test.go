package server

// Coverage for the artifact plane: raw hash-addressed artifact serving,
// load-by-hash, the GC admin endpoint, and the full peer-fetch loop —
// a second server with an empty store loading a model it never saw by
// pulling bytes from the first.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/internal/artifact"
	"repro/internal/artifact/store"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/registry"
)

// inferBody builds a single-sample infer request from the test split.
func inferBody(t *testing.T, test *datasets.Dataset) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"input": test.X[0]})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
}

// irisHash fetches the loaded iris model's content hash over HTTP.
func irisHash(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	var stat struct {
		ContentHash string `json:"content_hash"`
	}
	if resp := getJSON(t, ts.URL+"/v1/models/iris", &stat); resp.StatusCode != http.StatusOK {
		t.Fatalf("stat iris: %d", resp.StatusCode)
	}
	if stat.ContentHash == "" {
		t.Fatal("iris has no content hash")
	}
	return stat.ContentHash
}

func TestArtifactEndpoint(t *testing.T) {
	_, ts, _, _ := newTestServer(t)
	hash := irisHash(t, ts)

	resp, err := http.Get(ts.URL + "/v1/artifacts/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch: %d, %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	if etag := resp.Header.Get("ETag"); etag != `"`+hash+`"` {
		t.Fatalf("ETag %q", etag)
	}
	// The body is the canonical artifact: it re-hashes to its address.
	if artifact.Sum(data).String() != hash {
		t.Fatal("served bytes do not hash to the requested address")
	}

	// Revalidation: a peer already holding the hash pays no body.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/artifacts/"+hash, nil)
	req.Header.Set("If-None-Match", `"`+hash+`"`)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match on own hash: %d, want 304", resp2.StatusCode)
	}

	// A well-formed but absent hash is 404, a malformed one 400.
	absent := artifact.Sum([]byte("no such artifact")).String()
	if resp, _ := http.Get(ts.URL + "/v1/artifacts/" + absent); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent artifact: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/artifacts/zzzz"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed hash: %d", resp.StatusCode)
	}
}

func TestLoadByHash(t *testing.T) {
	_, ts, _, test := newTestServer(t)
	hash := irisHash(t, ts)

	resp, body := postJSON(t, ts.URL+"/v1/models", fmt.Sprintf(`{"name":"twin","hash":"%s"}`, hash))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load by hash: %d %s", resp.StatusCode, body)
	}
	// The twin serves the same logits as the origin name.
	in := inferBody(t, test)
	var a, b struct {
		Result struct {
			Logits []float64 `json:"logits"`
		} `json:"result"`
	}
	respA, bodyA := postJSON(t, ts.URL+"/v1/models/iris/infer", in)
	respB, bodyB := postJSON(t, ts.URL+"/v1/models/twin/infer", in)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d / %d", respA.StatusCode, respB.StatusCode)
	}
	mustUnmarshal(t, bodyA, &a)
	mustUnmarshal(t, bodyB, &b)
	if !reflect.DeepEqual(a.Result.Logits, b.Result.Logits) {
		t.Fatalf("hash-loaded twin diverges: %v vs %v", a.Result.Logits, b.Result.Logits)
	}

	// Errors: unknown hash 404, malformed hash 400, ambiguous source 400.
	absent := artifact.Sum([]byte("never stored")).String()
	if resp, _ := postJSON(t, ts.URL+"/v1/models", fmt.Sprintf(`{"name":"x","hash":"%s"}`, absent)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/models", `{"name":"x","hash":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed hash: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/models", fmt.Sprintf(`{"name":"x","path":"p","hash":"%s"}`, hash)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("two sources: %d", resp.StatusCode)
	}
}

// brokenStore is a mem store whose writes fail as on a full disk and
// whose reads of one hash fail as corrupt.
type brokenStore struct {
	store.Store
	corrupt artifact.Hash
}

func (brokenStore) Put([]byte) (artifact.Hash, error) {
	return artifact.Hash{}, fmt.Errorf("write: %w", syscall.ENOSPC)
}

func (b brokenStore) Get(h artifact.Hash) ([]byte, error) {
	if h == b.corrupt {
		return nil, fmt.Errorf("%w: %s", store.ErrCorrupt, h)
	}
	return b.Store.Get(h)
}

// TestLoadStoreFailureIs500: a load the artifact store fails — a write
// refused by a full disk on the path and upload arms, a corrupt read on
// the hash arm — answers 500, not the 400 of a bad artifact, and binds
// no name. A hash the store does not hold still answers 404.
func TestLoadStoreFailureIs500(t *testing.T) {
	corrupt := artifact.Sum([]byte("rotted"))
	reg := registry.New(registry.WithStore(brokenStore{Store: store.NewMem(), corrupt: corrupt}))
	modelDir := t.TempDir()
	s := New(reg, "", WithModelDir(modelDir))
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	m := mixedModel(t)
	path := filepath.Join(modelDir, "m.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	upload, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	absent := artifact.Sum([]byte("never stored"))
	for _, c := range []struct {
		name   string
		source string
		code   int
		text   string
	}{
		{"bypath", fmt.Sprintf(`"path":%q`, path), http.StatusInternalServerError, "no space left on device"},
		{"upload", `"artifact":` + string(upload), http.StatusInternalServerError, "no space left on device"},
		{"corrupt", fmt.Sprintf(`"hash":%q`, corrupt), http.StatusInternalServerError, "do not match their hash"},
		{"absent", fmt.Sprintf(`"hash":%q`, absent), http.StatusNotFound, "not found"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/models", fmt.Sprintf(`{"name":%q,%s}`, c.name, c.source))
		if resp.StatusCode != c.code || !strings.Contains(string(body), c.text) {
			t.Errorf("load %s: %d %s, want %d naming %q", c.name, resp.StatusCode, body, c.code, c.text)
		}
		if _, err := reg.Stat(c.name); !errors.Is(err, registry.ErrNotFound) {
			t.Errorf("failed load %s left the name bound (Stat: %v)", c.name, err)
		}
	}
}

func TestStoreGCEndpoint(t *testing.T) {
	_, ts, _, _ := newTestServer(t)
	hash := irisHash(t, ts)

	// Loaded → pinned: a sweep removes nothing.
	var gc struct {
		Removed    int   `json:"removed"`
		FreedBytes int64 `json:"freed_bytes"`
	}
	resp, body := postJSON(t, ts.URL+"/v1/store/gc", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gc: %d %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &gc)
	if gc.Removed != 0 {
		t.Fatalf("gc swept %d blobs under a loaded model", gc.Removed)
	}

	// Unload, sweep again: the blob goes and the bytes are accounted.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/iris", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unload: %v %v", resp.StatusCode, err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/store/gc", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gc: %d %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &gc)
	if gc.Removed != 1 || gc.FreedBytes <= 0 {
		t.Fatalf("gc after unload: %+v", gc)
	}
	if resp, _ := http.Get(ts.URL + "/v1/artifacts/" + hash); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("blob survived gc: %d", resp.StatusCode)
	}
}

// TestPeerFetchBitIdentity is the chaos-proof in miniature: replica B
// starts with an empty store and no models, loads the iris model purely
// by hash through its peer tier, and serves logits byte-identical to
// replica A's.
func TestPeerFetchBitIdentity(t *testing.T) {
	_, tsA, _, test := newTestServer(t)
	hash := irisHash(t, tsA)

	// Replica B: empty local store over a Remote tier pointing at A.
	local := store.NewUnion(store.NewMem(), store.NewMem())
	remote := store.NewRemote([]string{tsA.URL})
	regB := registry.New(
		registry.WithRuntimeOptions(engine.WithWorkers(2)),
		registry.WithStore(store.NewUnion(local, remote)),
	)
	sB := New(regB, "")
	tsB := httptest.NewServer(sB)
	t.Cleanup(func() {
		tsB.Close()
		sB.Close()
	})

	resp, body := postJSON(t, tsB.URL+"/v1/models", fmt.Sprintf(`{"name":"iris","hash":"%s"}`, hash))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("peer load by hash: %d %s", resp.StatusCode, body)
	}

	// Bit-identical logits from both replicas.
	in := inferBody(t, test)
	var a, b struct {
		Result struct {
			Logits []float64 `json:"logits"`
		} `json:"result"`
	}
	respA, bodyA := postJSON(t, tsA.URL+"/v1/models/iris/infer", in)
	respB, bodyB := postJSON(t, tsB.URL+"/v1/models/iris/infer", in)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d / %d", respA.StatusCode, respB.StatusCode)
	}
	mustUnmarshal(t, bodyA, &a)
	mustUnmarshal(t, bodyB, &b)
	if !reflect.DeepEqual(a.Result.Logits, b.Result.Logits) {
		t.Fatalf("replicas diverge: %v vs %v", a.Result.Logits, b.Result.Logits)
	}

	// The fetched bytes persisted into B's local tiers, and B's own
	// artifact endpoint now serves them (from local tiers only — no
	// recursion back to A).
	respArt, err := http.Get(tsB.URL + "/v1/artifacts/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(respArt.Body)
	respArt.Body.Close()
	if respArt.StatusCode != http.StatusOK || artifact.Sum(data).String() != hash {
		t.Fatalf("B cannot serve the fetched artifact: %d", respArt.StatusCode)
	}

	// The peer fetch is observable: B's metrics nest the remote tier's
	// hit under store.slow.
	var metrics struct {
		Store store.Stats `json:"store"`
	}
	if resp := getJSON(t, tsB.URL+"/v1/metrics", &metrics); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if metrics.Store.Slow == nil || metrics.Store.Slow.Hits != 1 {
		t.Fatalf("remote tier hit not observable: %+v", metrics.Store.Slow)
	}
}
