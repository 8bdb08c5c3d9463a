// Package server implements the positrond HTTP inference API: a JSON
// front-end over a multi-model registry. Each loaded model owns a
// Runtime, whose pooled inferers compute on the request goroutines, and
// a dynamic micro-batcher; single-sample requests queued behind busy
// flush planes share one runtime batch.
//
//	GET    /healthz                 liveness probe (503 once shutdown
//	                                has begun — the drain signal the
//	                                router tier routes away from)
//	GET    /readyz                  readiness probe: 503 while the
//	                                registry is closed, empty, or every
//	                                model queue is saturated; the body
//	                                carries per-model queue occupancy
//	GET    /v1/models               list loaded models (with stats)
//	POST   /v1/models               load a model: {"name": "...", "path": "..."}
//	                                or {"name": "...", "artifact": {...}}
//	GET    /v1/models/{name}        one model's metadata and stats
//	DELETE /v1/models/{name}        graceful unload (drains in-flight work)
//	POST   /v1/models/{name}/infer  single ({"input": [...]}) or batch
//	                                ({"inputs": [[...], ...]}) inference
//	GET    /v1/metrics              per-model request counts, batch-size
//	                                histogram, p50/p99 latency
//	GET    /v1/artifacts/{hash}     raw canonical artifact bytes by
//	                                content address (ETag = hash; served
//	                                from the local store tiers only, so
//	                                peers can fetch without recursion)
//	POST   /v1/store/gc             sweep unreferenced artifact blobs
//	GET    /v1/model                default-model metadata  (PR 3 alias)
//	POST   /v1/infer                default-model inference (PR 3 alias)
//
// POST /v1/models also accepts {"name": "...", "hash": "..."}: the model
// loads from the content-addressed store alone, which over a peer-backed
// store means fetching the bytes from another replica by hash.
//
// Inference bodies are read whole into a pooled buffer. A strict scanner
// decodes the two documented shapes, an explicit batch into one pooled
// flat plane; every other body, and any read error (the MaxBodyBytes
// limit included), goes to encoding/json with DisallowUnknownFields over
// the same bytes. What a body means, and every 400 text, is therefore
// encoding/json's (decode.go).
//
// Errors are JSON ({"error": "..."}): 400 for malformed bodies or inputs
// of the wrong feature width, 403 for path loads outside the configured
// model directory (see WithModelDir; without one only inline artifact
// uploads are accepted), 404 for unknown models, 409 for duplicate
// loads, 405 for wrong methods, 500 for an inference whose logits are
// not finite (JSON has no NaN). Inference observes request-context
// cancellation, so a disconnected client stops occupying the pool.
// The artifact endpoint answers with the raw binary, not JSON.
//
// Inference rides each model's admission gate: with a registry
// max-in-flight cap configured, requests beyond the cap are shed with
// 429 + Retry-After instead of queueing without bound, and admitted
// requests that exceed the registry request timeout get 503 +
// Retry-After. /v1/metrics reports the rejected/timed-out counters and
// the in-flight gauge per model.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/store"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/registry"
)

// MaxBodyBytes bounds an inference request body (1 MiB is thousands of
// samples at the paper's feature widths).
const MaxBodyBytes = 1 << 20

// MaxArtifactBytes bounds an uploaded model artifact (the paper's
// largest network is a few hundred KiB of JSON codes).
const MaxArtifactBytes = 16 << 20

// Server is the HTTP handler set over one model registry. Create with
// New; Close unloads every model and drains its in-flight batches.
type Server struct {
	reg         *registry.Registry
	defaultName string
	modelDir    string
	mux         *http.ServeMux

	// draining flips /healthz to 503 once shutdown has begun, so
	// health-probing upstreams stop routing here while in-flight requests
	// finish (BeginShutdown).
	draining atomic.Bool
	// panics counts handler panics recovered by ServeHTTP (500 to the
	// client, daemon alive). Exposed in /v1/metrics.
	panics atomic.Int64
}

// Option configures a Server at construction.
type Option func(*Server)

// WithModelDir allows POST /v1/models path loads from artifacts under
// dir (resolved and prefix-checked, so "path" cannot probe the rest of
// the filesystem of an unauthenticated daemon). Without it, only inline
// artifact uploads are accepted over HTTP.
func WithModelDir(dir string) Option {
	return func(s *Server) { s.modelDir = dir }
}

// New builds a server over the registry. defaultName is the model served
// by the single-model /v1/infer and /v1/model aliases; it may be empty
// when no default is wanted (the aliases then 404 unless exactly one
// model is loaded, in which case that model is the default).
func New(reg *registry.Registry, defaultName string, opts ...Option) *Server {
	s := &Server{reg: reg, defaultName: defaultName, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/models", s.handleListModels)
	s.mux.HandleFunc("POST /v1/models", s.handleLoadModel)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleModelStat)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.handleUnloadModel)
	s.mux.HandleFunc("POST /v1/models/{name}/infer", s.handleModelInfer)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/artifacts/{hash}", s.handleArtifact)
	s.mux.HandleFunc("POST /v1/store/gc", s.handleStoreGC)
	s.mux.HandleFunc("GET /v1/model", s.handleDefaultModelStat)
	s.mux.HandleFunc("POST /v1/infer", s.handleDefaultInfer)
	s.mux.HandleFunc("/healthz", methodNotAllowed)
	s.mux.HandleFunc("/readyz", methodNotAllowed)
	s.mux.HandleFunc("/v1/models", methodNotAllowed)
	s.mux.HandleFunc("/v1/models/{name}", methodNotAllowed)
	s.mux.HandleFunc("/v1/models/{name}/infer", methodNotAllowed)
	s.mux.HandleFunc("/v1/metrics", methodNotAllowed)
	s.mux.HandleFunc("/v1/artifacts/{hash}", methodNotAllowed)
	s.mux.HandleFunc("/v1/store/gc", methodNotAllowed)
	s.mux.HandleFunc("/v1/model", methodNotAllowed)
	s.mux.HandleFunc("/v1/infer", methodNotAllowed)
	return s
}

// ServeHTTP implements http.Handler. It recovers handler panics: the
// request fails with a 500 JSON error (when nothing has been written
// yet) and the daemon survives, with the event counted in /v1/metrics.
// http.ErrAbortHandler propagates — that is net/http's own
// abort-the-connection protocol, not a crash.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ww := &observedWriter{ResponseWriter: w}
	defer func() {
		if p := recover(); p != nil {
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.panics.Add(1)
			if !ww.wrote {
				writeError(ww, http.StatusInternalServerError, "internal error: %v", p)
			}
		}
	}()
	s.mux.ServeHTTP(ww, r)
}

// BeginShutdown flips /healthz (and /readyz) to 503 so health-probing
// upstreams — the router tier, load balancers — stop routing new
// requests to this replica while in-flight ones finish. Call it before
// shutting the HTTP listener down; it does not itself reject requests.
// Idempotent and safe for concurrent use.
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// Draining reports whether BeginShutdown has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// observedWriter tracks whether a response has started, so the panic
// recovery path knows if a 500 can still be written.
type observedWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *observedWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *observedWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Registry returns the model registry backing the server.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Close unloads every model, draining each runtime. Call after the HTTP
// listener has shut down.
func (s *Server) Close() error { return s.reg.Close() }

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorJSON is the error envelope for every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

func methodNotAllowed(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyModel is one model's queue occupancy in the readiness body.
type readyModel struct {
	Name     string `json:"name"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
}

// readyResponse is the /readyz body: overall status plus per-model
// occupancy, the signal the router tier's probes read for least-loaded
// replica picking.
type readyResponse struct {
	Status string       `json:"status"`
	Models []readyModel `json:"models"`
}

// handleReadyz distinguishes readiness from liveness: the process may be
// alive (healthz 200) yet unable to serve — shutting down, no models
// loaded, or every model's queue saturated. Upstreams route new
// traffic only to ready replicas.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	stats := s.reg.Stats()
	models := make([]readyModel, len(stats))
	saturated := len(stats) > 0
	for i, st := range stats {
		models[i] = readyModel{Name: st.Name, QueueLen: st.QueueLen, QueueCap: st.QueueCap}
		if st.QueueLen < st.QueueCap {
			saturated = false
		}
	}
	status, code := "ready", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case s.reg.Closed():
		status, code = "registry closed", http.StatusServiceUnavailable
	case len(stats) == 0:
		status, code = "no models loaded", http.StatusServiceUnavailable
	case saturated:
		status, code = "all model queues saturated", http.StatusServiceUnavailable
	}
	writeJSON(w, code, readyResponse{Status: status, Models: models})
}

// defaultModel resolves the name behind the /v1/infer and /v1/model
// aliases: the configured default, or the sole loaded model.
func (s *Server) defaultModel() (string, bool) {
	if s.defaultName != "" {
		return s.defaultName, true
	}
	if names := s.reg.Names(); len(names) == 1 {
		return names[0], true
	}
	return "", false
}

// acquire pins a model by name, translating registry errors to HTTP.
func (s *Server) acquire(w http.ResponseWriter, name string) (*registry.Handle, bool) {
	h, err := s.reg.Acquire(name)
	switch {
	case err == nil:
		return h, true
	case errors.Is(err, registry.ErrNotFound):
		writeError(w, http.StatusNotFound, "model %q not loaded", name)
	case errors.Is(err, registry.ErrRegistryClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
	return nil, false
}

// --- model management ---

type modelList struct {
	Models []registry.ModelStat `json:"models"`
}

// etagMatch reports whether an If-None-Match header matches etag. Weak
// validators compare equal to their strong form (RFC 9110 §13.1.2 —
// fine for GET/HEAD, where weak comparison is allowed).
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimPrefix(strings.TrimSpace(c), "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// writeConditional sets the ETag header and serves 304 when the
// client's If-None-Match already names this entity; otherwise it sends
// the body. Replicas polling /v1/models for membership changes pay one
// hash comparison, not a JSON body, per unchanged poll.
func writeConditional(w http.ResponseWriter, r *http.Request, etag string, status int, v any) {
	if etag != "" {
		w.Header().Set("ETag", etag)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	writeJSON(w, status, v)
}

// listETag fingerprints the loaded-model set: sorted name:hash lines,
// hashed. Any load, unload, or swap changes it; a byte-identical fleet
// member produces the identical tag.
func listETag(stats []registry.ModelStat) string {
	lines := make([]string, 0, len(stats))
	for _, st := range stats {
		lines = append(lines, st.Name+":"+st.ContentHash)
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	stats := s.reg.Stats()
	writeConditional(w, r, listETag(stats), http.StatusOK, modelList{Models: stats})
}

// loadRequest is the POST /v1/models body: Name plus exactly one of
// Path (an artifact on the server's filesystem), Artifact (the raw
// artifact JSON, uploaded inline), or Hash (a content address to load
// from the store — with a peer-backed store, fetched across the fleet).
type loadRequest struct {
	Name     string          `json:"name"`
	Path     string          `json:"path,omitempty"`
	Artifact json.RawMessage `json:"artifact,omitempty"`
	Hash     string          `json:"hash,omitempty"`
}

func (s *Server) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxArtifactBytes))
	dec.DisallowUnknownFields()
	var req loadRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed body: %v", err)
		return
	}
	sources := 0
	for _, set := range []bool{req.Path != "", len(req.Artifact) != 0, req.Hash != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		writeError(w, http.StatusBadRequest, `body must set exactly one of "path", "artifact", or "hash"`)
		return
	}
	var err error
	switch {
	case req.Path != "":
		path, ok := s.allowedPath(req.Path)
		if !ok {
			writeError(w, http.StatusForbidden,
				"path loads are restricted to the configured model directory; upload the artifact inline instead")
			return
		}
		err = s.reg.LoadPath(req.Name, path)
	case req.Hash != "":
		h, perr := artifact.ParseHash(req.Hash)
		if perr != nil {
			writeError(w, http.StatusBadRequest, "%v", perr)
			return
		}
		err = s.reg.LoadHash(req.Name, h)
	default:
		err = s.reg.LoadBytes(req.Name, req.Artifact)
	}
	switch {
	case err == nil:
	case errors.Is(err, registry.ErrExists):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, registry.ErrRegistryClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case errors.Is(err, registry.ErrStore):
		// The store failed, not the client's artifact.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	case errors.Is(err, store.ErrNotFound):
		// Load-by-hash asked for bytes neither this replica nor its
		// peers hold.
		writeError(w, http.StatusNotFound, "%v", err)
		return
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	stat, err := s.reg.Stat(req.Name)
	if err != nil {
		// Unloaded again between Load and Stat; report the load anyway.
		stat = registry.ModelStat{Name: req.Name}
	}
	if stat.ContentHash != "" {
		w.Header().Set("ETag", `"`+stat.ContentHash+`"`)
	}
	writeJSON(w, http.StatusCreated, stat)
}

// allowedPath resolves a client-supplied artifact path against the
// configured model directory; clients must not be able to use the load
// endpoint as a filesystem probe.
func (s *Server) allowedPath(p string) (string, bool) {
	if s.modelDir == "" {
		return "", false
	}
	dir, err := filepath.Abs(s.modelDir)
	if err != nil {
		return "", false
	}
	if !filepath.IsAbs(p) {
		p = filepath.Join(dir, p)
	}
	p = filepath.Clean(p)
	if p != dir && !strings.HasPrefix(p, dir+string(filepath.Separator)) {
		return "", false
	}
	return p, true
}

func (s *Server) handleUnloadModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Unload(name); err != nil {
		switch {
		case errors.Is(err, registry.ErrNotFound):
			writeError(w, http.StatusNotFound, "model %q not loaded", name)
		case errors.Is(err, registry.ErrRegistryClosed):
			writeError(w, http.StatusServiceUnavailable, "server shutting down")
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "unloaded", "model": name})
}

func (s *Server) handleModelStat(w http.ResponseWriter, r *http.Request) {
	s.writeModelStat(w, r, r.PathValue("name"))
}

func (s *Server) handleDefaultModelStat(w http.ResponseWriter, r *http.Request) {
	name, ok := s.defaultModel()
	if !ok {
		writeError(w, http.StatusNotFound, "no default model (load one, or address /v1/models/{name})")
		return
	}
	s.writeModelStat(w, r, name)
}

func (s *Server) writeModelStat(w http.ResponseWriter, r *http.Request, name string) {
	stat, err := s.reg.Stat(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "model %q not loaded", name)
		return
	}
	// The content hash is the entity tag: same hash, same artifact, same
	// served logits — a 304 is always safe.
	etag := ""
	if stat.ContentHash != "" {
		etag = `"` + stat.ContentHash + `"`
	}
	writeConditional(w, r, etag, http.StatusOK, stat)
}

// --- artifact plane ---

// handleArtifact serves raw canonical artifact bytes by content address
// — the peer-fetch endpoint behind store.Remote. It reads through the
// store's local view only: answering a peer's fetch by fetching from
// peers would let two replicas missing the same blob recurse into each
// other forever. The hash is the ETag, so a peer that already holds the
// bytes revalidates for free.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	h, err := artifact.ParseHash(r.PathValue("hash"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	etag := `"` + h.String() + `"`
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, err := store.Local(s.reg.Store()).Get(h)
	switch {
	case err == nil:
	case errors.Is(err, store.ErrNotFound):
		writeError(w, http.StatusNotFound, "artifact %s not in store", h)
		return
	case errors.Is(err, store.ErrCorrupt):
		// Refuse to propagate rot into the fleet.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("ETag", etag)
	_, _ = w.Write(data)
}

// gcResponse is the POST /v1/store/gc body.
type gcResponse struct {
	Removed    int   `json:"removed"`
	FreedBytes int64 `json:"freed_bytes"`
}

// handleStoreGC sweeps unreferenced blobs out of the artifact store —
// the admin reclamation endpoint behind Registry.GC. Loaded models and
// in-flight loads are pinned; everything else goes.
func (s *Server) handleStoreGC(w http.ResponseWriter, _ *http.Request) {
	removed, freed, err := s.reg.GC()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "store gc: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, gcResponse{Removed: removed, FreedBytes: freed})
}

// --- metrics ---

// serverMetrics is the process-level slice of /v1/metrics (per-model
// stats live under "models").
type serverMetrics struct {
	// Panics counts handler panics recovered by ServeHTTP (each cost one
	// request a 500, never the daemon).
	Panics int64 `json:"panics"`
	// Draining reports whether shutdown has begun (healthz is 503).
	Draining bool `json:"draining"`
}

type metricsResponse struct {
	Server serverMetrics        `json:"server"`
	Store  store.Stats          `json:"store"`
	Models []registry.ModelStat `json:"models"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, metricsResponse{
		Server: serverMetrics{Panics: s.panics.Load(), Draining: s.draining.Load()},
		Store:  s.reg.StoreStats(),
		Models: s.reg.Stats(),
	})
}

// --- inference ---

// inferRequest is the inference body: exactly one of Input (single) or
// Inputs (batch).
type inferRequest struct {
	Input  []float64   `json:"input"`
	Inputs [][]float64 `json:"inputs"`
}

// retryAfter suggests a whole-seconds backoff for shed or timed-out
// requests, derived from observed load: the model's queue-wait EWMA plus
// one observed flush interval (Metrics.RetryHint) — roughly when a freed
// admission unit plausibly reaches a retry. Clamped to [1s, 30s]: the
// header does not admit sub-second values, and past 30s the hint is
// telling the client the model is wedged, not busy.
func retryAfter(h *registry.Handle) string {
	d := h.Metrics().RetryHint()
	const lo, hi = time.Second, 30 * time.Second
	switch {
	case d < lo:
		d = lo
	case d > hi:
		d = hi
	}
	// Round up to whole seconds — never hint sooner than the estimate.
	return strconv.Itoa(int((d + time.Second - 1) / time.Second))
}

func (s *Server) handleModelInfer(w http.ResponseWriter, r *http.Request) {
	s.infer(w, r, r.PathValue("name"))
}

func (s *Server) handleDefaultInfer(w http.ResponseWriter, r *http.Request) {
	name, ok := s.defaultModel()
	if !ok {
		writeError(w, http.StatusNotFound, "no default model (load one, or address /v1/models/{name}/infer)")
		return
	}
	s.infer(w, r, name)
}

// infer serves one inference request against the named model. Single
// inputs ride the micro-batcher (coalescing with concurrent requests);
// explicit batches go straight to the runtime batch path.
func (s *Server) infer(w http.ResponseWriter, r *http.Request, name string) {
	req, p, err := readInfer(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed body: %v", err)
		return
	}
	single := req.Input != nil
	batch := req.Inputs != nil
	if single == batch {
		writeError(w, http.StatusBadRequest, `body must set exactly one of "input" or "inputs"`)
		return
	}
	if batch && len(req.Inputs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}

	h, ok := s.acquire(w, name)
	if !ok {
		return
	}
	defer h.Release()

	want := h.Model().InputDim()
	xs := req.Inputs
	if single {
		xs = [][]float64{req.Input}
	}
	for i, x := range xs {
		if len(x) != want {
			writeError(w, http.StatusBadRequest,
				"input %d has %d features, model expects %d", i, len(x), want)
			return
		}
	}

	var logits [][]float64
	if single {
		var one []float64
		one, err = h.Infer(r.Context(), req.Input)
		logits = [][]float64{one}
	} else {
		logits, err = h.InferBatch(r.Context(), req.Inputs)
		// The runtime drains every submitted chunk before InferBatch
		// returns, even on cancellation, so nothing reads the rows now.
		// A panic skips this and drops the plane.
		p.release()
	}
	switch {
	case err == nil:
	case errors.Is(err, registry.ErrOverloaded):
		// Shed, not queued: tell the client to back off for the
		// load-derived hint (queue-wait EWMA + flush interval).
		w.Header().Set("Retry-After", retryAfter(h))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, registry.ErrRequestTimeout):
		w.Header().Set("Retry-After", retryAfter(h))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, engine.ErrClosed), errors.Is(err, registry.ErrBatcherClosed):
		writeError(w, http.StatusServiceUnavailable, "model %q unloading", name)
		return
	case errors.Is(err, engine.ErrPanic):
		// A poisoned input killed its own inference, not the daemon; the
		// runtime recovered and /v1/metrics counts the panic.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	default:
		// Context cancellation: the client is gone; any status works.
		writeError(w, http.StatusInternalServerError, "inference aborted: %v", err)
		return
	}
	writeInfer(w, logits, single)
}

// writeInfer answers an inference with one prediction per row of
// logits: {"result":{"logits":[…],"class":k}} for a single input and
// {"results":[…]} for a batch, where the class is the row's argmax. It
// writes the bytes json.NewEncoder(w).Encode writes for that envelope,
// appended without reflection into a pooled body buffer. JSON has no
// NaN or infinity, so a non-finite logit answers 500 instead; nothing
// is written before the whole body is built.
func writeInfer(w http.ResponseWriter, logits [][]float64, single bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	buf.Reset()
	if single {
		buf.WriteString(`{"result":`)
	} else {
		buf.WriteString(`{"results":[`)
	}
	for k, l := range logits {
		if k > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`{"logits":[`)
		for i, v := range l {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				writeError(w, http.StatusInternalServerError, "inference produced a non-finite logit for input %d", k)
				return
			}
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.Write(appendFloat(buf.AvailableBuffer(), v))
		}
		buf.WriteString(`],"class":`)
		buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(nn.Argmax(l)), 10))
		buf.WriteByte('}')
	}
	if !single {
		buf.WriteByte(']')
	}
	buf.WriteString("}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in 'e' form below 1e-6 and from
// 1e21 on, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
