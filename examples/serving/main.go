// Serving: the deployment path end to end — train in float64, quantise
// twice (a uniform posit(8,0) network and a mixed-precision one), load
// both into the multi-model registry, serve them side by side over HTTP
// with dynamic micro-batching, and query load/infer/metrics/unload —
// exactly what cmd/positrond does as a standalone daemon. The finale is
// the artifact plane: a second replica with an empty store joins, loads
// a model purely by content hash through the peer-fetch tier, serves
// bit-identical logits, and a reference-aware GC sweep reclaims the
// blob the earlier unload stranded.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	positron "repro"
)

func main() {
	// Train on standardized features; keep the standardizer so the
	// deployed artifacts can consume raw measurements.
	train, test := positron.IrisSplit(0x1715)
	std := positron.FitStandardizer(train)
	net64 := positron.NewMLP([]int{4, 10, 6, 3}, 7)
	cfg := positron.DefaultTrainConfig()
	cfg.Epochs = 150
	cfg.LR = 0.05
	cfg.LRDecay = 0.99
	positron.Train(net64, std.Apply(train), cfg)

	// Two deployments of the same network: uniform posit(8,0), and one
	// posit per layer (the paper's precision-adaptable EMACs).
	uni := positron.QuantizeNetwork(net64, positron.PositArith(8, 0))
	uni.Stand = std
	mixed := positron.QuantizeMixed(net64, []positron.Arithmetic{
		positron.PositArith(8, 0), positron.PositArith(6, 0), positron.PositArith(8, 0),
	})
	mixed.Stand = std

	dir, err := os.MkdirTemp("", "positron-serving")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	// One artifact per format: the uniform network as a compact binary
	// artifact (content-addressed, fast to load), the mixed one as JSON.
	// The registry sniffs the format, so serving code never cares.
	uniPath := filepath.Join(dir, "posit8.quant.bin")
	mixedPath := filepath.Join(dir, "mixed.json")
	if err := positron.SaveArtifact(uni, uniPath); err != nil {
		panic(err)
	}
	if err := mixed.Save(mixedPath); err != nil {
		panic(err)
	}

	// The serving side: a registry with micro-batching and admission
	// control, two models, one HTTP handler — positrond in a few lines.
	// Max in-flight 8 means a burst beyond 8 concurrent requests is shed
	// with 429 instead of queueing without bound; the request timeout
	// bounds how long an admitted request may sit in the queues.
	reg := positron.NewRegistry(
		positron.WithRuntimeOptions(positron.WithWorkers(4)),
		positron.WithMaxBatch(32),
		positron.WithMaxInFlight(8),
		positron.WithRequestTimeout(2*time.Second),
	)
	if err := reg.LoadPath("posit8", uniPath); err != nil {
		panic(err)
	}
	// WithModelDir scopes HTTP path loads to our artifact directory
	// (uploads are always allowed; arbitrary paths never are).
	srv := positron.NewServer(reg, "posit8", positron.WithModelDir(dir))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("daemon listening on", base)

	// Load the second model over HTTP, as an operator would.
	loadBody, _ := json.Marshal(map[string]string{"name": "mixed", "path": mixedPath})
	resp := post(base+"/v1/models", loadBody)
	fmt.Printf("loaded second model over HTTP: %d\n", resp.StatusCode)
	resp.Body.Close()

	var list struct {
		Models []struct {
			Name          string   `json:"name"`
			Kind          string   `json:"kind"`
			Arithmetics   []string `json:"arithmetics"`
			ContentHash   string   `json:"content_hash"`
			ArtifactBytes int64    `json:"artifact_bytes"`
		} `json:"models"`
	}
	getInto(base+"/v1/models", &list)
	for _, m := range list.Models {
		fmt.Printf("  serving %-8s kind=%-7s arithmetics=%v artifact=%dB sha256:%.12s\n",
			m.Name, m.Kind, m.Arithmetics, m.ArtifactBytes, m.ContentHash)
	}

	// Content addressing in the API: the model list's ETag fingerprints
	// the loaded set, so a replica syncing membership polls with
	// If-None-Match and pays a 304 — no body — while nothing changed.
	listResp, err := http.Get(base + "/v1/models")
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, listResp.Body)
	listResp.Body.Close()
	etag := listResp.Header.Get("ETag")
	req304, _ := http.NewRequest(http.MethodGet, base+"/v1/models", nil)
	req304.Header.Set("If-None-Match", etag)
	r304, err := http.DefaultClient.Do(req304)
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, r304.Body)
	r304.Body.Close()
	fmt.Printf("membership sync poll: ETag %s, If-None-Match -> %d (%s)\n",
		etag, r304.StatusCode, http.StatusText(r304.StatusCode))

	// Query both models with the same raw sample; different precision
	// layouts, one API.
	sample, _ := json.Marshal(map[string]any{"input": test.X[0]})
	for _, name := range []string{"posit8", "mixed"} {
		var out struct {
			Result struct {
				Logits []float64 `json:"logits"`
				Class  int       `json:"class"`
			} `json:"result"`
		}
		r := post(base+"/v1/models/"+name+"/infer", sample)
		decode(r, &out)
		fmt.Printf("  %-8s -> class %d, logits %.3v\n", name, out.Result.Class, out.Result.Logits)
	}

	// A concurrent burst of single-sample requests, well past the
	// max-in-flight cap of 8: admitted requests coalesce into shared
	// runtime batches, the overflow is shed immediately with 429 +
	// Retry-After — bounded latency for the admitted, fast feedback for
	// the shed.
	var (
		wg                  sync.WaitGroup
		statusMu            sync.Mutex
		served, shed, other int
	)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"input": test.X[i%len(test.X)]})
			r := post(base+"/v1/infer", body) // default-model alias
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			statusMu.Lock()
			defer statusMu.Unlock()
			switch r.StatusCode {
			case http.StatusOK:
				served++
			case http.StatusTooManyRequests:
				shed++
			default:
				other++ // e.g. 503 when a slow host trips the request timeout
			}
		}(i)
	}
	wg.Wait()
	fmt.Printf("burst of 32 vs max in-flight 8: %d served, %d shed with 429, %d other\n",
		served, shed, other)

	var metrics struct {
		Models []struct {
			Name    string `json:"name"`
			Metrics struct {
				Requests      int64            `json:"requests"`
				Batches       int64            `json:"batches"`
				MaxCoalesced  int              `json:"max_coalesced"`
				Rejected      int64            `json:"rejected"`
				TimedOut      int64            `json:"timed_out"`
				InFlight      int64            `json:"in_flight"`
				BatchSizeHist map[string]int64 `json:"batch_size_hist"`
				P50Ms         float64          `json:"p50_ms"`
				P99Ms         float64          `json:"p99_ms"`
			} `json:"metrics"`
		} `json:"models"`
	}
	getInto(base+"/v1/metrics", &metrics)
	for _, m := range metrics.Models {
		fmt.Printf("  metrics %-8s requests=%d batches=%d max_coalesced=%d rejected=%d timed_out=%d in_flight=%d hist=%v p50=%.2fms p99=%.2fms\n",
			m.Name, m.Metrics.Requests, m.Metrics.Batches, m.Metrics.MaxCoalesced,
			m.Metrics.Rejected, m.Metrics.TimedOut, m.Metrics.InFlight,
			m.Metrics.BatchSizeHist, m.Metrics.P50Ms, m.Metrics.P99Ms)
	}

	// Graceful unload over HTTP: the name disappears immediately,
	// in-flight work drains, the runtime closes.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/models/mixed", nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	getInto(base+"/v1/models", &list)
	fmt.Printf("after unload: %d model(s) still serving\n", len(list.Models))

	// Peer artifact fetch: a second replica boots with an EMPTY store —
	// no artifact files, no -model flags — and a read-only remote tier
	// pointing at the first. Loading by content hash pulls the canonical
	// bytes over /v1/artifacts/{hash}, verifies them against the address,
	// persists them locally, and serves bit-identical logits.
	var stat struct {
		ContentHash string `json:"content_hash"`
	}
	getInto(base+"/v1/models/posit8", &stat)
	regB := positron.NewRegistry(
		positron.WithRuntimeOptions(positron.WithWorkers(2)),
		positron.WithArtifactStore(positron.NewUnionStore(
			positron.NewMemStore(), positron.NewRemoteStore([]string{base}))),
	)
	if err := regB.LoadHash("posit8", mustHash(stat.ContentHash)); err != nil {
		panic(err)
	}
	srvB := positron.NewServer(regB, "posit8")
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	httpB := &http.Server{Handler: srvB}
	go func() { _ = httpB.Serve(lnB) }()
	baseB := "http://" + lnB.Addr().String()
	var outA, outB struct {
		Result struct {
			Logits []float64 `json:"logits"`
		} `json:"result"`
	}
	decode(post(base+"/v1/models/posit8/infer", sample), &outA)
	decode(post(baseB+"/v1/models/posit8/infer", sample), &outB)
	fmt.Printf("peer-fetched replica: logits match origin = %v (sha256:%.12s)\n",
		fmt.Sprint(outA.Result.Logits) == fmt.Sprint(outB.Result.Logits), stat.ContentHash)

	// Reference-aware GC: unloading "mixed" above stranded its blob in
	// the origin's store; a sweep reclaims exactly the unreferenced bytes
	// while every loaded model's artifact is pinned in place.
	var gc struct {
		Removed    int   `json:"removed"`
		FreedBytes int64 `json:"freed_bytes"`
	}
	decode(post(base+"/v1/store/gc", nil), &gc)
	fmt.Printf("store gc: removed %d unreferenced blob(s), freed %d bytes\n", gc.Removed, gc.FreedBytes)

	shutdownB, cancelB := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelB()
	if err := httpB.Shutdown(shutdownB); err != nil {
		panic(err)
	}
	if err := srvB.Close(); err != nil {
		panic(err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		panic(err)
	}
	if err := srv.Close(); err != nil {
		panic(err)
	}
	fmt.Println("daemon closed cleanly")
}

func mustHash(s string) positron.ArtifactHash {
	h, err := positron.ParseArtifactHash(s)
	if err != nil {
		panic(err)
	}
	return h
}

func post(url string, body []byte) *http.Response {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	return resp
}

func decode(resp *http.Response, out any) {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		panic(err)
	}
}

func getInto(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		panic(err)
	}
	decode(resp, out)
}
