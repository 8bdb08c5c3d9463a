// Resilience: the distributed serving plane under fire — two positrond
// replicas behind the routing tier, one replica seeded with
// deterministic faults (injected 503s and latency spikes), then killed
// outright. The router's retries, health probes and circuit breaker
// keep every client request answering 200 with bit-identical logits,
// and the /v1/metrics snapshot shows the breaker doing its job.
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
	"time"

	positron "repro"
)

func main() {
	// One trained, quantised artifact served by both replicas: replicas
	// must be interchangeable for retries and failover to be invisible.
	train, test := positron.IrisSplit(0x1715)
	std := positron.FitStandardizer(train)
	net64 := positron.NewMLP([]int{4, 10, 6, 3}, 7)
	cfg := positron.DefaultTrainConfig()
	cfg.Epochs = 150
	cfg.LR = 0.05
	cfg.LRDecay = 0.99
	positron.Train(net64, std.Apply(train), cfg)
	dp := positron.QuantizeNetwork(net64, positron.PositArith(8, 0))
	dp.Stand = std

	dir, err := os.MkdirTemp("", "positron-resilience")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "iris.json")
	if err := dp.Save(path); err != nil {
		panic(err)
	}

	// Replica A is flaky on purpose: a deterministic fault schedule
	// injects 503s on 30% of inferences and 5ms stalls on another 20%.
	// Replica B is clean.
	rule503, err := positron.ParseFaultRule("/v1/models/iris/infer:error=503@p=0.3")
	if err != nil {
		panic(err)
	}
	ruleLat, err := positron.ParseFaultRule("/v1/models/iris/infer:latency=5ms@p=0.2")
	if err != nil {
		panic(err)
	}
	inj := positron.NewFaultInjector(42, rule503, ruleLat)

	replicaA, closeA := startReplica(path, inj)
	replicaB, closeB := startReplica(path, nil)
	defer closeB()
	fmt.Println("replica A (faulty) on", replicaA, "— replica B (clean) on", replicaB)

	// The routing tier: probes every 100ms, opens a replica's breaker
	// after 2 consecutive failures, retries twice with jittered backoff.
	rt, err := positron.NewRouter([]string{replicaA, replicaB},
		positron.WithProbeInterval(100*time.Millisecond),
		positron.WithProbeTimeout(250*time.Millisecond),
		positron.WithBreakerThreshold(2),
		positron.WithBreakerCooldown(500*time.Millisecond),
		positron.WithMaxRetries(2),
		positron.WithRetryBackoff(2*time.Millisecond, 50*time.Millisecond),
	)
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	routerSrv := &http.Server{Handler: rt}
	go func() { _ = routerSrv.Serve(ln) }()
	defer routerSrv.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()
	fmt.Println("router listening on", base)

	// Phase 1: both replicas up, A injecting faults. Every request must
	// still answer 200 — the router retries over the injected 503s.
	sample, _ := json.Marshal(map[string]any{"input": test.X[0]})
	var reference []float64
	okCount := 0
	for i := 0; i < 40; i++ {
		logits, status := inferOnce(base, sample)
		if status == http.StatusOK {
			okCount++
			if reference == nil {
				reference = logits
			} else if !equal(reference, logits) {
				panic("logits diverged between replicas — they serve the same artifact, this must not happen")
			}
		}
	}
	fmt.Printf("phase 1 (fault injection on A): %d/40 requests answered 200, all logits bit-identical\n", okCount)
	fmt.Printf("  injector fired: %+v\n", inj.Counts())

	// Phase 2: kill replica A outright. Probes trip its breaker; every
	// request flows to B, still bit-identical.
	closeA()
	time.Sleep(400 * time.Millisecond) // a few probe rounds
	okCount = 0
	for i := 0; i < 20; i++ {
		logits, status := inferOnce(base, sample)
		if status == http.StatusOK {
			okCount++
			if !equal(reference, logits) {
				panic("logits changed after failover")
			}
		}
	}
	fmt.Printf("phase 2 (replica A killed): %d/20 requests answered 200 via failover\n", okCount)

	var m positron.RouterMetrics
	getInto(base+"/v1/metrics", &m)
	fmt.Printf("router counters: proxied=%d retries=%d unavailable=%d exhausted=%d\n",
		m.Router.Proxied, m.Router.Retries, m.Router.Unavailable, m.Router.Exhausted)
	for _, r := range m.Replicas {
		fmt.Printf("  replica %-28s breaker=%-9s healthy=%-5v opens=%d requests=%d failures=%d\n",
			r.Addr, r.State, r.Healthy, r.Opens, r.Requests, r.Failures)
	}
}

// startReplica boots one in-process positrond plane (registry + server),
// optionally wrapped in a fault injector, and returns its base URL.
func startReplica(artifactPath string, inj *positron.FaultInjector) (url string, stop func()) {
	reg := positron.NewRegistry(
		positron.WithRuntimeOptions(positron.WithWorkers(2)),
	)
	if err := reg.LoadPath("iris", artifactPath); err != nil {
		panic(err)
	}
	srv := positron.NewServer(reg, "iris")
	var handler http.Handler = srv
	if inj != nil {
		handler = inj.Wrap(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	httpSrv := &http.Server{Handler: handler}
	go func() { _ = httpSrv.Serve(ln) }()
	var once bool
	return "http://" + ln.Addr().String(), func() {
		if once {
			return
		}
		once = true
		httpSrv.Close()
		srv.Close()
	}
}

func inferOnce(base string, body []byte) (logits []float64, status int) {
	resp, err := http.Post(base+"/v1/models/iris/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var out struct {
		Result struct {
			Logits []float64 `json:"logits"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(err)
	}
	return out.Result.Logits, resp.StatusCode
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func getInto(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		panic(err)
	}
}
