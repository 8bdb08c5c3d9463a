package router

// Active health probing. Every probe interval, each replica answers
// three questions: is the process alive (/healthz — a 503 there is the
// graceful-drain signal, not a crash), can it take new work (/readyz),
// and how loaded is it (/v1/metrics queue occupancy, which feeds the
// least-queue-depth picker). Transport-level probe failures — refused,
// reset, timeout — feed the replica's circuit breaker exactly like
// request failures, so a crashed replica trips its breaker without any
// client request paying for the discovery; a successful probe closes
// it again.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// probeLoop probes one replica until the router closes; the first round
// fires immediately so a freshly started router converges fast.
func (rt *Router) probeLoop(rep *replica) {
	defer rt.wg.Done()
	rt.probe(rep)
	ticker := time.NewTicker(rt.probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.probe(rep)
		}
	}
}

// probe runs one round against rep and installs the findings.
func (rt *Router) probe(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.probeTimeout)
	defer cancel()

	code, _, err := rt.probeGet(ctx, rep, "/healthz")
	if err != nil {
		// The process is unreachable (refused, reset, probe timeout):
		// breaker food.
		rep.br.RecordFailure()
		rep.setProbe(false, false, false, 0, 0, fmt.Sprintf("healthz: %v", err))
		return
	}
	if code != http.StatusOK {
		// Alive but draining (or sick): route away without tripping the
		// breaker — a graceful shutdown is not a fault.
		rep.setProbe(false, code == http.StatusServiceUnavailable, false, 0, 0,
			fmt.Sprintf("healthz: status %d", code))
		return
	}
	rep.br.RecordSuccess()

	ready := false
	if code, _, err := rt.probeGet(ctx, rep, "/readyz"); err == nil {
		ready = code == http.StatusOK
	}

	queueLen, queueCap, occErr := rt.probeOccupancy(ctx, rep)
	probeErr := ""
	if occErr != nil {
		probeErr = fmt.Sprintf("metrics: %v", occErr)
	}
	rep.setProbe(true, false, ready, queueLen, queueCap, probeErr)
}

// probeGet fetches one probe endpoint, returning status and body.
func (rt *Router) probeGet(ctx context.Context, rep *replica, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base.String()+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// probeOccupancy sums per-model queue occupancy from the replica's
// /v1/metrics — the QueueLen/QueueCap backpressure signal the serving
// plane exposes per model: batch chunks waiting for one of the model's
// pooled inferers, against twice the pool size.
func (rt *Router) probeOccupancy(ctx context.Context, rep *replica) (queueLen, queueCap int, err error) {
	code, body, err := rt.probeGet(ctx, rep, "/v1/metrics")
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d", code)
	}
	var parsed struct {
		Models []struct {
			QueueLen int `json:"queue_len"`
			QueueCap int `json:"queue_cap"`
		} `json:"models"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		return 0, 0, err
	}
	for _, m := range parsed.Models {
		queueLen += m.QueueLen
		queueCap += m.QueueCap
	}
	return queueLen, queueCap, nil
}
