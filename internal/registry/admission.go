package registry

// Per-model admission control. The micro-batcher and the runtime job
// queue both block producers when saturated, so without a gate a
// sustained burst makes every caller wait indefinitely — the opposite of
// what a latency-SLO serving plane wants (cf. Clipper and TF Serving,
// which treat bounded queues + load shedding as the prerequisite for
// batched inference SLOs). The gate in front of each entry's Batcher
// bounds concurrently admitted requests (WithMaxInFlight) and puts a
// deadline on each admitted one (WithRequestTimeout); requests beyond
// the bound are rejected immediately with ErrOverloaded, which the HTTP
// layer maps to 429 + Retry-After. Every request claims one unit, a
// single sample and an explicit batch alike.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOverloaded is returned when a model is at its in-flight admission
// cap: the request was shed, not queued. Clients should back off and
// retry.
var ErrOverloaded = errors.New("registry: model overloaded")

// ErrRequestTimeout is returned when an admitted request exceeds the
// registry's per-request deadline before its inference completes.
var ErrRequestTimeout = errors.New("registry: request timed out")

// gate is a non-blocking semaphore: a request claims one unit or is
// rejected outright (shed, never queued).
type gate struct {
	mu       sync.Mutex
	capacity int
	used     int
}

func newGate(capacity int) *gate { return &gate{capacity: capacity} }

// tryAcquire claims one unit if it fits under the cap.
func (g *gate) tryAcquire() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.used >= g.capacity {
		return false
	}
	g.used++
	return true
}

// release returns one unit. Must mirror a successful tryAcquire.
func (g *gate) release() {
	g.mu.Lock()
	g.used--
	g.mu.Unlock()
}

// Cap returns the gate's total capacity.
func (g *gate) Cap() int {
	if g == nil {
		return 0
	}
	return g.capacity
}

// admit claims one admission unit without blocking. On success it
// returns the release func (call exactly once, after the request
// finishes); at the cap it records the rejection and fails with
// ErrOverloaded.
func (e *entry) admit(name string) (func(), error) {
	if e.gate == nil {
		e.metrics.ObserveAdmit()
		return e.metrics.ObserveDone, nil
	}
	if !e.gate.tryAcquire() {
		e.metrics.ObserveRejected()
		return nil, fmt.Errorf("%w: %q at max in-flight %d", ErrOverloaded, name, e.gate.Cap())
	}
	e.metrics.ObserveAdmit()
	return func() {
		// Gauge down before the unit frees: the next admission's
		// ObserveAdmit must not race the gauge above the cap.
		e.metrics.ObserveDone()
		e.gate.release()
	}, nil
}

// withDeadline applies the per-request timeout, when one is configured.
func (e *entry) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, e.timeout)
}

// mapErr rewrites a deadline expiry caused by the registry's own
// request timeout into ErrRequestTimeout (and counts it). A caller whose
// own context was cancelled or expired keeps its error untouched.
func (e *entry) mapErr(name string, parent context.Context, err error) error {
	if err == nil || e.timeout <= 0 {
		return err
	}
	if errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil {
		e.metrics.ObserveTimeout()
		return fmt.Errorf("%w: %q after %s", ErrRequestTimeout, name, e.timeout)
	}
	return err
}

// Infer is the admission-controlled single-sample entry point: it claims
// one admission unit (failing fast with ErrOverloaded at the cap),
// applies the per-request deadline, and runs the sample through the
// model's micro-batcher. This is what the HTTP layer calls; Batcher()
// remains available for callers that own their backpressure.
func (h *Handle) Infer(ctx context.Context, x []float64) ([]float64, error) {
	release, err := h.e.admit(h.name)
	if err != nil {
		return nil, err
	}
	defer release()
	rctx, cancel := h.e.withDeadline(ctx)
	defer cancel()
	out, err := h.e.batcher.Infer(rctx, x)
	if err != nil {
		return nil, h.e.mapErr(h.name, ctx, err)
	}
	return out, nil
}

// InferBatch is the admission-controlled explicit-batch entry point: one
// client batch counts as one in-flight request whatever its size.
func (h *Handle) InferBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	release, err := h.e.admit(h.name)
	if err != nil {
		return nil, err
	}
	defer release()
	rctx, cancel := h.e.withDeadline(ctx)
	defer cancel()
	out, err := h.e.batcher.InferBatch(rctx, xs)
	if err != nil {
		return nil, h.e.mapErr(h.name, ctx, err)
	}
	return out, nil
}

// MaxInFlight returns the model's admission capacity in concurrent
// requests (0 = unlimited).
func (h *Handle) MaxInFlight() int { return h.e.gate.Cap() }

// RequestTimeout returns the model's per-request deadline (0 = none).
func (h *Handle) RequestTimeout() time.Duration { return h.e.timeout }
