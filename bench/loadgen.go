package main

// The load generator: one process, a fixed number of workers that each
// hold one keep-alive connection. An open loop sends every operation at
// its scheduled time regardless of how earlier ones fared, and times it
// from that scheduled time, so a stall is charged to every request it
// delays; a closed loop has each worker send its next operation when the
// previous one returns. The same loops drive the traced run's in-process
// layer replays, with a function call in place of the HTTP request.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// errMismatch marks a response whose logits differ from the oracle's.
var errMismatch = errors.New("logits differ from the oracle")

// deadline is how long past its due time an open-loop operation may
// finish; later ones count as missed, not failed.
const deadline = time.Second

// schedOp is one open-loop operation, due at an offset from the loop's
// start.
type schedOp struct {
	due  time.Duration
	kind string
	idx  int
}

// outcome is one operation's result.
type outcome struct {
	kind   string
	lat    time.Duration // completion minus due (open loop) or send (closed loop)
	late   time.Duration // how far past due the generator released it (open loop)
	missed bool          // open loop: not finished by due + deadline
	err    error         // failed: non-2xx, transport error or oracle mismatch
}

// doFunc performs one operation.
type doFunc func(ctx context.Context, op schedOp) error

// openLoop runs ops (sorted by due) on conns workers. The dispatcher
// releases each op at its due time into a queue the workers drain; an
// op still queued at due + deadline is skipped as missed. It returns the
// outcomes and the time from the start to the last completion.
func openLoop(ops []schedOp, conns int, tr *tracer, do doFunc) ([]outcome, time.Duration) {
	out := make([]outcome, len(ops))
	// Sized to the whole schedule so the dispatcher never blocks and its
	// lateness measures only its own timer slip.
	queue := make(chan int, len(ops))
	start := time.Now()
	lastDone := make([]time.Time, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				op := ops[i]
				o := &out[i]
				o.kind = op.kind
				due := start.Add(op.due)
				dl := due.Add(deadline)
				if !time.Now().Before(dl) {
					o.missed = true
					continue
				}
				ctx, cancel := context.WithDeadline(context.Background(), dl)
				send := time.Now()
				err := do(ctx, op)
				done := time.Now()
				cancel()
				lastDone[w] = done
				o.lat = done.Sub(due)
				switch {
				case done.After(dl) || errors.Is(err, context.DeadlineExceeded):
					o.missed = true
				case err != nil:
					o.err = err
				}
				parent := tr.record("loadgen."+op.kind, i, -1, due, done)
				tr.record("call."+op.kind, i, parent, send, done)
			}
		}(w)
	}
	for i, op := range ops {
		due := start.Add(op.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, lastCompletion(start, lastDone)
}

// lastCompletion is the latest of the workers' last completions, as an
// offset from start.
func lastCompletion(start time.Time, lastDone []time.Time) time.Duration {
	elapsed := time.Duration(0)
	for _, t := range lastDone {
		if d := t.Sub(start); d > elapsed {
			elapsed = d
		}
	}
	return elapsed
}

// closedLoop runs conns workers for dur, each sending operation after
// operation (op.idx counts up across workers), and returns the outcomes
// with the elapsed time up to the last completion.
func closedLoop(conns int, dur time.Duration, kind string, tr *tracer, do doFunc) ([]outcome, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	end := start.Add(dur)
	per := make([][]outcome, conns)
	lastDone := make([]time.Time, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				send := time.Now()
				err := do(context.Background(), schedOp{kind: kind, idx: i})
				done := time.Now()
				per[w] = append(per[w], outcome{kind: kind, lat: done.Sub(send), err: err})
				lastDone[w] = done
				tr.record("call."+kind, i, -1, send, done)
			}
		}(w)
	}
	wg.Wait()
	var out []outcome
	for w := range per {
		out = append(out, per[w]...)
	}
	return out, lastCompletion(start, lastDone)
}

// phase summarises the outcomes of one kind.
type phase struct {
	attempted, ok, failed, missed int
	lats                          []float64 // ms, successful ops only
	late                          []float64 // ms
	firstErr                      error
}

func summarize(outs []outcome, kind string) phase {
	var p phase
	for _, o := range outs {
		if o.kind != kind {
			continue
		}
		p.attempted++
		p.late = append(p.late, ms(o.late))
		switch {
		case o.missed:
			p.missed++
		case o.err != nil:
			p.failed++
			if p.firstErr == nil {
				p.firstErr = o.err
			}
		default:
			p.ok++
			p.lats = append(p.lats, ms(o.lat))
		}
	}
	return p
}

// newClient returns an HTTP client that keeps at most conns connections
// to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// call sends one request and returns the body of a response with the
// wanted status.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		if len(data) > 200 {
			data = data[:200]
		}
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// request is one pre-encoded inference request with its oracle logits.
type request struct {
	body  []byte
	xs    [][]float64
	want  [][]float64
	batch bool // an explicit batch ({"inputs": ...}), else one sample
}

// newRequest encodes xs as a single-sample body (one input) or an
// explicit batch.
func newRequest(xs, want [][]float64, batch bool) (*request, error) {
	var v any = map[string][][]float64{"inputs": xs}
	if !batch {
		v = map[string][]float64{"input": xs[0]}
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return &request{body: body, xs: xs, want: want, batch: batch}, nil
}

// inferReply is the server's inference response.
type inferReply struct {
	Result *struct {
		Logits []float64 `json:"logits"`
	} `json:"result"`
	Results []struct {
		Logits []float64 `json:"logits"`
	} `json:"results"`
}

// check compares a response body with the request's oracle logits.
func (r *request) check(data []byte) error {
	var rep inferReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("decoding inference response: %w", err)
	}
	if !r.batch {
		if rep.Result == nil || !sameBits(rep.Result.Logits, r.want[0]) {
			return errMismatch
		}
		return nil
	}
	if len(rep.Results) != len(r.want) {
		return fmt.Errorf("%w: %d results for %d inputs", errMismatch, len(rep.Results), len(r.want))
	}
	for i, res := range rep.Results {
		if !sameBits(res.Logits, r.want[i]) {
			return fmt.Errorf("%w: sample %d", errMismatch, i)
		}
	}
	return nil
}
