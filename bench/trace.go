package main

// The traced run's span store. Spans are recorded from the benchmark's
// own files, around the calls it makes into each layer; nothing inside
// the program is instrumented. They stay in memory and are written out
// once, when the run ends.

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval. Parent is the index of the enclosing span
// (-1 at the root); spans of one request share Req.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Req      int    `json:"req"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pass nil through the same code. Workloads run one after another; each
// sets workload before it starts.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	workload string
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setWorkload labels the spans recorded from now on.
func (t *tracer) setWorkload(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workload = name
	t.mu.Unlock()
}

// record adds a finished span and returns its index (-1 when untraced).
func (t *tracer) record(name string, req, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, Req: req, Parent: parent,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)),
	})
	return len(t.spans) - 1
}

// reserve opens a parent span whose end is filled in by finish, so its
// children can name it while it is still open.
func (t *tracer) reserve(name string, req int, start time.Time) int {
	return t.record(name, req, -1, start, start)
}

// finish sets the end of a span opened by reserve.
func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNs = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
