package main

// The traced split of an HTTP workload. The workload's traffic runs
// against one positrond in alternating untraced and traced chunks; the
// traced chunks give the HTTP latency, the daemon's own counters and the
// generator's slip, and their median against the untraced chunks' is
// the tracing overhead.
// Then the same requests, schedule and in-flight cap replay in process
// through each serving layer's public entry point, top to bottom. A
// layer's self time is its replay's median minus the median of the
// replay of the layer below it.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/server"
)

// servingMetrics are the per-layer metrics of the HTTP serving path;
// table2-offline, which drives none of it, reports them as 0.
var servingMetrics = []string{
	"transport.self_p50_us",
	"server.self_p50_us",
	"registry.admission_self_p50_us",
	"registry.batcher_self_p50_us",
	"engine.handoff_p50_us",
	"registry.mean_flush_size",
	"registry.max_coalesced",
	"registry.max_pipeline_depth",
	"registry.queue_wait_p50_ms",
	"registry.compute_p50_ms",
	"store.puts",
	"store.put_dedups",
	"store.gc_freed_bytes",
	"positrond.cpu_us_per_sample",
	"positrond.load_p50_ms",
	"loadgen.late_p99_ms",
	"loadgen.missed",
}

// Shares of the run length each part of a traced run takes.
const (
	traceTrafficFrac = 0.15 // each of the untraced and the traced HTTP traffic
	traceReplayFrac  = 0.08 // each scheduled replay (server, handle, batcher)
	traceComputeFrac = 0.03 // each back-to-back replay (flush slot, session, runtime)
)

// servingSpec describes an HTTP workload to servingTrace.
type servingSpec struct {
	s    *served
	args []string
	// traffic runs frac of the run length of the workload's traffic
	// against the daemon; phase numbers the calls, so uploads never reuse
	// a name.
	traffic func(d *daemon, client *http.Client, phase int, frac float64, tr *tracer) []outcome
	// drive runs frac of the run length of the workload's schedule and
	// in-flight cap through do.
	drive func(kind string, frac float64, do doFunc) []outcome
	// trafficFrac is the share of the run length the untraced and the
	// traced traffic each take, in pairs alternating chunks so that
	// host drift does not read as tracing overhead.
	trafficFrac float64
	pairs       int
}

func servingTrace(c *config, sp servingSpec) (*result, error) {
	d, _, err := startDaemon(c.positrond, sp.args...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	res := newResult()
	client := newClient(conns())
	sp.traffic(d, client, 0, 0.05, nil) // warm-up, not counted
	pid := strconv.Itoa(d.pid())
	var untraced, traced []outcome
	var cpu time.Duration
	chunk := sp.trafficFrac / float64(sp.pairs)
	for i := 0; i < sp.pairs; i++ {
		untraced = append(untraced, sp.traffic(d, client, 1+2*i, chunk, nil)...)
		cpu0, err := cpuTime(pid)
		if err != nil {
			return nil, err
		}
		traced = append(traced, sp.traffic(d, client, 2+2*i, chunk, c.tr)...)
		cpu1, err := cpuTime(pid)
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0
	}
	for _, kind := range churnKinds {
		res.add(summarize(untraced, kind))
		res.add(summarize(traced, kind))
	}
	u, t := summarize(untraced, "infer"), summarize(traced, "infer")
	if u.ok == 0 || t.ok == 0 {
		return nil, fmt.Errorf("no request completed in the traced run: %v %v", u.firstErr, t.firstErr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	snap, err := d.metrics(ctx)
	cancel()
	if err != nil {
		return nil, err
	}
	st, err := snap.model(sp.s.name)
	if err != nil {
		return nil, err
	}
	d.stop()

	m := st.Metrics
	if m.Batches > 0 {
		res.set("registry.mean_flush_size", float64(m.Requests)/float64(m.Batches))
	} else {
		res.set("registry.mean_flush_size", 0)
	}
	res.set("registry.max_coalesced", float64(m.MaxCoalesced))
	res.set("registry.max_pipeline_depth", float64(m.MaxPipelineDepth))
	res.set("registry.queue_wait_p50_ms", m.QueueWaitP50Ms)
	res.set("registry.compute_p50_ms", m.ComputeP50Ms)
	res.set("store.puts", float64(snap.Store.Puts))
	res.set("store.put_dedups", float64(snap.Store.PutDedups))
	res.set("store.gc_freed_bytes", float64(snap.Store.GCFreedBytes))
	res.set("positrond.cpu_us_per_sample", us(cpu)/float64(t.ok*sp.s.samples()))
	res.set("positrond.load_p50_ms", median(summarize(traced, "load").lats))
	late, _ := tail(t.late)
	res.set("loadgen.late_p99_ms", late)
	res.set("loadgen.p50_ms", median(t.lats))
	res.set("loadgen.p99_ms", tailOnly(t.lats))
	res.set("loadgen.missed", float64(t.missed))
	httpP50 := median(t.lats)
	res.set("trace.overhead_pct", 100*(httpP50/median(u.lats)-1))

	p50, err := serveReplays(c, sp, res)
	if err != nil {
		return nil, err
	}
	self := func(upper, lower float64) float64 { return 1000 * (upper - lower) }
	res.set("transport.self_p50_us", self(httpP50, p50["server"]))
	res.set("server.self_p50_us", self(p50["server"], p50["registry.handle"]))
	res.set("registry.admission_self_p50_us", self(p50["registry.handle"], p50["registry.batcher"]))
	res.set("registry.batcher_self_p50_us", self(p50["registry.batcher"], p50["engine.flushslot"]))
	res.set("engine.handoff_p50_us", self(p50["engine.flushslot"], p50["core.session"]))
	res.set("engine.parallel_speedup", p50["core.session"]/p50["engine.runtime"])
	return res, nil
}

// replayLayer is one serving layer's in-process entry point.
type replayLayer struct {
	name      string
	scheduled bool // driven with the workload's schedule, else back to back
	do        doFunc
}

// serveReplays drives the workload's requests through every serving
// layer in process, on a registry built with positrond's defaults, and
// returns each layer's median latency in ms.
func serveReplays(c *config, sp servingSpec, res *result) (map[string]float64, error) {
	s := sp.s
	reg := registry.New(registry.WithRuntimeOptions(engine.WithWarmTables()))
	defer reg.Close()
	if err := reg.LoadBytes(s.name, s.bin); err != nil {
		return nil, err
	}
	srv := server.New(reg, s.name)
	h, err := reg.Acquire(s.name)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	model := h.Model()
	rt, err := engine.NewRuntime(model, engine.WithWarmTables())
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	sess := model.NewInferer()
	plane := make([]float64, len(s.reqs[0].xs)*model.OutputDim())
	url := "/v1/models/" + s.name + "/infer"

	// infer runs one request through a single- or batch-sample entry point.
	infer := func(single func(context.Context, []float64) ([]float64, error),
		batch func(context.Context, [][]float64) ([][]float64, error)) doFunc {
		return func(ctx context.Context, op schedOp) error {
			r := s.req(op.idx)
			if !r.batch {
				out, err := single(ctx, r.xs[0])
				if err != nil {
					return err
				}
				return checkOut([][]float64{out}, r.want)
			}
			out, err := batch(ctx, r.xs)
			if err != nil {
				return err
			}
			return checkOut(out, r.want)
		}
	}
	layers := []replayLayer{
		{"server", true, func(ctx context.Context, op schedOp) error {
			r := s.req(op.idx)
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(r.body)).WithContext(ctx)
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("ServeHTTP: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
			return r.check(rec.Body.Bytes())
		}},
		{"registry.handle", true, infer(h.Infer, h.InferBatch)},
		{"registry.batcher", true, infer(h.Batcher().Infer, h.Batcher().InferBatch)},
		{"engine.flushslot", false, func(ctx context.Context, op schedOp) error {
			r := s.req(op.idx)
			slot, err := h.Runtime().AcquireFlushSlot(ctx)
			if err != nil {
				return err
			}
			defer slot.Release()
			out, err := slot.InferBatch(ctx, r.xs)
			if err != nil {
				return err
			}
			return checkOut(out, r.want)
		}},
		{"core.session", false, func(_ context.Context, op schedOp) error {
			r := s.req(op.idx)
			flat := sess.InferBatchInto(plane[:len(r.xs)*model.OutputDim()], r.xs)
			if !sameFlat(flat, r.want) {
				return errMismatch
			}
			return nil
		}},
		{"engine.runtime", false, func(ctx context.Context, op schedOp) error {
			r := s.req(op.idx)
			out, err := rt.InferBatch(ctx, r.xs)
			if err != nil {
				return err
			}
			return checkOut(out, r.want)
		}},
	}
	p50 := make(map[string]float64, len(layers))
	for _, l := range layers {
		kind := "replay." + l.name
		var outs []outcome
		if l.scheduled {
			outs = sp.drive(kind, traceReplayFrac, l.do)
		} else {
			outs, _ = closedLoop(1, c.dur(traceComputeFrac), kind, c.tr, l.do)
		}
		p := summarize(outs, kind)
		res.add(p)
		if p.ok == 0 {
			return nil, fmt.Errorf("replay of %s: nothing completed: %v", l.name, p.firstErr)
		}
		p50[l.name] = median(p.lats)
	}
	return p50, nil
}

// checkOut compares per-sample logits with the oracle.
func checkOut(got, want [][]float64) error {
	if !sameAll(got, want) {
		return errMismatch
	}
	return nil
}

// parallelSpeedup is the engine's speed-up on whole test splits: the
// median time of core.Session.InferBatchInto over the median time of
// engine.Runtime.InferBatch on the same batch, summed over the models.
// The runtime's logits must match the session's.
func parallelSpeedup(c *config, res *result, models []*core.Network, batches [][][]float64) (float64, error) {
	var sessMs, rtMs float64
	for i, m := range models {
		rt, err := engine.NewRuntime(m, engine.WithWarmTables())
		if err != nil {
			return 0, err
		}
		sess := m.NewSession()
		xs := batches[i]
		plane := make([]float64, len(xs)*m.OutputDim())
		want := sess.InferBatchInto(make([]float64, len(plane)), xs)
		frac := traceComputeFrac / float64(len(models))
		so, _ := closedLoop(1, c.dur(frac), "replay.core.session", c.tr, func(context.Context, schedOp) error {
			sess.InferBatchInto(plane, xs)
			return nil
		})
		ro, _ := closedLoop(1, c.dur(frac), "replay.engine.runtime", c.tr, func(ctx context.Context, _ schedOp) error {
			out, err := rt.InferBatch(ctx, xs)
			if err != nil {
				return err
			}
			if !sameFlat(want, out) {
				return errMismatch
			}
			return nil
		})
		_ = rt.Close()
		sp, rp := summarize(so, "replay.core.session"), summarize(ro, "replay.engine.runtime")
		res.add(sp)
		res.add(rp)
		sessMs += median(sp.lats)
		rtMs += median(rp.lats)
	}
	return sessMs / rtMs, nil
}
