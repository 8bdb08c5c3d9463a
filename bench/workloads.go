package main

// The four workloads. Each has an untraced run, which reports the
// end-to-end metrics, and a traced run, which reports the per-layer
// split. Why each workload exists is in README.md.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
)

// workload is one named traffic mix.
type workload struct {
	name  string
	run   func(c *config) (*result, error)
	trace func(c *config) (*result, error)
}

var workloads = []workload{
	{"iris-single", runIrisSingle, traceIrisSingle},
	{"mushroom-batch", runMushroomBatch, traceMushroomBatch},
	{"table2-offline", runTable2, traceTable2},
	{"churn", runChurn, traceChurn},
}

// conns is the load generator's connection count: two keep-alive
// connections, never more than the host has CPUs.
func conns() int { return min(2, runtime.NumCPU()) }

// coldStartCount is how many cold starts set-up time is the median of:
// one start is ~10 ms and its spread across starts is tens of percent.
const coldStartCount = 15

// schedule spaces n = rate·dur operations evenly from time zero.
func schedule(rate int, dur time.Duration, kind string) []schedOp {
	n := int(float64(rate) * dur.Seconds())
	ops := make([]schedOp, n)
	for i := range ops {
		ops[i] = schedOp{due: time.Duration(i) * time.Second / time.Duration(rate), kind: kind, idx: i}
	}
	return ops
}

// served is one posit(8,0) model positrond serves, with its request pool.
type served struct {
	name string
	path string // binary artifact file the daemon loads
	bin  []byte
	reqs []*request
}

// newServed writes the network's posit(8,0) artifact and builds its
// request pool: one single-sample request per test sample in a seeded
// order (batch == 0), or 64 seeded batches of batch samples.
func newServed(c *config, pn *paperNet, batch int) (*served, error) {
	m := pn.model(arms[0].arith)
	bin, err := artifact.Encode(m)
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", pn.name, err)
	}
	path := filepath.Join(c.work, pn.name+".bin")
	if err := os.WriteFile(path, bin, 0o644); err != nil {
		return nil, err
	}
	ref := oracle(m, pn.test.X)
	r := rng.New(c.seed).Fork(4) // forks 1-3 seed the networks
	s := &served{name: pn.name, path: path, bin: bin}
	xs := pn.test.X
	if batch == 0 {
		for _, i := range r.Perm(len(xs)) {
			req, err := newRequest([][]float64{xs[i]}, [][]float64{ref[i]}, false)
			if err != nil {
				return nil, err
			}
			s.reqs = append(s.reqs, req)
		}
		return s, nil
	}
	for k := 0; k < 64; k++ {
		bx, bw := make([][]float64, batch), make([][]float64, batch)
		for j := range bx {
			i := r.Intn(len(xs))
			bx[j], bw[j] = xs[i], ref[i]
		}
		req, err := newRequest(bx, bw, true)
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, req)
	}
	return s, nil
}

// req returns the pool request for an operation index.
func (s *served) req(i int) *request { return s.reqs[i%len(s.reqs)] }

// samples is the number of samples per request.
func (s *served) samples() int { return len(s.reqs[0].xs) }

// httpInfer sends one pool request to the daemon and checks its logits.
func (s *served) httpInfer(client *http.Client, base string) doFunc {
	url := base + "/v1/models/" + s.name + "/infer"
	return func(ctx context.Context, op schedOp) error {
		r := s.req(op.idx)
		data, err := call(ctx, client, http.MethodPost, url, r.body, http.StatusOK)
		if err != nil {
			return err
		}
		return r.check(data)
	}
}

// --- iris-single ---

// ladder is the iris-single open-loop rate ladder (requests/s). The
// first ladderAlways steps always run: 500 rps gives the reported
// latency, and 1000 rps is past what two connections through a 2 ms
// batching window can carry (about 800 rps), so the highest completion
// rate is measured at saturation on every run. Later steps run only
// while each step meets the latency limit.
var ladder = []int{250, 500, 1000, 2000, 4000}

const ladderAlways = 3

// irisRate is the ladder step whose latencies are reported.
const irisRate = 500

// Limits a ladder step must meet to continue the ladder, and to count
// toward the highest rate meeting them (logged beside the metrics).
const (
	limitP99Ms  = 10.0
	limitLateMs = 5.0
)

func modelArgs(s *served) []string { return []string{"-model", s.name + "=" + s.path} }

func runIrisSingle(c *config) (*result, error) {
	s, err := newServed(c, netByName(paperNets(c.seed), "iris"), 0)
	if err != nil {
		return nil, err
	}
	d, setup, err := coldStarts(coldStartCount, c.positrond, modelArgs(s)...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := newClient(conns())
	do := s.httpInfer(client, d.base)
	openLoop(schedule(ladder[0], c.dur(0.05), "infer"), conns(), nil, do) // warm-up, not counted
	runtime.GC()

	res := newResult()
	step := c.dur(1 / float64(len(ladder)))
	start := time.Now()
	var peak, fast float64
	maxRate := 0
	for i, rate := range ladder {
		outs, elapsed := openLoop(schedule(rate, step, "infer"), conns(), nil, do)
		p := summarize(outs, "infer")
		res.add(p)
		achieved := float64(p.ok) / elapsed.Seconds()
		tailMs, pct := tail(p.lats)
		lateMs, _ := tail(p.late)
		pass := p.ok > 0 && p.failed == 0 && p.missed == 0 && tailMs <= limitP99Ms && lateMs <= limitLateMs
		c.logf("iris-single step %d rps: %d sent, %d ok, %d missed, %d failed; p10 %.3f ms, p50 %.3f ms, p%.1f %.3f ms; generator late p99 %.3f ms; %.1f samples/s; meets limit: %v",
			rate, p.attempted, p.ok, p.missed, p.failed, p10(p.lats), median(p.lats), pct, tailMs, lateMs, achieved, pass)
		if rate == irisRate {
			if p.ok == 0 {
				return nil, fmt.Errorf("iris-single: no request completed at %d rps", rate)
			}
			fast = p10(p.lats)
		}
		peak = max(peak, achieved)
		if pass {
			maxRate = rate
		}
		if i+1 >= ladderAlways && !pass {
			break
		}
	}
	res.runLen = time.Since(start)
	c.logf("iris-single highest ladder rate meeting the limit: %d rps", maxRate)
	rss, err := peakRSSMB(strconv.Itoa(d.pid()))
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)
	res.set("p10_ms", fast)
	res.set("throughput_sps", peak)
	res.set("peak_rss_mb", rss)
	return res, nil
}

func traceIrisSingle(c *config) (*result, error) {
	nets := paperNets(c.seed)
	s, err := newServed(c, netByName(nets, "iris"), 0)
	if err != nil {
		return nil, err
	}
	return servingTrace(c, servingSpec{
		s:    s,
		args: modelArgs(s),
		traffic: func(d *daemon, client *http.Client, _ int, frac float64, tr *tracer) []outcome {
			outs, _ := openLoop(schedule(irisRate, c.dur(frac), "infer"), conns(), tr, s.httpInfer(client, d.base))
			return outs
		},
		drive: func(kind string, frac float64, do doFunc) []outcome {
			outs, _ := openLoop(schedule(irisRate, c.dur(frac), kind), conns(), c.tr, do)
			return outs
		},
		trafficFrac: traceTrafficFrac,
		pairs:       4,
	})
}

// --- mushroom-batch ---

// mushroomBatch is the explicit batch size mushroom-batch callers send.
const mushroomBatch = 64

func runMushroomBatch(c *config) (*result, error) {
	s, err := newServed(c, netByName(paperNets(c.seed), "mushroom"), mushroomBatch)
	if err != nil {
		return nil, err
	}
	d, setup, err := coldStarts(coldStartCount, c.positrond, modelArgs(s)...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := newClient(conns())
	do := s.httpInfer(client, d.base)
	closedLoop(conns(), c.dur(0.05), "infer", nil, do) // warm-up, not counted
	runtime.GC()

	start := time.Now()
	outs, elapsed := closedLoop(conns(), c.dur(1), "infer", nil, do)
	res := newResult()
	res.runLen = time.Since(start)
	p := summarize(outs, "infer")
	res.add(p)
	if p.ok == 0 {
		return nil, fmt.Errorf("mushroom-batch: no request completed: %v", p.firstErr)
	}
	p99, pct := tail(p.lats)
	c.logf("mushroom-batch: %d requests of %d samples (%d bytes of JSON each) on %d connections; p50 %.3f ms, p%.1f %.3f ms",
		p.ok, mushroomBatch, len(s.reqs[0].body), conns(), median(p.lats), pct, p99)
	rss, err := peakRSSMB(strconv.Itoa(d.pid()))
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)
	res.set("p10_ms", p10(p.lats))
	res.set("throughput_sps", float64(p.ok*mushroomBatch)/elapsed.Seconds())
	res.set("peak_rss_mb", rss)
	return res, nil
}

func traceMushroomBatch(c *config) (*result, error) {
	nets := paperNets(c.seed)
	s, err := newServed(c, netByName(nets, "mushroom"), mushroomBatch)
	if err != nil {
		return nil, err
	}
	return servingTrace(c, servingSpec{
		s:    s,
		args: modelArgs(s),
		traffic: func(d *daemon, client *http.Client, _ int, frac float64, tr *tracer) []outcome {
			outs, _ := closedLoop(conns(), c.dur(frac), "infer", tr, s.httpInfer(client, d.base))
			return outs
		},
		drive: func(kind string, frac float64, do doFunc) []outcome {
			outs, _ := closedLoop(conns(), c.dur(frac), kind, c.tr, do)
			return outs
		},
		trafficFrac: traceTrafficFrac,
		pairs:       4,
	})
}

// --- table2-offline ---

// offlineRoundCount is how many rounds table2-offline runs, each giving
// every arm one slot, so a slow stretch of the host hits all arms alike.
const offlineRoundCount = 10

// offlineWorkers is the table2-offline runtime pool size. One worker
// makes the workload measure the datapath: with two, throughput follows
// whether the host happens to run both vCPUs at once (it varied 2x
// between runs). The engine's parallel speed-up is the per-layer metric
// engine.parallel_speedup.
const offlineWorkers = 1

// offlineArm is one arm's runtimes over the three paper networks, with
// the oracle logits of each test split.
type offlineArm struct {
	arm
	rts  []*engine.Runtime
	refs [][][]float64
}

func closeArms(oas []*offlineArm) {
	for _, oa := range oas {
		for _, rt := range oa.rts {
			_ = rt.Close()
		}
	}
}

// offlineSetup computes the oracle logits and artifacts (untimed), then
// times reps repetitions of artifact decode + NewRuntime + first call
// for all twelve runtimes. The last repetition's runtimes are returned
// for the run.
func offlineSetup(nets []*paperNet, reps int) ([]*offlineArm, float64, error) {
	bins := make([][][]byte, len(arms))
	refs := make([][][][]float64, len(arms))
	for ai, a := range arms {
		for _, pn := range nets {
			m := pn.model(a.arith)
			bin, err := artifact.Encode(m)
			if err != nil {
				return nil, 0, fmt.Errorf("encoding %s %s: %w", a.name, pn.name, err)
			}
			bins[ai] = append(bins[ai], bin)
			refs[ai] = append(refs[ai], oracle(m, pn.test.X))
		}
	}
	var times []float64
	var oas []*offlineArm
	for rep := 0; rep < reps; rep++ {
		closeArms(oas)
		oas = nil
		runtime.GC()
		start := time.Now()
		for ai, a := range arms {
			oa := &offlineArm{arm: a, refs: refs[ai]}
			oas = append(oas, oa)
			for ni, pn := range nets {
				m, err := artifact.Parse(bins[ai][ni])
				if err != nil {
					closeArms(oas)
					return nil, 0, err
				}
				rt, err := engine.NewRuntime(m, engine.WithWarmTables(), engine.WithWorkers(offlineWorkers))
				if err != nil {
					closeArms(oas)
					return nil, 0, err
				}
				oa.rts = append(oa.rts, rt)
				out, err := rt.InferBatch(context.Background(), pn.test.X)
				if err == nil && !sameAll(out, refs[ai][ni]) {
					err = fmt.Errorf("%w: %s %s first call", errMismatch, a.name, pn.name)
				}
				if err != nil {
					closeArms(oas)
					return nil, 0, err
				}
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return oas, median(times), nil
}

// offlineRun is the outcome of one set of interleaved rounds.
type offlineRun struct {
	passMs [][]float64 // per arm: one Table II pass (three InferBatch calls) each
	calls  int
	failed int
}

// sweepMs adds up a statistic of each arm's pass latencies: the time of
// one Table II sweep across every arm.
func (r *offlineRun) sweepMs(stat func([]float64) float64) float64 {
	total := 0.0
	for _, p := range r.passMs {
		total += stat(p)
	}
	return total
}

// offlineRounds runs rounds × arms slots, rotating the arm order each
// round, and passes over the three test splits for slot in each. Round r
// records into runs[r % len(trs)] through tracer trs[r % len(trs)], so
// traced and untraced rounds can interleave.
func offlineRounds(oas []*offlineArm, nets []*paperNet, rounds int, slot time.Duration, trs ...*tracer) []*offlineRun {
	runs := make([]*offlineRun, len(trs))
	for i := range runs {
		runs[i] = &offlineRun{passMs: make([][]float64, len(oas))}
	}
	pass := 0
	for r := 0; r < rounds; r++ {
		run, tr := runs[r%len(trs)], trs[r%len(trs)]
		for k := range oas {
			ai := (k + r) % len(oas)
			oa := oas[ai]
			start := time.Now()
			passes := 0
			for passes == 0 || time.Since(start) < slot {
				ps := time.Now()
				pid := tr.reserve("offline."+oa.name+".pass", pass, ps)
				for ni, rt := range oa.rts {
					cs := time.Now()
					out, err := rt.InferBatch(context.Background(), nets[ni].test.X)
					tr.record("engine."+oa.name+"."+nets[ni].name+".infer_batch", pass, pid, cs, time.Now())
					run.calls++
					if err != nil || !sameAll(out, oa.refs[ni]) {
						run.failed++
					}
				}
				end := time.Now()
				tr.finish(pid, end)
				run.passMs[ai] = append(run.passMs[ai], ms(end.Sub(ps)))
				passes++
				pass++
			}
		}
	}
	return runs
}

func runTable2(c *config) (*result, error) {
	nets := paperNets(c.seed)
	oas, setup, err := offlineSetup(nets, coldStartCount)
	if err != nil {
		return nil, err
	}
	defer closeArms(oas)
	slot := c.dur(1 / float64(offlineRoundCount*len(oas)))
	runtime.GC()
	start := time.Now()
	run := offlineRounds(oas, nets, offlineRoundCount, slot, nil)[0]
	res := newResult()
	res.runLen = time.Since(start)
	res.attempted, res.failed = run.calls, run.failed
	samples := 0
	for _, pn := range nets {
		samples += pn.test.Len()
	}
	for ai, oa := range oas {
		fast, mid := p10(run.passMs[ai]), median(run.passMs[ai])
		c.logf("table2-offline %s: %d passes of %d samples; p10 %.3f ms (%.0f samples/s), p50 %.3f ms (%.0f samples/s)",
			oa.name, len(run.passMs[ai]), samples, fast, float64(samples)/fast*1000, mid, float64(samples)/mid*1000)
	}
	c.logf("table2-offline sweep p50 %.3f ms, tail %.3f ms", run.sweepMs(median), run.sweepMs(tailOnly))
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	sweep := run.sweepMs(p10)
	res.set("setup_s", setup)
	res.set("p10_ms", sweep)
	res.set("throughput_sps", float64(len(oas)*samples)/sweep*1000)
	res.set("peak_rss_mb", rss)
	return res, nil
}

func traceTable2(c *config) (*result, error) {
	nets := paperNets(c.seed)
	oas, _, err := offlineSetup(nets, 1)
	if err != nil {
		return nil, err
	}
	defer closeArms(oas)
	slot := c.dur(2 * traceTrafficFrac / float64(2*offlineRoundCount*len(oas)))
	runs := offlineRounds(oas, nets, 2*offlineRoundCount, slot, nil, c.tr)
	untraced, traced := runs[0], runs[1]
	res := newResult()
	res.attempted = untraced.calls + traced.calls
	res.failed = untraced.failed + traced.failed
	// This workload drives no HTTP, daemon, store or load generator: those
	// layers read 0 here.
	for _, name := range servingMetrics {
		res.set(name, 0)
	}
	res.set("trace.overhead_pct", 100*(traced.sweepMs(median)/untraced.sweepMs(median)-1))
	res.set("loadgen.p50_ms", traced.sweepMs(median))
	res.set("loadgen.p99_ms", traced.sweepMs(tailOnly))
	var models []*core.Network
	var batches [][][]float64
	for _, pn := range nets {
		models = append(models, pn.model(arms[0].arith))
		batches = append(batches, pn.test.X)
	}
	speedup, err := parallelSpeedup(c, res, models, batches)
	if err != nil {
		return nil, err
	}
	res.set("engine.parallel_speedup", speedup)
	return res, nil
}

// --- churn ---

// Churn schedule: iris reads at churnReadRate; every churnWriteEvery an
// upload, then the unload of the model loaded churnUnloadLag uploads
// earlier; every churnGCEvery a store sweep.
const (
	churnReadRate   = 250
	churnWriteEvery = 500 * time.Millisecond
	churnGCEvery    = 2 * time.Second
	churnUnloadLag  = 4
	churnTraceFrac  = 0.45 // each of the traced run's untraced and traced churn traffic
)

// churnSchedule interleaves the reads, writes and sweeps of one phase.
func churnSchedule(dur time.Duration) []schedOp {
	ops := schedule(churnReadRate, dur, "infer")
	for k := 0; ; k++ {
		due := churnWriteEvery/2 + time.Duration(k)*churnWriteEvery
		if due >= dur {
			break
		}
		ops = append(ops, schedOp{due: due, kind: "load", idx: k})
		if k >= churnUnloadLag {
			ops = append(ops, schedOp{due: due, kind: "unload", idx: k - churnUnloadLag})
		}
	}
	for due := churnGCEvery; due < dur; due += churnGCEvery {
		ops = append(ops, schedOp{due: due, kind: "gc"})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// churnPlan holds one phase's uploads: POST /v1/models bodies and the
// content hash each must report.
type churnPlan struct {
	phase  int
	bodies [][]byte
	hashes []string
}

func churnName(phase, k int) string { return fmt.Sprintf("churn-%d-%d", phase, k) }

// newChurnPlan builds the uploads a schedule needs, each a freshly
// seeded WBC-shaped JSON artifact.
func newChurnPlan(c *config, wbc *paperNet, phase int, ops []schedOp) (*churnPlan, error) {
	p := &churnPlan{phase: phase}
	for _, op := range ops {
		if op.kind != "load" {
			continue
		}
		m, js, err := churnArtifact(wbc, c.seed, phase*1000+op.idx)
		if err != nil {
			return nil, err
		}
		_, h, err := artifact.Canonical(m)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{"name": churnName(phase, op.idx), "artifact": json.RawMessage(js)})
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
		p.hashes = append(p.hashes, h.String())
	}
	return p, nil
}

// do performs one churn operation; reads go to infer.
func (p *churnPlan) do(client *http.Client, base string, infer doFunc) doFunc {
	return func(ctx context.Context, op schedOp) error {
		switch op.kind {
		case "load":
			data, err := call(ctx, client, http.MethodPost, base+"/v1/models", p.bodies[op.idx], http.StatusCreated)
			if err != nil {
				return err
			}
			var st struct {
				ContentHash string `json:"content_hash"`
			}
			if err := json.Unmarshal(data, &st); err != nil {
				return fmt.Errorf("decoding load response: %w", err)
			}
			if st.ContentHash != p.hashes[op.idx] {
				return fmt.Errorf("%w: load %d reports hash %s, want %s", errMismatch, op.idx, st.ContentHash, p.hashes[op.idx])
			}
			return nil
		case "unload":
			_, err := call(ctx, client, http.MethodDelete, base+"/v1/models/"+churnName(p.phase, op.idx), nil, http.StatusOK)
			return err
		case "gc":
			_, err := call(ctx, client, http.MethodPost, base+"/v1/store/gc", nil, http.StatusOK)
			return err
		default:
			return infer(ctx, op)
		}
	}
}

// churnKinds are the operation kinds of the churn schedule.
var churnKinds = []string{"infer", "load", "unload", "gc"}

// churnArgs runs positrond over a disk store in the run's scratch
// directory. Restarts reuse it, as a restarted daemon reuses its store.
func churnArgs(c *config, s *served) []string {
	return append(modelArgs(s), "-store-dir", filepath.Join(c.work, "store"))
}

func runChurn(c *config) (*result, error) {
	nets := paperNets(c.seed)
	s, err := newServed(c, netByName(nets, "iris"), 0)
	if err != nil {
		return nil, err
	}
	ops := churnSchedule(c.dur(1))
	plan, err := newChurnPlan(c, netByName(nets, "wbc"), 0, ops)
	if err != nil {
		return nil, err
	}
	d, setup, err := coldStarts(coldStartCount, c.positrond, churnArgs(c, s)...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := newClient(conns())
	infer := s.httpInfer(client, d.base)
	openLoop(schedule(churnReadRate, c.dur(0.05), "infer"), conns(), nil, infer) // warm-up, not counted
	runtime.GC()

	start := time.Now()
	outs, elapsed := openLoop(ops, conns(), nil, plan.do(client, d.base, infer))
	res := newResult()
	res.runLen = time.Since(start)
	var reads phase
	for _, kind := range churnKinds {
		p := summarize(outs, kind)
		res.add(p)
		if kind == "infer" {
			reads = p
		}
		c.logf("churn %s: %d sent, %d ok, %d missed, %d failed, p50 %.3f ms", kind, p.attempted, p.ok, p.missed, p.failed, median(p.lats))
	}
	if reads.ok == 0 {
		return nil, fmt.Errorf("churn: no read completed: %v", reads.firstErr)
	}
	p99, pct := tail(reads.lats)
	c.logf("churn reads: %d ok; p50 %.3f ms, p%.1f %.3f ms", reads.ok, median(reads.lats), pct, p99)
	rss, err := peakRSSMB(strconv.Itoa(d.pid()))
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)
	res.set("p10_ms", p10(reads.lats))
	res.set("throughput_sps", float64(reads.ok)/elapsed.Seconds())
	res.set("peak_rss_mb", rss)
	return res, nil
}

func traceChurn(c *config) (*result, error) {
	nets := paperNets(c.seed)
	s, err := newServed(c, netByName(nets, "iris"), 0)
	if err != nil {
		return nil, err
	}
	wbc := netByName(nets, "wbc")
	return servingTrace(c, servingSpec{
		s:    s,
		args: churnArgs(c, s),
		traffic: func(d *daemon, client *http.Client, phase int, frac float64, tr *tracer) []outcome {
			ops := churnSchedule(c.dur(frac))
			plan, err := newChurnPlan(c, wbc, phase, ops)
			if err != nil {
				return []outcome{{kind: "load", err: err}}
			}
			outs, _ := openLoop(ops, conns(), tr, plan.do(client, d.base, s.httpInfer(client, d.base)))
			return outs
		},
		drive: func(kind string, frac float64, do doFunc) []outcome {
			outs, _ := openLoop(schedule(churnReadRate, c.dur(frac), kind), conns(), c.tr, do)
			return outs
		},
		// One long pair: at the benchmark's run length a chunk then spans
		// unloads, which start churnUnloadLag writes in, and a sweep after
		// them, which frees their blobs.
		trafficFrac: churnTraceFrac,
		pairs:       1,
	})
}
