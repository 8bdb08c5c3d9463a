// Command benchsnap runs the arithmetic/inference microbenchmark suite
// in-process (testing.Benchmark) and writes a machine-readable snapshot
// to BENCH_arith.json — the per-PR record of the fast-path performance
// trajectory. Run from the repository root:
//
//	go run ./cmd/benchsnap            # writes ./BENCH_arith.json
//	go run ./cmd/benchsnap -o out.json
//	go run ./cmd/benchsnap -check     # bench-regression smoke (CI): fail
//	                                  # if the fused 256-sample flush is
//	                                  # slower than 256x the per-sample
//	                                  # layer kernel, a one-hot 117x32
//	                                  # flush is not faster than a dense
//	                                  # one, or the binary artifact decode
//	                                  # is not >=3x faster than the JSON
//	                                  # parse; writes nothing
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/store"
	"repro/internal/core"
	"repro/internal/emac"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/posit"
	"repro/internal/registry"
	"repro/internal/rng"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Snapshot is the whole BENCH_arith.json document.
type Snapshot struct {
	GoVersion string   `json:"go_version"`
	GOARCH    string   `json:"goarch"`
	Timestamp string   `json:"timestamp"`
	Results   []Result `json:"results"`
}

func randomPosits(f posit.Format, n int, seed uint64) []posit.Posit {
	r := rng.New(seed)
	out := make([]posit.Posit, n)
	for i := range out {
		for {
			p := f.FromBits(r.Uint64() & f.Mask())
			if !p.IsNaR() {
				out[i] = p
				break
			}
		}
	}
	return out
}

func measure(name string, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

func main() {
	out := flag.String("o", "BENCH_arith.json", "output path")
	check := flag.Bool("check", false,
		"regression smoke: compare ForwardBatch256 against 256x the per-sample layer kernel and one-hot against dense 117x32 flushes per arm, exit 1 on regression, write nothing")
	flag.Parse()

	f80 := posit.MustFormat(8, 0)
	posit.WarmTables(f80)
	mulXs := randomPosits(f80, 1024, 21)
	addXs := randomPosits(f80, 1024, 22)
	dotW := randomPosits(f80, 256, 23)
	dotX := randomPosits(f80, 256, 24)

	net := nn.NewMLP([]int{30, 16, 8, 2}, rng.New(42))
	dp := core.Quantize(net, emac.NewPosit(8, 0))
	dpFloat := core.Quantize(net, emac.NewFloatN(8, 4))
	dpFixed := core.Quantize(net, emac.NewFixed(8, 4))
	inX := make([]float64, 30)
	r := rng.New(25)
	for i := range inX {
		inX[i] = r.NormMS(0, 1)
	}
	batch := make([][]float64, 256)
	for s := range batch {
		x := make([]float64, 30)
		for i := range x {
			x[i] = r.NormMS(0, 1)
		}
		batch[s] = x
	}

	snap := Snapshot{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	if !*check {
		// Forward30-16-8-2 measures steady-state serving inference: one
		// warm session per arm through InferInto with a reused logits
		// buffer, so the row proves the single-sample path is
		// allocation-free end to end.
		sess := dp.NewSession()
		sessFloat := dpFloat.NewSession()
		sessFixed := dpFixed.NewSession()
		logits := make([]float64, 2)
		sess.InferInto(logits, inX)
		sessFloat.InferInto(logits, inX)
		sessFixed.InferInto(logits, inX)
		snap.Results = append(snap.Results,
			measure("PositMul/posit(8,0)", func(b *testing.B) {
				b.ReportAllocs()
				var sink posit.Posit
				for i := 0; i < b.N; i++ {
					sink = mulXs[i%1024].Mul(mulXs[(i+7)%1024])
				}
				_ = sink
			}),
			measure("PositAdd/posit(8,0)", func(b *testing.B) {
				b.ReportAllocs()
				var sink posit.Posit
				for i := 0; i < b.N; i++ {
					sink = addXs[i%1024].Add(addXs[(i+7)%1024])
				}
				_ = sink
			}),
			measure("DotProduct256/posit(8,0)", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					posit.DotProduct(dotW, dotX)
				}
			}),
			measure("Forward30-16-8-2/posit(8,0)", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sess.InferInto(logits, inX)
				}
			}),
			measure("Forward30-16-8-2/float(8,4)", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sessFloat.InferInto(logits, inX)
				}
			}),
			measure("Forward30-16-8-2/fixed(8,4)", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sessFixed.InferInto(logits, inX)
				}
			}),
		)
	}
	// Layer-kernel and fused-batch benches: one pre-decoded 16×30 layer
	// per arm, measuring the per-sample Forward against the whole-flush
	// ForwardBatch at B ∈ {8, 32, 256} (the Table II cross-arm datapath
	// at layer and flush granularity). In -check mode only the 256-flush
	// runs and is held to 256× the per-sample kernel.
	type layerCheck struct {
		arm      string
		perOp    float64
		batch256 float64
	}
	var checks []layerCheck
	for _, arm := range []struct {
		name string
		a    emac.Arithmetic
	}{
		{"posit(8,0)", emac.NewPosit(8, 0)},
		{"float(8,4)", emac.NewFloatN(8, 4)},
		{"fixed(8,4)", emac.NewFixed(8, 4)},
		{"posit(16,1)", emac.NewPosit(16, 1)},
	} {
		const in, out = 30, 16
		lr := rng.New(31)
		w := make([][]emac.Code, out)
		bias := make([]emac.Code, out)
		for j := range w {
			row := make([]emac.Code, in)
			for i := range row {
				row[i] = arm.a.Quantize(lr.NormMS(0, 1))
			}
			w[j] = row
			bias[j] = arm.a.Quantize(lr.NormMS(0, 0.5))
		}
		k, ok := arm.a.(emac.KernelBuilder).NewLayerKernel(w, bias)
		if !ok {
			fmt.Fprintln(os.Stderr, "benchsnap: no layer kernel for", arm.a.Name())
			os.Exit(1)
		}
		act := make([]emac.Code, in)
		for i := range act {
			act[i] = arm.a.Quantize(lr.NormMS(0, 1))
		}
		dst := make([]emac.Code, out)
		kres := measure("LayerKernel16x30/"+arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.Forward(act, dst)
			}
		})
		snap.Results = append(snap.Results, kres)
		bk, ok := arm.a.(emac.BatchKernelBuilder).NewBatchLayerKernel(w, bias)
		if !ok {
			fmt.Fprintln(os.Stderr, "benchsnap: no batch layer kernel for", arm.a.Name())
			os.Exit(1)
		}
		lc := layerCheck{arm: arm.name, perOp: kres.NsPerOp}
		for _, bsz := range []int{8, 32, 256} {
			if *check && bsz != 256 {
				continue
			}
			actP := make([]emac.Code, bsz*in)
			for i := range actP {
				actP[i] = arm.a.Quantize(lr.NormMS(0, 1))
			}
			outP := make([]emac.Code, bsz*out)
			bres := measure(fmt.Sprintf("ForwardBatch%d/%s", bsz, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bk.ForwardBatchStrided(actP, outP, bsz)
				}
			})
			snap.Results = append(snap.Results, bres)
			if bsz == 256 {
				lc.batch256 = bres.NsPerOp
			}
		}
		checks = append(checks, lc)
	}
	// Zero skipping: one seeded 117×32 layer per 8-bit arm (the Mushroom
	// input layer's shape) at B=256, fed one-hot inputs (22 of 117 at 1.0
	// per sample, like Mushroom's categorical encoding) and dense N(0,1)
	// inputs. In -check mode each arm's one-hot flush (best of 3) must
	// beat its dense one, so the fused kernels cannot silently stop
	// skipping zeros.
	type sparseCheck struct {
		arm           string
		onehot, dense float64
	}
	var sparseChecks []sparseCheck
	for _, arm := range []struct {
		name string
		a    emac.Arithmetic
	}{
		{"posit(8,0)", emac.NewPosit(8, 0)},
		{"float(8,4)", emac.NewFloatN(8, 4)},
		{"fixed(8,4)", emac.NewFixed(8, 4)},
	} {
		const in, out, bsz, hot = 117, 32, 256, 22
		lr := rng.New(37)
		w := make([][]emac.Code, out)
		bias := make([]emac.Code, out)
		for j := range w {
			row := make([]emac.Code, in)
			for i := range row {
				row[i] = arm.a.Quantize(lr.NormMS(0, 1))
			}
			w[j] = row
			bias[j] = arm.a.Quantize(lr.NormMS(0, 0.5))
		}
		bk, ok := arm.a.(emac.BatchKernelBuilder).NewBatchLayerKernel(w, bias)
		if !ok {
			fmt.Fprintln(os.Stderr, "benchsnap: no batch layer kernel for", arm.a.Name())
			os.Exit(1)
		}
		zero, one := arm.a.Quantize(0), arm.a.Quantize(1)
		onehot := make([]emac.Code, bsz*in)
		dense := make([]emac.Code, bsz*in)
		for s := 0; s < bsz; s++ {
			x := onehot[s*in : (s+1)*in]
			for i := range x {
				x[i] = zero
			}
			for n := 0; n < hot; {
				if i := lr.Intn(in); x[i] == zero {
					x[i] = one
					n++
				}
			}
		}
		for i := range dense {
			dense[i] = arm.a.Quantize(lr.NormMS(0, 1))
		}
		outP := make([]emac.Code, bsz*out)
		flush := func(act []emac.Code) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bk.ForwardBatchStrided(act, outP, bsz)
				}
			}
		}
		oh := measure("ForwardBatch256/117x32-onehot/"+arm.name, flush(onehot))
		dn := measure("ForwardBatch256/117x32-dense/"+arm.name, flush(dense))
		if *check {
			// Best of 3, alternating: the fixed arm's margin is about 1.3×,
			// within the swing of a single pair on a shared 2-vCPU VM.
			for i := 1; i < 3; i++ {
				if r := measure(oh.Name, flush(onehot)); r.NsPerOp < oh.NsPerOp {
					oh = r
				}
				if r := measure(dn.Name, flush(dense)); r.NsPerOp < dn.NsPerOp {
					dn = r
				}
			}
		}
		snap.Results = append(snap.Results, oh, dn)
		sparseChecks = append(sparseChecks, sparseCheck{arm.name, oh.NsPerOp, dn.NsPerOp})
	}
	// ArtifactLoad: warm model load from bytes, JSON parse vs binary
	// decode on the 30-16-8-2 posit(8,0) net. The binary path is the one
	// positrond restarts and registry warm loads ride on; -check holds it
	// to >=3x the JSON parser's throughput.
	jsonBytes, err := json.Marshal(dp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	binBytes, err := artifact.Encode(dp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	loadJSON := measure("ArtifactLoad/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ParseModel(jsonBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	loadBin := measure("ArtifactLoad/bin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := artifact.Decode(binBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	snap.Results = append(snap.Results, loadJSON, loadBin)
	if !*check {
		// ArtifactFetch: the two ends of the store read path a replica
		// sees — a local in-memory tier hit vs a cold peer fetch over
		// loopback HTTP (GET /v1/artifacts/{hash} + re-hash verification).
		// The spread is what the union's pull-through cache bridges: only
		// the first fetch of a hash pays the peer row.
		localStore := store.NewMem()
		hash, err := localStore.Put(binBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(binBytes)
		}))
		remote := store.NewRemote([]string{peer.URL})
		snap.Results = append(snap.Results,
			measure("ArtifactFetch/local", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := localStore.Get(hash); err != nil {
						b.Fatal(err)
					}
				}
			}),
			measure("ArtifactFetch/peer", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := remote.Get(hash); err != nil {
						b.Fatal(err)
					}
				}
			}),
		)
		peer.Close()
	}
	// FlushPipeline: sustained-load serving throughput through the
	// micro-batcher over a shared-output runtime — 16 client goroutines
	// streaming single-sample inferences into a 200µs window (max batch
	// 8), serialised flushes (depth 1, the pre-pipeline behaviour) vs the
	// two-plane pipeline (depth 2: flush N computes while flush N−1's
	// readers drain and N+1 accumulates). ns/op is per sample. In -check
	// mode each arm takes the best of 3 runs and pipelined must be at
	// least as fast as serialised; on a single-CPU host pipelining is
	// work-conserving (the ratio's ideal is 1.0), so a small
	// scheduler-noise allowance applies there while multicore hosts —
	// where the overlap is real — are held to the strict >=1x.
	flushBench := func(name string, depth int) Result {
		rt, err := engine.NewRuntime(dp,
			engine.WithSharedOutputs(), engine.WithFlushPipeline(depth))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		bt := registry.NewBatcher(rt, 200*time.Microsecond, 8, nil)
		ctx := context.Background()
		res := measure(name, func(b *testing.B) {
			var (
				next     atomic.Int64
				wg       sync.WaitGroup
				errOnce  sync.Once
				firstErr error
			)
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						if _, err := bt.Infer(ctx, batch[i%int64(len(batch))]); err != nil {
							errOnce.Do(func() { firstErr = err })
							return
						}
					}
				}()
			}
			wg.Wait()
			if firstErr != nil {
				b.Fatal(firstErr)
			}
		})
		bt.Close()
		_ = rt.Close()
		return res
	}
	bestOf := func(name string, depth, runs int) Result {
		best := flushBench(name, depth)
		for i := 1; i < runs; i++ {
			if r := flushBench(name, depth); r.NsPerOp < best.NsPerOp {
				best = r
			}
		}
		return best
	}
	flushRuns := 1
	if *check {
		flushRuns = 3
	}
	flushSerial := bestOf("FlushPipeline/serialised", 1, flushRuns)
	flushPiped := bestOf("FlushPipeline/pipelined2", 2, flushRuns)
	snap.Results = append(snap.Results, flushSerial, flushPiped)
	if *check {
		pass := true
		speedup := loadJSON.NsPerOp / loadBin.NsPerOp
		fmt.Printf("benchsnap check: ArtifactLoad json %.1f ns, bin %.1f ns (%.2fx)\n",
			loadJSON.NsPerOp, loadBin.NsPerOp, speedup)
		if speedup < 3 {
			fmt.Fprintf(os.Stderr,
				"benchsnap check: REGRESSION: binary artifact decode only %.2fx the JSON parse (want >= 3x)\n", speedup)
			pass = false
		}
		for _, c := range checks {
			limit := c.perOp * 256
			fmt.Printf("benchsnap check: %-12s fused 256-flush %12.1f ns, 256x per-sample %12.1f ns (%.2fx per-sample throughput)\n",
				c.arm, c.batch256, limit, limit/c.batch256)
			if c.batch256 > limit {
				fmt.Fprintf(os.Stderr,
					"benchsnap check: REGRESSION: %s ForwardBatch256 is slower than 256x the per-sample kernel\n", c.arm)
				pass = false
			}
		}
		for _, c := range sparseChecks {
			fmt.Printf("benchsnap check: %-12s 117x32 256-flush one-hot %12.1f ns, dense %12.1f ns (%.2fx)\n",
				c.arm, c.onehot, c.dense, c.dense/c.onehot)
			if c.onehot >= c.dense {
				fmt.Fprintf(os.Stderr,
					"benchsnap check: REGRESSION: %s one-hot flush is not faster than the dense flush (zero skipping lost)\n", c.arm)
				pass = false
			}
		}
		ratio := flushSerial.NsPerOp / flushPiped.NsPerOp
		floor := 1.0
		note := ""
		if runtime.GOMAXPROCS(0) == 1 {
			// Single CPU: pipelining is work-conserving (ideal ratio 1.0);
			// hold to parity within scheduler noise rather than failing on
			// jitter that no code change caused.
			floor = 0.95
			note = " [1-CPU host: parity within noise is the two-plane ideal]"
		}
		fmt.Printf("benchsnap check: FlushPipeline serialised %.1f ns/sample, pipelined2 %.1f ns/sample (%.2fx)%s\n",
			flushSerial.NsPerOp, flushPiped.NsPerOp, ratio, note)
		if ratio < floor {
			fmt.Fprintf(os.Stderr,
				"benchsnap check: REGRESSION: pipelined flush path is %.2fx the serialised path (want >= %.2fx)\n", ratio, floor)
			pass = false
		}
		if !pass {
			os.Exit(1)
		}
		fmt.Println("benchsnap check: fused batch kernels, zero skipping, artifact load, and flush pipeline OK")
		return
	}
	// Batch-engine bench: 256 inferences per op through the worker pool.
	for _, workers := range []int{1, 4} {
		e := engine.New(dp, workers)
		snap.Results = append(snap.Results, measure(
			fmt.Sprintf("EngineBatch256/posit(8,0)/workers%d", workers),
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.InferBatch(batch)
				}
			}))
		e.Close()
	}
	// Runtime worker-scaling bench, gated on a multicore host: the 1-CPU
	// dev container measures ≈1.0× for any pool size, so emitting rows
	// there would only record noise. On a host with GOMAXPROCS > 1 this
	// produces the ROADMAP scaling record: shared-output batches (the 0
	// allocs/op serving path) at 1, 2, 4, ... workers up to the CPU count.
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		for workers := 1; workers <= procs; workers *= 2 {
			rt, err := engine.NewRuntime(dp,
				engine.WithWorkers(workers), engine.WithSharedOutputs())
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchsnap:", err)
				os.Exit(1)
			}
			ctx := context.Background()
			snap.Results = append(snap.Results, measure(
				fmt.Sprintf("RuntimeBatch256/posit(8,0)/workers%d", workers),
				func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := rt.InferBatch(ctx, batch); err != nil {
							b.Fatal(err)
						}
					}
				}))
			_ = rt.Close()
		}
	} else {
		fmt.Fprintln(os.Stderr, "benchsnap: single-CPU host; skipping RuntimeBatch256 worker-scaling rows")
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	for _, res := range snap.Results {
		fmt.Printf("%-30s %10.1f ns/op %6d B/op %4d allocs/op\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	fmt.Println("wrote", *out)
}
