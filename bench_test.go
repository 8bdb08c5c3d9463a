package positron

// One benchmark per table and figure of the paper (regenerating the
// artifact end to end), plus microbenchmarks of the arithmetic kernels
// and the ablation benches called out in DESIGN.md §5.
//
// The accuracy benches evaluate truncated inference sets (the full
// 190/50/2708 splits are exercised by `go run ./cmd/positron -limit 0`);
// benchEvalLimit keeps a full `go test -bench=.` run to a few minutes.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/emac"
	"repro/internal/experiments"
	"repro/internal/posit"
	"repro/internal/rng"
)

const benchEvalLimit = 150

// warm triggers the one-time float64 training so that per-iteration
// timings measure the experiment itself.
func warm(b *testing.B) {
	b.Helper()
	experiments.Datasets()
	b.ResetTimer()
}

// --- one bench per table/figure ---

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table1()
		if len(rows) != 6 {
			b.Fatal("table I rows")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	warm(b)
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig2()
		if res.PositInUnit <= 0 {
			b.Fatal("fig2")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, _ := experiments.Fig6(32)
		if len(reports) == 0 {
			b.Fatal("fig6")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, _ := experiments.Fig7(32)
		if len(curves) != 3 {
			b.Fatal("fig7")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, _ := experiments.Fig8(32)
		if len(curves) != 3 {
			b.Fatal("fig8")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	warm(b)
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table2(benchEvalLimit)
		if len(rows) != 3 {
			b.Fatal("table II")
		}
	}
}

func BenchmarkSweep(b *testing.B) {
	warm(b)
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Sweep(benchEvalLimit)
		if len(rows) == 0 {
			b.Fatal("sweep")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	warm(b)
	for i := 0; i < b.N; i++ {
		pts, _ := experiments.Fig9(benchEvalLimit)
		if len(pts) == 0 {
			b.Fatal("fig9")
		}
	}
}

// --- arithmetic microbenchmarks ---

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

func BenchmarkPositMul8(b *testing.B) {
	f := posit.MustFormat(8, 1)
	xs := randomPosits(f, 1024, 1)
	b.ResetTimer()
	var sink posit.Posit
	for i := 0; i < b.N; i++ {
		sink = xs[i%1024].Mul(xs[(i+7)%1024])
	}
	_ = sink
}

func BenchmarkPositAdd8(b *testing.B) {
	f := posit.MustFormat(8, 1)
	xs := randomPosits(f, 1024, 2)
	b.ResetTimer()
	var sink posit.Posit
	for i := 0; i < b.N; i++ {
		sink = xs[i%1024].Add(xs[(i+7)%1024])
	}
	_ = sink
}

func BenchmarkPositDiv8(b *testing.B) {
	f := posit.MustFormat(8, 1)
	xs := randomPosits(f, 1024, 3)
	b.ResetTimer()
	var sink posit.Posit
	for i := 0; i < b.N; i++ {
		sink = xs[i%1024].Div(xs[(i+7)%1024])
	}
	_ = sink
}

func BenchmarkPositFromFloat64(b *testing.B) {
	f := posit.MustFormat(8, 0)
	var sink posit.Posit
	for i := 0; i < b.N; i++ {
		sink = f.FromFloat64(float64(i%1000) * 0.37)
	}
	_ = sink
}

func BenchmarkQuireMulAdd(b *testing.B) {
	f := posit.MustFormat(8, 0)
	xs := randomPosits(f, 1024, 4)
	q := posit.NewQuire(f, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.MulAdd(xs[i%1024], xs[(i+3)%1024])
	}
}

func BenchmarkQuireDot256(b *testing.B) {
	f := posit.MustFormat(8, 0)
	w := randomPosits(f, 256, 5)
	x := randomPosits(f, 256, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		posit.DotProduct(w, x)
	}
}

func benchMAC(b *testing.B, a emac.Arithmetic) {
	r := rng.New(9)
	k := 64
	w := make([]emac.Code, k)
	x := make([]emac.Code, k)
	for i := range w {
		w[i] = a.Quantize(r.NormMS(0, 1))
		x[i] = a.Quantize(r.NormMS(0, 1))
	}
	mac := a.NewMAC(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mac.Reset(0)
		for j := 0; j < k; j++ {
			mac.Step(w[j], x[j])
		}
		if mac.Result() == 0xdeadbeef {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkEMACPosit8(b *testing.B)   { benchMAC(b, emac.NewPosit(8, 0)) }
func BenchmarkEMACPosit8e2(b *testing.B) { benchMAC(b, emac.NewPosit(8, 2)) }
func BenchmarkEMACFloat8(b *testing.B)   { benchMAC(b, emac.NewFloatN(8, 4)) }
func BenchmarkEMACFixed8(b *testing.B)   { benchMAC(b, emac.NewFixed(8, 4)) }
func BenchmarkMACFloat32(b *testing.B)   { benchMAC(b, emac.Float32Arith{}) }

// --- inference benchmarks ---

func BenchmarkInferIris(b *testing.B) {
	experiments.Datasets()
	iris := experiments.Datasets()[1]
	for _, arith := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4), emac.Float32Arith{},
	} {
		b.Run(arith.Name(), func(b *testing.B) {
			dp := QuantizeNetwork(iris.Net, arith)
			x := iris.Test.X[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dp.Infer(x)
			}
		})
	}
}

// BenchmarkLayerKernel measures one pre-decoded 16×30 layer forward pass
// per EMAC arm — the fused kernel over a one-sample flush, as InferInto
// runs it — against stepping the same layer through per-neuron MACs: the
// Table II cross-arm datapath comparison at layer granularity.
func BenchmarkLayerKernel(b *testing.B) {
	r := rng.New(31)
	const in, out = 30, 16
	for _, arith := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
	} {
		w := make([][]emac.Code, out)
		bias := make([]emac.Code, out)
		for j := range w {
			row := make([]emac.Code, in)
			for i := range row {
				row[i] = arith.Quantize(r.NormMS(0, 1))
			}
			w[j] = row
			bias[j] = arith.Quantize(r.NormMS(0, 0.5))
		}
		act := make([]emac.Code, in)
		for i := range act {
			act[i] = arith.Quantize(r.NormMS(0, 1))
		}
		dst := make([]emac.Code, out)
		k, ok := arith.(emac.BatchKernelBuilder).NewBatchLayerKernel(w, bias)
		if !ok {
			b.Fatalf("%s: no layer kernel", arith.Name())
		}
		b.Run("kernel/"+arith.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.ForwardBatchStrided(act, dst, 1)
			}
		})
		macs := make([]emac.MAC, out)
		for j := range macs {
			macs[j] = arith.NewMAC(in)
		}
		b.Run("macs/"+arith.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < out; j++ {
					mac := macs[j]
					mac.Reset(bias[j])
					row := w[j]
					for i, a := range act {
						mac.Step(row[i], a)
					}
					dst[j] = mac.Result()
				}
			}
		})
	}
}

// BenchmarkSessionInfer measures per-goroutine session inference (the
// concurrent-serving datapath) for every 8-bit arm on the Iris topology.
func BenchmarkSessionInfer(b *testing.B) {
	experiments.Datasets()
	iris := experiments.Datasets()[1]
	for _, arith := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
	} {
		b.Run(arith.Name(), func(b *testing.B) {
			s := QuantizeNetwork(iris.Net, arith).NewSession()
			x := iris.Test.X[0]
			s.Infer(x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Infer(x)
			}
		})
	}
}

// BenchmarkRuntimeBatch measures the context-aware Runtime over the full
// Iris inference split (50 samples per op), comparing the caller-owned
// batch path against one leased flush slot, whose plane is reused across
// calls — allocation-free dataset sweeps end to end. Run with -benchmem:
// the slot arm's allocs/op is the proof.
func BenchmarkRuntimeBatch(b *testing.B) {
	experiments.Datasets()
	iris := experiments.Datasets()[1]
	dp := QuantizeNetwork(iris.Net, emac.NewPosit(8, 0))
	ctx := context.Background()
	rt, err := NewRuntime(dp, WithWorkers(4))
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	slot, err := rt.AcquireFlushSlot(ctx)
	if err != nil {
		b.Fatal(err)
	}
	defer slot.Release()
	for _, mode := range []struct {
		name  string
		infer func(context.Context, [][]float64) ([][]float64, error)
	}{
		{"alloc", rt.InferBatch},
		{"flush-slot", slot.InferBatch},
	} {
		b.Run(mode.name, func(b *testing.B) {
			if _, err := mode.infer(ctx, iris.Test.X); err != nil {
				b.Fatal(err) // warm sessions and the slot's plane
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mode.infer(ctx, iris.Test.X); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamInfer measures the cycle-level streaming simulator
// (32 Iris inferences pipelined through the layer FSMs).
func BenchmarkStreamInfer(b *testing.B) {
	experiments.Datasets()
	iris := experiments.Datasets()[1]
	dp := QuantizeNetwork(iris.Net, emac.NewPosit(8, 0))
	inputs := iris.Test.X[:32]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.StreamInfer(inputs, false)
	}
}

// BenchmarkMixedInfer measures mixed-precision inference with the
// format-conversion units at layer boundaries.
func BenchmarkMixedInfer(b *testing.B) {
	experiments.Datasets()
	iris := experiments.Datasets()[1]
	m := QuantizeMixed(iris.Net, []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewPosit(6, 0), emac.NewPosit(8, 0),
	})
	x := iris.Test.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Infer(x)
	}
}

// BenchmarkNetworkSynthesis measures the full-accelerator estimate table
// (the `hw` experiment).
func BenchmarkNetworkSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.NetworkReports()
		if len(rows) == 0 {
			b.Fatal("hw")
		}
	}
}

// BenchmarkDecimalAccuracy measures the quantisation-fidelity sweep.
func BenchmarkDecimalAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.DecimalAccuracy(1000)
		if len(rows) == 0 {
			b.Fatal("decimals")
		}
	}
}

// --- ablation benches (DESIGN.md §5) ---

// BenchmarkAblationExactVsNaive times the exact (quire) accumulation
// against the sequentially rounded scalar chain — the cost of the
// paper's exactness guarantee in software.
func BenchmarkAblationExactVsNaive(b *testing.B) {
	f := posit.MustFormat(8, 0)
	w := randomPosits(f, 128, 11)
	x := randomPosits(f, 128, 12)
	b.Run("exact-quire", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			posit.DotProduct(w, x)
		}
	})
	b.Run("naive-rounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc := f.Zero()
			for j := range w {
				acc = acc.Add(w[j].Mul(x[j]))
			}
		}
	})
}

// BenchmarkAblationFixedRounding times the paper's post-shift truncation
// against the round-to-nearest-even variant.
func BenchmarkAblationFixedRounding(b *testing.B) {
	trunc := emac.NewFixed(8, 4)
	rne := emac.NewFixed(8, 4)
	rne.RoundNearest = true
	b.Run("truncate", func(b *testing.B) { benchMAC(b, trunc) })
	b.Run("round-nearest", func(b *testing.B) { benchMAC(b, rne) })
}

// BenchmarkAblationQuireWidth times quires sized for different capacities
// (eq. (4)'s clog2(k) term changes the register word count).
func BenchmarkAblationQuireWidth(b *testing.B) {
	f := posit.MustFormat(8, 2)
	xs := randomPosits(f, 256, 13)
	for _, k := range []int{16, 256, 65536} {
		b.Run(sizeName(k), func(b *testing.B) {
			q := posit.NewQuire(f, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.MulAdd(xs[i%256], xs[(i+5)%256])
			}
		})
	}
}

func sizeName(k int) string {
	switch {
	case k >= 1<<16:
		return "k64Ki"
	case k >= 256:
		return "k256"
	default:
		return "k16"
	}
}

// --- allocation-tracking microbenchmarks (perf trajectory) ---
//
// These four track the fast-path contract: zero allocations per MAC on
// the tabled posit paths. cmd/benchsnap runs the same shapes and emits
// BENCH_arith.json so the numbers are recorded per PR.

func BenchmarkAllocPositMul(b *testing.B) {
	f := posit.MustFormat(8, 0)
	posit.WarmTables(f) // the lazy LUT build must not count as a MAC alloc
	xs := randomPosits(f, 1024, 21)
	b.ReportAllocs()
	b.ResetTimer()
	var sink posit.Posit
	for i := 0; i < b.N; i++ {
		sink = xs[i%1024].Mul(xs[(i+7)%1024])
	}
	_ = sink
}

func BenchmarkAllocPositAdd(b *testing.B) {
	f := posit.MustFormat(8, 0)
	posit.WarmTables(f)
	xs := randomPosits(f, 1024, 22)
	b.ReportAllocs()
	b.ResetTimer()
	var sink posit.Posit
	for i := 0; i < b.N; i++ {
		sink = xs[i%1024].Add(xs[(i+7)%1024])
	}
	_ = sink
}

func BenchmarkAllocDotProduct(b *testing.B) {
	f := posit.MustFormat(8, 0)
	posit.WarmTables(f)
	w := randomPosits(f, 256, 23)
	x := randomPosits(f, 256, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		posit.DotProduct(w, x)
	}
}

// BenchmarkAllocForwardPosit8 is the Table II-style end-to-end
// microbenchmark: one full posit(8,0) forward pass through a WBC-shaped
// network (30-16-8-2) on the pre-decoded inference plane. A warm session
// decoding through InferInto into a reused buffer must not allocate at
// all — the proof single-sample inference is allocation-free end to end.
func BenchmarkAllocForwardPosit8(b *testing.B) {
	posit.WarmTables(posit.MustFormat(8, 0))
	net := NewMLP([]int{30, 16, 8, 2}, 42)
	dp := QuantizeNetwork(net, emac.NewPosit(8, 0))
	x := make([]float64, 30)
	r := rng.New(25)
	for i := range x {
		x[i] = r.NormMS(0, 1)
	}
	s := dp.NewSession()
	logits := make([]float64, 2)
	s.InferInto(logits, x) // one warm pass so lazy buffers don't count
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InferInto(logits, x)
	}
}

// BenchmarkForwardBatch measures the fused whole-flush batch kernels
// (decode-once-per-tile, cache-blocked weight traversal, signed-lane/table
// inner loops) against running the same kernel one sample at a time over
// the same flush, for each arm and flush size. cmd/benchsnap -check holds
// the fused 256-flush to at least 1-sample-flush throughput in CI.
func BenchmarkForwardBatch(b *testing.B) {
	const in, out = 30, 16
	for _, arith := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4), emac.NewPosit(16, 1),
	} {
		r := rng.New(31)
		w := make([][]emac.Code, out)
		bias := make([]emac.Code, out)
		for j := range w {
			row := make([]emac.Code, in)
			for i := range row {
				row[i] = arith.Quantize(r.NormMS(0, 1))
			}
			w[j] = row
			bias[j] = arith.Quantize(r.NormMS(0, 0.5))
		}
		bk, ok := arith.(emac.BatchKernelBuilder).NewBatchLayerKernel(w, bias)
		if !ok {
			b.Fatalf("%s: no batch layer kernel", arith.Name())
		}
		for _, bsz := range []int{8, 32, 256} {
			act := make([]emac.Code, bsz*in)
			for i := range act {
				act[i] = arith.Quantize(r.NormMS(0, 1))
			}
			dst := make([]emac.Code, bsz*out)
			b.Run(fmt.Sprintf("fused/%s/B%d", arith.Name(), bsz), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bk.ForwardBatchStrided(act, dst, bsz)
				}
			})
			b.Run(fmt.Sprintf("persample/%s/B%d", arith.Name(), bsz), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for s := 0; s < bsz; s++ {
						bk.ForwardBatchStrided(act[s*in:(s+1)*in], dst[s*out:(s+1)*out], 1)
					}
				}
			})
		}
	}
}
