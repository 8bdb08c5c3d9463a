package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/emac"
	"repro/internal/engine"
	"repro/internal/tabulate"
)

// EngineRow is one dataset × arithmetic parallel-evaluation measurement.
type EngineRow struct {
	Dataset  string
	Arith    string
	Samples  int
	Workers  int
	Accuracy float64
	SerialMS float64
	ParMS    float64
	Speedup  float64
}

// EngineSweep (extension) evaluates every 8-bit EMAC arm over every
// dataset twice — serially through one session and in parallel through
// the batch engine's pool of inferers — and reports throughput plus the
// speedup. The engine's accuracies must match the serial ones exactly
// (each pooled session is bit-identical to the serial datapath); the
// harness panics if they ever diverge, so the table doubles as an
// end-to-end check of the shared-nothing session plane. The pool splits
// a batch only into chunks of at least core.BatchTile samples, so a
// test split under two tiles (Iris's 50 samples, breast cancer's 190,
// or any split cut by evalLimit below 512) runs on one inferer and its
// Speedup reads about 1×; Mushroom's 2708 spread over the pool.
// workers <= 0 selects GOMAXPROCS.
func EngineSweep(evalLimit, workers int) ([]EngineRow, *tabulate.Table) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var rows []EngineRow
	tab := tabulate.New(fmt.Sprintf("Inference engine: serial session vs %d-worker pool", workers),
		"Dataset", "Arithmetic", "Samples", "Accuracy", "Serial", "Parallel", "Speedup")
	for _, tr := range Datasets() {
		test := tr.Test.Head(evalLimit)
		for _, a := range []emac.Arithmetic{
			emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4), emac.Float32Arith{},
		} {
			net := core.Quantize(tr.Net, a)

			// Both session and pool construction (weight pre-decode) stay
			// outside the timed regions: the comparison is datapath vs
			// datapath, not setup cost.
			s := net.NewSession()
			start := time.Now()
			serialAcc := s.Accuracy(test)
			serial := time.Since(start)

			rt, err := engine.NewRuntime(net, engine.WithWorkers(workers))
			if err != nil {
				panic(err)
			}
			start = time.Now()
			parAcc, err := rt.Accuracy(context.Background(), test)
			par := time.Since(start)
			_ = rt.Close()
			if err != nil {
				panic(err)
			}

			if par <= 0 {
				par = time.Nanosecond // sub-resolution run; avoid a 0/0 speedup
			}
			if parAcc != serialAcc {
				panic(fmt.Sprintf("experiments: engine accuracy %v != serial %v on %s/%s",
					parAcc, serialAcc, tr.Name, a.Name()))
			}
			row := EngineRow{
				Dataset:  tr.Name,
				Arith:    a.Name(),
				Samples:  test.Len(),
				Workers:  workers,
				Accuracy: serialAcc,
				SerialMS: float64(serial.Microseconds()) / 1000,
				ParMS:    float64(par.Microseconds()) / 1000,
				Speedup:  float64(serial.Nanoseconds()) / float64(par.Nanoseconds()),
			}
			rows = append(rows, row)
			tab.AddStrings(row.Dataset, row.Arith, fmt.Sprint(row.Samples),
				fmt.Sprintf("%.2f%%", 100*row.Accuracy),
				fmt.Sprintf("%.1fms", row.SerialMS),
				fmt.Sprintf("%.1fms", row.ParMS),
				fmt.Sprintf("%.1f×", row.Speedup))
		}
	}
	return rows, tab
}
