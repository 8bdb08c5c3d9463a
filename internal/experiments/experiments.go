// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV): Table I (regime interpretation), Fig. 2 (posit value
// clustering vs DNN weights), Figs. 6-8 (EMAC hardware trade-offs),
// Table II (8-bit accuracy on the three datasets) and Fig. 9 (accuracy
// degradation vs EDP). Each harness returns structured rows plus a
// rendered text artifact; cmd/positron and the root benchmarks are thin
// wrappers around this package.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/fixedpoint"
	"repro/internal/hw"
	"repro/internal/minifloat"
	"repro/internal/nn"
	"repro/internal/posit"
	"repro/internal/rng"
	"repro/internal/tabulate"
)

// Trained bundles a trained float64 network with its evaluation split and
// the 32-bit baseline accuracies.
type Trained struct {
	Name  string
	Net   *nn.Network
	Train *datasets.Dataset
	Test  *datasets.Dataset
	Acc64 float64
	Acc32 float64
	// Std is the input standardizer the network expects applied to raw
	// features (nil when the network consumes raw features directly —
	// WBC folds it into the first layer, Mushroom never standardizes).
	// Deployment artifacts carry it so served models take raw inputs.
	Std *datasets.Standardizer
}

var (
	trainedOnce sync.Once
	trainedAll  []*Trained
)

// Datasets trains (once per process) the paper's three networks:
// Wisconsin Breast Cancer, Iris and Mushroom, in float64, and returns
// them with their inference splits (190 / 50 / 2708 samples).
func Datasets() []*Trained {
	trainedOnce.Do(func() {
		trainedAll = []*Trained{trainWBC(), trainIris(), trainMushroom()}
	})
	return trainedAll
}

// trainWBC and trainIris train on standardized features and then fold
// the standardization into the first layer (nn.FoldInputAffine): the
// deployed network consumes raw measurements, so its first-layer weights
// span the wide dynamic range that drives the paper's format comparison
// (WBC features range from ~0.06 to ~650).
func trainWBC() *Trained {
	train, test := datasets.BreastCancerSplit(datasets.WBCSeed)
	std := datasets.FitStandardizer(train)
	net := nn.NewMLP([]int{30, 16, 8, 2}, rng.New(101))
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 120
	cfg.LR = 0.02
	nn.Train(net, std.Apply(train), cfg)
	net.FoldInputAffine(std.InputAffine())
	return finishTrained("WisconsinBreastCancer", net, train, test)
}

// trainIris deploys on standardized features (all four measurements share
// one unit and scale, and standardization keeps activations in the ±2
// band where every 8-bit format has usable resolution — the conventional
// setup for this dataset).
func trainIris() *Trained {
	train, test := datasets.IrisSplit(datasets.IrisSeed)
	std := datasets.FitStandardizer(train)
	strain, stest := std.Apply(train), std.Apply(test)
	net := nn.NewMLP([]int{4, 10, 6, 3}, rng.New(7))
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 150
	cfg.LR = 0.05
	cfg.LRDecay = 0.99
	nn.Train(net, strain, cfg)
	tr := finishTrained("Iris", net, strain, stest)
	tr.Std = std
	return tr
}

func trainMushroom() *Trained {
	train, test := datasets.MushroomSplit(datasets.MushroomSeed)
	net := nn.NewMLP([]int{train.Dim(), 32, 2}, rng.New(8124))
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 12
	cfg.BatchSize = 32
	cfg.LR = 0.08
	nn.Train(net, train, cfg)
	return finishTrained("Mushroom", net, train, test)
}

func finishTrained(name string, net *nn.Network, train, test *datasets.Dataset) *Trained {
	return &Trained{
		Name:  name,
		Net:   net,
		Train: train,
		Test:  test,
		Acc64: nn.Accuracy(net, test),
		Acc32: nn.Accuracy32(net, test),
	}
}

// --- Table I ---

// Table1Row is one regime interpretation example.
type Table1Row struct {
	Binary string
	Regime int
}

// Table1 reproduces the paper's Table I exactly.
func Table1() ([]Table1Row, *tabulate.Table) {
	inputs := []string{"0001", "001", "01", "10", "110", "1110"}
	rows := make([]Table1Row, 0, len(inputs))
	tab := tabulate.New("Table I: Regime Interpretation", "Binary", "Regime (k)")
	for _, s := range inputs {
		k, err := posit.RegimeFromRun(s)
		if err != nil {
			panic(err)
		}
		rows = append(rows, Table1Row{Binary: s, Regime: k})
		tab.Add(s, k)
	}
	return rows, tab
}

// --- Fig. 2 ---

// Fig2Result captures the two distributions the figure compares.
type Fig2Result struct {
	PositEdges   []float64
	PositCounts  []int
	PositInUnit  float64 // fraction of posit(7,0) values in [-1,1]
	WeightStats  nn.WeightStats
	WeightCounts []int // same bin edges applied to trained DNN weights
}

// Fig2 reproduces the paper's Fig. 2: the 7-bit (es=0) posit value
// distribution next to a trained DNN weight distribution (our WBC MLP
// substitutes for AlexNet), both clustering heavily in [-1, 1].
func Fig2() (Fig2Result, *tabulate.Table) {
	f := posit.MustFormat(7, 0)
	edges := []float64{-64, -16, -4, -1, -0.25, 0.25, 1, 4, 16, 64}
	res := Fig2Result{
		PositEdges:  edges,
		PositCounts: f.Histogram(edges),
		PositInUnit: f.FractionInUnitRange(),
	}
	wbc := Datasets()[0]
	res.WeightStats = wbc.Net.Stats()
	res.WeightCounts = make([]int, len(edges)-1)
	for _, w := range wbc.Net.Weights() {
		for i := 0; i+1 < len(edges); i++ {
			if w >= edges[i] && w < edges[i+1] {
				res.WeightCounts[i]++
				break
			}
		}
	}
	tab := tabulate.New("Fig. 2: posit(7,0) values vs trained DNN weights",
		"bin", "posit(7,0) count", "DNN weight count")
	for i := 0; i+1 < len(edges); i++ {
		tab.Add(fmt.Sprintf("[%g,%g)", edges[i], edges[i+1]),
			res.PositCounts[i], res.WeightCounts[i])
	}
	return res, tab
}

// --- Figs. 6, 7, 8 ---

// HardwareConfigs returns the per-family EMAC configurations evaluated at
// each bit width n in [5,8]: posit es in {0,1,2}, float we in {3,4} (the
// paper's best-performing ranges) and fixed q = n/2 as the representative
// Q-format (hardware cost is independent of q at fixed n).
func HardwareConfigs(n uint, k int) []hw.Report {
	var out []hw.Report
	for es := uint(0); es <= 2 && es+3 <= n; es++ {
		out = append(out, hw.Virtex7.SynthPosit(posit.MustFormat(n, es), k))
	}
	for we := uint(3); we <= 4 && we+2 <= n; we++ {
		out = append(out, hw.Virtex7.SynthFloat(minifloat.MustFormat(we, n-1-we), k))
	}
	out = append(out, hw.Virtex7.SynthFixed(fixedpoint.MustFormat(n, n/2), k))
	return out
}

// Fig6 returns the (dynamic range, fmax) scatter for every configuration,
// the paper's Fig. 6.
func Fig6(k int) ([]hw.Report, *tabulate.Figure) {
	fig := tabulate.NewFigure("Fig. 6: Dynamic Range vs Max Operating Frequency",
		"log10(max/min)", "fmax (MHz)")
	var all []hw.Report
	series := map[string][]hw.Report{}
	for n := uint(5); n <= 8; n++ {
		for _, r := range HardwareConfigs(n, k) {
			all = append(all, r)
			series[r.Family] = append(series[r.Family], r)
		}
	}
	for _, fam := range families {
		var xs, ys []float64
		for _, r := range series[fam] {
			xs = append(xs, r.DynRange)
			ys = append(ys, r.FMaxMHz)
		}
		fig.AddSeries(fam, xs, ys)
	}
	return all, fig
}

// families is the order every per-family figure series and table row
// is listed in.
var families = []string{"fixed", "float", "posit"}

// representative returns the per-family representative config at width n
// used for the per-n curves of Figs. 7 and 8 (posit es=1, float we=3,
// fixed q=n/2).
func representative(n uint, k int) map[string]hw.Report {
	return map[string]hw.Report{
		"posit": hw.Virtex7.SynthPosit(posit.MustFormat(n, 1), k),
		"float": hw.Virtex7.SynthFloat(minifloat.MustFormat(3, n-4), k),
		"fixed": hw.Virtex7.SynthFixed(fixedpoint.MustFormat(n, n/2), k),
	}
}

// Fig7 returns the n-vs-EDP curves (paper Fig. 7).
func Fig7(k int) (map[string][]hw.Report, *tabulate.Figure) {
	return perNCurves(k, "Fig. 7: n vs Energy-Delay-Product", "n (bits)", "EDP (J·s per MAC)",
		func(r hw.Report) float64 { return r.EDP })
}

// Fig8 returns the n-vs-LUTs curves (paper Fig. 8).
func Fig8(k int) (map[string][]hw.Report, *tabulate.Figure) {
	return perNCurves(k, "Fig. 8: n vs LUT Utilisation", "n (bits)", "LUTs",
		func(r hw.Report) float64 { return r.LUTs })
}

func perNCurves(k int, title, xl, yl string, metric func(hw.Report) float64) (map[string][]hw.Report, *tabulate.Figure) {
	fig := tabulate.NewFigure(title, xl, yl)
	out := map[string][]hw.Report{}
	for _, fam := range families {
		var xs, ys []float64
		for n := uint(5); n <= 8; n++ {
			r := representative(n, k)[fam]
			out[fam] = append(out[fam], r)
			xs = append(xs, float64(n))
			ys = append(ys, metric(r))
		}
		fig.AddSeries(fam, xs, ys)
	}
	return out, fig
}

// --- Table II ---

// Table2Row is one dataset row of the paper's Table II.
type Table2Row struct {
	Dataset       string
	InferenceSize int
	Posit         core.Result
	Float         core.Result
	Fixed         core.Result
	Float32       float64
}

// Table2 reproduces Table II: best 8-bit accuracy per family per dataset
// plus the 32-bit float baseline. evalLimit truncates the inference sets
// (0 = the paper's full sizes).
func Table2(evalLimit int) ([]Table2Row, *tabulate.Table) {
	var rows []Table2Row
	tab := tabulate.New("Table II: Deep Positron accuracy with 8-bit EMACs",
		"Dataset", "Inference size", "Posit", "Floating-point", "Fixed-point", "32-bit Float")
	for _, tr := range Datasets() {
		test := tr.Test.Head(evalLimit)
		fb := core.BestPerFamily(tr.Net, test, 8)
		row := Table2Row{
			Dataset:       tr.Name,
			InferenceSize: tr.Test.Len(),
			Posit:         fb.Posit,
			Float:         fb.Float,
			Fixed:         fb.Fixed,
			Float32:       tr.Acc32,
		}
		rows = append(rows, row)
		tab.AddStrings(row.Dataset, fmt.Sprint(row.InferenceSize),
			fmt.Sprintf("%.2f%% (%s)", 100*row.Posit.Accuracy, row.Posit.Arith.Name()),
			fmt.Sprintf("%.2f%% (%s)", 100*row.Float.Accuracy, row.Float.Arith.Name()),
			fmt.Sprintf("%.2f%% (%s)", 100*row.Fixed.Accuracy, row.Fixed.Arith.Name()),
			fmt.Sprintf("%.2f%%", 100*row.Float32))
	}
	return rows, tab
}

// --- §IV-B sweep ---

// SweepRow is the best accuracy of one family at one bit width on one
// dataset.
type SweepRow struct {
	Dataset string
	N       uint
	Family  string
	Best    core.Result
	Acc32   float64
}

// Sweep evaluates every (format, n) combination for n in [5,8], the
// paper's "all possible combinations of [5,8] bit-widths" experiment.
func Sweep(evalLimit int) ([]SweepRow, *tabulate.Table) {
	var rows []SweepRow
	tab := tabulate.New("Sub-8-bit sweep: best accuracy per (dataset, n, family)",
		"Dataset", "n", "Posit", "Float", "Fixed", "32-bit")
	for _, tr := range Datasets() {
		test := tr.Test.Head(evalLimit)
		for n := uint(5); n <= 8; n++ {
			fb := core.BestPerFamily(tr.Net, test, n)
			for fam, res := range map[string]core.Result{
				"posit": fb.Posit, "float": fb.Float, "fixed": fb.Fixed,
			} {
				rows = append(rows, SweepRow{
					Dataset: tr.Name, N: n, Family: fam, Best: res, Acc32: tr.Acc32,
				})
			}
			tab.AddStrings(tr.Name, fmt.Sprint(n),
				fmt.Sprintf("%.2f%% (%s)", 100*fb.Posit.Accuracy, fb.Posit.Arith.Name()),
				fmt.Sprintf("%.2f%% (%s)", 100*fb.Float.Accuracy, fb.Float.Arith.Name()),
				fmt.Sprintf("%.2f%% (%s)", 100*fb.Fixed.Accuracy, fb.Fixed.Arith.Name()),
				fmt.Sprintf("%.2f%%", 100*tr.Acc32))
		}
	}
	return rows, tab
}

// --- Fig. 9 ---

// Fig9Point is one (format, n) point: average accuracy degradation vs the
// 32-bit baseline across the three datasets, against the EMAC's EDP.
type Fig9Point struct {
	Family         string
	N              uint
	AvgDegradation float64 // percentage points
	EDP            float64
}

// Fig9 reproduces the paper's Fig. 9 from the sweep results and the
// hardware model (k = 64 accumulator sizing).
func Fig9(evalLimit int) ([]Fig9Point, *tabulate.Figure) {
	rows, _ := Sweep(evalLimit)
	type key struct {
		fam string
		n   uint
	}
	sum := map[key]float64{}
	cnt := map[key]int{}
	for _, r := range rows {
		k := key{r.Family, r.N}
		sum[k] += 100 * (r.Acc32 - r.Best.Accuracy)
		cnt[k]++
	}
	fig := tabulate.NewFigure("Fig. 9: Avg accuracy degradation vs EDP",
		"avg accuracy degradation (%)", "EDP (J·s per MAC)")
	var pts []Fig9Point
	for _, fam := range families {
		var xs, ys []float64
		for n := uint(5); n <= 8; n++ {
			k := key{fam, n}
			if cnt[k] == 0 {
				continue
			}
			p := Fig9Point{
				Family:         fam,
				N:              n,
				AvgDegradation: sum[k] / float64(cnt[k]),
				EDP:            representative(n, 64)[fam].EDP,
			}
			pts = append(pts, p)
			xs = append(xs, p.AvgDegradation)
			ys = append(ys, p.EDP)
		}
		fig.AddSeries(fam, xs, ys)
	}
	return pts, fig
}
