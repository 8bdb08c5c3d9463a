package experiments

import (
	"fmt"
	"math"

	"repro/internal/emac"
	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/tabulate"
)

// DecimalAccuracyRow measures one format's quantisation fidelity in
// decimal digits: -log10 of the relative error, the metric Gustafson's
// posit papers use to argue tapered precision. "Near one" draws values
// where DNN weights live (|x| log-uniform in [1/8, 8]); "wide" stresses
// the whole dynamic range (|x| log-uniform in [1e-3, 1e3]).
type DecimalAccuracyRow struct {
	Name             string
	BitWidth         uint
	MeanDigitsNear1  float64 // mean decimal digits of accuracy, |x| in [1/8, 8]
	WorstDigitsNear1 float64
	MeanDigitsWide   float64 // |x| in [1e-3, 1e3]
	FailFracWide     float64 // fraction with >50% relative error (saturation/flush)
}

// DecimalAccuracy quantifies each 8-bit format's rounding error profile.
// It substantiates the paper's Fig. 2 argument quantitatively: posit
// concentrates accuracy where weights cluster, float spends bits on
// exponent range, fixed point has no relative-error guarantee at all.
func DecimalAccuracy(samples int) ([]DecimalAccuracyRow, *tabulate.Table) {
	if samples <= 0 {
		samples = 4000
	}
	arms := []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewPosit(8, 1), emac.NewPosit(8, 2),
		emac.NewFloatN(8, 4), emac.NewFloatN(8, 5),
		emac.NewFixed(8, 4),
	}
	r := rng.New(0xDEC)
	draw := func(lo, hi float64) []float64 {
		out := make([]float64, samples)
		llo, lhi := math.Log(lo), math.Log(hi)
		for i := range out {
			v := math.Exp(llo + (lhi-llo)*r.Float64())
			if r.Intn(2) == 1 {
				v = -v
			}
			out[i] = v
		}
		return out
	}
	near := draw(0.125, 8)
	wide := draw(1e-3, 1e3)

	digits := func(a emac.Arithmetic, x float64) float64 {
		got := a.Decode(a.Quantize(x))
		rel := math.Abs(got-x) / math.Abs(x)
		if rel == 0 {
			return 10 // exact: cap the score
		}
		d := -math.Log10(rel)
		if d > 10 {
			d = 10
		}
		return d
	}

	var rows []DecimalAccuracyRow
	tab := tabulate.New("Decimal accuracy of 8-bit quantisation (higher = better)",
		"format", "mean digits |x|∈[1/8,8]", "worst digits", "mean digits |x|∈[1e-3,1e3]", "fail% wide")
	for _, a := range arms {
		row := DecimalAccuracyRow{Name: a.Name(), BitWidth: a.BitWidth(), WorstDigitsNear1: math.Inf(1)}
		var sumN, sumW float64
		fails := 0
		for _, x := range near {
			d := digits(a, x)
			sumN += d
			if d < row.WorstDigitsNear1 {
				row.WorstDigitsNear1 = d
			}
		}
		for _, x := range wide {
			got := a.Decode(a.Quantize(x))
			rel := math.Abs(got-x) / math.Abs(x)
			if rel > 0.5 {
				fails++
			}
			sumW += digits(a, x)
		}
		row.MeanDigitsNear1 = sumN / float64(samples)
		row.MeanDigitsWide = sumW / float64(samples)
		row.FailFracWide = float64(fails) / float64(samples)
		rows = append(rows, row)
		tab.AddStrings(row.Name,
			fmt.Sprintf("%.2f", row.MeanDigitsNear1),
			fmt.Sprintf("%.2f", row.WorstDigitsNear1),
			fmt.Sprintf("%.2f", row.MeanDigitsWide),
			fmt.Sprintf("%.1f%%", 100*row.FailFracWide))
	}
	return rows, tab
}

// NetworkReportRow pairs a dataset topology with one format's full
// accelerator estimate.
type NetworkReportRow struct {
	Dataset string
	Report  hw.NetworkReport
}

// NetworkReports sizes a complete Deep Positron instance for every
// evaluation network × representative 8-bit format — the whole-accelerator
// view behind the paper's latency/power discussion.
func NetworkReports() ([]NetworkReportRow, *tabulate.Table) {
	shapes := map[string]struct{ fanin, width []int }{
		"WisconsinBreastCancer": {[]int{30, 16, 8}, []int{16, 8, 2}},
		"Iris":                  {[]int{4, 10, 6}, []int{10, 6, 3}},
		"Mushroom":              {[]int{117, 32}, []int{32, 2}},
	}
	var rows []NetworkReportRow
	tab := tabulate.New("Deep Positron full-accelerator estimates (8-bit formats, k-sized per layer)",
		"Dataset", "EMAC", "EMACs", "LUTs", "BRAM36", "latency (ns)", "kinf/s", "energy/inf (J)")
	for _, name := range []string{"WisconsinBreastCancer", "Iris", "Mushroom"} {
		sh := shapes[name]
		maxFanin := 0
		for _, f := range sh.fanin {
			if f > maxFanin {
				maxFanin = f
			}
		}
		reps := representative(8, maxFanin)
		for _, fam := range families {
			rep := reps[fam]
			nr := SynthNet(rep, sh.fanin, sh.width)
			rows = append(rows, NetworkReportRow{Dataset: name, Report: nr})
			tab.AddStrings(name, rep.Name,
				fmt.Sprint(nr.TotalEMACs),
				fmt.Sprintf("%.0f", nr.TotalLUTs),
				fmt.Sprint(nr.BRAM36),
				fmt.Sprintf("%.0f", nr.LatencyNs),
				fmt.Sprintf("%.0f", nr.ThroughputKIPS),
				fmt.Sprintf("%.3g", nr.EnergyPerInfJ))
		}
	}
	return rows, tab
}

// SynthNet wraps hw.SynthesizeNetwork with the EMAC's own bit width.
func SynthNet(rep hw.Report, fanin, width []int) hw.NetworkReport {
	return hw.SynthesizeNetwork(rep, fanin, width, rep.N)
}
