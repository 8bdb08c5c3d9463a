// Command positron regenerates the paper's tables and figures.
//
// Usage:
//
//	positron [flags] <experiment>...
//
// Experiments: table1, fig2, fig6, fig7, fig8, table2, sweep, fig9, all.
//
// Flags:
//
//	-limit N   truncate each inference set to N samples (0 = full, the
//	           paper's sizes: 190 / 50 / 2708). Full runs take a few
//	           minutes because every configuration of every format is
//	           evaluated bit-exactly.
//	-k N       dot-product length used to size the EMAC accumulators in
//	           the hardware model (default 32).
//	-workers N worker count for the parallel inference engine
//	           (0 = GOMAXPROCS).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	limit := flag.Int("limit", 0, "max inference samples per dataset (0 = full)")
	k := flag.Int("k", 32, "accumulator dot-product capacity for the hardware model")
	workers := flag.Int("workers", 0, "worker count for the parallel inference engine (0 = GOMAXPROCS)")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	for _, name := range args {
		if name == "all" {
			runAll(*limit, *k, *workers)
			continue
		}
		if !run(name, *limit, *k, *workers) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `positron — regenerate the Deep Positron paper's tables and figures

usage: positron [-limit N] [-k N] [-workers N] <experiment>...

experiments:
  table1   regime interpretation (Table I)
  fig2     posit(7,0) value distribution vs trained DNN weights (Fig. 2)
  fig6     dynamic range vs max operating frequency (Fig. 6)
  fig7     n vs energy-delay-product (Fig. 7)
  fig8     n vs LUT utilisation (Fig. 8)
  table2   8-bit accuracy on WBC / Iris / Mushroom (Table II)
  sweep    best accuracy for every (format, n) pair, n in [5,8] (§IV-B)
  fig9     avg accuracy degradation vs EDP (Fig. 9)
  decimals decimal-accuracy profile of the 8-bit formats (extension)
  hw       full-accelerator estimates per dataset topology (extension)
  memonly  weight-storage-only quantisation, float32 compute (extension)
  qat      quantisation-aware fine-tuning vs post-training (extension)
  quire    truncated-quire accuracy ablation (extension)
  wide16   16-bit formats: posit16 vs binary16 vs bfloat16 (extension)
  scaling  EMAC hardware scaling to n in {8..32} (extension)
  robust   re-run Table II under alternative master seeds (extension)
  engine   parallel dataset evaluation: serial session vs the pooled
           batch engine, all 8-bit arms (extension)
  verify   re-check every headline paper claim; exit 1 on violation
  all      everything above
`)
}

func runAll(limit, k, workers int) {
	for _, name := range []string{"table1", "fig2", "fig6", "fig7", "fig8", "table2", "sweep", "fig9", "decimals", "hw", "memonly", "qat", "quire", "engine"} {
		run(name, limit, k, workers)
	}
}

func run(name string, limit, k, workers int) bool {
	switch name {
	case "table1":
		_, tab := experiments.Table1()
		fmt.Println(tab)
	case "fig2":
		res, tab := experiments.Fig2()
		fmt.Println(tab)
		fmt.Printf("posit(7,0) fraction of values in [-1,1]: %.1f%%\n", 100*res.PositInUnit)
		fmt.Printf("trained WBC weights in [-1,1]: %.1f%% (of %d; min %.3g max %.3g)\n\n",
			100*res.WeightStats.FracInUnit, res.WeightStats.Count,
			res.WeightStats.Min, res.WeightStats.Max)
	case "fig6":
		reports, fig := experiments.Fig6(k)
		fmt.Println(fig)
		for _, r := range reports {
			fmt.Println(" ", r)
		}
		fmt.Println()
	case "fig7":
		_, fig := experiments.Fig7(k)
		fmt.Println(fig)
	case "fig8":
		_, fig := experiments.Fig8(k)
		fmt.Println(fig)
	case "table2":
		_, tab := experiments.Table2(limit)
		fmt.Println(tab)
	case "sweep":
		_, tab := experiments.Sweep(limit)
		fmt.Println(tab)
	case "fig9":
		pts, fig := experiments.Fig9(limit)
		fmt.Println(fig)
		for _, p := range pts {
			fmt.Printf("  %-6s n=%d  degradation=%6.2f%%  EDP=%.3g\n",
				p.Family, p.N, p.AvgDegradation, p.EDP)
		}
		fmt.Println()
	case "decimals":
		_, tab := experiments.DecimalAccuracy(0)
		fmt.Println(tab)
	case "hw":
		_, tab := experiments.NetworkReports()
		fmt.Println(tab)
	case "memonly":
		_, tab := experiments.MemoryOnly(limit)
		fmt.Println(tab)
	case "qat":
		_, tab := experiments.QuantizationAwareTraining(limit)
		fmt.Println(tab)
	case "quire":
		_, tab := experiments.QuireAblation(limit)
		fmt.Println(tab)
	case "wide16":
		_, tab := experiments.Wide16(limit)
		fmt.Println(tab)
	case "scaling":
		_, tab := experiments.Scaling(k)
		fmt.Println(tab)
	case "engine":
		_, tab := experiments.EngineSweep(limit, workers)
		fmt.Println(tab)
	case "robust":
		_, tab := experiments.RobustnessCheck(
			[]uint64{21, 1234, 0xBEEF},
			[]string{"WisconsinBreastCancer", "Iris", "Mushroom"}, limit)
		fmt.Println(tab)
	case "verify":
		checks, tab := experiments.Verify(limit)
		fmt.Println(tab)
		for _, c := range checks {
			if !c.Pass {
				fmt.Fprintf(os.Stderr, "verification failed: %s (%s)\n", c.ID, c.Claim)
				os.Exit(1)
			}
		}
		fmt.Println("all paper claims verified.")
	default:
		return false
	}
	return true
}
