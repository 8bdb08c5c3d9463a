package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// residualBound is how far, in percent, the rebuilt forward pass may
// drift from the undivided one before the stage split stops explaining
// the pass.
const residualBound = 10

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSmoke runs every workload for half a second and returns the parsed
// result line.
func runSmoke(t *testing.T, trace int) summary {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", "..", "-seed", "7", "-seconds", "0.5", "-trace", fmt.Sprint(trace)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench exited %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Fatalf("oracle check: correct=%v, %d of %d operations failed", sum.Correct, sum.Failed, sum.Attempted)
	}
	return sum
}

func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command", i, w.Name, workloads[i].name)
		}
	}
	for trace, metrics := range [][]struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}{spec.EndToEnd, spec.PerLayer} {
		sum := runSmoke(t, trace)
		if want := len(metrics) * len(workloads); len(sum.Metrics) != want {
			t.Errorf("trace %d: %d metrics emitted, BENCHMARK.json names %d", trace, len(sum.Metrics), want)
		}
		for _, w := range workloads {
			for _, m := range metrics {
				got, ok := sum.Metrics[w.name+"/"+m.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				}
			}
			if trace == 1 {
				for _, a := range arms {
					name := w.name + "/core." + a.name + ".residual_pct"
					if r := sum.Metrics[name].Value; r < -residualBound || r > residualBound {
						t.Errorf("%s = %.2f%%, outside ±%d%%", name, r, residualBound)
					}
				}
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 1980 || pct != 99 {
		t.Errorf("tail of 1..2000 = %v at p%v, want 1980 at p99", v, pct)
	}
	// With 100 samples p99 would leave one sample beyond it; the tail
	// falls back to the 90th, which leaves ten.
	if v, _ := tail(xs[:100]); v != 90 {
		t.Errorf("tail of 1..100 = %v, want 90", v)
	}
}

func TestUnitOf(t *testing.T) {
	for name, want := range map[string]string{
		"setup_s":                          "s",
		"p10_ms":                           "ms",
		"throughput_sps":                   "1/s",
		"peak_rss_mb":                      "MB",
		"transport.self_p50_us":            "us",
		"positrond.cpu_us_per_sample":      "us",
		"core.posit8.decode_ns_per_sample": "ns",
		"kernel.fixed8.wbc.ns_per_mac":     "ns",
		"core.b1_fused_ns":                 "ns",
		"core.posit8.residual_pct":         "%",
		"store.gc_freed_bytes":             "B",
		"engine.parallel_speedup":          "x",
		"registry.max_coalesced":           "count",
	} {
		if got := unitOf(name); got != want {
			t.Errorf("unitOf(%s) = %q, want %q", name, got, want)
		}
	}
}
