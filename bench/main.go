// Command bench is the repository benchmark: four workloads against
// Deep Positron's serving and inference paths, every output checked bit
// for bit against an independent MAC-bank oracle. Run it from the
// repository root:
//
//	bash bench/run.sh                              # every workload, seed 1
//	bash bench/run.sh -workload iris-single -seed 3
//	bash bench/run.sh -workload churn -trace 1 -spans spans.json
//	bash bench/run.sh -repeat 5 -out bench.json
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) replay the same inputs layer by layer and report the
// per-layer metrics. Each metric prints as one "workload metric value
// unit" line, and the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is
// non-zero when any operation failed or any output differed from the
// oracle. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// e2eMetrics are the end-to-end metrics every untraced run reports.
var e2eMetrics = []string{"setup_s", "p10_ms", "throughput_sps", "peak_rss_mb"}

// perLayerMetrics are the metrics every traced run reports.
func perLayerMetrics() []string {
	names := append([]string{}, servingMetrics...)
	names = append(names, "loadgen.p50_ms", "loadgen.p99_ms", "engine.parallel_speedup", "trace.overhead_pct")
	for _, a := range arms {
		p := "core." + a.name
		names = append(names, p+".quantize_ns_per_sample", p+".activate_ns_per_sample",
			p+".decode_ns_per_sample", p+".residual_pct", "hw."+a.name+".ns_per_cycle", "engine."+a.name+"_sps")
		for _, n := range []string{"wbc", "iris", "mushroom"} {
			names = append(names, "kernel."+a.name+"."+n+".ns_per_mac")
		}
	}
	return append(names, "core.b1_fused_ns", "core.b1_persample_ns",
		"artifact.parse_us", "store.put_ms", "store.get_us", "store.gc_ms", "registry.load_ms", "registry.unload_ms")
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	has := func(s string) bool { return strings.HasSuffix(name, s) }
	switch {
	case has("_pct"):
		return "%"
	case has("_sps"):
		return "1/s"
	case has("_mb"):
		return "MB"
	case has("_bytes"):
		return "B"
	case has("_ms"):
		return "ms"
	case has("_us"), strings.Contains(name, "_us_per_"):
		return "us"
	case has("_ns"), strings.Contains(name, "ns_per_"):
		return "ns"
	case has("_s"):
		return "s"
	case has("speedup"):
		return "x"
	}
	return "count"
}

// config is what a workload run needs.
type config struct {
	work      string // scratch directory of this invocation
	positrond string // daemon binary
	seed      uint64
	seconds   float64   // run length
	tr        *tracer   // nil in an untraced run
	log       io.Writer // "# " info lines
}

// dur returns frac of the run length.
func (c *config) dur(frac float64) time.Duration {
	return time.Duration(c.seconds * frac * float64(time.Second))
}

func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "# "+format+"\n", args...)
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
	runLen            time.Duration // the measured phase; a traced run's whole length
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// add counts a phase's operations; missed operations are attempted but
// not failed.
func (r *result) add(p phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	if r.firstErr == nil {
		r.firstErr = p.firstErr
	}
}

// host is the stamp of the machine and build a run measured.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostStamp(root string) host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outMetric and outWorkload make up the -out file.
type outMetric struct {
	Value float64   `json:"value"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Unit  string    `json:"unit"`
	Runs  []float64 `json:"runs"`
}

type outWorkload struct {
	Name       string               `json:"name"`
	RunSeconds []float64            `json:"run_seconds"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Metrics    map[string]outMetric `json:"metrics"`
}

type outFile struct {
	Host      host          `json:"host"`
	Seed      uint64        `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Trace     int           `json:"trace"`
	Repeat    int           `json:"repeat"`
	Workloads []outWorkload `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: iris-single, mushroom-batch, table2-offline, churn or all")
	seed := fs.Uint64("seed", 1, "seed the models and inputs are generated from")
	seconds := fs.Float64("seconds", 10, "run length in seconds; every phase scales with it")
	trace := fs.Int("trace", 0, "1 runs the traced layer split and reports the per-layer metrics; 0 the end-to-end metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	repeat := fs.Int("repeat", 1, "run each workload this many times and report the median (and min-max)")
	out := fs.String("out", "", "also write the results, host stamp and every run's values to this JSON file")
	root := fs.String("root", ".", "repository root to build positrond from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || (*spans != "" && *trace != 1) || *repeat < 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	rootDir, err := filepath.Abs(*root)
	if err != nil {
		return fail(err)
	}
	buildDir := filepath.Join(rootDir, ".bench_build")
	binDir := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	c := &config{work: work, seed: *seed, seconds: *seconds, log: stdout}
	if c.positrond, err = buildPositrond(rootDir, binDir); err != nil {
		return fail(err)
	}
	names := e2eMetrics
	if *trace == 1 {
		c.tr = newTracer()
		names = perLayerMetrics()
	}

	h := hostStamp(rootDir)
	fmt.Fprintf(stdout, "# host cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%g trace=%d repeat=%d\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, *seed, *seconds, *trace, *repeat)
	sum := summary{Correct: true, Metrics: map[string]metricValue{}}
	doc := outFile{Host: h, Seed: *seed, Seconds: *seconds, Trace: *trace, Repeat: *repeat}
	// The layer suite does not depend on the workload's traffic: it runs
	// once per repetition and is reported under every workload.
	suites := make([]map[string]float64, *repeat)
	for _, w := range selected {
		c.tr.setWorkload(w.name)
		ow := outWorkload{Name: w.name, Metrics: map[string]outMetric{}}
		values := map[string][]float64{}
		for r := 0; r < *repeat; r++ {
			fn := w.run
			if *trace == 1 {
				fn = w.trace
			}
			start := time.Now()
			res, err := fn(c)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			if res.runLen == 0 {
				res.runLen = time.Since(start)
			}
			if *trace == 1 {
				if suites[r] == nil {
					suite := newResult()
					if err := layerSuite(c, paperNets(*seed), suite); err != nil {
						return fail(fmt.Errorf("%s: layer suite: %w", w.name, err))
					}
					suites[r] = suite.metrics
				}
				for k, v := range suites[r] {
					res.set(k, v)
				}
			}
			for _, n := range names {
				v, ok := res.metrics[n]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					return fail(fmt.Errorf("%s: metric %s missing or not finite (%v)", w.name, n, v))
				}
				values[n] = append(values[n], v)
			}
			if res.failed > 0 {
				fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed; first: %v\n", w.name, res.failed, res.attempted, res.firstErr)
			}
			ow.Attempted += res.attempted
			ow.Failed += res.failed
			ow.RunSeconds = append(ow.RunSeconds, res.runLen.Seconds())
			c.logf("%s run length %.3f s", w.name, res.runLen.Seconds())
		}
		sum.Attempted += ow.Attempted
		sum.Failed += ow.Failed
		for _, n := range names {
			vs := values[n]
			s := sorted(vs)
			m := outMetric{Value: median(vs), Min: s[0], Max: s[len(s)-1], Unit: unitOf(n), Runs: vs}
			ow.Metrics[n] = m
			key := n
			if len(selected) > 1 {
				key = w.name + "/" + n
			}
			sum.Metrics[key] = metricValue{Value: m.Value, Unit: m.Unit}
			line := fmt.Sprintf("%s %s %s %s", w.name, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
			if *repeat > 1 {
				line += fmt.Sprintf(" (min %s max %s, n=%d)", strconv.FormatFloat(m.Min, 'g', -1, 64),
					strconv.FormatFloat(m.Max, 'g', -1, 64), len(vs))
			}
			fmt.Fprintln(stdout, line)
		}
		doc.Workloads = append(doc.Workloads, ow)
	}
	sum.Correct = sum.Failed == 0
	if *spans != "" {
		if err := c.tr.write(*spans); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}
