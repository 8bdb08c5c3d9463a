package main

// The schedule-independent layer suite every traced run ends with: the
// forward pass of each arm and paper network rebuilt from public calls
// and timed stage by stage, the kernels, the engine per arm, and the
// artifact, store and registry load paths.

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/store"
	"repro/internal/core"
	"repro/internal/emac"
	"repro/internal/engine"
	"repro/internal/registry"
)

// Shares of the run length the suite's parts take.
const (
	suiteForwardFrac = 0.20 // all stage splits together
	suiteEngineFrac  = 0.06 // all engine arms together
	suiteB1Frac      = 0.02
)

// Repetitions of each timed replay: at least minReps, at most maxReps,
// within its time budget. A forward split takes at least splitMinReps:
// its residual is a median of paired differences a few percent wide.
const (
	minReps      = 5
	splitMinReps = 21
	maxReps      = 1000
)

// storeBlobs is how many artifacts the store and load replays cycle.
const storeBlobs = 16

func layerSuite(c *config, nets []*paperNet, res *result) error {
	perSplit := c.dur(suiteForwardFrac / float64(len(arms)*len(nets)))
	for _, a := range arms {
		var undiv, gap, quant, act, dec, samples, sampleCycles float64
		var wants [][]float64
		for _, pn := range nets {
			m := pn.model(a.arith)
			fs, err := splitForward(c, a, pn, m, perSplit)
			if err != nil {
				return err
			}
			b := float64(pn.test.Len())
			undiv += fs.undivided
			gap += fs.gap
			quant += fs.quantize
			act += fs.activate
			dec += fs.decode
			samples += b
			sampleCycles += b * float64(m.Cycles())
			wants = append(wants, fs.want)
			var kernelNs, macs float64
			for li, l := range m.Layers {
				kernelNs += fs.layers[li]
				macs += b * float64(l.In*l.Out)
			}
			res.set(fmt.Sprintf("kernel.%s.%s.ns_per_mac", a.name, pn.name), kernelNs/macs)
			word := 1
			if a.arith.BitWidth() > 8 {
				word = 2
			}
			var bytes float64
			for _, l := range m.Layers {
				bytes += float64(word) * (b*float64(l.In+l.Out) + float64(l.In*l.Out+l.Out))
			}
			c.logf("kernel %s %s: %.0f MACs, %.0f ops and %.0f bytes of codes per pass (computed from shapes); Cycles %d, BottleneckCycles %d",
				a.name, pn.name, macs, 2*macs, bytes, m.Cycles(), m.BottleneckCycles())
		}
		p := "core." + a.name
		res.set(p+".quantize_ns_per_sample", quant/samples)
		res.set(p+".activate_ns_per_sample", act/samples)
		res.set(p+".decode_ns_per_sample", dec/samples)
		res.set(p+".residual_pct", 100*gap/undiv)
		res.set("hw."+a.name+".ns_per_cycle", undiv/sampleCycles)
		sps, err := engineSps(c, a, nets, wants)
		if err != nil {
			return err
		}
		res.set("engine."+a.name+"_sps", sps)
	}
	if err := b1(c, netByName(nets, "iris"), res); err != nil {
		return err
	}
	return loadPath(c, netByName(nets, "wbc"), res)
}

// forwardSplit is one arm and network's forward pass over the whole test
// split, taken apart. Times are medians over the repetitions, in ns.
type forwardSplit struct {
	undivided                  float64
	gap                        float64 // undivided minus rebuilt, paired per repetition
	quantize, activate, decode float64
	layers                     []float64
	want                       []float64 // the undivided pass's logits plane
}

// splitForward times core.Session.InferBatchInto against the same pass
// rebuilt from public calls — Arithmetic.Quantize, each layer's
// BatchLayerKernel, ReLU and Decode — recording the rebuilt stages as
// child spans of one forward span, and checks the two agree bit for bit.
func splitForward(c *config, a arm, pn *paperNet, m *core.Network, budget time.Duration) (*forwardSplit, error) {
	xs := pn.test.X
	b := len(xs)
	od := m.OutputDim()
	sess := m.NewSession()
	want := sess.InferBatchInto(make([]float64, b*od), xs)
	width := m.Layers[0].In
	kernels := make([]emac.BatchLayerKernel, len(m.Layers))
	for li, l := range m.Layers {
		bb, ok := a.arith.(emac.BatchKernelBuilder)
		if !ok {
			return nil, fmt.Errorf("%s has no batch kernel builder", a.name)
		}
		if kernels[li], ok = bb.NewBatchLayerKernel(l.W, l.B); !ok {
			return nil, fmt.Errorf("%s has no batch kernel for %s layer %d", a.name, pn.name, li)
		}
		width = max(width, l.Out)
	}
	planes := [2][]emac.Code{make([]emac.Code, b*width), make([]emac.Code, b*width)}
	undivPlane := make([]float64, b*od)
	logits := make([]float64, b*od)
	st := m.Stand
	in0 := m.Layers[0].In
	prefix := "core." + a.name + "." + pn.name
	var undiv, gap, quant, act, dec []float64
	layers := make([][]float64, len(m.Layers))
	// stamps[0] starts the pass; then quantisation, each layer's kernel,
	// each hidden layer's activation and the decode each stamp their end.
	stamps := make([]time.Time, 0, 2*len(m.Layers)+2)
	start := time.Now()
	// Repetition -1 warms caches and checks the rebuilt pass; it is not
	// recorded.
	for rep := -1; rep < splitMinReps || (rep < maxReps && time.Since(start) < budget); rep++ {
		// The undivided pass runs before the rebuilt one on even
		// repetitions and after it on odd ones, so neither always runs on
		// the other's warm caches.
		var undivNs float64
		undivided := func() {
			t0 := time.Now()
			sess.InferBatchInto(undivPlane, xs)
			undivNs = ns(time.Since(t0))
		}
		if rep%2 == 0 {
			undivided()
		}
		stamps = append(stamps[:0], time.Now())
		cur := planes[0][:b*in0]
		for s, x := range xs {
			row := cur[s*in0 : (s+1)*in0]
			for i, v := range x {
				if st != nil {
					v = (v - st.Mean[i]) / st.Std[i]
				}
				row[i] = a.arith.Quantize(v)
			}
		}
		stamps = append(stamps, time.Now())
		for li, l := range m.Layers {
			next := planes[(li+1)%2][:b*l.Out]
			kernels[li].ForwardBatchStrided(cur, next, b)
			stamps = append(stamps, time.Now())
			if li < len(m.Layers)-1 {
				for j, code := range next {
					next[j] = a.arith.ReLU(code)
				}
				stamps = append(stamps, time.Now())
			}
			cur = next
		}
		for j, code := range cur {
			logits[j] = a.arith.Decode(code)
		}
		stamps = append(stamps, time.Now())
		if rep < 0 {
			if !sameBits(logits, want) {
				return nil, fmt.Errorf("%w: rebuilt %s %s forward pass", errMismatch, a.name, pn.name)
			}
			undivided()
			continue
		}

		// Spans are recorded after the pass so that recording them is not
		// part of the times they report.
		end := stamps[len(stamps)-1]
		fid := c.tr.reserve(prefix+".forward", rep, stamps[0])
		c.tr.record(prefix+".quantize", rep, fid, stamps[0], stamps[1])
		quant = append(quant, ns(stamps[1].Sub(stamps[0])))
		k := 1
		var actNs float64
		for li := range m.Layers {
			c.tr.record(fmt.Sprintf("kernel.%s.%s.layer%d", a.name, pn.name, li), rep, fid, stamps[k], stamps[k+1])
			layers[li] = append(layers[li], ns(stamps[k+1].Sub(stamps[k])))
			k++
			if li < len(m.Layers)-1 {
				c.tr.record(prefix+".activate", rep, fid, stamps[k], stamps[k+1])
				actNs += ns(stamps[k+1].Sub(stamps[k]))
				k++
			}
		}
		act = append(act, actNs)
		c.tr.record(prefix+".decode", rep, fid, stamps[k], end)
		c.tr.finish(fid, end)
		dec = append(dec, ns(end.Sub(stamps[k])))
		if rep%2 == 1 {
			undivided()
		}
		undiv = append(undiv, undivNs)
		gap = append(gap, undivNs-ns(end.Sub(stamps[0])))
	}
	fs := &forwardSplit{
		undivided: median(undiv), gap: median(gap),
		quantize: median(quant), activate: median(act), decode: median(dec),
		want: want,
	}
	for _, l := range layers {
		fs.layers = append(fs.layers, median(l))
	}
	return fs, nil
}

// engineSps is one arm's engine.Runtime.InferBatch throughput over the
// three test splits: samples per second of the median pass.
func engineSps(c *config, a arm, nets []*paperNet, wants [][]float64) (float64, error) {
	var rts []*engine.Runtime
	defer func() {
		for _, rt := range rts {
			_ = rt.Close()
		}
	}()
	samples := 0
	for _, pn := range nets {
		rt, err := engine.NewRuntime(pn.model(a.arith), engine.WithWarmTables())
		if err != nil {
			return 0, err
		}
		rts = append(rts, rt)
		samples += pn.test.Len()
	}
	budget := c.dur(suiteEngineFrac / float64(len(arms)))
	var passes []float64
	start := time.Now()
	for len(passes) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		for ni, rt := range rts {
			out, err := rt.InferBatch(context.Background(), nets[ni].test.X)
			if err != nil {
				return 0, err
			}
			if len(passes) == 0 && !sameFlat(wants[ni], out) {
				return 0, fmt.Errorf("%w: engine %s %s", errMismatch, a.name, nets[ni].name)
			}
		}
		passes = append(passes, time.Since(t0).Seconds())
	}
	return float64(samples) / median(passes), nil
}

// b1 times one Iris posit(8,0) sample through the fused batch path at
// b=1 against the per-sample path, per call.
func b1(c *config, iris *paperNet, res *result) error {
	m := iris.model(arms[0].arith)
	sess := m.NewSession()
	xs := iris.test.X
	fusedOut := make([]float64, m.OutputDim())
	perOut := make([]float64, m.OutputDim())
	var fused, per []float64
	budget := c.dur(suiteB1Frac)
	start := time.Now()
	for len(fused) < minReps || (len(fused) < maxReps && time.Since(start) < budget) {
		var f, p time.Duration
		for i := range xs {
			t0 := time.Now()
			sess.InferBatchInto(fusedOut, xs[i:i+1])
			t1 := time.Now()
			sess.InferInto(perOut, xs[i])
			p += time.Since(t1)
			f += t1.Sub(t0)
			if !sameBits(fusedOut, perOut) {
				return fmt.Errorf("%w: b=1 fused and per-sample Iris logits differ", errMismatch)
			}
		}
		fused = append(fused, ns(f)/float64(len(xs)))
		per = append(per, ns(p)/float64(len(xs)))
	}
	res.set("core.b1_fused_ns", median(fused))
	res.set("core.b1_persample_ns", median(per))
	return nil
}

// loadPath replays the model load path on storeBlobs fresh WBC-shaped
// artifacts: artifact.Parse of the JSON upload, Put/Get/GC on a disk
// store in a temporary directory, and Registry.LoadBytes/Unload over a
// memory-over-disk store like positrond -store-dir.
func loadPath(c *config, wbc *paperNet, res *result) error {
	var jsons, bins [][]byte
	for i := 0; i < storeBlobs; i++ {
		m, js, err := churnArtifact(wbc, c.seed, 100000+i)
		if err != nil {
			return err
		}
		bin, err := artifact.Encode(m)
		if err != nil {
			return err
		}
		jsons, bins = append(jsons, js), append(bins, bin)
	}
	var parse, put, get, gc, load, unload []float64
	for _, js := range jsons {
		t0 := time.Now()
		if _, err := artifact.Parse(js); err != nil {
			return err
		}
		parse = append(parse, us(time.Since(t0)))
	}
	dir, err := os.MkdirTemp(c.work, "store-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := store.NewDisk(dir)
	if err != nil {
		return err
	}
	for round := 0; round < 3; round++ {
		var hashes []artifact.Hash
		for _, bin := range bins {
			t0 := time.Now()
			h, err := disk.Put(bin)
			if err != nil {
				return err
			}
			put = append(put, ms(time.Since(t0)))
			hashes = append(hashes, h)
		}
		for i, h := range hashes {
			t0 := time.Now()
			data, err := disk.Get(h)
			if err != nil {
				return err
			}
			get = append(get, us(time.Since(t0)))
			if len(data) != len(bins[i]) {
				return fmt.Errorf("store get returned %d bytes, want %d", len(data), len(bins[i]))
			}
		}
		t0 := time.Now()
		removed, _, err := disk.GC(nil)
		if err != nil {
			return err
		}
		gc = append(gc, ms(time.Since(t0)))
		if removed != len(bins) {
			return fmt.Errorf("store gc removed %d blobs, want %d", removed, len(bins))
		}
	}
	regDisk, err := store.NewDisk(dir)
	if err != nil {
		return err
	}
	reg := registry.New(registry.WithRuntimeOptions(engine.WithWarmTables()),
		registry.WithStore(store.NewUnion(store.NewMem(), regDisk)))
	defer reg.Close()
	for i, js := range jsons {
		name := fmt.Sprintf("load-%d", i)
		t0 := time.Now()
		if err := reg.LoadBytes(name, js); err != nil {
			return err
		}
		load = append(load, ms(time.Since(t0)))
		t0 = time.Now()
		if err := reg.Unload(name); err != nil {
			return err
		}
		unload = append(unload, ms(time.Since(t0)))
	}
	res.set("artifact.parse_us", median(parse))
	res.set("store.put_ms", median(put))
	res.set("store.get_us", median(get))
	res.set("store.gc_ms", median(gc))
	res.set("registry.load_ms", median(load))
	res.set("registry.unload_ms", median(unload))
	return nil
}
