package main

// Models, input pools and the oracle. Every model is built from the run
// seed with the paper's shapes (nn.NewMLP + core.Quantize) and left
// untrained: serving and kernel cost do not depend on the weight values,
// and skipping training keeps set-up short. Inputs are the seeded test
// splits of internal/datasets.

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
)

// arm is one Table II arithmetic under its metric name.
type arm struct {
	name  string
	arith emac.Arithmetic
}

// arms are the offline arms: the paper's three 8-bit formats plus
// posit(16,1), the n > 8 path with no fused kernel.
var arms = []arm{
	{"posit8", emac.NewPosit(8, 0)},
	{"float8", emac.NewFloatN(8, 4)},
	{"fixed8", emac.NewFixed(8, 4)},
	{"posit16", emac.NewPosit(16, 1)},
}

// paperNet is one of the paper's three networks: seeded float weights
// shared by every arm, the standardizer fitted on its train split (nil
// for the one-hot Mushroom features), and its test split.
type paperNet struct {
	name  string
	float *nn.Network
	stand *datasets.Standardizer
	test  *datasets.Dataset
}

// model quantises the network into one arithmetic.
func (p *paperNet) model(a emac.Arithmetic) *core.Network {
	m := core.Quantize(p.float, a)
	m.Stand = p.stand
	return m
}

// paperNets builds WBC 30-16-8-2, Iris 4-10-6-3 and Mushroom 117-32-2,
// in that order, from the seed.
func paperNets(seed uint64) []*paperNet {
	r := rng.New(seed)
	wbcTrain, wbcTest := datasets.BreastCancerSplit(datasets.WBCSeed + seed)
	irisTrain, irisTest := datasets.IrisSplit(datasets.IrisSeed + seed)
	_, mushTest := datasets.MushroomSplit(datasets.MushroomSeed + seed)
	return []*paperNet{
		{"wbc", nn.NewMLP([]int{30, 16, 8, 2}, r.Fork(1)), datasets.FitStandardizer(wbcTrain), wbcTest},
		{"iris", nn.NewMLP([]int{4, 10, 6, 3}, r.Fork(2)), datasets.FitStandardizer(irisTrain), irisTest},
		{"mushroom", nn.NewMLP([]int{datasets.MushroomOneHotDim(), 32, 2}, r.Fork(3)), nil, mushTest},
	}
}

// netByName returns the named paper network.
func netByName(nets []*paperNet, name string) *paperNet {
	for _, n := range nets {
		if n.name == name {
			return n
		}
	}
	panic("bench: unknown network " + name)
}

// churnArtifact builds the i-th WBC-shaped posit(8,0) model the churn
// workload uploads, as JSON artifact bytes, with its own weights so
// every upload has a fresh content hash.
func churnArtifact(wbc *paperNet, seed uint64, i int) (*core.Network, []byte, error) {
	m := core.Quantize(nn.NewMLP([]int{30, 16, 8, 2}, rng.New(seed).Fork(1000+uint64(i))), arms[0].arith)
	m.Stand = wbc.stand
	data, err := json.Marshal(m)
	if err != nil {
		return nil, nil, fmt.Errorf("encoding churn artifact %d: %w", i, err)
	}
	return m, data, nil
}

// oracle computes reference logits for every input with one
// Arithmetic.NewMAC unit per neuron over core.Layer.W/B, applying the
// standardizer, ReLU and decode itself. It shares no code with
// core.Session or the fused kernels, which must match it bit for bit.
func oracle(m *core.Network, xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			macs := make([][]emac.MAC, len(m.Layers))
			for li, l := range m.Layers {
				macs[li] = make([]emac.MAC, l.Out)
				for j := range macs[li] {
					macs[li][j] = m.Arith.NewMAC(l.In)
				}
			}
			for s := w; s < len(xs); s += workers {
				out[s] = oracleOne(m, macs, xs[s])
			}
		}(w)
	}
	wg.Wait()
	return out
}

func oracleOne(m *core.Network, macs [][]emac.MAC, x []float64) []float64 {
	a := m.Arith
	act := make([]emac.Code, len(x))
	for i, v := range x {
		if m.Stand != nil {
			v = (v - m.Stand.Mean[i]) / m.Stand.Std[i]
		}
		act[i] = a.Quantize(v)
	}
	for li, l := range m.Layers {
		next := make([]emac.Code, l.Out)
		for j := range next {
			mac := macs[li][j]
			mac.Reset(l.B[j])
			for i, c := range act {
				mac.Step(l.W[j][i], c)
			}
			c := mac.Result()
			if li < len(m.Layers)-1 {
				c = a.ReLU(c)
			}
			next[j] = c
		}
		act = next
	}
	logits := make([]float64, len(act))
	for i, c := range act {
		logits[i] = a.Decode(c)
	}
	return logits
}

// sameBits reports whether two logit vectors are bit-identical.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// sameFlat compares a flat sample-major logits plane with per-sample
// logits.
func sameFlat(flat []float64, want [][]float64) bool {
	k := 0
	for _, w := range want {
		if k+len(w) > len(flat) || !sameBits(flat[k:k+len(w)], w) {
			return false
		}
		k += len(w)
	}
	return k == len(flat)
}

// sameAll compares per-sample logits bit for bit.
func sameAll(got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return false
		}
	}
	return true
}
