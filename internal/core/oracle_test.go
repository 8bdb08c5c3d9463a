package core

// The MAC-bank oracle every session route is held to: one
// Arithmetic.NewMAC unit per neuron over Layer.W/B, with the folded
// standardizer, ReLU or the posit fast sigmoid, the format conversion at
// each layer boundary and the logit decode applied here. It shares no
// code with Session, the tiled pass or the fused kernels, which must match
// it bit for bit.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
)

// oracleLogits computes the reference logits of every input, flat and
// sample-major.
func oracleLogits(m *Network, xs [][]float64) []float64 {
	layers, sigmoid := m.Layers, m.Sigmoid
	ariths, st := m.Ariths(), m.Stand
	macs := make([][]emac.MAC, len(layers))
	for li, l := range layers {
		macs[li] = make([]emac.MAC, l.Out)
		for j := range macs[li] {
			macs[li][j] = ariths[li].NewMAC(l.In)
		}
	}
	last := len(layers) - 1
	out := make([]float64, 0, len(xs)*layers[last].Out)
	for _, x := range xs {
		act := make([]emac.Code, len(x))
		for i, v := range x {
			if st != nil {
				v = (v - st.Mean[i]) / st.Std[i]
			}
			act[i] = ariths[0].Quantize(v)
		}
		for li, l := range layers {
			a := ariths[li]
			next := make([]emac.Code, l.Out)
			for j, mac := range macs[li] {
				mac.Reset(l.B[j])
				for i, c := range act {
					mac.Step(l.W[j][i], c)
				}
				c := mac.Result()
				if li < last {
					if sigmoid {
						f := a.(emac.PositArith).F
						c = emac.Code(f.FromBits(uint64(c)).FastSigmoid().Bits())
					} else {
						c = a.ReLU(c)
					}
					if to := ariths[li+1]; to != a {
						c = to.Quantize(a.Decode(c))
					}
				}
				next[j] = c
			}
			act = next
		}
		for _, c := range act {
			out = append(out, ariths[last].Decode(c))
		}
	}
	return out
}

// sameLogits fails unless got holds want's logits bit for bit.
func sameLogits(t *testing.T, route string, got, want []float64, od int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logits, oracle %d", route, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d logit %d: %v, oracle %v", route, i/od, i%od, got[i], want[i])
		}
	}
}

// oracleAccuracy is the accuracy of the oracle's argmax over ds.
func oracleAccuracy(want []float64, od int, ds *datasets.Dataset) float64 {
	correct := 0
	for i, y := range ds.Y {
		if nn.Argmax(want[i*od:(i+1)*od]) == y {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// checkRoutes runs every route into m's sessions over ds against the
// oracle: Infer and InferInto per sample; InferBatchInto at each flush
// size in batches (a prefix of ds) on one session; a session's and the
// default wrappers' Infer, Predict and Accuracy; and StreamInfer over the
// first streamN inputs.
func checkRoutes(t *testing.T, name string, m *Network, ds *datasets.Dataset, batches []int, streamN int) {
	t.Helper()
	od := m.OutputDim()
	want := oracleLogits(m, ds.X)
	s := m.NewInferer()
	got := make([]float64, len(want))
	for i, x := range ds.X {
		copy(got[i*od:], s.Infer(x))
	}
	sameLogits(t, name+" Infer", got, want, od)
	for i, x := range ds.X {
		s.InferInto(got[i*od:(i+1)*od], x)
	}
	sameLogits(t, name+" InferInto", got, want, od)
	flush := m.NewInferer()
	for _, b := range batches {
		out := flush.InferBatchInto(make([]float64, b*od), ds.X[:b])
		sameLogits(t, fmt.Sprintf("%s InferBatchInto b=%d", name, b), out, want[:b*od], od)
	}
	for i, x := range ds.X {
		copy(got[i*od:], m.Infer(x))
		if p := m.Predict(x); p != nn.Argmax(want[i*od:(i+1)*od]) {
			t.Fatalf("%s wrapper Predict sample %d: %d, oracle %d", name, i, p, nn.Argmax(want[i*od:(i+1)*od]))
		}
	}
	sameLogits(t, name+" wrapper Infer", got, want, od)
	acc := oracleAccuracy(want, od, ds)
	if sa, wa := s.Accuracy(ds), m.Accuracy(ds); sa != acc || wa != acc {
		t.Fatalf("%s Accuracy: session %v, wrapper %v, oracle %v", name, sa, wa, acc)
	}
	if streamN > 0 {
		outs, _, _ := m.StreamInfer(ds.X[:streamN], false)
		for i := range outs {
			copy(got[i*od:], outs[i])
		}
		sameLogits(t, name+" StreamInfer", got[:streamN*od], want[:streamN*od], od)
	}
}

// repeatSplit returns ds's samples repeated to n, so a small split can
// fill flushes across the tile boundary.
func repeatSplit(ds *datasets.Dataset, n int) *datasets.Dataset {
	out := &datasets.Dataset{Name: ds.Name, NumClasses: ds.NumClasses}
	for i := 0; i < n; i++ {
		out.X = append(out.X, ds.X[i%ds.Len()])
		out.Y = append(out.Y, ds.Y[i%ds.Len()])
	}
	return out
}
