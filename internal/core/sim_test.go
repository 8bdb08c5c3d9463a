package core

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/emac"
)

// TestStreamInferMatchesInfer: streamed logits equal Infer's, also for a
// network with a folded standardizer fed raw features.
func TestStreamInferMatchesInfer(t *testing.T) {
	net, test := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	rawTrain, rawTest := datasets.IrisSplit(datasets.IrisSeed)
	std := Quantize(net, emac.NewPosit(8, 0))
	std.Stand = datasets.FitStandardizer(rawTrain)
	for _, c := range []struct {
		name   string
		q      *Network
		inputs [][]float64
	}{
		{"plain", q, test.X[:20]},
		{"standardized", std, rawTest.X[:20]},
	} {
		outs, stats, _ := c.q.StreamInfer(c.inputs, false)
		if len(outs) != 20 {
			t.Fatalf("%s: %d outputs", c.name, len(outs))
		}
		for i, x := range c.inputs {
			want := c.q.Infer(x)
			for j := range want {
				if outs[i][j] != want[j] {
					t.Fatalf("%s input %d logit %d: stream %g vs direct %g", c.name, i, j, outs[i][j], want[j])
				}
			}
		}
		if stats.Inputs != 20 || stats.TotalCycles <= 0 {
			t.Errorf("%s stats: %+v", c.name, stats)
		}
	}
}

// TestStreamInferReadsSessionCopy: the default session copies Stand when
// it is built, and StreamInfer quantises through that copy as well as
// computing through the session, so a later change to the field moves
// neither half of the pass.
func TestStreamInferReadsSessionCopy(t *testing.T) {
	net, _ := trainedIris(t)
	rawTrain, rawTest := datasets.IrisSplit(datasets.IrisSeed)
	q := Quantize(net, emac.NewPosit(8, 0))
	q.Stand = datasets.FitStandardizer(rawTrain)
	inputs := rawTest.X[:10]
	want := make([][]float64, len(inputs))
	for i, x := range inputs {
		want[i] = q.Infer(x) // builds the default session
	}
	q.Stand = nil
	outs, _, _ := q.StreamInfer(inputs, false)
	for i := range inputs {
		for j := range want[i] {
			if outs[i][j] != want[i][j] {
				t.Fatalf("input %d logit %d: stream %g vs session %g", i, j, outs[i][j], want[i][j])
			}
		}
	}
}

func TestStreamLatencyMatchesAnalyticalModel(t *testing.T) {
	net, test := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	// Single input: latency = Σ(fanin + depth) = Cycles().
	_, stats, _ := q.StreamInfer(test.X[:1], false)
	if stats.FirstLatency != q.Cycles() {
		t.Errorf("first latency %d != analytical %d", stats.FirstLatency, q.Cycles())
	}
}

func TestStreamSteadyStateThroughput(t *testing.T) {
	net, test := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	// Many inputs: the initiation interval must equal the bottleneck
	// layer's cycle count (streaming overlaps layers across inputs).
	_, stats, _ := q.StreamInfer(test.X[:30], false)
	bott := q.BottleneckCycles()
	if stats.SteadyInterval != bott {
		t.Errorf("steady interval %d != bottleneck %d", stats.SteadyInterval, bott)
	}
	// Throughput strictly better than serial execution.
	serialCycles := q.Cycles() * stats.Inputs
	if stats.TotalCycles >= serialCycles {
		t.Errorf("streaming (%d cycles) no better than serial (%d)", stats.TotalCycles, serialCycles)
	}
	t.Logf("30 inferences: %d cycles streaming vs %d serial (%.1fx)",
		stats.TotalCycles, serialCycles, float64(serialCycles)/float64(stats.TotalCycles))
}

func TestStreamTrace(t *testing.T) {
	net, test := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	_, _, events := q.StreamInfer(test.X[:3], true)
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	// FSM sanity: every layer that goes busy later goes done, and tags
	// move monotonically through layer 0.
	var lastTag0 = -1
	for _, e := range events {
		if e.Layer == 0 && e.State == "busy" {
			if e.Tag != lastTag0+1 {
				t.Fatalf("layer 0 accepted tag %d after %d", e.Tag, lastTag0)
			}
			lastTag0 = e.Tag
		}
	}
	if lastTag0 != 2 {
		t.Errorf("layer 0 processed up to tag %d, want 2", lastTag0)
	}
	// cycles non-decreasing
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatal("trace out of order")
		}
	}
}

func TestStreamEmptyInput(t *testing.T) {
	net, _ := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	outs, stats, events := q.StreamInfer(nil, true)
	if outs != nil || stats.Inputs != 0 || events != nil {
		t.Error("empty stream must be a no-op")
	}
}

func TestStreamAccuracyUnchanged(t *testing.T) {
	// End to end: streaming over the full Iris test split classifies
	// identically to per-sample inference.
	net, test := trainedIris(t)
	for _, a := range []emac.Arithmetic{emac.NewPosit(8, 1), emac.NewFixed(8, 4)} {
		q := Quantize(net, a)
		outs, _, _ := q.StreamInfer(test.X, false)
		correct := 0
		for i := range outs {
			best := 0
			for j := range outs[i] {
				if outs[i][j] > outs[i][best] {
					best = j
				}
			}
			if best == test.Y[i] {
				correct++
			}
		}
		if got, want := float64(correct)/float64(test.Len()), q.Accuracy(test); got != want {
			t.Errorf("%s: streamed accuracy %.3f != direct %.3f", a.Name(), got, want)
		}
	}
}
