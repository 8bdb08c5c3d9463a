package core

// Execution-plane tests: sessions are shared-nothing, so any number of
// goroutines driving one immutable Network must produce outputs
// bit-identical to a serial pass. Run with -race (CI does) to prove the
// model plane really is read-only under concurrency.

import (
	"sync"
	"testing"

	"repro/internal/emac"
)

// TestSessionsConcurrentBitIdentical: one shared Network, 12 goroutines,
// one session each, every goroutine sweeps the full test set; every
// logit must be bit-identical to the MAC-bank oracle for every arm.
func TestSessionsConcurrentBitIdentical(t *testing.T) {
	net, test := trainedIris(t)
	for _, a := range []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
		emac.Float32Arith{}, // MAC path: no kernel, per-neuron EMACs
	} {
		q := Quantize(net, a)
		want := oracleLogits(q, test.X)
		od := q.OutputDim()
		const goroutines = 12
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := q.NewSession()
				for i, x := range test.X {
					got := s.Infer(x)
					for j := range got {
						if got[j] != want[i*od+j] {
							t.Errorf("%s goroutine %d sample %d logit %d: %v != %v",
								a.Name(), g, i, j, got[j], want[i*od+j])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestMixedSessionsConcurrent: the mixed-precision pipeline under the
// same contract (different arithmetics per layer, conversion units at
// boundaries).
func TestMixedSessionsConcurrent(t *testing.T) {
	net, test := trainedIris(t)
	m := QuantizeMixed(net, []emac.Arithmetic{
		emac.NewPosit(8, 0), emac.NewFixed(8, 4), emac.NewFloatN(8, 4),
	})
	want := oracleLogits(m, test.X)
	od := m.OutputDim()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := m.NewSession()
			for i, x := range test.X {
				got := s.Infer(x)
				for j := range got {
					if got[j] != want[i*od+j] {
						t.Errorf("sample %d logit %d: %v != %v", i, j, got[j], want[i*od+j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDefaultWrappersMatchSessions: the Network-level convenience
// methods are thin wrappers over a default session and must agree with
// an explicit one, including the accuracy sweep, on either kind.
func TestDefaultWrappersMatchSessions(t *testing.T) {
	net, test := trainedIris(t)
	for _, m := range []*Network{
		Quantize(net, emac.NewPosit(8, 0)),
		QuantizeMixed(net, []emac.Arithmetic{emac.NewPosit(8, 0), emac.NewFixed(8, 4), emac.NewFloatN(8, 4)}),
	} {
		s := m.NewSession()
		for i, x := range test.X {
			a, b := m.Infer(x), s.Infer(x)
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%v sample %d: wrapper %v != session %v", m, i, a, b)
				}
			}
		}
		if wa, sa := m.Accuracy(test), s.Accuracy(test); wa != sa {
			t.Fatalf("%v: wrapper accuracy %v != session accuracy %v", m, wa, sa)
		}
	}
}

// TestNewSessionPanicsOnMisChainedNetwork: a layer whose fan-in differs
// from its predecessor's width panics when a session is built, before
// any pass could read stale plane entries.
func TestNewSessionPanicsOnMisChainedNetwork(t *testing.T) {
	net, _ := trainedIris(t)
	for _, m := range []*Network{
		Quantize(net, emac.NewPosit(8, 0)),
		QuantizeMixed(net, []emac.Arithmetic{emac.NewPosit(8, 0), emac.NewFixed(8, 4), emac.NewFloatN(8, 4)}),
	} {
		ls := m.Layers
		// Drop the middle layer's last neuron: the readout layer still
		// expects the old width.
		mid := *ls[1]
		mid.Out--
		mid.W, mid.B = mid.W[:mid.Out], mid.B[:mid.Out]
		ls[1] = &mid
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: NewSession accepted a mis-chained network", m)
				}
			}()
			m.NewSession()
		}()
	}
}

// TestArityMismatchRefused: a mixed network whose arithmetics do not
// match its layers one for one has no session and no artifact.
func TestArityMismatchRefused(t *testing.T) {
	net, _ := trainedIris(t)
	m := QuantizeMixed(net, []emac.Arithmetic{emac.NewPosit(8, 0), emac.NewFixed(8, 4), emac.NewFloatN(8, 4)})
	m.LayerAriths = m.LayerAriths[:2]
	if _, err := m.MarshalJSON(); err == nil {
		t.Error("MarshalJSON accepted 2 arithmetics for 3 layers")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSession accepted 2 arithmetics for 3 layers")
		}
	}()
	m.NewSession()
}

// TestSessionStateIsolation: interleaving inferences across two sessions
// of one network must not perturb either (no shared scratch).
func TestSessionStateIsolation(t *testing.T) {
	net, test := trainedIris(t)
	q := Quantize(net, emac.NewFixed(8, 4))
	s1, s2 := q.NewSession(), q.NewSession()
	a := s1.Infer(test.X[0])
	_ = s2.Infer(test.X[1]) // interleave different input on another session
	b := s1.Infer(test.X[0])
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("session state leaked: %v vs %v", a, b)
		}
	}
}

// TestStreamInferMatchesSessions: the cycle-level simulator runs the
// default session's layers at b=1 and must match the MAC-bank oracle.
func TestStreamInferMatchesSessions(t *testing.T) {
	net, test := trainedIris(t)
	q := Quantize(net, emac.NewFloatN(8, 4))
	inputs := test.X[:16]
	outs, _, _ := q.StreamInfer(inputs, false)
	want := oracleLogits(q, inputs)
	od := q.OutputDim()
	for i := range outs {
		for j := range outs[i] {
			if outs[i][j] != want[i*od+j] {
				t.Fatalf("stream sample %d logit %d: %v != %v", i, j, outs[i][j], want[i*od+j])
			}
		}
	}
}
