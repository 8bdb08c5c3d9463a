package core_test

// Conformance: every route into the kernel refuses the same networks.
// Each malformed network below goes through both encoders, both
// decoders, NewSession, engine.NewRuntime and registry.Load, and every
// one of them must refuse it; the in-memory routes must refuse it with
// Network.Validate's own error.

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/rng"
)

// conformanceNet is a well-formed 3-4-4-2 network over a, with a folded
// 3-feature standardizer.
func conformanceNet(a emac.Arithmetic) *core.Network {
	net := core.Quantize(nn.NewMLP([]int{3, 4, 4, 2}, rng.New(25)), a)
	net.Stand = &datasets.Standardizer{Mean: []float64{0, 1, -1}, Std: []float64{1, 2, 0.5}}
	return net
}

// conformanceMixed is a well-formed mixed 3-4-4-2 network.
func conformanceMixed() *core.Network {
	p8 := emac.NewPosit(8, 0)
	return core.QuantizeMixed(nn.NewMLP([]int{3, 4, 4, 2}, rng.New(25)), []emac.Arithmetic{p8, emac.NewPosit(6, 0), p8})
}

// Binary layout of conformanceNet over a one-byte format (binary format
// v1): a 16-byte header, one 4-byte descriptor (family, n, es,
// quireDrop), three 8-byte layer shapes, the standardizer's three means
// and three scales, then layer 0's twelve weight words and four bias
// words.
const (
	descAt    = 16
	shapesAt  = descAt + 4
	meanAt    = shapesAt + 3*8
	stdAt     = meanAt + 3*8
	weightsAt = stdAt + 3*8
	biasAt    = weightsAt + 12
)

// binaryMutant encodes net, applies mutate and recomputes the body CRC,
// so the artifact is broken only where mutate broke it.
func binaryMutant(t *testing.T, net *core.Network, mutate func(b []byte)) []byte {
	t.Helper()
	b, err := artifact.Encode(net)
	if err != nil {
		t.Fatal(err)
	}
	mutate(b)
	binary.LittleEndian.PutUint32(b[12:], crc32.ChecksumIEEE(b[16:]))
	return b
}

type malformedCase struct {
	name string
	net  func() *core.Network
	// bin, when set, is the same fault in a binary artifact that passes
	// the format's own checks; nil where the format cannot express it.
	bin func(t *testing.T) []byte
}

func malformedNetworks() []malformedCase {
	p6 := emac.NewPosit(6, 0)
	return []malformedCase{
		// The binary header's layer-count bound refuses zero layers
		// before Validate runs (TestDecodeRejectsHostileInput).
		{"no layers", func() *core.Network { return &core.Network{Arith: p6} }, nil},
		{"mixed arithmetic count", func() *core.Network {
			m := conformanceMixed()
			m.LayerAriths = m.LayerAriths[:2]
			return m
		}, nil},
		{"uniform nil arithmetic", func() *core.Network {
			n := conformanceNet(p6)
			n.Arith = nil
			return n
		}, nil},
		{"sigmoid on mixed", func() *core.Network {
			m := conformanceMixed()
			m.Sigmoid = true
			return m
		}, func(t *testing.T) []byte {
			return binaryMutant(t, conformanceMixed(), func(b []byte) { b[7] |= 1 })
		}},
		{"sigmoid on posit(8,1)", func() *core.Network {
			n := conformanceNet(emac.NewPosit(8, 1))
			n.Sigmoid = true
			return n
		}, func(t *testing.T) []byte {
			return binaryMutant(t, conformanceNet(emac.NewPosit(8, 1)), func(b []byte) { b[7] |= 1 })
		}},
		// posit(6,0)'s quire has 8 fraction bits.
		{"quire drop past the fraction", func() *core.Network {
			a := emac.NewPosit(6, 0)
			a.QuireDrop = 8
			return conformanceNet(a)
		}, func(t *testing.T) []byte {
			return binaryMutant(t, conformanceNet(p6), func(b []byte) { b[descAt+3] = 8 })
		}},
		{"malformed layer", func() *core.Network {
			n := conformanceNet(p6)
			n.Layers[1].B = n.Layers[1].B[:3]
			return n
		}, nil},
		// A ragged row over the term-table kernel and over the MAC bank.
		{"ragged row posit(8,0)", func() *core.Network {
			n := conformanceNet(emac.NewPosit(8, 0))
			n.Layers[1].W[2] = n.Layers[1].W[2][:3]
			return n
		}, nil},
		{"ragged row posit(16,2)", func() *core.Network {
			n := conformanceNet(emac.NewPosit(16, 2))
			n.Layers[1].W[2] = n.Layers[1].W[2][:3]
			return n
		}, nil},
		// Layer 1 rewritten from (4,4) to (3,5): the same 20 words.
		{"mis-chained layers", func() *core.Network {
			n := conformanceNet(p6)
			n.Layers[1] = core.Quantize(nn.NewMLP([]int{3, 5}, rng.New(26)), p6).Layers[0]
			return n
		}, func(t *testing.T) []byte {
			return binaryMutant(t, conformanceNet(p6), func(b []byte) {
				binary.LittleEndian.PutUint32(b[shapesAt+8:], 3)
				binary.LittleEndian.PutUint32(b[shapesAt+12:], 5)
			})
		}},
		{"over-wide weight code", func() *core.Network {
			n := conformanceNet(p6)
			n.Layers[0].W[0][0] = 0xFF
			return n
		}, func(t *testing.T) []byte {
			return binaryMutant(t, conformanceNet(p6), func(b []byte) { b[weightsAt] = 0xFF })
		}},
		{"over-wide bias code", func() *core.Network {
			n := conformanceNet(p6)
			n.Layers[0].B[0] = 0xFF
			return n
		}, func(t *testing.T) []byte {
			return binaryMutant(t, conformanceNet(p6), func(b []byte) { b[biasAt] = 0xFF })
		}},
		{"standardizer width", func() *core.Network {
			n := conformanceNet(p6)
			n.Stand = &datasets.Standardizer{Mean: []float64{0, 1}, Std: []float64{1, 2}}
			return n
		}, nil},
		{"zero scale", func() *core.Network {
			n := conformanceNet(p6)
			n.Stand.Std[1] = 0
			return n
		}, func(t *testing.T) []byte {
			return binaryMutant(t, conformanceNet(p6), func(b []byte) { clear(b[stdAt+8 : stdAt+16]) })
		}},
	}
}

// TestEveryRouteRefusesMalformedNetworks runs each malformed network
// through every route. The well-formed networks the cases start from
// pass every route, so a refusal is the fault's, not the harness's.
func TestEveryRouteRefusesMalformedNetworks(t *testing.T) {
	reg := registry.New(registry.WithRuntimeOptions(engine.WithWorkers(1)))
	defer reg.Close()
	for _, c := range malformedNetworks() {
		t.Run(c.name, func(t *testing.T) {
			verr := c.net().Validate()
			if verr == nil {
				t.Fatal("Validate accepted the network")
			}
			refuses := func(route string, err error) {
				t.Helper()
				if err == nil {
					t.Errorf("%s accepted the network", route)
				} else if !strings.Contains(err.Error(), verr.Error()) {
					t.Errorf("%s: %v, want Validate's error %q", route, err, verr)
				}
			}
			_, err := c.net().MarshalJSON()
			refuses("MarshalJSON", err)
			_, err = artifact.Encode(c.net())
			refuses("artifact.Encode", err)
			// The JSON form's own descriptor check may speak first (a
			// uniform artifact with no arithmetic).
			if _, err := core.ParseModel(core.RawJSON(c.net())); err == nil {
				t.Error("core.ParseModel accepted the network's JSON form")
			}
			if c.bin != nil {
				_, err := artifact.Decode(c.bin(t))
				refuses("artifact.Decode", err)
				if !errors.Is(err, artifact.ErrCorrupt) {
					t.Errorf("artifact.Decode = %v, want ErrCorrupt", err)
				}
			}
			func() {
				defer func() {
					err, _ := recover().(error)
					refuses("NewSession", err)
				}()
				c.net().NewSession()
			}()
			rt, err := engine.NewRuntime(c.net(), engine.WithWorkers(1))
			if rt != nil {
				rt.Close()
			}
			refuses("engine.NewRuntime", err)
			refuses("registry.Load", reg.Load("m", c.net()))
			if st := reg.StoreStats(); st.Puts != 0 || st.Objects != 0 {
				t.Errorf("a refused network reached the store: %+v", st)
			}
		})
	}

	// Controls: the networks the cases break pass every route.
	for i, net := range []*core.Network{
		conformanceNet(emac.NewPosit(6, 0)), conformanceNet(emac.NewPosit(16, 2)), conformanceMixed(),
		func() *core.Network { n := conformanceNet(emac.NewPosit(8, 0)); n.Sigmoid = true; return n }(),
	} {
		if err := net.Validate(); err != nil {
			t.Fatalf("%v: %v", net, err)
		}
		js, err := net.MarshalJSON()
		if err != nil {
			t.Fatalf("%v: MarshalJSON: %v", net, err)
		}
		if _, err := core.ParseModel(js); err != nil {
			t.Fatalf("%v: ParseModel: %v", net, err)
		}
		bin, err := artifact.Encode(net)
		if err != nil {
			t.Fatalf("%v: Encode: %v", net, err)
		}
		if _, err := artifact.Decode(bin); err != nil {
			t.Fatalf("%v: Decode: %v", net, err)
		}
		net.NewSession().Infer([]float64{1, 2, 3})
		rt, err := engine.NewRuntime(net, engine.WithWorkers(1))
		if err != nil {
			t.Fatalf("%v: NewRuntime: %v", net, err)
		}
		rt.Close()
		if err := reg.Load(string(rune('a'+i)), net); err != nil {
			t.Fatalf("%v: registry.Load: %v", net, err)
		}
	}
}

// TestRoundNearestFixedHasNoArtifact: neither artifact format has a
// field for fixed-point round-to-nearest, so every route that writes,
// hashes or loads an artifact refuses a network that uses it, uniform or
// in one layer of a mixed one, rather than record its truncating twin.
// The in-process routes, which the ablation runs on, keep serving it with
// round-to-nearest.
func TestRoundNearestFixedHasNoArtifact(t *testing.T) {
	rne := emac.NewFixed(8, 4)
	rne.RoundNearest = true
	net := conformanceNet(rne)
	p8 := emac.NewPosit(8, 0)
	mixed := core.QuantizeMixed(nn.NewMLP([]int{3, 4, 4, 2}, rng.New(25)), []emac.Arithmetic{p8, rne, p8})
	reg := registry.New(registry.WithRuntimeOptions(engine.WithWorkers(1)))
	defer reg.Close()
	for i, n := range []*core.Network{net, mixed} {
		if _, err := n.MarshalJSON(); err == nil {
			t.Errorf("%v: MarshalJSON accepted round-to-nearest", n)
		}
		if err := n.Save(filepath.Join(t.TempDir(), "rne.json")); err == nil {
			t.Errorf("%v: Save accepted round-to-nearest", n)
		}
		if _, err := artifact.Encode(n); err == nil {
			t.Errorf("%v: artifact.Encode accepted round-to-nearest", n)
		}
		if err := reg.Load(string(rune('a'+i)), n); err == nil {
			t.Errorf("%v: registry.Load accepted round-to-nearest", n)
		}
	}
	if st := reg.StoreStats(); st.Puts != 0 || st.Objects != 0 {
		t.Errorf("a refused network reached the store: %+v", st)
	}

	// In process, both routes round to nearest: the truncating twin
	// answers other logits on some of 50 inputs.
	rt, err := engine.NewRuntime(net, engine.WithWorkers(1))
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Close()
	r := rng.New(3)
	xs := make([][]float64, 50)
	for i := range xs {
		xs[i] = []float64{r.NormMS(0, 2), r.NormMS(1, 2), r.NormMS(-1, 2)}
	}
	got, err := rt.InferBatch(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	s, twin := net.NewSession(), conformanceNet(emac.NewFixed(8, 4)).NewSession()
	differ := 0
	for i, x := range xs {
		want := s.Infer(x)
		if !slices.Equal(got[i], want) {
			t.Fatalf("input %d: runtime %v, session %v", i, got[i], want)
		}
		if !slices.Equal(want, twin.Infer(x)) {
			differ++
		}
	}
	if differ == 0 {
		t.Error("round-to-nearest served the truncating twin's logits on every input")
	}
}
