package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
)

func TestQuantizedSaveLoadRoundTrip(t *testing.T) {
	net, test := trainedIris(t)
	dir := t.TempDir()
	for _, a := range []emac.Arithmetic{
		emac.NewPosit(8, 1), emac.NewFloatN(8, 4), emac.NewFixed(8, 4), emac.Float32Arith{},
	} {
		q := Quantize(net, a)
		path := filepath.Join(dir, a.Name()+".json")
		if err := q.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Arith.Name() != a.Name() {
			t.Fatalf("arith %s -> %s", a.Name(), loaded.Arith.Name())
		}
		// bit-identical inference
		for i := 0; i < 10; i++ {
			la := q.Infer(test.X[i])
			lb := loaded.Infer(test.X[i])
			for j := range la {
				if la[j] != lb[j] {
					t.Fatalf("%s: loaded model diverges at sample %d", a.Name(), i)
				}
			}
		}
	}
}

func TestQuantizedSaveLoadPreservesQuireDrop(t *testing.T) {
	net, test := trainedIris(t)
	a := emac.NewPosit(8, 1)
	a.QuireDrop = 12
	q := Quantize(net, a)
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.json")
	if err := q.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	arm, ok := loaded.Arith.(emac.PositArith)
	if !ok || arm.QuireDrop != 12 {
		t.Fatalf("quire drop lost: %+v", loaded.Arith)
	}
	if got, want := loaded.Accuracy(test), q.Accuracy(test); got != want {
		t.Fatalf("accuracy %v != %v after reload", got, want)
	}
}

func TestLoadRejectsCorruptModels(t *testing.T) {
	dir := t.TempDir()
	bad := func(name, content string) {
		path := filepath.Join(dir, name)
		os.WriteFile(path, []byte(content), 0o644)
		if _, err := Load(path); err == nil {
			t.Errorf("%s: corrupt model accepted", name)
		}
	}
	bad("garbage.json", "not json")
	bad("family.json", `{"arith":{"family":"quaternion","n":8},"layers":[{"in":1,"out":1,"w":[[0]],"b":[0]}]}`)
	bad("shape.json", `{"arith":{"family":"posit","n":8},"layers":[{"in":2,"out":1,"w":[[0]],"b":[0]}]}`)
	bad("chain.json", `{"arith":{"family":"posit","n":8},"layers":[
		{"in":2,"out":3,"w":[[0,0],[0,0],[0,0]],"b":[0,0,0]},
		{"in":4,"out":1,"w":[[0,0,0,0]],"b":[0]}]}`)
	bad("overflow.json", `{"arith":{"family":"posit","n":8},"layers":[{"in":1,"out":1,"w":[[512]],"b":[0]}]}`)
	bad("empty.json", `{"arith":{"family":"posit","n":8},"layers":[]}`)
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// invalidSigmoidBodies are artifacts whose sigmoid flag no session can
// apply: a mixed network (also one with no layers at all), and a uniform
// one over fixed point.
var invalidSigmoidBodies = map[string]string{
	"empty mixed": `{"version":1,"kind":"mixed","sigmoid":true}`,
	"mixed": `{"version":1,"kind":"mixed","ariths":[{"family":"posit","n":8},{"family":"posit","n":8}],"sigmoid":true,
		"layers":[{"in":2,"out":2,"w":[[64,64],[64,64]],"b":[0,0]},{"in":2,"out":1,"w":[[64,64]],"b":[0]}]}`,
	"uniform fixed(8,4)": `{"version":1,"kind":"uniform","arith":{"family":"fixed","n":8,"q":4},"sigmoid":true,
		"layers":[{"in":2,"out":2,"w":[[16,16],[16,16]],"b":[0,0]},{"in":2,"out":1,"w":[[16,16]],"b":[0]}]}`,
}

// TestParseModelRejectsInvalidSigmoid: the sigmoid flag parses only on a
// uniform artifact over an es=0 posit (Validate), the rule the binary
// codec and NewSession apply; the same body over posit(8,0) parses, and
// the JSON encoder refuses the flag where the decoder would.
func TestParseModelRejectsInvalidSigmoid(t *testing.T) {
	for name, body := range invalidSigmoidBodies {
		if _, err := ParseModel([]byte(body)); err == nil {
			t.Errorf("%s: sigmoid artifact accepted", name)
		}
	}
	valid := strings.Replace(invalidSigmoidBodies["uniform fixed(8,4)"], `"family":"fixed","n":8,"q":4`, `"family":"posit","n":8`, 1)
	m, err := ParseModel([]byte(valid))
	if err != nil {
		t.Fatalf("posit(8,0) sigmoid artifact: %v", err)
	}
	if !m.Sigmoid {
		t.Fatal("sigmoid flag lost")
	}
	q := Quantize(nn.NewMLP([]int{2, 2, 1}, rng.New(3)), emac.NewFixed(8, 4))
	q.Sigmoid = true
	if _, err := q.MarshalJSON(); err == nil {
		t.Error("fixed(8,4) sigmoid network serialised")
	}
}

// TestMixedSigmoidRefused: a mixed network built in memory with the
// Sigmoid flag set is refused where it would be used or written —
// NewSession panics and MarshalJSON fails, both with ErrMixedSigmoid.
func TestMixedSigmoidRefused(t *testing.T) {
	p8 := emac.NewPosit(8, 0)
	m := QuantizeMixed(nn.NewMLP([]int{2, 2, 1}, rng.New(3)), []emac.Arithmetic{p8, p8})
	m.Sigmoid = true
	if _, err := m.MarshalJSON(); !errors.Is(err, ErrMixedSigmoid) {
		t.Errorf("MarshalJSON = %v, want ErrMixedSigmoid", err)
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrMixedSigmoid) {
			t.Errorf("NewSession panicked with %v, want ErrMixedSigmoid", err)
		}
	}()
	m.NewSession()
}

// ambiguousArithBodies carry the descriptors of both kinds at once; the
// parser rejects each rather than silently dropping one set.
var ambiguousArithBodies = map[string]string{
	"uniform with ariths": `{"version":1,"kind":"uniform","arith":{"family":"posit","n":8},"ariths":[{"family":"fixed","n":8,"q":4}],
		"layers":[{"in":1,"out":1,"w":[[64]],"b":[0]}]}`,
	"mixed with arith": `{"version":1,"kind":"mixed","arith":{"family":"posit","n":8},"ariths":[{"family":"fixed","n":8,"q":4}],
		"layers":[{"in":1,"out":1,"w":[[64]],"b":[0]}]}`,
}

func TestParseModelRejectsAmbiguousAriths(t *testing.T) {
	for name, body := range ambiguousArithBodies {
		if m, err := ParseModel([]byte(body)); err == nil {
			t.Errorf("%s: parsed as %v", name, m)
		}
	}
}

// TestParseModelRejectsUnusedParameters: an arithmetic descriptor that
// sets a parameter its family does not use (es or quireDrop outside
// posit, we outside float, q outside fixed, n on float32) is rejected,
// in a uniform and a mixed artifact alike, instead of loading as the
// arithmetic its other parameters name. The same descriptors without
// the stray parameter parse.
func TestParseModelRejectsUnusedParameters(t *testing.T) {
	const layers = `"layers":[{"in":1,"out":1,"w":[[16]],"b":[0]}]`
	for valid, strays := range map[string][]string{
		`"family":"posit","n":8`:        {`"we":5,"q":3`, `"we":5`, `"q":3`},
		`"family":"float","n":8,"we":4`: {`"es":1`, `"q":3`, `"quireDrop":2`},
		`"family":"fixed","n":8,"q":4`:  {`"es":1`, `"we":4`, `"quireDrop":2`},
		`"family":"float32"`:            {`"n":32`, `"es":1`, `"we":8`, `"q":3`, `"quireDrop":2`},
	} {
		for _, stray := range append([]string{""}, strays...) {
			arith := "{" + valid + "}"
			if stray != "" {
				arith = "{" + valid + "," + stray + "}"
			}
			for _, body := range []string{
				`{"version":1,"kind":"uniform","arith":` + arith + `,` + layers + `}`,
				`{"version":1,"kind":"mixed","ariths":[` + arith + `],` + layers + `}`,
			} {
				m, err := ParseModel([]byte(body))
				switch {
				case stray == "" && err != nil:
					t.Errorf("%s: %v", body, err)
				case stray != "" && err == nil:
					t.Errorf("%s: parsed as %v", body, m)
				}
			}
		}
	}
}

func TestSaveRejectsCustomArith(t *testing.T) {
	net, _ := trainedIris(t)
	q := Quantize(net, emac.NewPosit(8, 0))
	q.Arith = fakeArith{}
	if _, err := q.MarshalJSON(); err == nil {
		t.Error("unknown arithmetic must not serialise")
	}
}

// fakeArith is an Arithmetic the serializer cannot describe.
type fakeArith struct{ emac.PositArith }

func (fakeArith) Name() string { return "fake" }
