package core

// Golden-file tests for the versioned deployment artifact: the committed
// files under testdata/ pin the on-disk format, so any encoding change
// that would break deployed artifacts fails here first. Regenerate with
//
//	go test ./internal/core -run TestGolden -update
//
// after an intentional format revision (and bump ArtifactVersion).

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
)

var update = flag.Bool("update", false, "rewrite golden artifact files")

// goldenUniform is a deterministic uniform-precision model with a folded
// standardizer (no training — artifact bytes must not depend on the
// optimiser).
func goldenUniform() *Network {
	src := nn.NewMLP([]int{4, 8, 3}, rng.New(42))
	net := Quantize(src, emac.NewPosit(8, 0))
	net.Stand = &datasets.Standardizer{
		Mean: []float64{0.125, -0.25, 0.5, 1},
		Std:  []float64{1, 2, 0.5, 4},
	}
	return net
}

// goldenMixed is a deterministic mixed-precision model using one arm per
// number system — posit, minifloat and fixed point in one artifact.
func goldenMixed() *Network {
	src := nn.NewMLP([]int{4, 8, 6, 3}, rng.New(43))
	net := QuantizeMixed(src, []emac.Arithmetic{
		emac.NewPosit(8, 1), emac.NewFloatN(8, 4), emac.NewFixed(8, 4),
	})
	net.Stand = &datasets.Standardizer{
		Mean: []float64{0, 0.5, -0.5, 2},
		Std:  []float64{1, 1, 2, 0.25},
	}
	return net
}

// goldenInputs returns deterministic raw feature vectors.
func goldenInputs(n int) [][]float64 {
	r := rng.New(44)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, 4)
		for j := range x {
			x[j] = r.NormMS(0, 2)
		}
		xs[i] = x
	}
	return xs
}

// checkGolden compares the model's Save output against the committed
// golden file (rewriting it under -update), then reloads the golden file
// through Load and verifies bit-identical logits.
func checkGolden(t *testing.T, m *Network, name string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	tmp := filepath.Join(t.TempDir(), name)
	if err := m.Save(tmp); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: artifact bytes diverge from golden file (format change? bump ArtifactVersion and -update)", name)
	}
	loaded, err := Load(golden)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind() != m.Kind() {
		t.Fatalf("kind %q -> %q", m.Kind(), loaded.Kind())
	}
	if loaded.Standardizer() == nil {
		t.Fatal("standardizer lost on reload")
	}
	a, b := m.NewInferer(), loaded.NewInferer()
	for i, x := range goldenInputs(25) {
		la, lb := a.Infer(x), b.Infer(x)
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("%s: reloaded model diverges at input %d logit %d: %v != %v",
					name, i, j, la[j], lb[j])
			}
		}
	}
}

func TestGoldenUniformArtifact(t *testing.T) {
	checkGolden(t, goldenUniform(), "uniform_posit8_v1.json")
}

func TestGoldenMixedArtifact(t *testing.T) {
	m := goldenMixed()
	checkGolden(t, m, "mixed_v1.json")
	wantNames := []string{"posit(8,1)", "float(8: we=4,wf=3)", "fixed(8,q=4)"}
	for i, name := range m.ArithNames() {
		if name != wantNames[i] {
			t.Fatalf("arith %d = %q, want %q", i, name, wantNames[i])
		}
	}
}

func TestMixedSaveLoadRoundTripAllArms(t *testing.T) {
	m := goldenMixed()
	path := filepath.Join(t.TempDir(), "mixed.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	mixed, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed.LayerAriths) != 3 {
		t.Fatalf("layer arithmetics lost: %v", mixed.ArithNames())
	}
	a, b := m.NewSession(), mixed.NewSession()
	for i, x := range goldenInputs(50) {
		la, lb := a.Infer(x), b.Infer(x)
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("round trip diverges at input %d", i)
			}
		}
	}
}

func TestLoadModelDispatch(t *testing.T) {
	dir := t.TempDir()
	up := filepath.Join(dir, "u.json")
	mp := filepath.Join(dir, "m.json")
	if err := goldenUniform().Save(up); err != nil {
		t.Fatal(err)
	}
	if err := goldenMixed().Save(mp); err != nil {
		t.Fatal(err)
	}
	// One loader reads either kind, and the kind survives: a uniform
	// artifact loads with Arith set and no LayerAriths, a mixed one the
	// other way round.
	u, err := Load(up)
	if err != nil {
		t.Fatal(err)
	}
	if u.Kind() != "uniform" || u.Arith == nil || u.LayerAriths != nil {
		t.Fatalf("uniform artifact loaded as kind %q, Arith %v, LayerAriths %v", u.Kind(), u.Arith, u.LayerAriths)
	}
	m, err := Load(mp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind() != "mixed" || m.Arith != nil || len(m.LayerAriths) != 3 {
		t.Fatalf("mixed artifact loaded as kind %q, Arith %v, LayerAriths %v", m.Kind(), m.Arith, m.LayerAriths)
	}
}

func TestArtifactVersionRejection(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	future := write("future.json",
		`{"version":99,"kind":"uniform","arith":{"family":"posit","n":8},"layers":[{"in":1,"out":1,"w":[[0]],"b":[0]}]}`)
	if _, err := Load(future); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future version accepted (err = %v)", err)
	}
	badKind := write("kind.json",
		`{"version":1,"kind":"hybrid","arith":{"family":"posit","n":8},"layers":[{"in":1,"out":1,"w":[[0]],"b":[0]}]}`)
	if _, err := Load(badKind); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Mixed artifacts did not exist before versioning: a version-0 file
	// claiming to be mixed is corrupt.
	legacyMixed := write("legacymixed.json",
		`{"kind":"mixed","ariths":[{"family":"posit","n":8}],"layers":[{"in":1,"out":1,"w":[[0]],"b":[0]}]}`)
	if _, err := Load(legacyMixed); err == nil {
		t.Fatal("version-0 mixed artifact accepted")
	}
}

func TestLegacyUnversionedArtifactStillLoads(t *testing.T) {
	// The exact shape Network.Save wrote before versioning: no version,
	// no kind.
	legacy := `{"arith":{"family":"posit","n":8,"es":1},"layers":[
		{"in":2,"out":2,"w":[[16,32],[48,64]],"b":[0,8]},
		{"in":2,"out":1,"w":[[24,40]],"b":[4]}]}`
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	net, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if net.Kind() != "uniform" || net.Arith.Name() != "posit(8,1)" || net.NumLayers() != 2 || net.Standardizer() != nil {
		t.Fatalf("legacy artifact misread: %v", net)
	}
}

func TestStandardizerValidation(t *testing.T) {
	dir := t.TempDir()
	bad := func(name, content string) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: invalid standardizer accepted", name)
		}
	}
	bad("short.json",
		`{"version":1,"kind":"uniform","arith":{"family":"posit","n":8},"standardizer":{"mean":[0],"std":[1]},"layers":[{"in":2,"out":1,"w":[[0,0]],"b":[0]}]}`)
	bad("zerostd.json",
		`{"version":1,"kind":"uniform","arith":{"family":"posit","n":8},"standardizer":{"mean":[0,0],"std":[1,0]},"layers":[{"in":2,"out":1,"w":[[0,0]],"b":[0]}]}`)
}

// TestStandardizedInferenceMatchesManual verifies that a folded
// standardizer is exactly the decode-side z = (x-μ)/σ: inference on raw
// features through a standardized model equals inference on manually
// standardized features through the same model without one.
func TestStandardizedInferenceMatchesManual(t *testing.T) {
	net := goldenUniform()
	bare := *net
	bare.Stand = nil
	bare.def = nil
	for i, x := range goldenInputs(30) {
		z := make([]float64, len(x))
		for j := range x {
			z[j] = (x[j] - net.Stand.Mean[j]) / net.Stand.Std[j]
		}
		a, b := net.Infer(x), bare.Infer(z)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("input %d: folded standardizer diverges from manual", i)
			}
		}
	}
}
