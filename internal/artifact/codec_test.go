package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
)

var update = flag.Bool("update", false, "rewrite golden binary artifact files")

// coreGoldens are the pinned JSON v1 artifacts: the binary codec's
// round-trip contract is defined against exactly these files.
var coreGoldens = []string{"uniform_posit8_v1.json", "mixed_v1.json"}

func loadCoreGolden(t *testing.T, name string) (core.Model, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "core", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.ParseModel(data)
	if err != nil {
		t.Fatal(err)
	}
	return m, data
}

// ambiguousArithBodies are JSON artifacts carrying the descriptors of
// both kinds at once: a uniform one with "ariths" and a mixed one with
// "arith". The binary format cannot express either, and the JSON parser
// rejects both.
var ambiguousArithBodies = []string{
	`{"version":1,"kind":"uniform","arith":{"family":"posit","n":8},"ariths":[{"family":"fixed","n":8,"q":4}],"layers":[{"in":1,"out":1,"w":[[64]],"b":[0]}]}`,
	`{"version":1,"kind":"mixed","arith":{"family":"posit","n":8},"ariths":[{"family":"fixed","n":8,"q":4}],"layers":[{"in":1,"out":1,"w":[[64]],"b":[0]}]}`,
}

// goldenInputs mirrors the core golden-test input generator (seed 44),
// so both codecs are exercised on the same raw feature vectors.
func goldenInputs(n, dim int) [][]float64 {
	r := rng.New(44)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			x[j] = r.NormMS(0, 2)
		}
		xs[i] = x
	}
	return xs
}

func assertSameInference(t *testing.T, want, got core.Model, inputs int) {
	t.Helper()
	a, b := want.NewInferer(), got.NewInferer()
	for i, x := range goldenInputs(inputs, want.InputDim()) {
		la, lb := a.Infer(x), b.Infer(x)
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("inference diverges at input %d logit %d: %v != %v", i, j, la[j], lb[j])
			}
		}
	}
}

// TestBinaryRoundTripGoldens is the losslessness contract: for every
// golden JSON artifact, JSON -> binary -> load produces bit-identical
// inference to the JSON-loaded model.
func TestBinaryRoundTripGoldens(t *testing.T) {
	for _, name := range coreGoldens {
		t.Run(name, func(t *testing.T) {
			jsonModel, _ := loadCoreGolden(t, name)
			bin, err := Encode(jsonModel)
			if err != nil {
				t.Fatal(err)
			}
			if !IsBinary(bin) {
				t.Fatal("encoded artifact does not sniff as binary")
			}
			binModel, err := Decode(bin)
			if err != nil {
				t.Fatal(err)
			}
			if binModel.Kind() != jsonModel.Kind() {
				t.Fatalf("kind %q -> %q", jsonModel.Kind(), binModel.Kind())
			}
			if (binModel.Standardizer() == nil) != (jsonModel.Standardizer() == nil) {
				t.Fatal("standardizer lost or invented")
			}
			for i, n := range jsonModel.ArithNames() {
				if got := binModel.ArithNames()[i]; got != n {
					t.Fatalf("arith %d: %q -> %q", i, n, got)
				}
			}
			assertSameInference(t, jsonModel, binModel, 50)
		})
	}
}

// TestGoldenBinaryArtifacts pins the binary bytes and content hash of
// the golden models, so any encoding change that would break deployed
// binary artifacts (or shift fleet-wide content addresses) fails here.
// Regenerate with -update after an intentional revision (bump Version).
func TestGoldenBinaryArtifacts(t *testing.T) {
	wantHashes := map[string]string{
		"uniform_posit8_v1.bin": "0a59fc6b0517e0d4c16dfb6d1b5ab4c20264a7b987d5854785a82ff72dcd5919",
		"mixed_v1.bin":          "350dfdef1c88895aa535eaceda15c930ea0c779bf312ad99891b3f1c62a3c61b",
	}
	for _, name := range coreGoldens {
		binName := name[:len(name)-len(".json")] + ".bin"
		t.Run(binName, func(t *testing.T) {
			m, _ := loadCoreGolden(t, name)
			got, h, err := Canonical(m)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", binName)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("%s: %s (%d bytes)", binName, h, len(got))
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: binary artifact bytes diverge from golden (format change? bump Version and -update)", binName)
			}
			if wantHashes[binName] != "" && h.String() != wantHashes[binName] {
				t.Fatalf("%s: content hash %s, want %s", binName, h, wantHashes[binName])
			}
		})
	}
}

// TestCanonicalHashFormatIndependent: the JSON and binary forms of one
// model share a single content address, so a fleet mixing formats still
// dedups and ETag-syncs correctly.
func TestCanonicalHashFormatIndependent(t *testing.T) {
	for _, name := range coreGoldens {
		jsonModel, jsonBytes := loadCoreGolden(t, name)
		_, hJSON, err := Canonical(jsonModel)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := Encode(jsonModel)
		if err != nil {
			t.Fatal(err)
		}
		binModel, err := Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		_, hBin, err := Canonical(binModel)
		if err != nil {
			t.Fatal(err)
		}
		if hJSON != hBin {
			t.Fatalf("%s: hash differs across formats: %s vs %s", name, hJSON, hBin)
		}
		// And a second parse of the same JSON bytes maps to the same hash.
		again, err := Parse(jsonBytes)
		if err != nil {
			t.Fatal(err)
		}
		if _, h2, _ := Canonical(again); h2 != hJSON {
			t.Fatalf("%s: reparse changed the hash", name)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	m, _ := loadCoreGolden(t, "mixed_v1.json")
	a, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestSaveLoadBinary(t *testing.T) {
	m, _ := loadCoreGolden(t, "uniform_posit8_v1.json")
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := Save(m, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameInference(t, m, loaded, 25)
}

// TestLoadDispatchesJSON: Load/Parse accept either format transparently.
func TestLoadDispatchesJSON(t *testing.T) {
	for _, name := range coreGoldens {
		m, err := Load(filepath.Join("..", "core", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if m.NumLayers() == 0 {
			t.Fatal("empty model")
		}
	}
}

// TestSigmoidRoundTrip covers the uniform-only sigmoid flag.
func TestSigmoidRoundTrip(t *testing.T) {
	src := nn.NewMLP([]int{4, 6, 2}, rng.New(7))
	net := core.Quantize(src, emac.NewPosit(8, 0))
	net.Sigmoid = true
	bin, err := Encode(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !back.(*core.Network).Sigmoid {
		t.Fatal("sigmoid flag lost")
	}
	assertSameInference(t, net, back, 25)
}

// TestEncodeRejectsInvalidSigmoid: the encoder refuses the sigmoid flag
// where no session could apply it (core.CheckSigmoid), so it never writes
// an artifact the decoder rejects.
func TestEncodeRejectsInvalidSigmoid(t *testing.T) {
	src := nn.NewMLP([]int{4, 6, 2}, rng.New(7))
	for _, a := range []emac.Arithmetic{emac.NewFixed(8, 4), emac.NewPosit(8, 1), emac.NewFloatN(8, 4)} {
		net := core.Quantize(src, a)
		net.Sigmoid = true
		if _, err := Encode(net); err == nil {
			t.Errorf("%s: sigmoid network encoded", a.Name())
		}
	}
	p8 := emac.NewPosit(8, 0)
	mixed := core.QuantizeMixed(src, []emac.Arithmetic{p8, p8})
	mixed.Sigmoid = true
	if _, err := Encode(mixed); !errors.Is(err, core.ErrMixedSigmoid) {
		t.Errorf("mixed sigmoid network: Encode = %v, want ErrMixedSigmoid", err)
	}
}

// TestParseErrorReturnsNilModel: a rejected JSON artifact comes back as
// a nil Model, not a nil *core.Network inside a non-nil interface.
func TestParseErrorReturnsNilModel(t *testing.T) {
	for _, body := range ambiguousArithBodies {
		if m, err := Parse([]byte(body)); err == nil || m != nil {
			t.Fatalf("Parse = %#v, %v; want nil Model and an error", m, err)
		}
	}
}

// TestWideWordWidths exercises the 2-byte word path (a 12-bit posit) —
// the goldens are all 8-bit.
func TestWideWordWidths(t *testing.T) {
	src := nn.NewMLP([]int{3, 5, 2}, rng.New(9))
	net := core.Quantize(src, emac.NewPosit(12, 1))
	net.Stand = &datasets.Standardizer{Mean: []float64{0, 1, -1}, Std: []float64{1, 2, 0.5}}
	bin, err := Encode(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	assertSameInference(t, net, back, 25)
}

func TestDecodeRejectsHostileInput(t *testing.T) {
	m, _ := loadCoreGolden(t, "uniform_posit8_v1.json")
	good, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":            {},
		"magic only":       good[:4],
		"truncated header": good[:12],
		"truncated body":   good[:len(good)-3],
		"trailing bytes":   append(bytes.Clone(good), 0, 0, 0),
		"future version":   mutate(func(b []byte) { b[4] = 99 }),
		"bad kind":         mutate(func(b []byte) { b[6] = 7 }),
		"unknown flags":    mutate(func(b []byte) { b[7] |= 0x80 }),
		"zero layers":      mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) }),
		"huge layer count": mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<31) }),
		"flipped body bit": mutate(func(b []byte) { b[len(b)-1] ^= 1 }),
		"bad family":       mutate(func(b []byte) { b[headerSize] = 200 }),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Sanity: the unmutated bytes still decode.
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}
}

func TestHashParseRoundTrip(t *testing.T) {
	h := Sum([]byte("deep positron"))
	back, err := ParseHash(h.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatal("hash hex round trip")
	}
	if _, err := ParseHash("xyz"); err == nil {
		t.Fatal("bad hex accepted")
	}
	if _, err := ParseHash("abcd"); err == nil {
		t.Fatal("short hash accepted")
	}
}
