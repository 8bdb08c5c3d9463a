package artifact

// FuzzParseArtifact drives the binary decoder (and the JSON fallback
// behind Parse) with hostile bytes. The decoder's contract on arbitrary
// input is: error cleanly — never panic, never allocate past the input's
// own byte budget. When input does decode, the model must be servable
// and have one identity: it passes Validate, a session runs a zero
// sample through it without panicking, re-encoding is canonical
// (decode(encode(m)) == m bytes, which also pins decode/encode
// inversion under fuzzing), and its JSON form re-encodes to the same
// canonical bytes.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
	"repro/internal/rng"
)

func FuzzParseArtifact(f *testing.F) {
	// Seed corpus: one uniform + one mixed artifact in both formats,
	// plus truncated and corrupted-header mutants.
	for _, name := range coreGoldens {
		jsonBytes, err := os.ReadFile(filepath.Join("..", "core", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(jsonBytes)
		m, err := Parse(jsonBytes)
		if err != nil {
			f.Fatal(err)
		}
		bin, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
		f.Add(bin[:len(bin)/2])   // truncated body
		f.Add(bin[:headerSize-1]) // truncated header
		mut := bytes.Clone(bin)
		mut[6] = 9 // corrupt kind
		f.Add(mut)
		mut = bytes.Clone(bin)
		binary.LittleEndian.PutUint32(mut[8:], 1<<30) // hostile layer count
		f.Add(mut)
		mut = bytes.Clone(bin)
		binary.LittleEndian.PutUint32(mut[12:], 0) // broken CRC
		f.Add(mut)
	}
	// A quireDrop byte on a family without a quire drop, with the CRC
	// recomputed: the descriptor must be rejected, not decoded into a
	// model that re-encodes to other bytes.
	for _, a := range []emac.Arithmetic{emac.NewFloatN(8, 4), emac.NewFixed(8, 4), emac.Float32Arith{}} {
		bin, err := Encode(core.Quantize(nn.NewMLP([]int{2, 2, 1}, rng.New(3)), a))
		if err != nil {
			f.Fatal(err)
		}
		bin[headerSize+3] = 1 // the first descriptor's quireDrop
		binary.LittleEndian.PutUint32(bin[12:], crc32.ChecksumIEEE(bin[headerSize:]))
		f.Add(bin)
	}
	f.Add([]byte(nil))
	f.Add(magic[:])
	f.Add([]byte(`{"version":1,"kind":"mixed","sigmoid":true}`)) // flag on no layers
	for _, body := range ambiguousArithBodies {
		f.Add([]byte(body))
	}
	// Networks Validate refuses, in both forms: an over-wide code, a
	// zero scale and a non-finite mean in binary mutants of a posit(6,0)
	// network (CRC recomputed), and the first two as JSON bodies.
	for _, mutate := range []func(b []byte){
		func(b []byte) { b[p6WordsAt] = 0xFF },
		func(b []byte) { clear(b[p6StdAt : p6StdAt+8]) },
		func(b []byte) { binary.LittleEndian.PutUint64(b[p6MeanAt:], math.Float64bits(math.NaN())) },
	} {
		f.Add(p6Mutant(f, mutate))
	}
	f.Add([]byte(`{"version":1,"kind":"uniform","arith":{"family":"posit","n":6},"layers":[{"in":1,"out":1,"w":[[255]],"b":[0]}]}`))
	f.Add([]byte(`{"version":1,"kind":"uniform","arith":{"family":"posit","n":8},"standardizer":{"mean":[0],"std":[0]},"layers":[{"in":1,"out":1,"w":[[64]],"b":[0]}]}`))
	// A quire drop of all 12 fraction bits of posit(8,0): no session can
	// build its EMACs.
	f.Add([]byte(`{"version":1,"kind":"uniform","arith":{"family":"posit","n":8,"quireDrop":12},"layers":[{"in":1,"out":1,"w":[[64]],"b":[0]}]}`))
	// Layer claims whose 64-bit byte budget wraps to the zero bytes
	// present: no code plane may be sized before its words are read.
	f.Add(wrappedBudget())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return // clean rejection is the contract
		}
		if m == nil {
			t.Fatal("nil model with nil error")
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parsed model is not well formed: %v", err)
		}
		// Servable: one zero sample through a fresh session.
		m.NewInferer().InferBatchInto(make([]float64, m.OutputDim()), [][]float64{make([]float64, m.InputDim())})
		// Whatever decoded must re-encode deterministically, and for
		// canonical binary input the bytes must round-trip exactly.
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded model does not re-encode: %v", err)
		}
		if IsBinary(data) && !bytes.Equal(re, data) {
			t.Fatalf("binary artifact is not canonical: %d bytes in, %d out", len(data), len(re))
		}
		// The JSON form names the same model.
		js, err := m.(*core.Network).MarshalJSON()
		if err != nil {
			t.Fatalf("parsed model has no JSON form: %v", err)
		}
		back, err := core.ParseModel(js)
		if err != nil {
			t.Fatalf("JSON form does not parse: %v", err)
		}
		if viaJSON, err := Encode(back); err != nil || !bytes.Equal(viaJSON, re) {
			t.Fatalf("JSON form re-encodes to other bytes (err %v)", err)
		}
	})
}

// Offsets into p6Mutant's artifact: a 16-byte header, one descriptor,
// three layer shapes, the 3-feature standardizer (means, then scales),
// then layer 0's first weight word.
const (
	p6MeanAt  = headerSize + descriptorBytes + 3*8
	p6StdAt   = p6MeanAt + 3*8
	p6WordsAt = p6StdAt + 3*8
)

// p6Mutant encodes a 3-4-4-2 posit(6,0) network with a standardizer,
// applies mutate to the bytes and recomputes the body CRC, so the
// mutant fails only on what mutate broke.
func p6Mutant(tb testing.TB, mutate func(b []byte)) []byte {
	tb.Helper()
	net := core.Quantize(nn.NewMLP([]int{3, 4, 4, 2}, rng.New(25)), emac.NewPosit(6, 0))
	net.Stand = &datasets.Standardizer{Mean: []float64{0, 1, -1}, Std: []float64{1, 2, 0.5}}
	bin, err := Encode(net)
	if err != nil {
		tb.Fatal(err)
	}
	mutate(bin)
	binary.LittleEndian.PutUint32(bin[12:], crc32.ChecksumIEEE(bin[headerSize:]))
	return bin
}
