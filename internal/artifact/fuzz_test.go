package artifact

// FuzzParseArtifact drives the binary decoder (and the JSON fallback
// behind Parse) with hostile bytes. The decoder's contract on arbitrary
// input is: error cleanly — never panic, never allocate past the input's
// own byte budget. When input does decode, re-encoding must be canonical
// (decode(encode(m)) == m bytes), which also pins decode/encode
// inversion under fuzzing.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
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

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return // clean rejection is the contract
		}
		if m == nil {
			t.Fatal("nil model with nil error")
		}
		// Whatever decoded must re-encode deterministically, and for
		// canonical binary input the bytes must round-trip exactly.
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded model does not re-encode: %v", err)
		}
		if IsBinary(data) && !bytes.Equal(re, data) {
			t.Fatalf("binary artifact is not canonical: %d bytes in, %d out", len(data), len(re))
		}
	})
}
