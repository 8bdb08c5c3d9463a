// Package artifact implements the binary, content-addressed deployment
// format for quantised Deep Positron models — the storage plane beneath
// the serving registry.
//
// The JSON v1 artifact (internal/core/io.go) is the portable, diff-able
// interchange form; this package adds a compact binary encoding of the
// same semantics, built for the load path instead of the diff path: a
// fixed 16-byte header (magic, version, kind, flags, layer count, body
// CRC) followed by little-endian sections at computable offsets — arith
// descriptors, layer shapes, the folded standardizer as raw float64
// bits, then every layer's quantised weight and bias words packed at the
// smallest power-of-two byte width that holds the format's bit width.
// Nothing in the body needs re-quantisation on load: the words are the
// exact codes the EMACs consume, so a loader (or an mmap-style reader)
// slices parameters straight out of the byte stream. An 8-bit model's
// weights occupy exactly one byte per parameter — the footprint framing
// of the ≤8-bit Deep Positron formats.
//
// Every artifact is fingerprinted by the SHA-256 of its canonical bytes
// (the deterministic output of Encode). The hash is the model's identity
// across the fleet: the content-addressed stores under artifact/store
// key blobs by it, the registry dedups same-hash loads with it, and
// /v1/models serves it as an ETag so replicas can sync membership with
// conditional GETs. JSON and binary forms of the same model share one
// hash, because Canonical always hashes the re-encoded binary form.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/fsutil"
)

// Version is the binary artifact format this build writes. Readers
// reject versions they do not know.
const Version = 1

// magic opens every binary artifact. The first byte is deliberately
// outside ASCII (and invalid as a UTF-8 leading byte), so no JSON
// artifact can ever sniff as binary.
var magic = [4]byte{0xD9, 'D', 'P', 'A'}

// headerSize is the fixed header: magic(4) version(2) kind(1) flags(1)
// layers(4) bodyCRC(4).
const headerSize = 16

// kind codes (header byte 6).
const (
	kindUniform = 0
	kindMixed   = 1
)

// flag bits (header byte 7).
const (
	flagSigmoid      = 1 << 0
	flagStandardizer = 1 << 1
)

// family codes in arith descriptor records.
const (
	famPosit   = 0
	famFloat   = 1
	famFixed   = 2
	famFloat32 = 3
)

// HashSize is the byte length of an artifact content hash (SHA-256).
const HashSize = sha256.Size

// Hash is an artifact's content address: the SHA-256 of its canonical
// binary encoding.
type Hash [HashSize]byte

// Sum fingerprints raw bytes.
func Sum(data []byte) Hash { return sha256.Sum256(data) }

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash parses the hex form produced by String.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("artifact: bad hash %q: %w", s, err)
	}
	if len(b) != HashSize {
		return h, fmt.Errorf("artifact: bad hash %q: want %d bytes, got %d", s, HashSize, len(b))
	}
	copy(h[:], b)
	return h, nil
}

// IsBinary reports whether data opens with the binary artifact magic.
func IsBinary(data []byte) bool {
	return len(data) >= len(magic) && [4]byte(data[:4]) == magic
}

// Canonical returns a model's canonical binary bytes and their content
// hash — the identity the store and registry key on. Decoding an
// artifact and re-encoding it is deterministic, so equal models (however
// they arrived: JSON, binary, or built in memory) share one hash.
func Canonical(m core.Model) ([]byte, Hash, error) {
	data, err := Encode(m)
	if err != nil {
		return nil, Hash{}, err
	}
	return data, Sum(data), nil
}

// Parse decodes an artifact in either format, sniffing binary by magic
// and falling back to the JSON v1 parser.
func Parse(data []byte) (core.Model, error) {
	if IsBinary(data) {
		return Decode(data)
	}
	net, err := core.ParseModel(data)
	if err != nil {
		return nil, err // not a nil *Network inside a non-nil Model
	}
	return net, nil
}

// Load reads an artifact file in either format.
func Load(path string) (core.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("artifact: loading %s: %w", path, err)
	}
	return m, nil
}

// Save writes the model's canonical binary artifact atomically (temp
// file + rename), so a killed writer never leaves a truncated artifact.
func Save(m core.Model, path string) error {
	data, err := Encode(m)
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(path, data, 0o644)
}

// wordSize returns the byte width parameter words are stored at: the
// smallest power of two covering the arithmetic's bit width.
func wordSize(bits uint) (int, error) {
	switch {
	case bits == 0 || bits > 32:
		return 0, fmt.Errorf("artifact: unsupported code width %d", bits)
	case bits <= 8:
		return 1, nil
	case bits <= 16:
		return 2, nil
	default:
		return 4, nil
	}
}
