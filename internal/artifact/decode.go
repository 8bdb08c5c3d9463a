package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/emac"
)

// Decode limits: an artifact claiming more structure than any real model
// carries is rejected before a single allocation is sized from it. Every
// allocation below is additionally bounded by the byte budget actually
// present in data, so a hostile length field can never out-allocate the
// input it arrived in.
const (
	maxLayers = 1 << 16
	maxDim    = 1 << 24
)

// ErrNotBinary is returned by Decode for input without the binary magic
// (callers wanting transparent format dispatch use Parse).
var ErrNotBinary = errors.New("artifact: not a binary artifact (no magic)")

// ErrUnsupported is returned by Encode for model types outside the
// binary format (test doubles, future planes): such models have no
// canonical artifact, which callers may treat as "skip the store"
// rather than a failure.
var ErrUnsupported = errors.New("artifact: cannot encode")

// ErrCorrupt wraps every structural decode failure past the header: the
// bytes claim to be an artifact but cannot be one.
var ErrCorrupt = errors.New("artifact: corrupt")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// reader is a bounds-checked little-endian cursor over the body.
type reader struct {
	data []byte
	off  int
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, corruptf("truncated: need %d bytes at offset %d, have %d", n, r.off, r.remaining())
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// Decode parses a canonical binary artifact into its model. It is the
// inverse of Encode and is safe on hostile input: malformed, truncated
// or oversized-claim artifacts fail with an error (never a panic), and
// allocations are bounded by the input length.
func Decode(data []byte) (core.Model, error) {
	if !IsBinary(data) {
		return nil, ErrNotBinary
	}
	if len(data) < headerSize {
		return nil, corruptf("truncated header: %d bytes", len(data))
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, fmt.Errorf("artifact: binary version %d not supported (this build reads %d)", v, Version)
	}
	kind := data[6]
	if kind != kindUniform && kind != kindMixed {
		return nil, corruptf("unknown kind %d", kind)
	}
	flags := data[7]
	if flags&^(flagSigmoid|flagStandardizer) != 0 {
		return nil, corruptf("unknown flag bits %#x", flags)
	}
	if kind == kindMixed && flags&flagSigmoid != 0 {
		return nil, fmt.Errorf("%w: sigmoid flag: %v", ErrCorrupt, core.ErrMixedSigmoid)
	}
	nLayers := int(binary.LittleEndian.Uint32(data[8:]))
	if nLayers < 1 || nLayers > maxLayers {
		return nil, corruptf("layer count %d out of range", nLayers)
	}
	if got, want := crc32.ChecksumIEEE(data[headerSize:]), binary.LittleEndian.Uint32(data[12:]); got != want {
		return nil, corruptf("body CRC mismatch (have %#x, header says %#x)", got, want)
	}
	r := &reader{data: data, off: headerSize}

	// Arith descriptors, validated through the error-returning format
	// constructors.
	nSpecs := 1
	if kind == kindMixed {
		nSpecs = nLayers
	}
	ariths := make([]emac.Arithmetic, nSpecs)
	for i := range ariths {
		rec, err := r.bytes(descriptorBytes)
		if err != nil {
			return nil, err
		}
		spec := core.ArithSpec{N: uint(rec[1]), QuireDrop: uint(rec[3])}
		switch rec[0] {
		case famPosit:
			spec.Family, spec.ES = "posit", uint(rec[2])
		case famFloat:
			spec.Family, spec.WE = "float", uint(rec[2])
		case famFixed:
			spec.Family, spec.Q = "fixed", uint(rec[2])
		case famFloat32:
			spec.Family = "float32"
			if rec[2] != 0 {
				return nil, corruptf("float32 descriptor carries parameters")
			}
		default:
			return nil, corruptf("unknown arithmetic family %d", rec[0])
		}
		a, err := spec.Build()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		ariths[i] = a
	}
	// Accepting the sigmoid flag where the fast sigmoid cannot run would
	// defer the failure to inference time.
	if flags&flagSigmoid != 0 {
		if err := core.CheckSigmoid(ariths[0]); err != nil {
			return nil, fmt.Errorf("%w: sigmoid flag: %v", ErrCorrupt, err)
		}
	}
	arithAt := func(i int) emac.Arithmetic {
		if kind == kindMixed {
			return ariths[i]
		}
		return ariths[0]
	}

	// Layer shape table, with the activation chain checked as it is read.
	type shape struct{ in, out int }
	shapes := make([]shape, nLayers)
	prevOut := -1
	for i := range shapes {
		in32, err := r.u32()
		if err != nil {
			return nil, err
		}
		out32, err := r.u32()
		if err != nil {
			return nil, err
		}
		in, out := int(in32), int(out32)
		if in < 1 || in > maxDim || out < 1 || out > maxDim {
			return nil, corruptf("layer %d shape %dx%d out of range", i, in, out)
		}
		if prevOut >= 0 && in != prevOut {
			return nil, corruptf("layer %d input %d does not match previous output %d", i, in, prevOut)
		}
		prevOut = out
		shapes[i] = shape{in: in, out: out}
	}

	// The parameter sections have fully determined sizes now; the file
	// must contain exactly that many bytes more.
	var need int64
	if flags&flagStandardizer != 0 {
		need += int64(16 * shapes[0].in)
	}
	for i, s := range shapes {
		ws, err := wordSize(arithAt(i).BitWidth())
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		need += int64(s.in*s.out+s.out) * int64(ws)
	}
	if int64(r.remaining()) != need {
		return nil, corruptf("parameter sections need %d bytes, %d remain", need, r.remaining())
	}

	var stand *datasets.Standardizer
	if flags&flagStandardizer != 0 {
		in0 := shapes[0].in
		mean := make([]float64, in0)
		std := make([]float64, in0)
		for _, dst := range [][]float64{mean, std} {
			b, err := r.bytes(8 * in0)
			if err != nil {
				return nil, err
			}
			for j := range dst {
				dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
			}
		}
		for j, s := range std {
			if s == 0 {
				return nil, corruptf("standardizer feature %d has zero scale", j)
			}
		}
		stand = &datasets.Standardizer{Mean: mean, Std: std}
	}

	layers := make([]*core.Layer, nLayers)
	for i, s := range shapes {
		arith := arithAt(i)
		ws, _ := wordSize(arith.BitWidth())
		mask := ^uint64(0)
		if w := arith.BitWidth(); w < 64 {
			mask = (uint64(1) << w) - 1
		}
		b, err := r.bytes((s.in*s.out + s.out) * ws)
		if err != nil {
			return nil, err
		}
		word := func(k int) uint64 {
			switch ws {
			case 1:
				return uint64(b[k])
			case 2:
				return uint64(binary.LittleEndian.Uint16(b[2*k:]))
			default:
				return uint64(binary.LittleEndian.Uint32(b[4*k:]))
			}
		}
		l := &core.Layer{In: s.in, Out: s.out, W: make([][]emac.Code, s.out), B: make([]emac.Code, s.out)}
		k := 0
		for j := range l.W {
			row := make([]emac.Code, s.in)
			for c := range row {
				w := word(k)
				k++
				if w&^mask != 0 {
					return nil, corruptf("layer %d code %#x exceeds %d bits", i, w, arith.BitWidth())
				}
				row[c] = emac.Code(w)
			}
			l.W[j] = row
		}
		for j := range l.B {
			w := word(k)
			k++
			if w&^mask != 0 {
				return nil, corruptf("layer %d bias code %#x exceeds %d bits", i, w, arith.BitWidth())
			}
			l.B[j] = emac.Code(w)
		}
		layers[i] = l
	}
	if r.remaining() != 0 {
		return nil, corruptf("%d trailing bytes", r.remaining())
	}

	net := &core.Network{Sigmoid: flags&flagSigmoid != 0, Stand: stand, Layers: layers}
	if kind == kindMixed {
		net.LayerAriths = ariths
	} else {
		net.Arith = ariths[0]
	}
	return net, nil
}
