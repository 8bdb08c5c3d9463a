package artifact

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
	"repro/internal/emac"
)

// Encode lowers a model into its canonical binary artifact. The output
// is deterministic: section order, little-endian words and power-of-two
// word widths are all fixed by the format, so equal models encode to
// equal bytes (the property the content hash relies on). Only a
// *core.Network has an artifact; any other Model fails with
// ErrUnsupported.
func Encode(m core.Model) ([]byte, error) {
	net, ok := m.(*core.Network)
	if !ok {
		return nil, fmt.Errorf("%w: model type %T", ErrUnsupported, m)
	}
	specs, err := net.ArithSpecs()
	if err != nil {
		return nil, err
	}
	layers, stand := net.Layers, net.Stand
	if len(layers) == 0 {
		return nil, fmt.Errorf("artifact: model has no layers")
	}
	ariths := net.Ariths()

	// Size the body exactly: descriptors, shapes, standardizer, words.
	size := int64(len(specs)*descriptorBytes + len(layers)*8)
	if stand != nil {
		in0 := layers[0].In
		if len(stand.Mean) != in0 || len(stand.Std) != in0 {
			return nil, fmt.Errorf("artifact: standardizer has %d/%d features for %d inputs",
				len(stand.Mean), len(stand.Std), in0)
		}
		size += int64(16 * in0)
	}
	wsizes := make([]int, len(layers))
	for i, l := range layers {
		ws, err := wordSize(ariths[i].BitWidth())
		if err != nil {
			return nil, err
		}
		wsizes[i] = ws
		if l.In <= 0 || l.Out <= 0 || len(l.W) != l.Out || len(l.B) != l.Out {
			return nil, fmt.Errorf("artifact: layer %d malformed", i)
		}
		size += int64(l.In*l.Out+l.Out) * int64(ws)
	}

	buf := make([]byte, headerSize, headerSize+size)
	copy(buf, magic[:])
	binary.LittleEndian.PutUint16(buf[4:], Version)
	buf[6] = kindUniform
	if net.LayerAriths != nil {
		buf[6] = kindMixed
	}
	var flags byte
	if net.Sigmoid {
		flags |= flagSigmoid // ArithSpecs applied the Sigmoid rule
	}
	if stand != nil {
		flags |= flagStandardizer
	}
	buf[7] = flags
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(layers)))

	for _, s := range specs {
		rec, err := specRecord(s)
		if err != nil {
			return nil, err
		}
		buf = append(buf, rec[:]...)
	}
	for _, l := range layers {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l.In))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l.Out))
	}
	if stand != nil {
		for _, v := range stand.Mean {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		for _, v := range stand.Std {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for i, l := range layers {
		ws := wsizes[i]
		appendCode := func(c emac.Code) error {
			if ws < 8 && uint64(c)>>(8*ws) != 0 {
				return fmt.Errorf("artifact: layer %d code %#x exceeds %d bytes", i, uint64(c), ws)
			}
			switch ws {
			case 1:
				buf = append(buf, byte(c))
			case 2:
				buf = binary.LittleEndian.AppendUint16(buf, uint16(c))
			default:
				buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
			}
			return nil
		}
		for j, row := range l.W {
			if len(row) != l.In {
				return nil, fmt.Errorf("artifact: layer %d row %d has %d codes", i, j, len(row))
			}
			for _, c := range row {
				if err := appendCode(c); err != nil {
					return nil, err
				}
			}
		}
		for _, c := range l.B {
			if err := appendCode(c); err != nil {
				return nil, err
			}
		}
	}
	if int64(len(buf)-headerSize) != size {
		return nil, fmt.Errorf("artifact: internal error: body is %d bytes, sized %d", len(buf)-headerSize, size)
	}
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[headerSize:]))
	return buf, nil
}

// descriptorBytes is one arith descriptor record: family, n, the
// family's second parameter (es/we/q), quireDrop.
const descriptorBytes = 4

// specRecord lowers a validated spec into its 4-byte record. The second
// parameter slot is family-dependent; float32 uses neither.
func specRecord(s core.ArithSpec) ([descriptorBytes]byte, error) {
	var fam, param uint
	switch s.Family {
	case "posit":
		fam, param = famPosit, s.ES
	case "float":
		fam, param = famFloat, s.WE
	case "fixed":
		fam, param = famFixed, s.Q
	case "float32":
		fam, param = famFloat32, 0
	default:
		return [descriptorBytes]byte{}, fmt.Errorf("artifact: unknown arithmetic family %q", s.Family)
	}
	for _, v := range []uint{s.N, param, s.QuireDrop} {
		if v > 0xFF {
			return [descriptorBytes]byte{}, fmt.Errorf("artifact: arithmetic parameter %d exceeds one byte", v)
		}
	}
	return [descriptorBytes]byte{byte(fam), byte(s.N), byte(param), byte(s.QuireDrop)}, nil
}
