package core

import (
	"fmt"

	"repro/internal/emac"
)

// ArithSpec is the serialisable identity of one EMAC arithmetic: the
// family plus the format parameters that family uses. It is the single
// source of truth both artifact codecs (JSON v1 and the binary format)
// lower arithmetics into, so the two formats cannot drift on what an
// arithmetic *is*; its JSON form is the v1 artifact's arithmetic
// descriptor. Build validates through the error-returning format
// constructors — specs come from artifacts, which come from outside the
// program.
type ArithSpec struct {
	Family string `json:"family"`       // "posit" | "float" | "fixed" | "float32"
	N      uint   `json:"n,omitempty"`  // storage width (posit/float/fixed)
	ES     uint   `json:"es,omitempty"` // posit exponent field width
	WE     uint   `json:"we,omitempty"` // minifloat exponent width
	Q      uint   `json:"q,omitempty"`  // fixed-point fraction bits
	// QuireDrop preserves the truncated-quire ablation setting.
	QuireDrop uint `json:"quireDrop,omitempty"`
}

// ArithSpecs validates the network for an artifact and returns the
// arithmetic specs the artifact records: one per layer for a mixed
// network, the single arithmetic of a uniform one. Both artifact encoders
// lower a network through it, so they refuse exactly what the decoders
// refuse — every network Validate rejects — and arithmetics the formats
// do not know.
func (n *Network) ArithSpecs() ([]ArithSpec, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	ariths := n.LayerAriths
	if ariths == nil {
		ariths = []emac.Arithmetic{n.Arith}
	}
	specs := make([]ArithSpec, len(ariths))
	for i, a := range ariths {
		s, err := DescribeArith(a)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// DescribeArith lowers an arithmetic into its spec. It fails on
// arithmetic implementations the artifact formats do not know, and on
// the fixed arm's round-to-nearest ablation, which neither format can
// record: written as plain fixed, it would load as its truncating twin.
func DescribeArith(a emac.Arithmetic) (ArithSpec, error) {
	switch arm := a.(type) {
	case emac.PositArith:
		return ArithSpec{Family: "posit", N: arm.F.N(), ES: arm.F.ES(), QuireDrop: arm.QuireDrop}, nil
	case emac.FloatArith:
		return ArithSpec{Family: "float", N: arm.F.N(), WE: arm.F.WE()}, nil
	case emac.FixedArith:
		if arm.RoundNearest {
			return ArithSpec{}, fmt.Errorf("core: %s with round-to-nearest has no artifact form", arm.Name())
		}
		return ArithSpec{Family: "fixed", N: arm.F.N(), Q: arm.F.Q()}, nil
	case emac.Float32Arith:
		return ArithSpec{Family: "float32"}, nil
	default:
		return ArithSpec{}, fmt.Errorf("core: unserialisable arithmetic %T", a)
	}
}

// Build constructs the arithmetic the spec names, validating every
// parameter. A parameter the family does not use must be zero: dropped
// silently, it would load as another arithmetic than the artifact names
// and re-encode to other bytes.
func (s ArithSpec) Build() (emac.Arithmetic, error) {
	used := ArithSpec{Family: s.Family, N: s.N}
	switch s.Family {
	case "posit":
		used.ES, used.QuireDrop = s.ES, s.QuireDrop
	case "float":
		used.WE = s.WE
	case "fixed":
		used.Q = s.Q
	case "float32":
		used.N = 0
	default:
		return nil, fmt.Errorf("core: unknown arithmetic family %q", s.Family)
	}
	if s != used {
		return nil, fmt.Errorf("core: %s spec %+v sets a parameter its family does not use", s.Family, s)
	}
	switch s.Family {
	case "posit":
		return newPositArith(s.N, s.ES, s.QuireDrop)
	case "float":
		return newFloatArith(s.N, s.WE)
	case "fixed":
		return newFixedArith(s.N, s.Q)
	default:
		return emac.Float32Arith{}, nil
	}
}
