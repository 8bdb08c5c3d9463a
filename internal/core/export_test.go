package core

import (
	"encoding/json"

	"repro/internal/emac"
)

// RawJSON renders n as a version-1 JSON artifact without validating it,
// so external tests can hand the parser the networks MarshalJSON
// refuses. An arithmetic the formats cannot describe, or a nil one, is
// left out of the descriptors.
func RawJSON(n *Network) []byte {
	ariths := n.LayerAriths
	if ariths == nil {
		ariths = []emac.Arithmetic{n.Arith}
	}
	var specs []ArithSpec
	for _, a := range ariths {
		if s, err := DescribeArith(a); err == nil {
			specs = append(specs, s)
		}
	}
	data, err := json.Marshal(n.wire(specs))
	if err != nil {
		panic(err)
	}
	return data
}
