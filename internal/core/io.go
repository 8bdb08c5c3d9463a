package core

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/fsutil"
)

// Serialization of quantised networks: the deployment artifact a Deep
// Positron bitstream would consume — a format descriptor plus the raw
// weight/bias codes for each layer's local memory. Codes are stored as
// integers (each at most 32 bits wide), so the JSON is portable and
// diff-able.
//
// The artifact is versioned. Version 1 carries a kind ("uniform" or
// "mixed"), per-layer arithmetic descriptors for mixed networks and an
// optional folded input standardizer; files written before versioning
// (no "version" field) are read as version 0: uniform, no standardizer.
// Readers reject versions they do not know.
//
// This file checks only the JSON form itself: the version, the kind and
// the arithmetic descriptors. What makes the network inside well formed
// (shapes, chaining, code widths, the standardizer, the Sigmoid rule) is
// Network.Validate, which MarshalJSON applies through ArithSpecs and
// UnmarshalJSON applies to what it decoded.

// ArtifactVersion is the artifact format this build writes.
const ArtifactVersion = 1

type layerJSON struct {
	In  int        `json:"in"`
	Out int        `json:"out"`
	W   [][]uint64 `json:"w"` // codes, W[out][in]
	B   []uint64   `json:"b"`
}

// standJSON is the folded input standardizer block.
type standJSON struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// artifactJSON is the on-disk envelope for both network kinds.
type artifactJSON struct {
	Version int    `json:"version,omitempty"`
	Kind    string `json:"kind,omitempty"` // "uniform" | "mixed"; "" in legacy files
	// Arith is the single arithmetic of a uniform network.
	Arith *ArithSpec `json:"arith,omitempty"`
	// Ariths are the per-layer arithmetics of a mixed network.
	Ariths  []ArithSpec `json:"ariths,omitempty"`
	Sigmoid bool        `json:"sigmoid,omitempty"`
	Stand   *standJSON  `json:"standardizer,omitempty"`
	Layers  []layerJSON `json:"layers"`
}

const (
	kindUniform = "uniform"
	kindMixed   = "mixed"
)

// checkEnvelope validates the version/kind pair of a parsed artifact.
func (a *artifactJSON) checkEnvelope() error {
	if a.Version < 0 || a.Version > ArtifactVersion {
		return fmt.Errorf("core: artifact version %d not supported (this build reads up to %d)",
			a.Version, ArtifactVersion)
	}
	switch a.Kind {
	case "", kindUniform, kindMixed:
	default:
		return fmt.Errorf("core: unknown artifact kind %q", a.Kind)
	}
	if a.Version == 0 && a.Kind == kindMixed {
		return fmt.Errorf("core: mixed artifacts require version >= 1")
	}
	return nil
}

// encodeLayers lowers parameter memories into the wire form.
func encodeLayers(layers []*Layer) []layerJSON {
	out := make([]layerJSON, 0, len(layers))
	for _, l := range layers {
		lj := layerJSON{In: l.In, Out: l.Out, B: make([]uint64, len(l.B))}
		lj.W = make([][]uint64, len(l.W))
		for j, row := range l.W {
			cr := make([]uint64, len(row))
			for i, c := range row {
				cr[i] = uint64(c)
			}
			lj.W[j] = cr
		}
		for j, c := range l.B {
			lj.B[j] = uint64(c)
		}
		out = append(out, lj)
	}
	return out
}

// decodeLayers rebuilds parameter memories from the wire form.
func decodeLayers(ljs []layerJSON) []*Layer {
	layers := make([]*Layer, len(ljs))
	for li, lj := range ljs {
		l := &Layer{In: lj.In, Out: lj.Out, W: make([][]emac.Code, len(lj.W)), B: make([]emac.Code, len(lj.B))}
		for j, row := range lj.W {
			cr := make([]emac.Code, len(row))
			for i, c := range row {
				cr[i] = emac.Code(c)
			}
			l.W[j] = cr
		}
		for j, c := range lj.B {
			l.B[j] = emac.Code(c)
		}
		layers[li] = l
	}
	return layers
}

// encodeStand lowers an optional standardizer into the wire form.
func encodeStand(st *datasets.Standardizer) *standJSON {
	if st == nil {
		return nil
	}
	return &standJSON{Mean: st.Mean, Std: st.Std}
}

// decodeStand rebuilds an optional standardizer block.
func decodeStand(sj *standJSON) *datasets.Standardizer {
	if sj == nil {
		return nil
	}
	return &datasets.Standardizer{Mean: sj.Mean, Std: sj.Std}
}

// MarshalJSON implements json.Marshaler: a version-1 artifact of the
// network's kind, with one arithmetic descriptor for a uniform network
// and one per layer for a mixed one.
func (n *Network) MarshalJSON() ([]byte, error) {
	specs, err := n.ArithSpecs()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n.wire(specs))
}

// wire lowers n into the version-1 envelope around the given
// descriptors: all of them for a mixed network, the one of a uniform
// network (none if specs is empty).
func (n *Network) wire(specs []ArithSpec) artifactJSON {
	out := artifactJSON{
		Version: ArtifactVersion,
		Kind:    n.Kind(),
		Sigmoid: n.Sigmoid,
		Stand:   encodeStand(n.Stand),
		Layers:  encodeLayers(n.Layers),
	}
	if n.LayerAriths != nil {
		out.Ariths = specs
	} else if len(specs) > 0 {
		out.Arith = &specs[0]
	}
	return out
}

// UnmarshalJSON implements json.Unmarshaler, accepting only well-formed
// networks (Validate). It accepts version-1 artifacts of either kind and
// legacy pre-versioning files (uniform). An artifact must carry the
// descriptors of its own kind only: a uniform one with "ariths" or a
// mixed one with "arith" is ambiguous and rejected.
func (n *Network) UnmarshalJSON(data []byte) error {
	var in artifactJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if err := in.checkEnvelope(); err != nil {
		return err
	}
	net := Network{Sigmoid: in.Sigmoid, Layers: decodeLayers(in.Layers), Stand: decodeStand(in.Stand)}
	if in.Kind == kindMixed {
		if in.Arith != nil {
			return fmt.Errorf("core: mixed artifact carries a uniform arithmetic descriptor")
		}
		net.LayerAriths = make([]emac.Arithmetic, len(in.Ariths))
		for i, spec := range in.Ariths {
			a, err := spec.Build()
			if err != nil {
				return err
			}
			net.LayerAriths[i] = a
		}
	} else {
		if in.Ariths != nil {
			return fmt.Errorf("core: uniform artifact carries per-layer arithmetic descriptors")
		}
		if in.Arith == nil {
			return fmt.Errorf("core: uniform artifact missing arithmetic descriptor")
		}
		a, err := in.Arith.Build()
		if err != nil {
			return err
		}
		net.Arith = a
	}
	if err := net.Validate(); err != nil {
		return err
	}
	*n = net
	return nil
}

// Save writes the quantised model as a versioned JSON artifact,
// atomically (temp file + rename in the target directory): artifacts are
// the unit of deployment, and a trainer killed mid-save must never leave
// a truncated file where positrond (or the artifact store) will load it.
func (n *Network) Save(path string) error {
	data, err := json.MarshalIndent(n, "", " ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(path, data, 0o644)
}

// Load reads a quantised model of either kind saved by Network.Save.
func Load(path string) (*Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	net, err := ParseModel(data)
	if err != nil {
		return nil, fmt.Errorf("core: loading %s: %w", path, err)
	}
	return net, nil
}

// ParseModel decodes a versioned artifact of either kind from raw JSON
// bytes — the in-memory counterpart of Load, used when an artifact
// arrives over the wire (e.g. a model uploaded to a serving registry)
// rather than from disk.
func ParseModel(data []byte) (*Network, error) {
	net := new(Network)
	if err := net.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return net, nil
}
