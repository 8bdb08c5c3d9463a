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

// decodeLayers validates and rebuilds parameter memories; ariths[i] is
// the arithmetic governing layer i's code width.
func decodeLayers(ljs []layerJSON, ariths []emac.Arithmetic) ([]*Layer, error) {
	if len(ljs) == 0 {
		return nil, fmt.Errorf("core: model has no layers")
	}
	layers := make([]*Layer, 0, len(ljs))
	prevOut := -1
	for li, lj := range ljs {
		if lj.In <= 0 || lj.Out <= 0 || len(lj.W) != lj.Out || len(lj.B) != lj.Out {
			return nil, fmt.Errorf("core: layer %d malformed", li)
		}
		if prevOut >= 0 && lj.In != prevOut {
			return nil, fmt.Errorf("core: layer %d input %d does not match previous output %d", li, lj.In, prevOut)
		}
		prevOut = lj.Out
		arith := ariths[li]
		mask := ^uint64(0)
		if w := arith.BitWidth(); w < 64 {
			mask = (uint64(1) << w) - 1
		}
		l := &Layer{In: lj.In, Out: lj.Out, B: make([]emac.Code, lj.Out)}
		l.W = make([][]emac.Code, lj.Out)
		for j, row := range lj.W {
			if len(row) != lj.In {
				return nil, fmt.Errorf("core: layer %d row %d has %d codes", li, j, len(row))
			}
			cr := make([]emac.Code, lj.In)
			for i, c := range row {
				if c&^mask != 0 {
					return nil, fmt.Errorf("core: layer %d code %#x exceeds %d bits", li, c, arith.BitWidth())
				}
				cr[i] = emac.Code(c)
			}
			l.W[j] = cr
		}
		for j, c := range lj.B {
			if c&^mask != 0 {
				return nil, fmt.Errorf("core: layer %d bias code %#x exceeds %d bits", li, c, arith.BitWidth())
			}
			l.B[j] = emac.Code(c)
		}
		layers = append(layers, l)
	}
	return layers, nil
}

// encodeStand lowers an optional standardizer into the wire form.
func encodeStand(st *datasets.Standardizer) *standJSON {
	if st == nil {
		return nil
	}
	return &standJSON{Mean: st.Mean, Std: st.Std}
}

// decodeStand validates an optional standardizer block against the
// network's input width.
func decodeStand(sj *standJSON, inputDim int) (*datasets.Standardizer, error) {
	if sj == nil {
		return nil, nil
	}
	if len(sj.Mean) != inputDim || len(sj.Std) != inputDim {
		return nil, fmt.Errorf("core: standardizer has %d/%d features for %d inputs",
			len(sj.Mean), len(sj.Std), inputDim)
	}
	for i, s := range sj.Std {
		if s == 0 {
			return nil, fmt.Errorf("core: standardizer feature %d has zero scale", i)
		}
	}
	return &datasets.Standardizer{Mean: sj.Mean, Std: sj.Std}, nil
}

// MarshalJSON implements json.Marshaler: a version-1 artifact of the
// network's kind, with one arithmetic descriptor for a uniform network
// and one per layer for a mixed one.
func (n *Network) MarshalJSON() ([]byte, error) {
	specs, err := n.ArithSpecs()
	if err != nil {
		return nil, err
	}
	out := artifactJSON{
		Version: ArtifactVersion,
		Kind:    n.Kind(),
		Sigmoid: n.Sigmoid,
		Stand:   encodeStand(n.Stand),
		Layers:  encodeLayers(n.Layers),
	}
	if n.LayerAriths != nil {
		out.Ariths = specs
	} else {
		out.Arith = &specs[0]
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler with structural validation.
// It accepts version-1 artifacts of either kind and legacy
// pre-versioning files (uniform). An artifact must carry the descriptors
// of its own kind only: a uniform one with "ariths" or a mixed one with
// "arith" is ambiguous and rejected.
func (n *Network) UnmarshalJSON(data []byte) error {
	var in artifactJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if err := in.checkEnvelope(); err != nil {
		return err
	}
	net := Network{Sigmoid: in.Sigmoid}
	var ariths []emac.Arithmetic // one per artifact layer
	if in.Kind == kindMixed {
		if in.Arith != nil {
			return fmt.Errorf("core: mixed artifact carries a uniform arithmetic descriptor")
		}
		if len(in.Ariths) != len(in.Layers) {
			return fmt.Errorf("core: mixed artifact has %d arithmetics for %d layers",
				len(in.Ariths), len(in.Layers))
		}
		ariths = make([]emac.Arithmetic, len(in.Ariths))
		for i, spec := range in.Ariths {
			a, err := spec.Build()
			if err != nil {
				return err
			}
			ariths[i] = a
		}
		net.LayerAriths = ariths
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
		net.Arith, ariths = a, repeatArith(a, len(in.Layers))
	}
	if err := net.checkSigmoid(); err != nil {
		return err
	}
	layers, err := decodeLayers(in.Layers, ariths)
	if err != nil {
		return err
	}
	stand, err := decodeStand(in.Stand, layers[0].In)
	if err != nil {
		return err
	}
	net.Layers, net.Stand = layers, stand
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
