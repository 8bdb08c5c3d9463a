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

// arithDescriptor names an Arithmetic in the model file.
type arithDescriptor struct {
	Family string `json:"family"` // "posit" | "float" | "fixed" | "float32"
	N      uint   `json:"n,omitempty"`
	ES     uint   `json:"es,omitempty"`
	WE     uint   `json:"we,omitempty"`
	Q      uint   `json:"q,omitempty"`
	// QuireDrop preserves the truncated-quire ablation setting.
	QuireDrop uint `json:"quireDrop,omitempty"`
}

func describeArith(a emac.Arithmetic) (arithDescriptor, error) {
	s, err := DescribeArith(a)
	if err != nil {
		return arithDescriptor{}, err
	}
	return arithDescriptor{Family: s.Family, N: s.N, ES: s.ES, WE: s.WE, Q: s.Q, QuireDrop: s.QuireDrop}, nil
}

func (d arithDescriptor) build() (emac.Arithmetic, error) {
	return ArithSpec{Family: d.Family, N: d.N, ES: d.ES, WE: d.WE, Q: d.Q, QuireDrop: d.QuireDrop}.Build()
}

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
	Arith *arithDescriptor `json:"arith,omitempty"`
	// Ariths are the per-layer arithmetics of a mixed network.
	Ariths  []arithDescriptor `json:"ariths,omitempty"`
	Sigmoid bool              `json:"sigmoid,omitempty"`
	Stand   *standJSON        `json:"standardizer,omitempty"`
	Layers  []layerJSON       `json:"layers"`
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

// decodeLayers validates and rebuilds parameter memories; arithFor
// supplies the arithmetic governing layer i's code width.
func decodeLayers(ljs []layerJSON, arithFor func(i int) emac.Arithmetic) ([]*Layer, error) {
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
		arith := arithFor(li)
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

// MarshalJSON implements json.Marshaler for the quantised network
// (version-1 uniform artifact).
func (n *Network) MarshalJSON() ([]byte, error) {
	desc, err := describeArith(n.Arith)
	if err != nil {
		return nil, err
	}
	if n.Sigmoid {
		if err := CheckSigmoid(n.Arith); err != nil {
			return nil, err
		}
	}
	out := artifactJSON{
		Version: ArtifactVersion,
		Kind:    kindUniform,
		Arith:   &desc,
		Sigmoid: n.Sigmoid,
		Stand:   encodeStand(n.Stand),
		Layers:  encodeLayers(n.Layers),
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler with structural validation.
// It accepts version-1 uniform artifacts and legacy pre-versioning files.
func (n *Network) UnmarshalJSON(data []byte) error {
	var in artifactJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if err := in.checkEnvelope(); err != nil {
		return err
	}
	if in.Kind == kindMixed {
		return fmt.Errorf("core: artifact is a mixed network; load it with LoadModel or MixedNetwork")
	}
	if in.Arith == nil {
		return fmt.Errorf("core: uniform artifact missing arithmetic descriptor")
	}
	arith, err := in.Arith.build()
	if err != nil {
		return err
	}
	if in.Sigmoid {
		if err := CheckSigmoid(arith); err != nil {
			return err
		}
	}
	layers, err := decodeLayers(in.Layers, func(int) emac.Arithmetic { return arith })
	if err != nil {
		return err
	}
	stand, err := decodeStand(in.Stand, layers[0].In)
	if err != nil {
		return err
	}
	*n = Network{Arith: arith, Sigmoid: in.Sigmoid, Stand: stand, Layers: layers}
	return nil
}

// MarshalJSON implements json.Marshaler for the mixed network (version-1
// mixed artifact with one arithmetic descriptor per layer).
func (n *MixedNetwork) MarshalJSON() ([]byte, error) {
	if len(n.LayerAriths) != len(n.Layers) {
		return nil, fmt.Errorf("core: mixed network has %d arithmetics for %d layers",
			len(n.LayerAriths), len(n.Layers))
	}
	descs := make([]arithDescriptor, len(n.LayerAriths))
	for i, a := range n.LayerAriths {
		d, err := describeArith(a)
		if err != nil {
			return nil, err
		}
		descs[i] = d
	}
	out := artifactJSON{
		Version: ArtifactVersion,
		Kind:    kindMixed,
		Ariths:  descs,
		Stand:   encodeStand(n.Stand),
		Layers:  encodeLayers(n.Layers),
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for mixed artifacts.
func (n *MixedNetwork) UnmarshalJSON(data []byte) error {
	var in artifactJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if err := in.checkEnvelope(); err != nil {
		return err
	}
	if in.Kind != kindMixed {
		return fmt.Errorf("core: artifact is not a mixed network (kind %q)", in.Kind)
	}
	if in.Sigmoid {
		return ErrMixedSigmoid
	}
	if len(in.Ariths) != len(in.Layers) {
		return fmt.Errorf("core: mixed artifact has %d arithmetics for %d layers",
			len(in.Ariths), len(in.Layers))
	}
	ariths := make([]emac.Arithmetic, len(in.Ariths))
	for i, d := range in.Ariths {
		a, err := d.build()
		if err != nil {
			return err
		}
		ariths[i] = a
	}
	layers, err := decodeLayers(in.Layers, func(i int) emac.Arithmetic { return ariths[i] })
	if err != nil {
		return err
	}
	stand, err := decodeStand(in.Stand, layers[0].In)
	if err != nil {
		return err
	}
	*n = MixedNetwork{LayerAriths: ariths, Stand: stand, Layers: layers}
	return nil
}

// Save writes the quantised model as a versioned JSON artifact.
func (n *Network) Save(path string) error { return saveJSON(n, path) }

// Save writes the mixed quantised model as a versioned JSON artifact.
func (n *MixedNetwork) Save(path string) error { return saveJSON(n, path) }

// saveJSON writes the artifact atomically (temp file + rename in the
// target directory): artifacts are the unit of deployment, and a trainer
// killed mid-save must never leave a truncated file where positrond (or
// the artifact store) will load it.
func saveJSON(m json.Marshaler, path string) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(path, data, 0o644)
}

// Load reads a uniform quantised model saved by Network.Save.
func Load(path string) (*Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	net := new(Network)
	if err := json.Unmarshal(data, net); err != nil {
		return nil, fmt.Errorf("core: loading %s: %w", path, err)
	}
	return net, nil
}

// LoadModel reads any versioned artifact — uniform or mixed — and
// returns it behind the Model interface. This is the deployment loader:
// serving code does not need to know which precision layout an artifact
// uses.
func LoadModel(path string) (Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseModel(data)
	if err != nil {
		return nil, fmt.Errorf("core: loading %s: %w", path, err)
	}
	return m, nil
}

// ParseModel decodes a versioned artifact from raw JSON bytes — the
// in-memory counterpart of LoadModel, used when an artifact arrives over
// the wire (e.g. a model uploaded to a serving registry) rather than
// from disk.
func ParseModel(data []byte) (Model, error) {
	var envelope struct {
		Version int    `json:"version"`
		Kind    string `json:"kind"`
	}
	if err := json.Unmarshal(data, &envelope); err != nil {
		return nil, err
	}
	if envelope.Kind == kindMixed {
		net := new(MixedNetwork)
		if err := json.Unmarshal(data, net); err != nil {
			return nil, err
		}
		return net, nil
	}
	net := new(Network)
	if err := json.Unmarshal(data, net); err != nil {
		return nil, err
	}
	return net, nil
}
