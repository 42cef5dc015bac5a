package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// The reference decoder: the encoding/json decode the one-pass reader
// replaced, kept as the oracle the differential tests and fuzz targets
// hold the reader to.

// refUnmarshalTIG is the reference TIG.UnmarshalJSON.
func refUnmarshalTIG(data []byte) (*TIG, error) {
	var in tigJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	if in.Kind != "" && in.Kind != "tig" {
		return nil, fmt.Errorf("graph: expected kind \"tig\", got %q", in.Kind)
	}
	if len(in.Weights) != in.N {
		return nil, fmt.Errorf("graph: TIG JSON has %d weights for n=%d", len(in.Weights), in.N)
	}
	decoded := NewTIGWithWeights(in.Weights)
	decoded.Name = in.Name
	for _, e := range in.Edges {
		if err := decoded.AddEdge(e.U, e.V, e.Weight); err != nil {
			return nil, err
		}
	}
	if err := decoded.Validate(); err != nil {
		return nil, err
	}
	return decoded, nil
}

// refResourceJSON is every member a platform document may carry: the
// topology and dense forms' resourceJSON and the block form's members.
type refResourceJSON struct {
	resourceJSON
	Labels    []int32   `json:"labels"`
	BlockLink []float64 `json:"block_link"`
}

// refUnmarshalResource is the reference ResourceGraph.UnmarshalJSON.
func refUnmarshalResource(data []byte) (*ResourceGraph, error) {
	var in refResourceJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	if in.Kind != "" && in.Kind != "resource" {
		return nil, fmt.Errorf("graph: expected kind \"resource\", got %q", in.Kind)
	}
	if len(in.Costs) != in.N {
		return nil, fmt.Errorf("graph: resource JSON has %d costs for n=%d", len(in.Costs), in.N)
	}
	var decoded *ResourceGraph
	if in.Labels != nil || in.BlockLink != nil {
		if in.Labels == nil || in.BlockLink == nil {
			return nil, fmt.Errorf("graph: labels without block_link or block_link without labels")
		}
		if in.DenseLink != nil || in.Links != nil {
			return nil, fmt.Errorf("graph: block platform with dense_link or links")
		}
		var err error
		decoded, err = NewResourceGraphBlocks(in.Costs, in.Labels, in.BlockLink)
		if err != nil {
			return nil, err
		}
		decoded.Name = in.Name
	} else if in.DenseLink != nil {
		var err error
		decoded, err = NewResourceGraphDense(in.Costs, in.DenseLink)
		if err != nil {
			return nil, err
		}
		decoded.Name = in.Name
	} else {
		decoded = NewResourceGraphWithCosts(in.Costs)
		decoded.Name = in.Name
		for _, e := range in.Links {
			if err := decoded.AddLink(e.U, e.V, e.Weight); err != nil {
				return nil, err
			}
		}
		if in.Closed {
			if err := decoded.CloseLinks(); err != nil {
				return nil, err
			}
		}
	}
	if err := decoded.Validate(); err != nil {
		return nil, err
	}
	return decoded, nil
}

// refTIG and refResource give Instance's fields the reference decode.
type refTIG struct{ g *TIG }

func (t *refTIG) UnmarshalJSON(data []byte) error {
	g, err := refUnmarshalTIG(data)
	if err != nil {
		return err
	}
	t.g = g
	return nil
}

type refResource struct{ g *ResourceGraph }

func (r *refResource) UnmarshalJSON(data []byte) error {
	g, err := refUnmarshalResource(data)
	if err != nil {
		return err
	}
	r.g = g
	return nil
}

// refInstance is Instance with the reference field decoders.
type refInstance struct {
	TIG      *refTIG      `json:"tig"`
	Platform *refResource `json:"platform"`
	Seed     uint64       `json:"seed,omitempty"`
}

// refReadInstance is the reference ReadInstance.
func refReadInstance(rd io.Reader) (*Instance, error) {
	var ref refInstance
	if err := json.NewDecoder(rd).Decode(&ref); err != nil {
		return nil, err
	}
	in := &Instance{Seed: ref.Seed}
	if ref.TIG != nil {
		in.TIG = ref.TIG.g
	}
	if ref.Platform != nil {
		in.Platform = ref.Platform.g
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// diffFloats describes how a and b differ, comparing bits and nil-ness,
// or returns "".
func diffFloats(what string, a, b []float64) string {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Sprintf("%s: %v (nil %t) vs %v (nil %t)", what, a, a == nil, b, b == nil)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
	return ""
}

// diffLinks compares two link tables: labels (and their nil-ness), k and
// the cost table's bits.
func diffLinks(what string, a, b LinkTable) string {
	if (a.Labels == nil) != (b.Labels == nil) || len(a.Labels) != len(b.Labels) || a.K != b.K {
		return fmt.Sprintf("%s link table: labels %v k=%d vs labels %v k=%d", what, a.Labels, a.K, b.Labels, b.K)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return fmt.Sprintf("%s label[%d]: %d vs %d", what, i, a.Labels[i], b.Labels[i])
		}
	}
	return diffFloats(what+" link costs", a.Block, b.Block)
}

// diffEdges compares two graphs' edge lists in order.
func diffEdges(what string, a, b *Undirected) string {
	ea, eb := a.Edges(), b.Edges()
	if a.N() != b.N() || (ea == nil) != (eb == nil) || len(ea) != len(eb) {
		return fmt.Sprintf("%s: n=%d edges %v vs n=%d edges %v", what, a.N(), ea, b.N(), eb)
	}
	for i := range ea {
		if ea[i].U != eb[i].U || ea[i].V != eb[i].V || math.Float64bits(ea[i].Weight) != math.Float64bits(eb[i].Weight) {
			return fmt.Sprintf("%s edge %d: %v vs %v", what, i, ea[i], eb[i])
		}
	}
	return ""
}

func diffTIG(a, b *TIG) string {
	if (a == nil) != (b == nil) {
		return fmt.Sprintf("tig: %v vs %v", a, b)
	}
	if a == nil {
		return ""
	}
	if a.Name != b.Name {
		return fmt.Sprintf("tig name %q vs %q", a.Name, b.Name)
	}
	if d := diffFloats("tig weights", a.Weights, b.Weights); d != "" {
		return d
	}
	return diffEdges("tig", a.Undirected, b.Undirected)
}

func diffResource(a, b *ResourceGraph) string {
	if (a == nil) != (b == nil) {
		return fmt.Sprintf("platform: %v vs %v", a, b)
	}
	if a == nil {
		return ""
	}
	if a.Name != b.Name {
		return fmt.Sprintf("platform name %q vs %q", a.Name, b.Name)
	}
	if d := diffFloats("platform costs", a.Costs, b.Costs); d != "" {
		return d
	}
	if d := diffLinks("platform", a.LinkTable(), b.LinkTable()); d != "" {
		return d
	}
	return diffEdges("platform", a.Undirected, b.Undirected)
}

func diffInstance(a, b *Instance) string {
	if a.Seed != b.Seed {
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	}
	if d := diffTIG(a.TIG, b.TIG); d != "" {
		return d
	}
	return diffResource(a.Platform, b.Platform)
}
