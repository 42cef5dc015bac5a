package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// edgeJSON is the wire form of one weighted edge.
type edgeJSON struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Weight float64 `json:"w"`
}

// tigJSON is the wire form of a TIG.
type tigJSON struct {
	Kind    string     `json:"kind"`
	Name    string     `json:"name,omitempty"`
	N       int        `json:"n"`
	Weights []float64  `json:"weights"`
	Edges   []edgeJSON `json:"edges"`
}

// resourceJSON is the wire form of a ResourceGraph. Only direct links are
// serialised; CloseLinks state is recomputed on load when closed is true.
// Platforms built from a dense link matrix with no topology (see
// NewResourceGraphDense) serialise the matrix itself in DenseLink instead.
// Block platforms are written as blockJSON.
type resourceJSON struct {
	Kind      string     `json:"kind"`
	Name      string     `json:"name,omitempty"`
	N         int        `json:"n"`
	Costs     []float64  `json:"costs"`
	Links     []edgeJSON `json:"links"`
	Closed    bool       `json:"closed"`
	DenseLink []float64  `json:"dense_link,omitempty"`
}

// blockJSON is the wire form of a block platform (see
// NewResourceGraphBlocks): its labels and k x k link table, and no
// topology.
type blockJSON struct {
	Kind      string    `json:"kind"`
	Name      string    `json:"name,omitempty"`
	N         int       `json:"n"`
	Costs     []float64 `json:"costs"`
	Labels    []int32   `json:"labels"`
	BlockLink []float64 `json:"block_link"`
}

// MarshalJSON implements json.Marshaler for TIG.
func (t *TIG) MarshalJSON() ([]byte, error) {
	out := tigJSON{Kind: "tig", Name: t.Name, N: t.N(), Weights: t.Weights}
	for _, e := range t.Edges() {
		out.Edges = append(out.Edges, edgeJSON{U: e.U, V: e.V, Weight: e.Weight})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for TIG and validates the
// decoded instance. data must hold one TIG object (or null, which gives an
// empty TIG) and nothing but whitespace besides; ReadInstance's doc
// comment states the rules for the object.
func (t *TIG) UnmarshalJSON(data []byte) error {
	var d tigDoc
	if err := readWhole(data, "tig", func(r *docReader) error { return r.tig(&d) }); err != nil {
		return err
	}
	decoded, err := d.build()
	if err != nil {
		return err
	}
	*t = *decoded
	return nil
}

// MarshalJSON implements json.Marshaler for ResourceGraph.
func (r *ResourceGraph) MarshalJSON() ([]byte, error) {
	if r.IsBlock() {
		return json.Marshal(blockJSON{Kind: "resource", Name: r.Name, N: r.N(), Costs: r.Costs,
			Labels: r.links.Labels, BlockLink: r.links.Block})
	}
	out := resourceJSON{Kind: "resource", Name: r.Name, N: r.N(), Costs: r.Costs}
	for _, e := range r.Edges() {
		out.Links = append(out.Links, edgeJSON{U: e.U, V: e.V, Weight: e.Weight})
	}
	// The graph is "closed" when some pair's matrix cost differs from its
	// direct-link cost, or when every pair is finite despite a sparse
	// topology. Detect by comparing edge count to finite-pair count.
	out.Closed = r.FullyLinked() && len(r.Edges()) < r.N()*(r.N()-1)/2
	if len(out.Links) == 0 && r.N() > 1 && r.FullyLinked() {
		// Dense-constructed platform: no topology to rebuild the matrix
		// from, so ship the matrix itself.
		out.Closed = false
		out.DenseLink = r.links.Block
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for ResourceGraph, with
// the rules of TIG.UnmarshalJSON.
func (r *ResourceGraph) UnmarshalJSON(data []byte) error {
	var d platformDoc
	if err := readWhole(data, "platform", func(dr *docReader) error { return dr.platform(&d) }); err != nil {
		return err
	}
	decoded, err := d.build()
	if err != nil {
		return err
	}
	*r = *decoded
	return nil
}

// Instance bundles one mapping problem: a TIG and the platform to map it
// onto. It is the unit the generators emit and the CLIs exchange on disk.
type Instance struct {
	TIG      *TIG           `json:"tig"`
	Platform *ResourceGraph `json:"platform"`
	// Seed records the generator seed for provenance.
	Seed uint64 `json:"seed,omitempty"`
}

// Validate checks both graphs and the paper's |Vt| = |Vr| assumption used
// throughout the experiments.
func (in *Instance) Validate() error {
	if in.TIG == nil || in.Platform == nil {
		return fmt.Errorf("graph: instance missing TIG or platform")
	}
	if err := in.TIG.Validate(); err != nil {
		return fmt.Errorf("graph: invalid TIG: %w", err)
	}
	if err := in.Platform.Validate(); err != nil {
		return fmt.Errorf("graph: invalid platform: %w", err)
	}
	return nil
}

// WriteInstance serialises an instance as indented JSON.
func WriteInstance(w io.Writer, in *Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(in)
}

// ReadInstance parses and validates an instance from JSON. It reads rd
// once through a fixed-size buffer and decodes values straight into the
// graphs' arrays; no allocation is sized from a declared n, so arrays
// grow from the values actually read. A dense_link matrix becomes the
// platform's link matrix, and labels and block_link its link table,
// without a copy.
//
// It accepts exactly the documents encoding/json's Decoder accepts for
// Instance, and builds the same graphs from them:
//   - The document is one JSON object; bytes after its closing brace are
//     not read. Whitespace may precede it, a byte-order mark may not.
//   - Keys match the field names of Instance, the TIG and the platform
//     (see WriteInstance's output) exactly or under bytes.EqualFold, so
//     "TIG" and "ſeed" are the tig and the seed. Other keys are skipped,
//     but their values must be valid JSON within encoding/json's nesting
//     limit of 10000.
//   - When a key repeats, the last value wins. Each tig and platform
//     value is built and validated as it is read, so an invalid one is
//     rejected even if a valid one follows. A repeated array key reuses
//     the earlier array's storage, as encoding/json does: a null element
//     keeps what an earlier value put at its index, or 0.
//   - Numbers follow JSON's grammar. Floats parse as strconv.ParseFloat
//     parses them (-0 stays -0, 1e999 is rejected); integers and the
//     seed as ParseInt and ParseUint do, so 2.0 or a negative seed is
//     rejected.
//   - null leaves a string, number or bool as it was and sets a tig,
//     platform or array to nil. Any other value of the wrong JSON type
//     is rejected.
//   - Strings unescape as in encoding/json; invalid UTF-8 and unpaired
//     surrogate escapes become U+FFFD.
//
// A platform takes one of three forms, decided by which members are
// non-null once the object is read:
//   - Block: labels (n integers in [0, k)) and block_link (k*k floats,
//     symmetric, finite, non-negative) together, as
//     NewResourceGraphBlocks takes them. Either without the other is
//     rejected, and so is a block platform that also carries dense_link
//     or links. closed is ignored.
//   - Dense: dense_link, the n*n matrix NewResourceGraphDense takes;
//     links and closed are ignored.
//   - Topology: links, closed over shortest paths when closed is true.
func ReadInstance(rd io.Reader) (*Instance, error) {
	r := docReader{src: rd, buf: make([]byte, 0, minReadBuf)}
	in, err := r.instance()
	if err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// DOT renders the graph in Graphviz DOT syntax. Vertex labels carry the
// per-vertex weights when provided (weights may be nil).
func DOT(g *Undirected, name string, weights []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", name)
	for v := 0; v < g.N(); v++ {
		if weights != nil {
			fmt.Fprintf(&b, "  %d [label=\"%d (%s)\"];\n", v, v, trimFloat(weights[v]))
		} else {
			fmt.Fprintf(&b, "  %d;\n", v)
		}
	}
	edges := append([]Edge(nil), g.Edges()...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  %d -- %d [label=\"%s\"];\n", e.U, e.V, trimFloat(e.Weight))
	}
	b.WriteString("}\n")
	return b.String()
}

// trimFloat formats a float compactly: integers lose the decimal point.
func trimFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
