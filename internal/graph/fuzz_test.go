package graph

import (
	"encoding/json"
	"testing"
)

// FuzzTIGUnmarshal holds TIG.UnmarshalJSON to the reference decoder: it
// accepts exactly the inputs the reference accepts and then builds the
// same TIG, floats compared by bits and edges in order. An accepted TIG
// must also survive a marshal round trip unchanged.
func FuzzTIGUnmarshal(f *testing.F) {
	for _, c := range tigCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refUnmarshalTIG(data)
		var got TIG
		gotErr := got.UnmarshalJSON(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("reader error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if d := diffTIG(&got, want); d != "" {
			t.Fatal(d)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted an invalid TIG: %v", err)
		}
		out, err := json.Marshal(&got)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var back TIG
		if err := back.UnmarshalJSON(out); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if d := diffTIG(&back, &got); d != "" {
			t.Fatalf("round trip changed the TIG: %s", d)
		}
	})
}

// FuzzResourceUnmarshal is the platform counterpart.
func FuzzResourceUnmarshal(f *testing.F) {
	for _, c := range platformCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refUnmarshalResource(data)
		var got ResourceGraph
		gotErr := got.UnmarshalJSON(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("reader error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if d := diffResource(&got, want); d != "" {
			t.Fatal(d)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted an invalid platform: %v", err)
		}
	})
}

// FuzzReadInstance holds ReadInstance to the reference encoding/json
// Decoder on whole documents, read at once and one byte per Read.
func FuzzReadInstance(f *testing.F) {
	for _, c := range instanceCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadInstance(t, data)
	})
}

// FuzzCoarsen drives one coarsen/contract round trip on a fuzzer-shaped
// TIG: build a graph from the byte stream, run heavy-edge matching and
// contraction, and assert the structural invariants the multilevel
// ladder relies on — a valid disjoint matching, a valid coarse graph,
// exact vertex-weight conservation and non-increasing edge weight.
func FuzzCoarsen(f *testing.F) {
	f.Add([]byte{8, 1, 2, 3, 4, 0, 1, 1, 2, 2, 3}, uint8(3))
	f.Add([]byte{4, 9, 9, 9, 9, 0, 1, 0, 2, 0, 3}, uint8(1)) // star
	f.Add([]byte{5, 1, 1, 1, 1, 1}, uint8(0))                // edgeless
	f.Fuzz(func(t *testing.T, data []byte, rounds uint8) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%32 + 2
		tig := NewTIG(n)
		for i := 0; i < n; i++ {
			tig.Weights[i] = float64(i%7 + 1)
		}
		// Remaining bytes in (u, v) pairs become edges; duplicates and
		// self-loops are skipped like any generator would.
		rest := data[1:]
		for i := 0; i+1 < len(rest); i += 2 {
			u, v := int(rest[i])%n, int(rest[i+1])%n
			if u == v || tig.HasEdge(u, v) {
				continue
			}
			tig.MustAddEdge(u, v, float64(int(rest[i])%9+1))
		}
		cur := tig
		for level := 0; level <= int(rounds%4); level++ {
			pairs := HeavyEdgeMatching(cur.Undirected)
			seen := make(map[int]bool, 2*len(pairs))
			for _, p := range pairs {
				if seen[p[0]] || seen[p[1]] {
					t.Fatalf("matching reuses a vertex: %v", pairs)
				}
				seen[p[0]], seen[p[1]] = true, true
				if _, ok := cur.EdgeWeight(p[0], p[1]); !ok {
					t.Fatalf("matched pair %v is not an edge", p)
				}
			}
			if len(pairs) == 0 {
				break
			}
			c, err := ContractionFromPairs(cur.N(), pairs)
			if err != nil {
				t.Fatalf("contraction rejected its own matching: %v", err)
			}
			next, err := ContractTIG(cur, c)
			if err != nil {
				t.Fatalf("contract failed: %v", err)
			}
			if err := next.Validate(); err != nil {
				t.Fatalf("coarse TIG invalid: %v", err)
			}
			if next.N() != cur.N()-len(pairs) {
				t.Fatalf("coarse n %d, want %d", next.N(), cur.N()-len(pairs))
			}
			if next.TotalWork() != cur.TotalWork() {
				t.Fatalf("vertex weight %v -> %v", cur.TotalWork(), next.TotalWork())
			}
			if next.TotalEdgeWeight() > cur.TotalEdgeWeight() {
				t.Fatalf("edge weight grew %v -> %v", cur.TotalEdgeWeight(), next.TotalEdgeWeight())
			}
			// Round trip: every fine edge lands inside one coarse cluster
			// or on the coarse edge between its endpoints' clusters.
			for _, e := range cur.Edges() {
				cu, cv := c.Map[e.U], c.Map[e.V]
				if cu == cv {
					continue
				}
				if _, ok := next.EdgeWeight(cu, cv); !ok {
					t.Fatalf("fine edge (%d,%d) lost: no coarse edge (%d,%d)", e.U, e.V, cu, cv)
				}
			}
			cur = next
		}
	})
}
