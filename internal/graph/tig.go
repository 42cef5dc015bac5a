package graph

import "fmt"

// TIG is a Task Interaction Graph: the application model of Section 2 of
// the paper. Vertex t carries the computational weight W^t (the number of
// grid points in the overset grid the task represents); edge (i, j)
// carries the communication weight C^{i,j} (the number of grid points in
// which grids i and j overlap).
type TIG struct {
	*Undirected
	// Weights[t] is W^t, the computational weight of task t.
	Weights []float64
	// Name labels the instance in experiment artefacts.
	Name string
}

// NewTIG returns a TIG on n tasks with all computational weights zero.
func NewTIG(n int) *TIG {
	return &TIG{
		Undirected: NewUndirected(n),
		Weights:    make([]float64, n),
	}
}

// NewTIGWithWeights returns a TIG whose task weights are the given slice
// (taken by reference).
func NewTIGWithWeights(weights []float64) *TIG {
	return &TIG{
		Undirected: NewUndirected(len(weights)),
		Weights:    weights,
	}
}

// NumTasks returns |Vt|.
func (t *TIG) NumTasks() int { return t.N() }

// TotalWork returns the sum of all task weights — the amount of
// computation in the application independent of any mapping.
func (t *TIG) TotalWork() float64 {
	total := 0.0
	for _, w := range t.Weights {
		total += w
	}
	return total
}

// TotalCommunication returns the sum of all communication weights — the
// amount of data exchange in the application independent of any mapping.
func (t *TIG) TotalCommunication() float64 { return t.TotalEdgeWeight() }

// CommToCompRatio returns total communication divided by total
// computation; the paper's Section 5.2 varies exactly this ratio across
// its five synthetic instances.
func (t *TIG) CommToCompRatio() float64 {
	work := t.TotalWork()
	if work == 0 {
		return 0
	}
	return t.TotalCommunication() / work
}

// Validate extends the structural check with TIG-specific invariants:
// the weight slice length matches the vertex count and all computational
// weights are non-negative.
func (t *TIG) Validate() error {
	if err := t.Undirected.Validate(); err != nil {
		return err
	}
	return t.validateWeights()
}

// validateWeights is Validate without the edge checks, for a TIG whose
// edges adoptEdges has already checked.
func (t *TIG) validateWeights() error {
	if len(t.Weights) != t.N() {
		return fmt.Errorf("graph: TIG has %d weights for %d tasks", len(t.Weights), t.N())
	}
	for i, w := range t.Weights {
		if w < 0 {
			return fmt.Errorf("graph: task %d has negative weight %v", i, w)
		}
	}
	return nil
}

// Clone returns a deep copy of the TIG.
func (t *TIG) Clone() *TIG {
	weights := append([]float64(nil), t.Weights...)
	return &TIG{Undirected: t.Undirected.Clone(), Weights: weights, Name: t.Name}
}
