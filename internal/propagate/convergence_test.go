package propagate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/graph"
)

// randomGraph builds a random directed k-NN-like graph with n vertices.
func randomGraph(rng *rand.Rand, n, k int) *graph.Graph {
	g := &graph.Graph{Neighbors: make([][]graph.Edge, n), K: k}
	for i := 0; i < n; i++ {
		g.Vertices = append(g.Vertices, corpus.NGram(string(rune('0'+i%10))+string(rune('a'+i/10))))
		used := map[int]bool{i: true}
		for j := 0; j < k; j++ {
			to := rng.Intn(n)
			if used[to] {
				continue
			}
			used[to] = true
			g.Neighbors[i] = append(g.Neighbors[i], graph.Edge{To: int32(to), Weight: 0.2 + 0.8*rng.Float64()})
		}
	}
	return g
}

// TestConvergenceMonotoneDelta: the maximum per-entry change shrinks as
// more sweeps run (the Jacobi update is a contraction on this objective).
func TestConvergenceMonotoneDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomGraph(rng, 60, 4)
	n := g.NumVertices()
	mk := func() ([][]float64, [][]float64, []bool) {
		X := make([][]float64, n)
		xref := make([][]float64, n)
		lab := make([]bool, n)
		r := rand.New(rand.NewSource(99))
		for i := 0; i < n; i++ {
			a := r.Float64()
			X[i] = []float64{a / 2, a / 2, 1 - a}
			if i%4 == 0 {
				lab[i] = true
				xref[i] = []float64{1, 0, 0}
			}
		}
		return X, xref, lab
	}

	var deltas []float64
	for _, iters := range []int{1, 3, 10, 30} {
		X, xref, lab := mk()
		res, err := runRows(g, X, xref, lab, Config{Mu: 0.2, Nu: 0.05, Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, res.MaxDelta)
	}
	for i := 1; i < len(deltas); i++ {
		if deltas[i] > deltas[i-1]+1e-12 {
			t.Errorf("final-sweep delta grew with more sweeps: %v", deltas)
		}
	}
	if deltas[len(deltas)-1] > 1e-3 {
		t.Errorf("not converging: deltas %v", deltas)
	}
}

// TestPropagationPullsTowardLabelledRegions: unlabelled vertices reachable
// from B-labelled vertices end with more B mass than vertices reachable
// only from O-labelled ones.
func TestPropagationPullsTowardLabelledRegions(t *testing.T) {
	// Two disjoint stars: center labelled B / labelled O, leaves unlabelled
	// pointing at their center.
	g := &graph.Graph{Neighbors: make([][]graph.Edge, 6), K: 1}
	for i := 0; i < 6; i++ {
		g.Vertices = append(g.Vertices, corpus.NGram(rune('a'+i)))
	}
	// Vertices: 0 = B-center, 1,2 leaves -> 0; 3 = O-center, 4,5 leaves -> 3.
	g.Neighbors[1] = []graph.Edge{{To: 0, Weight: 1}}
	g.Neighbors[2] = []graph.Edge{{To: 0, Weight: 1}}
	g.Neighbors[4] = []graph.Edge{{To: 3, Weight: 1}}
	g.Neighbors[5] = []graph.Edge{{To: 3, Weight: 1}}

	X := make([][]float64, 6)
	xref := make([][]float64, 6)
	lab := make([]bool, 6)
	lab[0], lab[3] = true, true
	xref[0] = []float64{1, 0, 0}
	xref[3] = []float64{0, 0, 1}

	if _, err := runRows(g, X, xref, lab, Config{Mu: 1, Nu: 0.01, Iterations: 10}); err != nil {
		t.Fatal(err)
	}
	for _, leaf := range []int{1, 2} {
		if X[leaf][corpus.B] <= X[leaf][corpus.O] {
			t.Errorf("B-star leaf %d: %v", leaf, X[leaf])
		}
	}
	for _, leaf := range []int{4, 5} {
		if X[leaf][corpus.O] <= X[leaf][corpus.B] {
			t.Errorf("O-star leaf %d: %v", leaf, X[leaf])
		}
	}
	// The two stars are independent: B-star leaves should mirror O-star
	// leaves' distributions under the B↔O swap.
	if math.Abs(X[1][corpus.B]-X[4][corpus.O]) > 1e-9 {
		t.Errorf("star symmetry broken: %v vs %v", X[1], X[4])
	}
}

// TestHigherNuFlattens: raising ν moves the fixed point toward uniform.
func TestHigherNuFlattens(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 3)
	n := g.NumVertices()
	run := func(nu float64) float64 {
		X := make([][]float64, n)
		xref := make([][]float64, n)
		lab := make([]bool, n)
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				lab[i] = true
				xref[i] = []float64{1, 0, 0}
			}
		}
		if _, err := runRows(g, X, xref, lab, Config{Mu: 0.5, Nu: nu, Iterations: 50}); err != nil {
			t.Fatal(err)
		}
		// Average distance from uniform over unlabelled vertices.
		var d float64
		var c int
		for i := 0; i < n; i++ {
			if lab[i] {
				continue
			}
			for y := 0; y < corpus.NumTags; y++ {
				d += math.Abs(X[i][y] - 1.0/corpus.NumTags)
			}
			c++
		}
		return d / float64(c)
	}
	sharp, flat := run(0.001), run(10)
	if flat >= sharp {
		t.Errorf("nu=10 distance from uniform (%g) not below nu=0.001 (%g)", flat, sharp)
	}
}
