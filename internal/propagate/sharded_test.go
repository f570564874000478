package propagate

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/graph"
)

// shardedProblem builds a random propagation problem with non-uniform
// starting beliefs, so every sweep moves every row and any divergence
// between the flat and sharded kernels shows up in the bits.
func shardedProblem(rng *rand.Rand, n, k int) (*graph.Graph, []float64, [][]float64, []bool) {
	const Y = corpus.NumTags
	g, X, xref, labelled := warmProblem(rng, n, k)
	for v := 0; v < n; v++ {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		row := X[v*Y : v*Y+Y]
		row[0], row[1], row[2] = a, b-a, 1-b
	}
	return g, X, xref, labelled
}

// TestRunShardedFlatMatchesRunFlat is the propagation half of the
// sharding equivalence bar: for every shard count and configuration, the
// sharded SPMD kernel must reproduce RunFlat bit for bit — final
// beliefs, every recorded loss, and the final MaxDelta.
func TestRunShardedFlatMatchesRunFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, X0, xref, labelled := shardedProblem(rng, 240, 6)
	configs := []Config{
		{Mu: 1e-6, Nu: 1e-6, Iterations: 2, Workers: 2},
		{Mu: 0.2, Nu: 0.05, Iterations: 4, Workers: 3},
		{Mu: 0.2, Nu: 0.05, Iterations: 0, Workers: 1},
		{Mu: 0.5, Nu: 0.01, Iterations: 50, Tolerance: 1e-7, Workers: 2},
		{Mu: 0.2, Nu: 0.05, Iterations: 4, Workers: 2, LossEvery: -1},
		{Mu: 0.2, Nu: 0.05, Iterations: 5, Workers: 2, LossEvery: 2},
	}
	for ci, cfg := range configs {
		want := append([]float64(nil), X0...)
		wantRes, err := RunFlat(g, want, xref, labelled, cfg)
		if err != nil {
			t.Fatalf("config %d: RunFlat: %v", ci, err)
		}
		for _, s := range []int{1, 2, 3, 8} {
			sg, err := graph.ShardGraph(g, s)
			if err != nil {
				t.Fatalf("config %d S=%d: ShardGraph: %v", ci, s, err)
			}
			got := append([]float64(nil), X0...)
			gotRes, err := RunShardedFlat(sg, got, xref, labelled, cfg)
			if err != nil {
				t.Fatalf("config %d S=%d: RunShardedFlat: %v", ci, s, err)
			}
			tag := fmt.Sprintf("config=%d/S=%d", ci, s)
			assertSameResult(t, tag, gotRes, wantRes)
			for i := range want {
				if got[i] != want[i] { // lint:checked sharded kernel must be bit-exact
					t.Fatalf("%s: belief entry %d is %v, flat kernel has %v", tag, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRunShardedMatchesRun covers fixtures seeded from rows with gaps:
// rows nobody observed start uniform (flatRows, as graphner seeds them),
// and the sharded kernel must still match the flat one bit for bit.
func TestRunShardedMatchesRun(t *testing.T) {
	const Y = corpus.NumTags
	rng := rand.New(rand.NewSource(29))
	g, flat, xref, labelled := shardedProblem(rng, 90, 4)
	n := g.NumVertices()
	rows := make([][]float64, n)
	for v := 0; v < n; v++ {
		if v%7 == 3 {
			continue // nil row: seeded uniform
		}
		rows[v] = flat[v*Y : v*Y+Y]
	}
	cfg := Config{Mu: 0.2, Nu: 0.05, Iterations: 3, Workers: 2}
	want := flatRows(rows)
	wantRes, err := RunFlat(g, want, xref, labelled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 5} {
		sg, err := graph.ShardGraph(g, s)
		if err != nil {
			t.Fatal(err)
		}
		got := flatRows(rows)
		gotRes, err := RunShardedFlat(sg, got, xref, labelled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("uniform-seeded/S=%d", s)
		assertSameResult(t, tag, gotRes, wantRes)
		for i := range want {
			if got[i] != want[i] { // lint:checked sharded kernel must be bit-exact
				t.Fatalf("%s: belief entry %d is %v, flat kernel has %v", tag, i, got[i], want[i])
			}
		}
	}
}

// TestRunShardedFlatRejectsSymmetrize: the shard CSR mirrors the directed
// graph only; asking for the symmetrized ablation must fail loudly, not
// silently propagate over the wrong adjacency.
func TestRunShardedFlatRejectsSymmetrize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, X, xref, labelled := shardedProblem(rng, 40, 3)
	sg, err := graph.ShardGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunShardedFlat(sg, X, xref, labelled, Config{Mu: 0.1, Nu: 0.1, Iterations: 1, Symmetrize: true}); err == nil {
		t.Fatal("RunShardedFlat accepted Symmetrize")
	}
}

// TestLossEverySchedule pins the LossEvery contract on the flat path: -1
// records nothing, N records the initial point, every Nth sweep, and the
// final sweep, and every recorded value matches the legacy every-sweep
// schedule bit for bit.
func TestLossEverySchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g, X0, xref, labelled := shardedProblem(rng, 80, 4)
	base := Config{Mu: 0.2, Nu: 0.05, Iterations: 5, Workers: 2}
	full := append([]float64(nil), X0...)
	fullRes, err := RunFlat(g, full, xref, labelled, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullRes.Loss) != base.Iterations+1 {
		t.Fatalf("legacy schedule recorded %d losses, want %d", len(fullRes.Loss), base.Iterations+1)
	}

	never := base
	never.LossEvery = -1
	X := append([]float64(nil), X0...)
	res, err := RunFlat(g, X, xref, labelled, never)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss != nil {
		t.Fatalf("LossEvery=-1 recorded %d losses", len(res.Loss))
	}
	for i := range X {
		if X[i] != full[i] { // lint:checked loss schedule must not change beliefs
			t.Fatal("LossEvery=-1 changed the propagation result")
		}
	}

	periodic := base
	periodic.LossEvery = 2
	X = append([]float64(nil), X0...)
	res, err = RunFlat(g, X, xref, labelled, periodic)
	if err != nil {
		t.Fatal(err)
	}
	// Iterations=5, N=2: recorded after sweeps 0, 2, 4, and the final 5th.
	wantAt := []int{0, 2, 4, 5}
	if len(res.Loss) != len(wantAt) {
		t.Fatalf("LossEvery=2 recorded %d losses, want %d", len(res.Loss), len(wantAt))
	}
	for i, at := range wantAt {
		if res.Loss[i] != fullRes.Loss[at] { // lint:checked recorded losses must be bit-exact
			t.Fatalf("LossEvery=2 loss %d (after sweep %d) is %v, legacy has %v",
				i, at, res.Loss[i], fullRes.Loss[at])
		}
	}
}

// assertSameResult compares two propagation Results bit for bit.
func assertSameResult(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.MaxDelta != want.MaxDelta { // lint:checked equivalence check is exact by design
		t.Fatalf("%s: MaxDelta %v, want %v", tag, got.MaxDelta, want.MaxDelta)
	}
	if len(got.Loss) != len(want.Loss) {
		t.Fatalf("%s: %d losses, want %d", tag, len(got.Loss), len(want.Loss))
	}
	for i := range got.Loss {
		if got.Loss[i] != want.Loss[i] { // lint:checked equivalence check is exact by design
			t.Fatalf("%s: loss %d is %v, want %v", tag, i, got.Loss[i], want.Loss[i])
		}
	}
}
