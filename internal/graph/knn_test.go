package graph

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/corpus/synth"
	"repro/internal/features"
)

// referenceKNN is the per-query exact k-NN kernel knn replaced: every
// query scores all of its candidates through scoreInto and selects its
// row with topK, so each vertex pair is scored twice, once from each end.
// It is the oracle TestKNNMatchesReference holds the half-pair kernel to,
// entry by entry and bit for bit.
func referenceKNN(vecs []sparseVec, cfg BuilderConfig) [][]Edge {
	n := len(vecs)
	postings := buildPostings(vecs)
	out := make([][]Edge, n)
	var wg sync.WaitGroup
	workers := cfg.Workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scores := make([]float64, n)
			seen := make([]int32, n)
			epoch := int32(0)
			touched := make([]int32, 0, 1024)
			for vi := w; vi < n; vi += workers {
				q := &vecs[vi]
				if q.norm == 0 {
					continue
				}
				epoch++
				touched = scoreInto(q, int32(vi), postings, cfg.MaxDF, scores, seen, epoch, touched[:0])
				out[vi] = topK(scores, touched, q.norm, vecs, cfg.K, nil)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// assertSameRows fails unless got and want hold the same rows: the same
// length, the same nil-ness (zero-norm queries get no row at all), and
// every edge's target and weight bit-equal.
func assertSameRows(t *testing.T, name string, got, want [][]Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for v := range want {
		g, w := got[v], want[v]
		if (g == nil) != (w == nil) || len(g) != len(w) {
			t.Fatalf("%s: vertex %d row %v (nil=%v), want %v (nil=%v)", name, v, g, g == nil, w, w == nil)
		}
		for j := range w {
			if g[j].To != w[j].To || math.Float64bits(g[j].Weight) != math.Float64bits(w[j].Weight) {
				t.Fatalf("%s: vertex %d edge %d = %+v, want %+v", name, v, j, g[j], w[j])
			}
		}
	}
}

// mixedSignVecs draws n vectors over nf features with small integer
// values of both signs, so partial dot products cancel to exactly zero
// and many pairs tie. Every zeroEvery-th vector (when positive) keeps its
// features but has norm 0, the zero-norm skip rule's input; every
// dupEvery-th vector (when positive) copies its predecessor, so weights
// tie exactly and the id tie-break decides.
func mixedSignVecs(rng *rand.Rand, n, nf, zeroEvery, dupEvery int) []sparseVec {
	vecs := make([]sparseVec, n)
	for v := range vecs {
		if dupEvery > 0 && v > 0 && v%dupEvery == 0 {
			vecs[v] = vecs[v-1]
			continue
		}
		var norm float64
		for f := 0; f < nf; f++ {
			if rng.Float64() < 0.6 {
				continue
			}
			val := float64(rng.Intn(7) - 3)
			if val == 0 {
				continue
			}
			vecs[v].ids = append(vecs[v].ids, int32(f))
			vecs[v].vals = append(vecs[v].vals, val)
			norm += val * val
		}
		vecs[v].norm = math.Sqrt(norm)
		if zeroEvery > 0 && v%zeroEvery == 0 {
			vecs[v].norm = 0
		}
	}
	return vecs
}

// TestKNNMatchesReference holds the half-pair kernel to the per-query
// reference on every input class whose skip or tie rules it must keep:
// mixed-sign cancellation, zero-norm vectors, duplicate vectors, MaxDF
// caps, K above the candidate count, worker counts from 1 to 5 and beyond
// the vertex count, and the PPMI vectors of a synthetic BC2GM union.
func TestKNNMatchesReference(t *testing.T) {
	type tc struct {
		name string
		vecs []sparseVec
		cfg  BuilderConfig
	}
	rng := rand.New(rand.NewSource(13))
	var cases []tc
	for trial := 0; trial < 6; trial++ {
		n := 20 + rng.Intn(60)
		cases = append(cases,
			tc{"mixed-sign", mixedSignVecs(rng, n, 4+rng.Intn(10), 0, 0), BuilderConfig{K: 5}},
			tc{"zero-norm", mixedSignVecs(rng, n, 8, 3+trial, 0), BuilderConfig{K: 4}},
			tc{"duplicates", mixedSignVecs(rng, n, 6, 0, 2+trial%3), BuilderConfig{K: 6}},
			tc{"maxdf", mixedSignVecs(rng, n, 10, 7, 4), BuilderConfig{K: 5, MaxDF: 3 + trial*4}},
			tc{"k-above-candidates", mixedSignVecs(rng, 12, 3, 0, 5), BuilderConfig{K: 30}},
		)
	}
	cases = append(cases,
		tc{"one-vertex", mixedSignVecs(rng, 1, 4, 0, 0), BuilderConfig{K: 3}},
		tc{"no-vertices", nil, BuilderConfig{K: 3}},
	)
	scfg := synth.DefaultConfig(synth.BC2GM, 5)
	scfg.Sentences = 300
	union := synth.NewGenerator(scfg).Generate()
	bc := BuilderConfig{K: 10, Extractor: features.NewExtractor(nil)}
	ppmi, _, _, _, _ := vertexVectors(union, bc)
	cases = append(cases,
		tc{"bc2gm-300", ppmi, BuilderConfig{K: 10}},
		tc{"bc2gm-300-maxdf", ppmi, BuilderConfig{K: 10, MaxDF: 50}},
	)
	for _, c := range cases {
		want := referenceKNN(c.vecs, BuilderConfig{K: c.cfg.K, MaxDF: c.cfg.MaxDF, Workers: 1})
		// Each worker's row buffers cover every vertex, so the larger
		// PPMI inputs get a cheaper worker sweep (keeping -race runs
		// short) and only small inputs get more workers than vertices.
		workerCounts := []int{1, 2, 3, 4, 5, len(c.vecs) + 3}
		if len(c.vecs) >= 100 {
			workerCounts = []int{1, 2, 5}
		}
		for _, workers := range workerCounts {
			cfg := c.cfg
			cfg.Workers = workers
			assertSameRows(t, c.name, knn(c.vecs, cfg), want)
		}
	}
}

// BenchmarkKNNExact times the exact k-NN kernel alone on the PPMI vectors
// of the 1000-sentence BC2GM synth union, seed 1 — the corpus of
// perfbench's offline-exact workload — at K=10 with GOMAXPROCS workers.
func BenchmarkKNNExact(b *testing.B) {
	scfg := synth.DefaultConfig(synth.BC2GM, 1)
	scfg.Sentences = 1000
	union := synth.NewGenerator(scfg).Generate()
	cfg := BuilderConfig{K: 10, Extractor: features.NewExtractor(nil), Workers: runtime.GOMAXPROCS(0)}
	vecs, _, _, _, _ := vertexVectors(union, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knnSink = knn(vecs, cfg)
	}
}

// knnSink keeps BenchmarkKNNExact's result live.
var knnSink [][]Edge
