package graphner

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/crf"
	"repro/internal/graph"
	"repro/internal/propagate"
)

// referenceTest is the seed TEST procedure: it re-compiles every sentence
// in each pass (graph construction, posterior extraction, baseline
// decoding), seeds nested belief rows with AveragePosteriors, and mixes
// and decodes per-token rows with DecodeWithPotentialsT; only propagation
// runs on the production kernel, RunFlat. The golden test below runs it
// against the instance-cached pipeline with its flat combine+decode tail
// and demands bit-identical output: both must be pure optimizations.
func referenceTest(s *System, test *corpus.Corpus) (*Output, error) {
	g, err := s.BuildGraph(test)
	if err != nil {
		return nil, err
	}
	if len(test.Sentences) == 0 {
		return nil, fmt.Errorf("graphner: empty test corpus")
	}
	union := unionCorpus(s.train, test.StripLabels())

	posteriors := s.Posteriors(union)
	trans := GoldTransitions(s.train)

	X := AveragePosteriors(g, union, posteriors)

	xref := make([][]float64, g.NumVertices())
	labelled := make([]bool, g.NumVertices())
	nLabelled, nPositive := 0, 0
	for v, ng := range g.Vertices {
		if d, ok := s.xref[ng]; ok {
			xref[v] = d
			labelled[v] = true
			nLabelled++
			if d[corpus.B]+d[corpus.I] > 0 {
				nPositive++
			}
		}
	}

	// Flatten X for the propagation kernel; vertices no posterior reached
	// start uniform.
	const Y = corpus.NumTags
	flat := make([]float64, len(X)*Y)
	for v, row := range X {
		for y := 0; y < Y; y++ {
			if row == nil {
				flat[v*Y+y] = 1.0 / Y
			} else {
				flat[v*Y+y] = row[y]
			}
		}
	}
	prop, err := propagate.RunFlat(g, flat, xref, labelled, propagate.Config{
		Mu:         s.cfg.Mu,
		Nu:         s.cfg.Nu,
		Iterations: s.cfg.Iterations,
		Workers:    s.cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("graphner: propagation: %w", err)
	}

	offset := len(s.train.Sentences)
	out := &Output{
		Graph:         g,
		Propagation:   prop,
		VertexBeliefs: flat,
		Tags:          make([][]corpus.Tag, len(test.Sentences)),
	}
	if n := g.NumVertices(); n > 0 {
		out.LabelledVertexFraction = float64(nLabelled) / float64(n)
		out.PositiveVertexFraction = float64(nPositive) / float64(n)
	}

	var decodeErr error
	var mu sync.Mutex
	s.parallel(len(test.Sentences), func(i int) {
		sent := test.Sentences[i]
		words := sent.Words()
		ps := posteriors[offset+i]
		combined := make([][]float64, len(words))
		for j := range words {
			row := make([]float64, corpus.NumTags)
			var gb []float64
			if vi := g.Lookup(corpus.Trigram(words, j)); vi >= 0 {
				gb = flat[vi*Y : (vi+1)*Y]
			}
			for y := 0; y < corpus.NumTags; y++ {
				if gb != nil {
					row[y] = s.cfg.Alpha*ps[j][y] + (1-s.cfg.Alpha)*gb[y]
				} else {
					row[y] = ps[j][y]
				}
			}
			combined[j] = row
		}
		tags, err := crf.DecodeWithPotentialsT(combined, trans, s.model.BIO, s.cfg.TransitionPower)
		if err != nil {
			mu.Lock()
			decodeErr = err
			mu.Unlock()
			return
		}
		out.Tags[i] = tags
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("graphner: decoding: %w", decodeErr)
	}

	out.BaselineTags = s.BaselineTags(test)
	return out, nil
}

func tagsEqual(t *testing.T, what string, got, want [][]corpus.Tag) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sentences, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: sentence %d has %d tags, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: sentence %d tag %d = %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestCachedPipelineMatchesSeed(t *testing.T) {
	train, test := smallCorpora(t, synth.AML, 120)
	sys, err := Train(train, fastConfig())
	if err != nil {
		t.Fatal(err)
	}

	miCfg := sys.Config()
	miCfg.Mode = graph.MIFeatures
	miCfg.MIThreshold = 0.0005

	for _, tc := range []struct {
		name string
		s    *System
	}{
		{"all-features", sys},
		{"mi-features", sys.WithConfig(miCfg)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := referenceTest(tc.s, test)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.s.Test(test)
			if err != nil {
				t.Fatal(err)
			}

			tagsEqual(t, "Tags", got.Tags, want.Tags)
			tagsEqual(t, "BaselineTags", got.BaselineTags, want.BaselineTags)

			if len(got.Propagation.Loss) != len(want.Propagation.Loss) {
				t.Fatalf("loss history length %d vs %d", len(got.Propagation.Loss), len(want.Propagation.Loss))
			}
			for i := range want.Propagation.Loss {
				if got.Propagation.Loss[i] != want.Propagation.Loss[i] {
					t.Errorf("Loss[%d] = %v, seed %v", i, got.Propagation.Loss[i], want.Propagation.Loss[i])
				}
			}
			if got.Propagation.MaxDelta != want.Propagation.MaxDelta {
				t.Errorf("MaxDelta = %v, seed %v", got.Propagation.MaxDelta, want.Propagation.MaxDelta)
			}

			if len(got.VertexBeliefs) != len(want.VertexBeliefs) {
				t.Fatalf("%d vertex beliefs, want %d", len(got.VertexBeliefs), len(want.VertexBeliefs))
			}
			for i := range want.VertexBeliefs {
				if got.VertexBeliefs[i] != want.VertexBeliefs[i] {
					t.Fatalf("VertexBeliefs[%d][%d] = %v, seed %v", i/corpus.NumTags, i%corpus.NumTags,
						got.VertexBeliefs[i], want.VertexBeliefs[i])
				}
			}

			if got.LabelledVertexFraction != want.LabelledVertexFraction ||
				got.PositiveVertexFraction != want.PositiveVertexFraction {
				t.Errorf("graph statistics (%v, %v) vs seed (%v, %v)",
					got.LabelledVertexFraction, got.PositiveVertexFraction,
					want.LabelledVertexFraction, want.PositiveVertexFraction)
			}
		})
	}
}
