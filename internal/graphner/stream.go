package graphner

import (
	"fmt"
	"sort"

	"repro/internal/analysis/assert"
	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/graph"
	"repro/internal/propagate"
)

// Streaming-mode propagation runs to a fixed point rather than the
// paper's fixed 2-3 sweeps: warm starts are only within the documented
// tolerance of a full run when both start from converged beliefs.
const (
	streamTolerance = 1e-8
	streamSweepCap  = 2048
)

// Streamer runs Algorithm 1's TEST procedure in streaming mode: after an
// initial transductive pass over train ∪ test, additional unlabelled
// batches are folded in with incremental graph maintenance
// (graph.Updater) and warm-start frontier propagation
// (propagate.RunWarmFlat), and only the test sentences whose vertices
// actually moved are re-decoded. The maintained graph is exactly the
// graph a from-scratch build over the accumulated union would produce
// (see graph.Updater); beliefs are within the warm-start tolerance of a
// fully converged from-scratch propagation.
type Streamer struct {
	sys  *System
	test *corpus.Corpus

	updater *graph.Updater
	dec     *crf.PotentialDecoder

	// Flat propagation state, indexed like the graph's vertices. The
	// posterior sums and counts span every corpus seen so far; a vertex
	// first observed in batch b is seeded with its average posterior,
	// exactly as Algorithm 1 line 6 seeds the batch build.
	beliefState

	// Cached flat per-test-sentence CRF posteriors (the P_s of line 8)
	// and the inverted index vertex → test sentences, for selective
	// re-decoding.
	testPost  [][]float64
	vertSents [][]int32

	tags     [][]corpus.Tag
	baseline [][]corpus.Tag
}

// StreamResult reports what one AddUnlabelled batch did.
type StreamResult struct {
	// Update summarizes the incremental graph maintenance.
	Update graph.UpdateResult
	// Warm summarizes the warm-start propagation.
	Warm propagate.WarmResult
	// Redecoded counts test sentences whose labels were recomputed
	// because a vertex they contain moved.
	Redecoded int
}

// NewStreamer runs the initial TEST pass — graph build over train ∪ test,
// posterior seeding, propagation to convergence, final decode — and
// retains the incremental-maintenance state for AddUnlabelled calls.
func NewStreamer(sys *System, test *corpus.Corpus) (*Streamer, error) {
	if len(test.Sentences) == 0 {
		return nil, fmt.Errorf("graphner: empty test corpus")
	}
	union := sys.union(test, nil)
	ins := sys.compileCorpus(union)
	dec, err := crf.NewPotentialDecoder(GoldTransitions(sys.train), sys.model.BIO, sys.cfg.TransitionPower)
	if err != nil {
		return nil, fmt.Errorf("graphner: streaming decode: %w", err)
	}
	upd, err := graph.NewUpdater(union, sys.builderConfig(union, ins))
	if err != nil {
		return nil, fmt.Errorf("graphner: streaming graph: %w", err)
	}
	st := &Streamer{
		sys:     sys,
		test:    test,
		updater: upd,
		dec:     dec,
	}
	g := upd.Graph()
	n := g.NumVertices()
	posteriors := sys.posteriorsOf(ins)
	st.grow(n)
	st.accumulate(g, union, posteriors)
	st.seed(g, sys.xref, 0)

	if _, err := propagate.RunFlat(g, st.X, st.xref, st.labelled, st.propConfig()); err != nil {
		return nil, fmt.Errorf("graphner: propagation: %w", err)
	}

	// Cache test posteriors and the vertex → test-sentence index; the
	// union corpus lists training sentences first.
	offset := len(sys.train.Sentences)
	st.testPost = posteriors[offset:]
	st.vertSents = make([][]int32, n)
	for i, sent := range test.Sentences {
		words := sent.Words()
		for j := range words {
			if vi := g.Lookup(corpus.Trigram(words, j)); vi >= 0 {
				l := st.vertSents[vi]
				if len(l) == 0 || l[len(l)-1] != int32(i) {
					st.vertSents[vi] = append(l, int32(i))
				}
			}
		}
	}

	st.tags = make([][]corpus.Tag, len(test.Sentences))
	if err := st.decode(nil); err != nil {
		return nil, err
	}
	st.baseline = make([][]corpus.Tag, len(test.Sentences))
	sys.parallel(len(test.Sentences), func(i int) {
		st.baseline[i] = sys.model.Decode(ins[offset+i])
	})
	return st, nil
}

// AddUnlabelled folds a batch of unlabelled sentences into the streaming
// state: CRF posteriors for the batch, incremental graph maintenance,
// warm-start propagation seeded from the dirty rows, and re-decoding of
// exactly the test sentences containing a touched vertex.
func (st *Streamer) AddUnlabelled(batch *corpus.Corpus) (StreamResult, error) {
	var res StreamResult
	if len(batch.Sentences) == 0 {
		return res, nil
	}
	sys := st.sys
	stripped := batch.StripLabels()
	ins := sys.compileCorpus(stripped)
	posteriors := sys.posteriorsOf(ins)

	g := st.updater.Graph()
	oldN := g.NumVertices()
	upd, err := st.updater.AddSentences(stripped.Sentences)
	if err != nil {
		return res, fmt.Errorf("graphner: incremental update: %w", err)
	}
	res.Update = upd
	n := g.NumVertices()

	// Grow the flat state for appended vertices and seed their rows.
	st.grow(n)
	st.vertSents = append(st.vertSents, make([][]int32, n-oldN)...)
	st.accumulate(g, stripped, posteriors)
	st.seed(g, sys.xref, oldN)
	if assert.Enabled {
		assert.NoNaN(st.X, "streaming beliefs after seeding")
	}

	warm, err := propagate.RunWarmFlat(g, st.X, st.xref, st.labelled, st.propConfig(), upd.DirtyRows)
	if err != nil {
		return res, fmt.Errorf("graphner: warm propagation: %w", err)
	}
	res.Warm = warm

	// Re-decode only test sentences containing a vertex whose belief
	// moved. New vertices cannot occur in test sentences (their 3-grams
	// were already vertices), so only pre-existing rows matter.
	redecode := make(map[int]bool)
	for v := 0; v < oldN; v++ {
		if !warm.Touched[v] {
			continue
		}
		for _, i := range st.vertSents[v] {
			redecode[int(i)] = true
		}
	}
	list := make([]int, 0, len(redecode))
	for i := range redecode {
		list = append(list, i)
	}
	sort.Ints(list)
	if err := st.decode(list); err != nil {
		return res, err
	}
	res.Redecoded = len(list)
	return res, nil
}

// propConfig is the converged-propagation configuration streaming mode
// uses for both the initial full run and warm restarts.
func (st *Streamer) propConfig() propagate.Config {
	return propagate.Config{
		Mu:         st.sys.cfg.Mu,
		Nu:         st.sys.cfg.Nu,
		Tolerance:  streamTolerance,
		Iterations: streamSweepCap,
		Workers:    st.sys.cfg.Workers,
		LossEvery:  st.sys.cfg.LossEvery,
	}
}

// decode recomputes the combined-potential Viterbi labels (Algorithm 1
// lines 8-9) for the given test sentence indices (all of them when nil).
func (st *Streamer) decode(sentences []int) error {
	if err := st.sys.relabel(st.dec, st.updater.Graph(), st.X, st.test.Sentences, st.testPost, sentences, st.tags); err != nil {
		return fmt.Errorf("graphner: streaming decode: %w", err)
	}
	return nil
}

// Tags returns the current GraphNER labels for the test sentences,
// reflecting every batch folded in so far. The returned slice is live —
// subsequent AddUnlabelled calls update it in place.
func (st *Streamer) Tags() [][]corpus.Tag { return st.tags }

// BaselineTags returns the base CRF's labels for the test sentences
// (unaffected by streaming updates).
func (st *Streamer) BaselineTags() [][]corpus.Tag { return st.baseline }

// Graph returns the incrementally maintained similarity graph.
func (st *Streamer) Graph() *graph.Graph { return st.updater.Graph() }

// Updater exposes the graph maintenance state (for equivalence checks
// and benchmarks).
func (st *Streamer) Updater() *graph.Updater { return st.updater }

// VertexBeliefs returns the flat propagated belief matrix, indexed like
// Graph().Vertices.
func (st *Streamer) VertexBeliefs() []float64 { return st.X }
