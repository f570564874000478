package graphner

import (
	"sync"

	"repro/internal/analysis/assert"
	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/graph"
)

// beliefState is the flat propagation state of Algorithm 1 lines 6-7,
// indexed like a graph's vertices: the belief matrix X (NumVertices ×
// corpus.NumTags, row-major), each vertex's reference distribution and
// labelled flag, and the per-vertex CRF posterior sums and occurrence
// counts X is seeded from. TEST fills it once; the Streamer grows it
// batch by batch.
type beliefState struct {
	X        []float64
	xref     [][]float64
	labelled []bool
	postSum  []float64
	postCnt  []float64
}

// grow extends the state to n vertices; new rows start zeroed and
// unlabelled until seed fills them.
func (b *beliefState) grow(n int) {
	const Y = corpus.NumTags
	add := n - len(b.labelled)
	b.X = append(b.X, make([]float64, add*Y)...)
	b.xref = append(b.xref, make([][]float64, add)...)
	b.labelled = append(b.labelled, make([]bool, add)...)
	b.postSum = append(b.postSum, make([]float64, add*Y)...)
	b.postCnt = append(b.postCnt, make([]float64, add)...)
}

// accumulate folds flat per-sentence CRF posteriors into the per-vertex
// sums; posteriors[i] belongs to c.Sentences[i].
func (b *beliefState) accumulate(g *graph.Graph, c *corpus.Corpus, posteriors [][]float64) {
	const Y = corpus.NumTags
	for si, s := range c.Sentences {
		words := s.Words()
		ps := posteriors[si]
		for i := range words {
			vi := g.Lookup(corpus.Trigram(words, i))
			if vi < 0 {
				continue
			}
			row := vi * Y
			for y := 0; y < Y; y++ {
				b.postSum[row+y] += ps[i*Y+y]
			}
			b.postCnt[vi]++
		}
	}
}

// seed initializes the belief rows of vertices [from, n) with their
// average accumulated posterior (uniform if never observed) — Algorithm 1
// line 6 — and attaches the reference distribution of every such vertex
// whose 3-gram occurs in the labelled data.
func (b *beliefState) seed(g *graph.Graph, xref map[corpus.NGram][]float64, from int) {
	const Y = corpus.NumTags
	for v := from; v < len(b.labelled); v++ {
		row := v * Y
		if c := b.postCnt[v]; c > 0 {
			for y := 0; y < Y; y++ {
				b.X[row+y] = b.postSum[row+y] / c
			}
		} else {
			for y := 0; y < Y; y++ {
				b.X[row+y] = 1.0 / Y
			}
		}
		if d, ok := xref[g.Vertices[v]]; ok {
			b.xref[v] = d
			b.labelled[v] = true
		}
	}
}

// Combine writes the node potentials of Algorithm 1 line 8 for one
// sentence into out: position i gets α·P_s(i) + (1−α)·X(v), where v =
// verts[i] is the graph vertex of its 3-gram context, or keeps the raw
// posterior P_s(i) when verts[i] < 0. post and out are flat
// len(verts)×corpus.NumTags row-major matrices; beliefs is the flat
// NumVertices×corpus.NumTags propagated belief matrix. TEST, the Streamer
// and the serving Tagger all mix through this one kernel, so their
// potentials agree bit for bit.
//
//graphner:noalloc
//graphner:nonblocking
func Combine(post []float64, verts []int32, beliefs []float64, alpha float64, out []float64) {
	const Y = corpus.NumTags
	for i, v := range verts {
		row := i * Y
		if v < 0 {
			copy(out[row:row+Y], post[row:row+Y])
			continue
		}
		b := int(v) * Y
		for y := 0; y < Y; y++ {
			out[row+y] = alpha*post[row+y] + (1-alpha)*beliefs[b+y]
		}
	}
}

// relabel runs Algorithm 1 lines 8-9 — combine and tempered Viterbi —
// for the test sentences listed in idx (every sentence when idx is nil),
// writing tags[i] for each. posts[i] is sentence i's flat CRF posterior
// matrix and X the propagated beliefs over g. A sentence without tokens
// keeps nil tags.
func (s *System) relabel(dec *crf.PotentialDecoder, g *graph.Graph, X []float64, sents []*corpus.Sentence, posts [][]float64, idx []int, tags [][]corpus.Tag) error {
	n := len(sents)
	if idx != nil {
		n = len(idx)
	}
	var decodeErr error
	var mu sync.Mutex
	s.parallel(n, func(k int) {
		i := k
		if idx != nil {
			i = idx[k]
		}
		words := sents[i].Words()
		if len(words) == 0 {
			tags[i] = nil
			return
		}
		verts := make([]int32, len(words))
		for j := range words {
			verts[j] = int32(g.Lookup(corpus.Trigram(words, j)))
		}
		comb := make([]float64, len(words)*corpus.NumTags)
		Combine(posts[i], verts, X, s.cfg.Alpha, comb)
		if assert.Enabled {
			assert.NoNaN(comb, "combined potentials P'_s")
		}
		out := make([]corpus.Tag, len(words))
		if err := dec.DecodeFlat(comb, len(words), out); err != nil {
			mu.Lock()
			decodeErr = err
			mu.Unlock()
			return
		}
		tags[i] = out
	})
	return decodeErr
}
