package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/tokenize"
)

// FeatureMode selects the vertex representation of the paper's Table III.
type FeatureMode int

const (
	// AllFeatures uses every feature the BANNER-style extractor produces
	// at the 3-gram's center position.
	AllFeatures FeatureMode = iota
	// LexicalFeatures uses only the lemmas of the words in a window of
	// length 5 around the center position.
	LexicalFeatures
	// MIFeatures uses the subset of AllFeatures whose mutual information
	// with the tagger-assigned BIO tag exceeds MIThreshold.
	MIFeatures
)

func (m FeatureMode) String() string {
	switch m {
	case LexicalFeatures:
		return "Lexical-features"
	case MIFeatures:
		return "MI-features"
	}
	return "All-features"
}

// Stats is the frozen corpus-level side of the vertex representation: the
// feature alphabet, the per-feature and grand co-occurrence totals, and (in
// MIFeatures mode) the selected feature set. PPMI is a corpus-level
// statistic — pmi(v,f) = log(c(v,f)·N / (c(v)·c(f))) — so a vertex's vector
// is only a local function of its own counts once N and c(f) are pinned.
// Freezing the snapshot taken from a base corpus is what makes incremental
// maintenance tractable: under frozen statistics, adding sentences changes
// exactly the vectors of the 3-grams that occur in them. Features unseen in
// the base corpus are outside the frozen feature space and are ignored,
// mirroring frozen-vocabulary streaming retrieval systems.
type Stats struct {
	alphabet  *features.Alphabet
	featTotal []float64
	grand     float64
	miKeep    map[string]bool
	mode      FeatureMode
}

// NumFeatures returns the size of the frozen feature space.
func (s *Stats) NumFeatures() int { return s.alphabet.Len() }

// Grand returns the grand co-occurrence total N of the snapshot.
func (s *Stats) Grand() float64 { return s.grand }

// BuilderConfig controls graph construction.
type BuilderConfig struct {
	// K is the out-degree of the k-NN graph (default 10, paper's default).
	K int
	// Mode selects the vertex representation.
	Mode FeatureMode
	// MIThreshold filters features in MIFeatures mode (e.g. 0.005, 0.01).
	MIThreshold float64
	// Tags supplies per-sentence BIO tags, parallel to the corpus
	// sentences, for MIFeatures mode. Typically the base CRF's decoded
	// output (train gold tags also work).
	Tags [][]corpus.Tag
	// Extractor provides the feature set for AllFeatures/MIFeatures
	// (default: plain BANNER-style extractor).
	Extractor *features.Extractor
	// MaxDF drops features occurring at more than this many vertices from
	// candidate generation (they still contribute to cosine scores of
	// generated candidates). 0 means no cap. High-document-frequency
	// features generate enormous candidate lists without discriminating;
	// capping them prunes the exact search with negligible recall loss.
	MaxDF int
	// Workers bounds the parallelism of the k-NN search (default
	// GOMAXPROCS).
	Workers int
	// Shards partitions the vertex set for postings-partitioned k-NN
	// construction and per-shard propagation layout (see shard.go).
	// 0 or 1 selects the single-index path; the assembled graph is
	// bit-identical for every value.
	Shards int
	// Stats, when non-nil, freezes the corpus-level statistics of the PPMI
	// transform to a snapshot taken from an earlier corpus: the feature
	// alphabet stops growing (features unseen in the snapshot corpus are
	// ignored), featTotal and the grand total are not re-accumulated, and
	// MIFeatures mode reuses the snapshot's selected features (so Tags is
	// not required). This is the contract the incremental Updater
	// maintains: Build(union, cfg with the base snapshot) is exactly the
	// graph an Updater seeded on the base corpus converges to after
	// streaming in the remainder.
	Stats *Stats
	// GraphMode selects the nearest-neighbour search algorithm:
	// ModeExact (the default) runs the exact inverted-index merge;
	// ModeLSH runs banded random-hyperplane locality-sensitive hashing
	// with exact cosine re-ranking — the remedy for the construction
	// scalability the paper's conclusion flags as an open problem.
	// Recall is high but not perfect; see Recall, BENCH_lsh.json, and
	// the graph package tests.
	GraphMode GraphMode
	// LSH tunes the approximate search when GraphMode is ModeLSH.
	LSH LSHConfig
}

// Build constructs the 3-gram similarity graph over the corpus (typically
// the union of labelled and unlabelled data, per Algorithm 1). With
// cfg.Shards > 1 the k-NN search runs the postings-partitioned merge of
// shard.go; the assembled graph is bit-identical either way.
func Build(corp *corpus.Corpus, cfg BuilderConfig) (*Graph, error) {
	g, _, err := buildWithShards(corp, cfg)
	return g, err
}

// sparseVec is a sorted-by-feature-id sparse vector with cached norm.
type sparseVec struct {
	ids  []int32
	vals []float64
	norm float64
}

// vertexVectors aggregates per-occurrence feature counts per 3-gram and
// converts them to PPMI vectors. It also returns the raw counts, per-vertex
// totals, and the corpus statistics so the incremental Updater can retain
// them; Build discards those extras.
func vertexVectors(corp *corpus.Corpus, cfg BuilderConfig) ([]sparseVec, []corpus.NGram, []map[int32]float64, []float64, *Stats) {
	verts := corp.UniqueTrigrams()
	index := make(map[corpus.NGram]int, len(verts))
	for i, v := range verts {
		index[v] = i
	}
	counts, vertTotal, st := countFeatures(corp, cfg, index, len(verts))
	vecs := make([]sparseVec, len(verts))
	if st.grand == 0 {
		// Possible in MIFeatures mode when the threshold excludes every
		// feature, or under a degenerate frozen snapshot: the graph
		// degenerates to isolated vertices.
		return vecs, verts, counts, vertTotal, st
	}
	for vi := range verts {
		vecs[vi] = ppmiVec(counts[vi], vertTotal[vi], st)
	}
	return vecs, verts, counts, vertTotal, st
}

// featureEnumerator returns the per-position feature-string enumeration of
// the configured mode. Build's counting pass and the incremental Updater
// share it so both observe identical feature strings in identical order.
// The returned closure reuses an internal buffer and is not safe for
// concurrent use.
func featureEnumerator(cfg BuilderConfig, miKeep map[string]bool) func(words []string, i int, fn func(string)) {
	if cfg.Mode == LexicalFeatures {
		return func(words []string, i int, fn func(string)) {
			for d := -2; d <= 2; d++ {
				j := i + d
				if j < 0 || j >= len(words) {
					continue
				}
				fn(fmt.Sprintf("lem%+d=%s", d, tokenize.Lemma(words[j])))
			}
		}
	}
	featBuf := make([]string, 0, 64)
	return func(words []string, i int, fn func(string)) {
		featBuf = cfg.Extractor.AppendPosition(featBuf[:0], words, i)
		for _, f := range featBuf {
			if miKeep != nil && !miKeep[f] {
				continue
			}
			fn(f)
		}
	}
}

// countFeatures runs the co-occurrence counting pass. With cfg.Stats nil it
// accumulates fresh statistics and freezes them into the returned snapshot;
// with cfg.Stats set it counts under the frozen snapshot — the alphabet,
// featTotal, and grand are left untouched and features outside the frozen
// space are skipped (they contribute neither to counts nor to vertTotal).
func countFeatures(corp *corpus.Corpus, cfg BuilderConfig, index map[corpus.NGram]int, nVerts int) ([]map[int32]float64, []float64, *Stats) {
	counts := make([]map[int32]float64, nVerts)
	for i := range counts {
		counts[i] = make(map[int32]float64, 8)
	}
	vertTotal := make([]float64, nVerts)
	st := cfg.Stats
	fresh := st == nil
	if fresh {
		st = &Stats{alphabet: features.NewAlphabet(), mode: cfg.Mode}
		if cfg.Mode == MIFeatures {
			st.miKeep = miSelect(corp, cfg)
		}
	}
	enum := featureEnumerator(cfg, st.miKeep)
	addFeat := func(vi int, f string) {
		id := st.alphabet.Lookup(f)
		if id < 0 {
			return // outside the frozen feature space
		}
		counts[vi][int32(id)]++
		if fresh {
			for id >= len(st.featTotal) {
				st.featTotal = append(st.featTotal, 0)
			}
			st.featTotal[id]++
			st.grand++
		}
		vertTotal[vi]++
	}
	for _, s := range corp.Sentences {
		words := s.Words()
		for i := range words {
			vi := index[corpus.Trigram(words, i)]
			enum(words, i, func(f string) { addFeat(vi, f) })
		}
	}
	if fresh {
		st.alphabet.Freeze()
	}
	return counts, vertTotal, st
}

// ppmiVec converts one vertex's raw co-occurrence counts into its PPMI
// vector under the corpus statistics st:
// pmi = log(c(v,f)·N / (c(v)·c(f))), clamped at 0. Build's batch transform
// and the Updater's per-vertex recompute share this function, which is what
// makes incremental rows bit-identical to from-scratch ones.
func ppmiVec(m map[int32]float64, total float64, st *Stats) sparseVec {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	vals := make([]float64, 0, len(ids))
	keep := ids[:0]
	var norm float64
	for _, id := range ids {
		pmi := math.Log(m[id] * st.grand / (total * st.featTotal[id]))
		if pmi <= 0 {
			continue
		}
		keep = append(keep, id)
		vals = append(vals, pmi)
		norm += pmi * pmi
	}
	return sparseVec{ids: keep, vals: vals, norm: math.Sqrt(norm)}
}

// MIFeatureCount reports how many features pass the MI threshold of the
// configuration — the paper quotes 85 features for MI > 0.005 and 40 for
// MI > 0.01 on BC2GM. Useful for calibrating thresholds on new corpora.
func MIFeatureCount(corp *corpus.Corpus, cfg BuilderConfig) (int, error) {
	if cfg.Tags == nil || len(cfg.Tags) != len(corp.Sentences) {
		return 0, fmt.Errorf("graph: MIFeatureCount requires Tags parallel to sentences")
	}
	if cfg.Extractor == nil {
		cfg.Extractor = features.NewExtractor(nil)
	}
	return len(miSelect(corp, cfg)), nil
}

// miSelect computes the mutual information between each feature's presence
// and the BIO tag over all token positions, returning the features above
// the threshold.
func miSelect(corp *corpus.Corpus, cfg BuilderConfig) map[string]bool {
	// Rough pre-size: BANNER-style extraction yields tens of distinct
	// features per token, heavily shared across tokens.
	nTok := 0
	for _, s := range corp.Sentences {
		nTok += len(s.Tokens)
	}
	featTag := make(map[string]*[corpus.NumTags]float64, 8*nTok)
	var tagCount [corpus.NumTags]float64
	var n float64
	featBuf := make([]string, 0, 64)
	for si, s := range corp.Sentences {
		words := s.Words()
		tags := cfg.Tags[si]
		for i := range words {
			if i >= len(tags) {
				break
			}
			t := tags[i]
			tagCount[t]++
			n++
			featBuf = cfg.Extractor.AppendPosition(featBuf[:0], words, i)
			for _, f := range featBuf {
				c := featTag[f]
				if c == nil {
					c = new([corpus.NumTags]float64)
					featTag[f] = c
				}
				c[t]++
			}
		}
	}
	keep := make(map[string]bool, 128)
	if n == 0 {
		return keep
	}
	for f, c := range featTag {
		var cf float64
		for _, v := range c {
			cf += v
		}
		var mi float64
		for t := 0; t < corpus.NumTags; t++ {
			pt := tagCount[t] / n
			if pt == 0 {
				continue
			}
			// Present half.
			if c[t] > 0 {
				p := c[t] / n
				mi += p * math.Log2(p/((cf/n)*pt))
			}
			// Absent half.
			if abs := tagCount[t] - c[t]; abs > 0 && n-cf > 0 {
				p := abs / n
				mi += p * math.Log2(p/(((n-cf)/n)*pt))
			}
		}
		if mi > cfg.MIThreshold {
			keep[f] = true
		}
	}
	return keep
}

// posting is one inverted-index entry: a candidate vertex together with its
// stored value for the feature, so the scoring loop accumulates partial dot
// products by a straight postings merge instead of binary-searching back
// into the candidate's vector per (feature, candidate) pair.
type posting struct {
	v   int32
	val float64
}

// knn finds, for every vertex, its K most cosine-similar vertices, using an
// inverted index for candidate generation and exact sparse dot products for
// scoring. The search over query vertices runs in parallel.
//
// Each vertex pair is scored once. Query q accumulates dot products only
// against candidates c > q — every postings list is entered past q — and
// the cosine is folded into both row q and row c. The score from either
// end would be bit-identical: both sum the same products q_f·c_f over the
// shared uncapped features in ascending feature-id order, and
// |q|·|c| = |c|·|q| exactly. Rows are kept in per-worker top-K buffers and
// merged per vertex after the scan; insertTopKEdge's total order (weight
// descending, id ascending) makes the result independent of which worker
// saw which pair, and of the order it saw them in.
//
// The skip rules are the per-query ones: a zero-norm query has a nil row,
// zero-norm candidates are dropped, a vertex is never its own neighbour,
// and the MaxDF cap counts a feature's full postings length.
//
// First-touch tracking uses a per-worker epoch array rather than a
// scores[cand] == 0 sentinel: with mixed-sign vector values a partial dot
// product can transiently cancel to exactly zero, which would re-append the
// candidate and corrupt the top-K pass (PPMI values are strictly positive,
// but knn is also exercised directly with arbitrary vectors).
func knn(vecs []sparseVec, cfg BuilderConfig) [][]Edge {
	n := len(vecs)
	postings := buildPostings(vecs)
	// Dense norms keep the per-candidate lookup cache-resident.
	norms := make([]float64, n)
	for i := range vecs {
		norms[i] = vecs[i].norm
	}
	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	rows := make([]topKRows, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows[w] = newTopKRows(n, cfg.K)
			r := &rows[w]
			acc := make([]accum, n)
			epoch := int32(0)
			touched := make([]int32, 0, 1024)
			for vi := w; vi < n; vi += workers {
				q := &vecs[vi]
				if q.norm == 0 {
					continue
				}
				epoch++
				touched = scoreAbove(q, int32(vi), postings, cfg.MaxDF, acc, epoch, touched[:0])
				// Stale scores need no reset pass: the next query's epoch
				// invalidates them wholesale.
				for _, c := range touched {
					cn := norms[c]
					if cn == 0 {
						continue
					}
					wgt := acc[c].score / (q.norm * cn)
					r.fold(int32(vi), Edge{To: c, Weight: wgt})
					r.fold(c, Edge{To: int32(vi), Weight: wgt})
				}
			}
		}(w)
	}
	wg.Wait()

	// Merge: fold every other worker's row into worker 0's, which then
	// backs the output. Each merge worker owns a stride of vertices.
	out := make([][]Edge, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := &rows[0]
			for v := w; v < n; v += workers {
				if norms[v] == 0 {
					continue
				}
				for s := 1; s < workers; s++ {
					for _, e := range rows[s].row(v) {
						dst.fold(int32(v), e)
					}
				}
				out[v] = dst.row(v)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// buildPostings inverts the vectors into per-feature postings lists
// carrying (vertex, value), each in ascending vertex id. Two passes — count
// postings per feature, then fill one flat backing — avoid per-list append
// growth.
func buildPostings(vecs []sparseVec) [][]posting {
	nf := 0
	for i := range vecs {
		for _, id := range vecs[i].ids {
			if int(id) >= nf {
				nf = int(id) + 1
			}
		}
	}
	counts := make([]int32, nf)
	total := 0
	for i := range vecs {
		for _, id := range vecs[i].ids {
			counts[id]++
		}
		total += len(vecs[i].ids)
	}
	flat := make([]posting, total)
	postings := make([][]posting, nf)
	pos := 0
	for f := range postings {
		postings[f] = flat[pos : pos : pos+int(counts[f])]
		pos += int(counts[f])
	}
	for vi := range vecs {
		v32 := int32(vi)
		for k, id := range vecs[vi].ids {
			postings[id] = append(postings[id], posting{v: v32, val: vecs[vi].vals[k]})
		}
	}
	return postings
}

// topKRows is one worker's top-K buffers for every vertex: row v occupies
// edges[v*k : v*k+lens[v]], descending under edgeLess.
type topKRows struct {
	k     int
	edges []Edge
	lens  []int32
	// kth[v] is the weight of row v's K-th edge once the row is full and
	// -Inf before. A candidate strictly below it cannot enter the row, so
	// fold rejects it without touching the row; ties, NaN weights and rows
	// that are not yet full all go through insertTopKEdge.
	kth []float64
}

func newTopKRows(n, k int) topKRows {
	r := topKRows{k: k, edges: make([]Edge, n*k), lens: make([]int32, n), kth: make([]float64, n)}
	for v := range r.kth {
		r.kth[v] = math.Inf(-1)
	}
	return r
}

// row returns vertex v's current top-K row, capped at K so that an append
// by a later owner cannot spill into row v+1.
func (r *topKRows) row(v int) []Edge {
	base := v * r.k
	return r.edges[base : base+int(r.lens[v]) : base+r.k]
}

// fold offers edge e to row v.
func (r *topKRows) fold(v int32, e Edge) {
	if e.Weight < r.kth[v] {
		return
	}
	row := insertTopKEdge(r.row(int(v)), e, r.k, nil)
	r.lens[v] = int32(len(row))
	if len(row) == r.k {
		r.kth[v] = row[r.k-1].Weight
	}
}

// accum is one candidate's slot in knn's per-worker score scratch: the
// partial dot product and the epoch at which it became valid, side by side
// so the first-touch check and the accumulation share a cache line.
type accum struct {
	score float64
	epoch int32
}

// scoreAbove is scoreInto restricted to candidates with ids above self:
// each postings list is entered past self's own entry (binary search; the
// lists are sorted by vertex id), so the half-pair knn scores every pair
// from its lower end only. The MaxDF cap still counts the full list.
func scoreAbove(q *sparseVec, self int32, postings [][]posting, maxDF int, acc []accum, epoch int32, touched []int32) []int32 {
	for k, id := range q.ids {
		pl := postings[id]
		if maxDF > 0 && len(pl) > maxDF {
			continue
		}
		qv := q.vals[k]
		for _, p := range pl[postingPos(pl, self+1):] {
			a := &acc[p.v]
			if a.epoch != epoch {
				a.epoch = epoch
				a.score = 0
				touched = append(touched, p.v)
			}
			// Sparse partial dot: accumulate q_f · c_f.
			a.score += qv * p.val
		}
	}
	return touched
}

// scoreInto accumulates the sparse partial dot products of query vector q
// against every candidate sharing an (uncapped) feature, via a straight
// postings merge. seen/scores are epoch-tracked per-worker scratch; the ids
// of the candidates touched this epoch are appended to touched and
// returned. The incremental Updater's dirty-row rescans use it. Its scores
// are bit-identical to the half-pair knn's (scoreAbove from the pair's
// lower end): both sum the products over the shared uncapped features in
// ascending feature-id order.
func scoreInto(q *sparseVec, self int32, postings [][]posting, maxDF int, scores []float64, seen []int32, epoch int32, touched []int32) []int32 {
	for k, id := range q.ids {
		pl := postings[id]
		if maxDF > 0 && len(pl) > maxDF {
			continue
		}
		qv := q.vals[k]
		for _, p := range pl {
			if p.v == self {
				continue
			}
			if seen[p.v] != epoch {
				seen[p.v] = epoch
				scores[p.v] = 0
				touched = append(touched, p.v)
			}
			// Sparse partial dot: accumulate q_f · c_f.
			scores[p.v] += qv * p.val
		}
	}
	return touched
}

// valueOf returns the vector's value for a feature id (binary search).
func valueOf(v *sparseVec, id int32) float64 {
	lo, hi := 0, len(v.ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.ids) && v.ids[lo] == id {
		return v.vals[lo]
	}
	return 0
}

// topK selects the K best candidates by cosine = score/(|q||c|), keeping a
// small descending-sorted buffer with ordered insertion (O(C·K) with K=10).
// rank, when non-nil, substitutes a canonical vertex ordering for the raw
// ids in the tie-break: the incremental Updater appends vertices in arrival
// order but must break exact-weight ties the way a from-scratch Build over
// the sorted union corpus would, so it passes the sorted-NGram rank of each
// vertex. A nil rank ties on the ids themselves (Build's vertex order is
// already the canonical one).
func topK(scores []float64, touched []int32, qnorm float64, vecs []sparseVec, k int, rank []int32) []Edge {
	edges := make([]Edge, 0, k)
	for _, c := range touched {
		cn := vecs[c].norm
		if cn == 0 {
			continue
		}
		edges = insertTopKEdge(edges, Edge{To: c, Weight: scores[c] / (qnorm * cn)}, k, rank)
	}
	return edges
}

// edgeLess is the total order the top-K selection sorts by: cosine weight
// descending, then canonical vertex order ascending on exact-weight ties.
// Because no two candidates of one query share a To id, the order is
// strict and total — which makes insertTopKEdge insertion-order
// independent, the property the sharded merge relies on to fold per-shard
// candidate passes into one buffer without changing bits.
func edgeLess(a, b Edge, rank []int32) bool {
	if a.Weight != b.Weight { // lint:checked exact tie-break keeps candidate order deterministic
		return a.Weight > b.Weight
	}
	if rank != nil {
		return rank[a.To] < rank[b.To]
	}
	return a.To < b.To
}

// insertTopKEdge folds one candidate into a descending-sorted top-K
// buffer by ordered insertion (O(K) with K=10), returning the possibly
// regrown slice. The exact knn's row buffers, the incremental Updater's
// topK, the sharded merge and the LSH re-rank all share this fold.
func insertTopKEdge(edges []Edge, e Edge, k int, rank []int32) []Edge {
	if len(edges) == k {
		if !edgeLess(e, edges[k-1], rank) {
			return edges
		}
		edges = edges[:k-1]
	}
	i := sort.Search(len(edges), func(j int) bool { return edgeLess(e, edges[j], rank) })
	edges = append(edges, Edge{})
	copy(edges[i+1:], edges[i:])
	edges[i] = e
	return edges
}
