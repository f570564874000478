// Package crf implements the linear-chain conditional random fields that
// serve as GraphNER's base models (the paper's stand-ins for BANNER and
// BANNER-ChemDNER). It supports first- and second-order chains — the
// second order realized by expanding the state space to tag pairs — with
// conditional log-likelihood training via L-BFGS, log-space
// forward–backward for per-token posterior marginals, extraction of
// tag-level transition probabilities, and Viterbi decoding both over model
// scores and over arbitrary externally supplied node potentials (the
// re-decoding step of GraphNER's Algorithm 1, line 9).
package crf

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/corpus"
)

// Order selects the Markov order of the chain.
type Order int

// Supported chain orders.
const (
	Order1 Order = 1 // states are BIO tags
	Order2 Order = 2 // states are (previous tag, current tag) pairs
)

// Instance is one compiled training or test sentence: per-position active
// observation feature ids, plus gold tags (nil for unlabelled data).
type Instance struct {
	Features [][]int32
	Tags     []corpus.Tag
}

// Len returns the number of positions.
func (in *Instance) Len() int { return len(in.Features) }

// Model is a trained linear-chain CRF.
type Model struct {
	Order       Order
	NumFeatures int
	// S is the number of expanded states: 3 for order 1, 9 for order 2.
	S int
	// W holds emission weights indexed by featureID*S + state.
	W []float64
	// T holds transition weights indexed by prevState*S + state.
	T []float64
	// Start holds start-state weights.
	Start []float64
	// BIO, when true, forbids decoding transitions O→I and start-I.
	BIO bool
}

var negInf = math.Inf(-1)

// numStates returns the expanded state count for an order.
func numStates(o Order) int {
	if o == Order2 {
		return corpus.NumTags * corpus.NumTags
	}
	return corpus.NumTags
}

// stateTag maps an expanded state to its current BIO tag.
func (m *Model) stateTag(s int) corpus.Tag {
	if m.Order == Order2 {
		return corpus.Tag(s % corpus.NumTags)
	}
	return corpus.Tag(s)
}

// statePrevTag maps an order-2 expanded state to its previous BIO tag.
func statePrevTag(s int) corpus.Tag { return corpus.Tag(s / corpus.NumTags) }

// transitionOK reports whether prev→cur is structurally permitted.
// For order 2 the pair chaining constraint applies: (a,b) → (b,c).
// With BIO enabled, the tag transition O→I is also forbidden.
func (m *Model) transitionOK(prev, cur int) bool {
	if m.Order == Order2 {
		if corpus.Tag(prev%corpus.NumTags) != statePrevTag(cur) {
			return false
		}
	}
	if m.BIO {
		pt, ct := m.stateTag(prev), m.stateTag(cur)
		if pt == corpus.O && ct == corpus.I {
			return false
		}
	}
	return true
}

// startOK reports whether s may begin a sequence. The first tag cannot be
// I under the BIO constraint; for order 2 the embedded previous tag of a
// start state must be O (virtual out-of-sentence tag).
func (m *Model) startOK(s int) bool {
	if m.Order == Order2 && statePrevTag(s) != corpus.O {
		return false
	}
	if m.BIO && m.stateTag(s) == corpus.I {
		return false
	}
	return true
}

// stateFor maps a (prevTag, curTag) pair to the expanded state id.
func (m *Model) stateFor(prev, cur corpus.Tag) int {
	if m.Order == Order2 {
		return int(prev)*corpus.NumTags + int(cur)
	}
	return int(cur)
}

// emissionScores fills scores[s] with the sum of emission weights of the
// active features at one position. scores must have length m.S.
func (m *Model) emissionScores(feats []int32, scores []float64) {
	for s := range scores {
		scores[s] = 0
	}
	S := m.S
	for _, f := range feats {
		if f < 0 {
			continue
		}
		base := int(f) * S
		for s := 0; s < S; s++ {
			scores[s] += m.W[base+s]
		}
	}
}

// latticeScratch pools the per-sentence score lattices of inference and
// training: capacity for three n×S float matrices (emission plus
// forward/backward or Viterbi), two length-S staging vectors, and one n×S
// int32 backpointer matrix. Per-sentence inference borrows one from
// latticePool instead of allocating O(n·S) matrices per call.
type latticeScratch struct {
	flat  []float64
	rows  [][]float64
	ints  []int32
	irows [][]int32
}

var latticePool = sync.Pool{New: func() any { return new(latticeScratch) }}

// acquireScratch returns a scratch resized for n positions × S states.
//
//graphner:noalloc warm calls recycle pooled backing; growth is justified below
//graphner:nonblocking
func acquireScratch(n, S int) *latticeScratch {
	sc := latticePool.Get().(*latticeScratch)
	need := 3*n*S + 2*S
	if cap(sc.flat) < need {
		sc.flat = make([]float64, need) // lint:checked noalloc: capacity-guarded growth on first sight of a longer sentence; TestPosteriorsAllocGuard pins warm calls at zero
	}
	sc.flat = sc.flat[:need]
	if cap(sc.rows) < 3*n {
		sc.rows = make([][]float64, 3*n) // lint:checked noalloc: same capacity-guarded growth as flat above
	}
	sc.rows = sc.rows[:3*n]
	return sc
}

func (sc *latticeScratch) release() { latticePool.Put(sc) }

// mat returns the idx-th (0..2) n×S matrix view over the scratch backing.
// Contents are stale; callers overwrite (emission) or negInf-fill (DP).
func (sc *latticeScratch) mat(idx, n, S int) [][]float64 {
	rows := sc.rows[idx*n : (idx+1)*n]
	base := idx * n * S
	for i := range rows {
		rows[i] = sc.flat[base+i*S : base+(i+1)*S : base+(i+1)*S]
	}
	return rows
}

// bufs returns the two length-S staging vectors following the matrices.
func (sc *latticeScratch) bufs(n, S int) ([]float64, []float64) {
	b := sc.flat[3*n*S:]
	return b[:S:S], b[S : 2*S : 2*S]
}

// intMat returns a zeroed n×S int32 matrix (Viterbi backpointers).
//
//graphner:noalloc warm calls reuse the pooled backing; growth is justified below
//graphner:nonblocking
func (sc *latticeScratch) intMat(n, S int) [][]int32 {
	need := n * S
	if cap(sc.ints) < need {
		sc.ints = make([]int32, need) // lint:checked noalloc: capacity-guarded growth, amortized across pooled reuse; TestDecodeAllocGuard pins warm decodes at zero
	} else {
		sc.ints = sc.ints[:need]
		clear(sc.ints)
	}
	if cap(sc.irows) < n {
		sc.irows = make([][]int32, n) // lint:checked noalloc: same capacity-guarded growth as ints above
	}
	rows := sc.irows[:n]
	for i := range rows {
		rows[i] = sc.ints[i*S : (i+1)*S : (i+1)*S]
	}
	return rows
}

// fillNegInf resets a DP matrix to the log-space additive identity.
func fillNegInf(m [][]float64) {
	for _, row := range m {
		for i := range row {
			row[i] = negInf
		}
	}
}

// latticeInto fills emit (n rows of length S) with per-position emission
// scores for the instance.
func (m *Model) latticeInto(in *Instance, emit [][]float64) {
	for i := range emit {
		m.emissionScores(in.Features[i], emit[i])
	}
}

// lattice computes per-position emission scores for an instance,
// allocating the matrix (compatibility path; hot paths use latticeInto
// over pooled storage).
func (m *Model) lattice(in *Instance) [][]float64 {
	n := in.Len()
	flat := make([]float64, n*m.S)
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = flat[i*m.S : (i+1)*m.S]
	}
	m.latticeInto(in, out)
	return out
}

// logSumExp returns log Σ exp(x_i) guarding against -Inf inputs.
func logSumExp(xs []float64) float64 {
	max := negInf
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return negInf
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	// lint:checked sum includes exp(max-max) = 1, so Log(sum) >= 0 and finite
	return max + math.Log(sum)
}

// forwardBackward runs log-space forward-backward on the emission lattice.
// It returns alpha, beta ([n][S] log values) and logZ (compatibility path;
// hot paths use forwardBackwardInto over pooled storage).
func (m *Model) forwardBackward(emit [][]float64) (alpha, beta [][]float64, logZ float64) {
	n := len(emit)
	S := m.S
	alpha = logMatrix(n, S)
	beta = logMatrix(n, S)
	logZ = m.forwardBackwardInto(emit, alpha, beta, make([]float64, S))
	return alpha, beta, logZ
}

// forwardBackwardInto runs log-space forward-backward on the emission
// lattice, overwriting alpha and beta (any prior contents, including pool
// residue, are reset to -Inf first) and staging logSumExp terms in buf
// (length S). It returns logZ.
func (m *Model) forwardBackwardInto(emit, alpha, beta [][]float64, buf []float64) (logZ float64) {
	n := len(emit)
	S := m.S
	fillNegInf(alpha)
	fillNegInf(beta)

	for s := 0; s < S; s++ {
		if m.startOK(s) {
			alpha[0][s] = m.Start[s] + emit[0][s]
		}
	}
	for i := 1; i < n; i++ {
		for cur := 0; cur < S; cur++ {
			k := 0
			for prev := 0; prev < S; prev++ {
				if !m.transitionOK(prev, cur) || math.IsInf(alpha[i-1][prev], -1) {
					continue
				}
				buf[k] = alpha[i-1][prev] + m.T[prev*S+cur]
				k++
			}
			if k > 0 {
				alpha[i][cur] = logSumExp(buf[:k]) + emit[i][cur]
			}
		}
	}
	for s := 0; s < S; s++ {
		beta[n-1][s] = 0
	}
	for i := n - 2; i >= 0; i-- {
		for prev := 0; prev < S; prev++ {
			k := 0
			for cur := 0; cur < S; cur++ {
				if !m.transitionOK(prev, cur) || math.IsInf(beta[i+1][cur], -1) {
					continue
				}
				buf[k] = m.T[prev*S+cur] + emit[i+1][cur] + beta[i+1][cur]
				k++
			}
			if k > 0 {
				beta[i][prev] = logSumExp(buf[:k])
			}
		}
	}
	return logSumExp(alpha[n-1])
}

func logMatrix(n, s int) [][]float64 {
	flat := make([]float64, n*s)
	for i := range flat {
		flat[i] = negInf
	}
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = flat[i*s : (i+1)*s]
	}
	return out
}

// Posteriors returns the per-position marginal distribution over BIO tags,
// P(t_i = y | x), for the instance. Each row sums to 1. The returned rows
// share one flat backing array; the DP lattices come from the pool.
func (m *Model) Posteriors(in *Instance) [][]float64 {
	n := in.Len()
	if n == 0 {
		return nil
	}
	sc := acquireScratch(n, m.S)
	emit := sc.mat(0, n, m.S)
	alpha := sc.mat(1, n, m.S)
	beta := sc.mat(2, n, m.S)
	buf, _ := sc.bufs(n, m.S)
	m.latticeInto(in, emit)
	logZ := m.forwardBackwardInto(emit, alpha, beta, buf)
	out := make([][]float64, n)
	backing := make([]float64, n*corpus.NumTags)
	for i := 0; i < n; i++ {
		row := backing[i*corpus.NumTags : (i+1)*corpus.NumTags : (i+1)*corpus.NumTags]
		for s := 0; s < m.S; s++ {
			lp := alpha[i][s] + beta[i][s] - logZ
			if !math.IsInf(lp, -1) {
				row[m.stateTag(s)] += math.Exp(lp)
			}
		}
		normalize(row)
		out[i] = row
	}
	sc.release()
	return out
}

// normalize scales row to sum to 1; a zero row becomes uniform.
func normalize(row []float64) {
	if len(row) == 0 {
		return
	}
	var sum float64
	for _, v := range row {
		sum += v
	}
	if sum <= 0 || math.IsNaN(sum) {
		u := 1 / float64(len(row))
		for i := range row {
			row[i] = u
		}
		return
	}
	for i := range row {
		row[i] /= sum
	}
}

// LogLikelihood returns the conditional log-likelihood log p(tags|x) of a
// labelled instance under the model.
func (m *Model) LogLikelihood(in *Instance) float64 {
	if in.Len() == 0 {
		return 0
	}
	if in.Tags == nil {
		panic("crf: LogLikelihood on unlabelled instance")
	}
	n := in.Len()
	sc := acquireScratch(n, m.S)
	emit := sc.mat(0, n, m.S)
	alpha := sc.mat(1, n, m.S)
	beta := sc.mat(2, n, m.S)
	buf, _ := sc.bufs(n, m.S)
	m.latticeInto(in, emit)
	logZ := m.forwardBackwardInto(emit, alpha, beta, buf)
	ll := m.pathScore(in, emit) - logZ
	sc.release()
	return ll
}

// pathScore returns the unnormalized log score of the gold path.
func (m *Model) pathScore(in *Instance, emit [][]float64) float64 {
	prevTag := corpus.O
	score := 0.0
	for i := 0; i < in.Len(); i++ {
		s := m.stateFor(prevTag, in.Tags[i])
		if i == 0 {
			score += m.Start[s]
		} else {
			ps := m.stateFor(tagBefore(in, i-1), in.Tags[i-1])
			score += m.T[ps*m.S+s]
		}
		score += emit[i][s]
		prevTag = in.Tags[i]
	}
	return score
}

// tagBefore returns the tag preceding position i (O before the sentence).
func tagBefore(in *Instance, i int) corpus.Tag {
	if i <= 0 {
		return corpus.O
	}
	return in.Tags[i-1]
}

// TagTransitions returns the tag-level transition probability matrix
// P(t_i = c | t_{i-1} = p), obtained by marginalizing the learned expanded
// transition weights through a softmax per source tag. This is the T_s of
// Algorithm 1 used in GraphNER's final Viterbi re-decoding.
func (m *Model) TagTransitions() [][]float64 {
	out := make([][]float64, corpus.NumTags)
	for p := 0; p < corpus.NumTags; p++ {
		row := make([]float64, corpus.NumTags)
		for c := 0; c < corpus.NumTags; c++ {
			// Collect all expanded transitions whose tags are p→c and
			// log-sum them.
			var vals []float64
			for ps := 0; ps < m.S; ps++ {
				if m.stateTag(ps) != corpus.Tag(p) {
					continue
				}
				for cs := 0; cs < m.S; cs++ {
					if m.stateTag(cs) != corpus.Tag(c) || !m.transitionOK(ps, cs) {
						continue
					}
					vals = append(vals, m.T[ps*m.S+cs])
				}
			}
			if len(vals) == 0 {
				row[c] = negInf
			} else {
				row[c] = logSumExp(vals)
			}
		}
		// Softmax row into probabilities.
		z := logSumExp(row)
		for c := range row {
			if math.IsInf(row[c], -1) {
				row[c] = 0
			} else {
				row[c] = math.Exp(row[c] - z)
			}
		}
		out[p] = row
	}
	return out
}

// Decode returns the Viterbi-optimal tag sequence under the model.
func (m *Model) Decode(in *Instance) []corpus.Tag {
	if in.Len() == 0 {
		return nil
	}
	n := in.Len()
	S := m.S
	sc := acquireScratch(n, S)
	emit := sc.mat(0, n, S)
	delta := sc.mat(1, n, S)
	back := sc.intMat(n, S)
	m.latticeInto(in, emit)
	fillNegInf(delta)
	for s := 0; s < S; s++ {
		if m.startOK(s) {
			delta[0][s] = m.Start[s] + emit[0][s]
		}
	}
	for i := 1; i < n; i++ {
		for cur := 0; cur < S; cur++ {
			best, arg := negInf, -1
			for prev := 0; prev < S; prev++ {
				if !m.transitionOK(prev, cur) || math.IsInf(delta[i-1][prev], -1) {
					continue
				}
				if v := delta[i-1][prev] + m.T[prev*S+cur]; v > best {
					best, arg = v, prev
				}
			}
			if arg >= 0 {
				delta[i][cur] = best + emit[i][cur]
				back[i][cur] = int32(arg)
			}
		}
	}
	best, arg := negInf, 0
	for s := 0; s < S; s++ {
		if delta[n-1][s] > best {
			best, arg = delta[n-1][s], s
		}
	}
	tags := make([]corpus.Tag, n)
	for i := n - 1; i >= 0; i-- {
		tags[i] = m.stateTag(arg)
		arg = int(back[i][arg])
	}
	sc.release()
	return tags
}

// DecodeWithPotentialsT runs Viterbi over externally supplied
// per-position tag probability distributions (node potentials) and a
// tag-level transition probability matrix — the final step of GraphNER's
// Algorithm 1, where potentials are the α-mixture of CRF posteriors and
// propagated graph beliefs. Probabilities are combined in log space; zero
// probabilities are floored to keep the lattice connected. If bio is
// true, O→I transitions and an initial I are forbidden. Zero positions
// decode to nil tags.
//
// The transition log-probabilities are scaled by power (0 < power ≤ 1).
// The node potentials handed to GraphNER's final Viterbi are posterior
// marginals, which already reflect the chain's transition structure;
// applying the transition matrix at full strength therefore double-counts
// it and suppresses confident single-token mentions. A power below 1
// tempers the transitions; GraphNER selects it by cross-validation
// alongside the paper's other hyper-parameters. PotentialDecoder.DecodeFlat
// is the flat, allocation-free form the pipeline runs; this nested form is
// its reference.
func DecodeWithPotentialsT(potentials [][]float64, trans [][]float64, bio bool, power float64) ([]corpus.Tag, error) {
	n := len(potentials)
	if n == 0 {
		return nil, nil
	}
	S := corpus.NumTags
	for i, row := range potentials {
		if len(row) != S {
			return nil, fmt.Errorf("crf: potentials row %d has %d entries, want %d", i, len(row), S)
		}
	}
	if len(trans) != S {
		return nil, fmt.Errorf("crf: transition matrix has %d rows, want %d", len(trans), S)
	}
	if power <= 0 || power > 1 {
		return nil, fmt.Errorf("crf: transition power %g outside (0,1]", power)
	}
	lp := logPotential
	lt := func(p float64) float64 { return power * logPotential(p) }
	sc := acquireScratch(n, S)
	delta := sc.mat(0, n, S)
	back := sc.intMat(n, S)
	fillNegInf(delta)
	for s := 0; s < S; s++ {
		if bio && corpus.Tag(s) == corpus.I {
			continue
		}
		delta[0][s] = lp(potentials[0][s])
	}
	for i := 1; i < n; i++ {
		for cur := 0; cur < S; cur++ {
			best, arg := negInf, -1
			for prev := 0; prev < S; prev++ {
				if math.IsInf(delta[i-1][prev], -1) {
					continue
				}
				if bio && corpus.Tag(prev) == corpus.O && corpus.Tag(cur) == corpus.I {
					continue
				}
				if v := delta[i-1][prev] + lt(trans[prev][cur]); v > best {
					best, arg = v, prev
				}
			}
			if arg >= 0 {
				delta[i][cur] = best + lp(potentials[i][cur])
				back[i][cur] = int32(arg)
			}
		}
	}
	best, arg := negInf, 0
	for s := 0; s < S; s++ {
		if delta[n-1][s] > best {
			best, arg = delta[n-1][s], s
		}
	}
	tags := make([]corpus.Tag, n)
	for i := n - 1; i >= 0; i-- {
		tags[i] = corpus.Tag(arg)
		arg = int(back[i][arg])
	}
	sc.release()
	return tags, nil
}
