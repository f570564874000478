package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/crf"
	"repro/internal/graph"
	"repro/internal/graphner"
)

// Workload sizes. Everything the program receives is generated from the
// workload seed: a synth BC2GM corpus (75/25 train/test split) and, for
// serving, texts from a held-out generator seed.
const (
	exactSentences = 1000
	lshSentences   = 1200

	// novelSeedOffset derives the held-out generator seed that novel
	// serving texts come from.
	novelSeedOffset = 1 << 20
)

// workload names one benchmark workload and the pipeline it runs.
type workload struct {
	name      string
	sentences int
	mode      graph.GraphMode
}

var workloads = []workload{
	{name: "offline-exact", sentences: exactSentences, mode: graph.ModeExact},
	{name: "offline-lsh", sentences: lshSentences, mode: graph.ModeLSH},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// pipelineConfig is the `graphner run` default configuration: CRF order 1
// trained for 40 L-BFGS iterations, K=10, the library's default Workers,
// and the given graph builder (LSH hyperplane seed 1, as the CLI).
func pipelineConfig(mode graph.GraphMode) graphner.Config {
	cfg := graphner.Default()
	cfg.Order = crf.Order1
	cfg.CRFIterations = 40
	cfg.GraphMode = mode
	cfg.LSH = graph.LSHConfig{Seed: 1}
	return cfg
}

// corpora generates the workload's train and test corpora.
func corpora(seed int64, sentences int) (train, test *corpus.Corpus) {
	cfg := synth.DefaultConfig(synth.BC2GM, seed)
	cfg.Sentences = sentences
	return synth.GenerateSplit(cfg)
}

// novelChunk is how many sentences the novel-text generator produces per
// call. Generating in chunks keeps only the texts alive, not a whole
// tokenized corpus, so input generation does not set the peak RSS.
const novelChunk = 2048

// The novel-text generator's gene and ambiguous-token pools: those of a
// synth corpus of about 300000 sentences, more than a run sends.
const (
	novelGenePool  = 100000
	novelAmbigPool = 30000
)

// novelSource generates distinct sentence texts from the held-out
// generator seed, none of which is frozen. It remembers the texts it gave
// by their 64-bit hash, so a sent text can be collected and the
// benchmark's own memory does not grow with the run's length. (A hash
// collision would only skip a new text.)
type novelSource struct {
	gen  *synth.Generator
	seen map[uint64]bool
	buf  []string
}

func textHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) // lint:checked hash.Hash writes never fail
	return h.Sum64()
}

func newNovelSource(seed int64, frozen []string) *novelSource {
	cfg := synth.DefaultConfig(synth.BC2GM, seed+novelSeedOffset)
	cfg.GenePool, cfg.AmbigPool = novelGenePool, novelAmbigPool
	cfg.Sentences = novelChunk
	seen := make(map[uint64]bool, len(frozen))
	for _, t := range frozen {
		seen[textHash(t)] = true
	}
	return &novelSource{gen: synth.NewGenerator(cfg), seen: seen}
}

// next returns the next n texts, each distinct from every text returned
// before and from the frozen ones.
func (s *novelSource) next(n int) ([]string, error) {
	out := make([]string, 0, n)
	for len(out) < n {
		if len(s.buf) == 0 {
			for _, sent := range s.gen.Generate().Sentences {
				if h := textHash(sent.Text); !s.seen[h] {
					s.seen[h] = true
					s.buf = append(s.buf, sent.Text)
				}
			}
			if len(s.buf) < novelChunk/2 {
				return nil, fmt.Errorf("novel generator gave only %d new texts in %d sentences", len(s.buf), novelChunk)
			}
		}
		k := min(n-len(out), len(s.buf))
		out = append(out, s.buf[:k]...)
		s.buf = s.buf[k:]
	}
	return out, nil
}

// request is one serving request: a frozen sentence (index into the
// frozen texts) or a novel one (frozen < 0).
type request struct {
	text   string
	frozen int
}

// texts lists a corpus's sentence texts.
func texts(c *corpus.Corpus) []string {
	out := make([]string, len(c.Sentences))
	for i, s := range c.Sentences {
		out[i] = s.Text
	}
	return out
}
