package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/graphner"
	"repro/internal/propagate"
	"repro/internal/serving"
	"repro/internal/tokenize"
)

// spanNames are the TRAIN and TEST layer spans of the traced run. Each
// reports wall_s, cpu_s, allocs and bytes.
var spanNames = []string{
	"crf.compile", "crf.train", "graphner.xref",
	"graph.build", "crf.posteriors", "graphner.seed", "propagate.run", "crf.decode",
}

// perLayer lists the per-layer metrics every workload prints with
// tracing on.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, s := range spanNames {
		out = append(out,
			metricSpec{s + ".wall_s", "s"}, metricSpec{s + ".cpu_s", "s"},
			metricSpec{s + ".allocs", "count"}, metricSpec{s + ".bytes", "bytes"})
	}
	return append(out, []metricSpec{
		{"crf.features", "count"},
		{"crf.train.iterations", "count"},
		{"crf.train.s_per_iter", "s"},
		{"graphner.xref.trigrams", "count"},
		{"graph.vertices", "count"},
		{"graph.edges", "count"},
		{"graph.recall", "ratio"},
		{"crf.posteriors.tokens", "count"},
		{"propagate.sweeps", "count"},
		{"propagate.edge_visits", "count"},
		{"propagate.ns_per_edge_visit", "ns"},
		{"crf.decode.tokens", "count"},
		{"crf.baseline_decode.wall_s", "s"},
		{"graphner.test.residual_s", "s"},
		{"graphner.read_artifact_s", "s"},
		{"graphner.artifact_bytes", "bytes"},
		{"serving.new_server_s", "s"},
		{"serving.tag_hit_us", "us"},
		{"serving.tag_miss_us", "us"},
		{"tokenize.sentence_us", "us"},
		{"crf.compile_sentence_us", "us"},
		{"crf.posteriors_into_us", "us"},
		{"crf.decode_flat_us", "us"},
		{"serving.queue_wait_est_us", "us"},
		{"serving.batch_size", "count"},
		{"serving.shed", "count"},
		{"serving.overloaded", "count"},
		{"serving.allocs_per_req", "count"},
		{"serve.generator_lag_us", "us"},
	}...)
}()

func (r *report) putSpan(name string, s span) {
	r.put(name+".wall_s", "s", s.Wall.Seconds(), 1)
	r.put(name+".cpu_s", "s", s.CPU.Seconds(), 1)
	r.put(name+".allocs", "count", float64(s.Allocs), 1)
	r.put(name+".bytes", "bytes", float64(s.Bytes), 1)
}

// traceWorkload is the traced run: the workload's TRAIN and TEST split
// into public calls, each timed as a span, then the serving layers timed
// on the artifact frozen from that system.
func traceWorkload(rep *report, w workload, seed int64) error {
	train, test := corpora(seed, w.sentences)
	sys, out, err := tracePipeline(rep, train, test, pipelineConfig(w.mode))
	if err != nil {
		return err
	}
	// The reference Train and Test, and the decomposed TRAIN and TEST.
	rep.count(4, 0)
	return traceServing(rep, seed, sys, test, out)
}

// parallel runs fn(i) for i in [0,n) on GOMAXPROCS goroutines, each
// taking a stride of indexes, as the library's own TEST loops do.
func parallel(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// tracePipeline runs the untraced reference (graphner.Train, then
// System.Test), then the same TRAIN and TEST decomposed into spans around
// public calls, and checks that the decomposition reproduces the
// reference's model and tags bit for bit.
func tracePipeline(rep *report, train, test *corpus.Corpus, cfg graphner.Config) (*graphner.System, *graphner.Output, error) {
	sys, err := graphner.Train(train, cfg)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	out, err := sys.Test(test)
	if err != nil {
		return nil, nil, err
	}
	refTest := time.Since(t0)

	// TRAIN: compile, fit the CRF, reference distributions.
	comp := crf.NewCompiler(features.NewExtractor(nil))
	var data []*crf.Instance
	var nf int
	sp, _ := measureSpan(func() error {
		data = comp.Compile(train)
		nf = comp.FreezeAlphabet()
		return nil
	})
	rep.putSpan("crf.compile", sp)
	rep.put("crf.features", "count", float64(nf), 1)

	tr := crf.NewTrainer(cfg.Order)
	tr.L2, tr.MaxIterations, tr.Workers = cfg.L2, cfg.CRFIterations, runtime.GOMAXPROCS(0)
	iters := 0
	tr.Progress = func(int, float64) { iters++ }
	var model *crf.Model
	sp, err = measureSpan(func() (err error) {
		model, err = tr.Train(data, nf)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rep.putSpan("crf.train", sp)
	rep.put("crf.train.iterations", "count", float64(iters), 1)
	rep.put("crf.train.s_per_iter", "s", sp.Wall.Seconds()/float64(max(iters, 1)), iters)
	if !sameModel(model, sys.Model()) {
		return nil, nil, fmt.Errorf("decomposed TRAIN fitted a different CRF from graphner.Train")
	}

	var xref map[corpus.NGram][]float64
	sp, _ = measureSpan(func() error {
		xref = graphner.ReferenceDistributions(train)
		return nil
	})
	rep.putSpan("graphner.xref", sp)
	rep.put("graphner.xref.trigrams", "count", float64(len(xref)), 1)

	// TEST: graph, posteriors, seeding, propagation, combine and decode.
	var testSpans time.Duration
	var g *graph.Graph
	sp, err = measureSpan(func() (err error) {
		g, err = sys.BuildGraph(test)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	testSpans += sp.Wall
	rep.putSpan("graph.build", sp)
	rep.put("graph.vertices", "count", float64(g.NumVertices()), 1)
	rep.put("graph.edges", "count", float64(g.NumEdges()), 1)

	union := corpus.New()
	union.Sentences = append(append(union.Sentences, train.Sentences...), test.StripLabels().Sentences...)
	recall := 1.0 // the exact builder is its own reference
	if cfg.GraphMode == graph.ModeLSH {
		exact, err := graph.Build(union, graph.BuilderConfig{K: cfg.K, Mode: cfg.Mode, Extractor: features.NewExtractor(nil), MaxDF: cfg.MaxDF})
		if err != nil {
			return nil, nil, err
		}
		recall = graph.Recall(exact.Neighbors, g.Neighbors)
	}
	rep.put("graph.recall", "ratio", recall, 1)

	var posts [][][]float64
	sp, _ = measureSpan(func() error {
		posts = sys.Posteriors(union)
		return nil
	})
	testSpans += sp.Wall
	rep.putSpan("crf.posteriors", sp)
	rep.put("crf.posteriors.tokens", "count", float64(union.NumTokens()), 1)

	var X [][]float64
	sp, _ = measureSpan(func() error {
		X = graphner.AveragePosteriors(g, union, posts)
		return nil
	})
	testSpans += sp.Wall
	rep.putSpan("graphner.seed", sp)

	// Glue, untimed: reference rows, the labelled mask, and the flat
	// belief matrix (vertices never seen start uniform, as propagate.Run).
	const Y = corpus.NumTags
	n := g.NumVertices()
	xrefRows := make([][]float64, n)
	labelled := make([]bool, n)
	flat := make([]float64, n*Y)
	for v, ng := range g.Vertices {
		if d, ok := xref[ng]; ok {
			xrefRows[v], labelled[v] = d, true
		}
		for y := 0; y < Y; y++ {
			if X[v] == nil {
				flat[v*Y+y] = 1.0 / Y
			} else {
				flat[v*Y+y] = X[v][y]
			}
		}
	}
	pcfg := propagate.Config{Mu: cfg.Mu, Nu: cfg.Nu, Iterations: cfg.Iterations, LossEvery: cfg.LossEvery}
	sp, err = measureSpan(func() error {
		_, err := propagate.RunFlat(g, flat, xrefRows, labelled, pcfg)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	testSpans += sp.Wall
	rep.putSpan("propagate.run", sp)
	visits := float64(cfg.Iterations) * float64(g.NumEdges())
	rep.put("propagate.sweeps", "count", float64(cfg.Iterations), 1)
	rep.put("propagate.edge_visits", "count", visits, 1)
	rep.put("propagate.ns_per_edge_visit", "ns", float64(sp.Wall.Nanoseconds())/visits, 1)

	trans := graphner.GoldTransitions(train)
	offset := len(train.Sentences)
	tags := make([][]corpus.Tag, len(test.Sentences))
	errs := make([]error, len(test.Sentences))
	sp, _ = measureSpan(func() error {
		parallel(len(test.Sentences), func(i int) {
			words := test.Sentences[i].Words()
			ps := posts[offset+i]
			combined := make([][]float64, len(words))
			for j := range words {
				row := slices.Clone(ps[j])
				if vi := g.Lookup(corpus.Trigram(words, j)); vi >= 0 {
					for y := 0; y < Y; y++ {
						row[y] = cfg.Alpha*ps[j][y] + (1-cfg.Alpha)*flat[vi*Y+y]
					}
				}
				combined[j] = row
			}
			tags[i], errs[i] = crf.DecodeWithPotentialsT(combined, trans, model.BIO, cfg.TransitionPower)
		})
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	testSpans += sp.Wall
	rep.putSpan("crf.decode", sp)
	rep.put("crf.decode.tokens", "count", float64(test.NumTokens()), 1)

	ins := make([]*crf.Instance, len(test.Sentences))
	for i, s := range test.Sentences {
		ins[i] = comp.CompileSentence(s)
	}
	baseline := make([][]corpus.Tag, len(ins))
	sp, _ = measureSpan(func() error {
		parallel(len(ins), func(i int) { baseline[i] = model.Decode(ins[i]) })
		return nil
	})
	testSpans += sp.Wall
	rep.put("crf.baseline_decode.wall_s", "s", sp.Wall.Seconds(), 1)
	rep.put("graphner.test.residual_s", "s", (refTest - testSpans).Seconds(), 1)

	if !equalTags(tags, out.Tags) {
		return nil, nil, fmt.Errorf("decomposed TEST tags differ from System.Test")
	}
	if !equalTags(baseline, out.BaselineTags) {
		return nil, nil, fmt.Errorf("decomposed baseline tags differ from System.Test")
	}
	return sys, out, nil
}

// sameModel reports whether two CRFs have bit-identical parameters.
func sameModel(a, b *crf.Model) bool {
	return a.Order == b.Order && a.NumFeatures == b.NumFeatures && a.S == b.S && a.BIO == b.BIO &&
		slices.Equal(a.W, b.W) && slices.Equal(a.T, b.T) && slices.Equal(a.Start, b.Start) // lint:checked floatcmp: bit-identity is the check
}

// traceServing times the serving layers on the system's frozen artifact:
// artifact decode and server start, a single-Scratch Tagger replay of the
// open-loop requests of each class, the kernels of a miss, and a short
// open loop of each class through the server for the queueing estimate,
// batch sizes and shed counts.
func traceServing(rep *report, seed int64, sys *graphner.System, test *corpus.Corpus, out *graphner.Output) error {
	plan, err := newServePlan(seed, sys, test, out)
	if err != nil {
		return err
	}
	rep.put("graphner.artifact_bytes", "bytes", float64(len(plan.blob)), 1)

	var reads, starts []time.Duration
	var art *graphner.Artifact
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		art, err = graphner.ReadArtifact(bytes.NewReader(plan.blob))
		if err != nil {
			return err
		}
		t1 := time.Now()
		srv, err := serving.NewServer(art, serving.Config{})
		if err != nil {
			return err
		}
		starts = append(starts, time.Since(t1))
		reads = append(reads, t1.Sub(t0))
		srv.Close()
	}
	rep.putMedian("graphner.read_artifact_s", "s", seconds(reads))
	rep.putMedian("serving.new_server_s", "s", seconds(starts))

	// One Scratch replays the request sequences in order: repeats of an
	// already-seen frozen sentence hit the compiled-sentence cache, novel
	// requests miss it.
	tg, err := serving.NewTagger(art, nil, 0)
	if err != nil {
		return err
	}
	sc := tg.NewScratch()
	buf := make([]corpus.Tag, tagBufLen)
	seen := make([]bool, len(plan.frozen))
	openHits := int(hitRate * openLoopTime.Seconds())
	var hits, misses []time.Duration
	for i := 0; i < openHits; i++ {
		r := plan.hit(i)
		t0 := time.Now()
		n, err := tg.TagInto(sc, r.text, buf)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay of hit request %d: %w", i, err)
		}
		if seen[r.frozen] {
			hits = append(hits, d)
		}
		seen[r.frozen] = true
		if !slices.Equal(buf[:n], plan.want[r.frozen]) {
			return fmt.Errorf("replay of hit request %d: tags for frozen sentence %d differ from System.Test", i, r.frozen)
		}
	}
	novel, err := plan.novel.next(int(missRate * openLoopTime.Seconds()))
	if err != nil {
		return err
	}
	for i, text := range novel {
		t0 := time.Now()
		if _, err := tg.TagInto(sc, text, buf); err != nil {
			return fmt.Errorf("replay of miss request %d: %w", i, err)
		}
		misses = append(misses, time.Since(t0))
	}
	rep.count(openHits+len(novel), 0)
	rep.putMedian("serving.tag_hit_us", "us", micros(hits))
	rep.putMedian("serving.tag_miss_us", "us", micros(misses))

	// The layers of a miss (tokenize, compile) and of every request
	// (posteriors, decode), per novel sentence.
	comp := art.NewCompiler(nil)
	dec, err := crf.NewPotentialDecoder(art.Transitions(), art.Model().BIO, art.Config().TransitionPower)
	if err != nil {
		return err
	}
	var tok, cmp, post, decode []time.Duration
	flatPost := make([]float64, tagBufLen*corpus.NumTags)
	for _, text := range novel {
		t0 := time.Now()
		toks := tokenize.Sentence(text)
		t1 := time.Now()
		in := comp.CompileSentence(&corpus.Sentence{Text: text, Tokens: toks})
		t2 := time.Now()
		if err := art.Model().PosteriorsInto(in, flatPost); err != nil {
			return err
		}
		t3 := time.Now()
		if err := dec.DecodeFlat(flatPost, in.Len(), buf); err != nil {
			return err
		}
		t4 := time.Now()
		tok, cmp = append(tok, t1.Sub(t0)), append(cmp, t2.Sub(t1))
		post, decode = append(post, t3.Sub(t2)), append(decode, t4.Sub(t3))
	}
	rep.putMedian("tokenize.sentence_us", "us", micros(tok))
	rep.putMedian("crf.compile_sentence_us", "us", micros(cmp))
	rep.putMedian("crf.posteriors_into_us", "us", micros(post))
	rep.putMedian("crf.decode_flat_us", "us", micros(decode))

	// Through the server: the open-loop latency of hit requests over the
	// direct Tagger time of a hit estimates queueing and hand-off. (A
	// frozen sentence misses once more on the first worker that had not
	// seen it, too rarely to move the median.)
	srv, err := startServer(plan)
	if err != nil {
		return err
	}
	defer srv.Close()
	sess := newServeSession(srv, plan)
	if err := sess.openLoops(); err != nil {
		return err
	}
	if err := sess.finish(); err != nil {
		return err
	}
	rep.count(sess.hit.counts())
	rep.count(sess.miss.counts())
	stats := srv.Stats()
	hitLat := latencies(sess.hit.open.Latency, sess.hit.open.Failed)
	rep.put("serving.queue_wait_est_us", "us", median(hitLat)-median(micros(hits)), len(hitLat))
	rep.put("serving.batch_size", "count", float64(stats.Served)/float64(max(stats.Batches, 1)), int(stats.Batches))
	rep.put("serving.shed", "count", float64(stats.Shed), 1)
	rep.put("serving.overloaded", "count", float64(stats.Overloaded), 1)
	lag := micros(append(slices.Clone(sess.hit.open.Lag), sess.miss.open.Lag...))
	rep.put("serve.generator_lag_us", "us", median(lag), len(lag))

	warm := plan.frozen[:min(16, len(plan.frozen))]
	i := 0
	var allocErr error
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := srv.TagInto(warm[i%len(warm)], time.Time{}, buf); err != nil {
			allocErr = err
		}
		i++
	})
	if allocErr != nil {
		return allocErr
	}
	rep.put("serving.allocs_per_req", "count", allocs, 300)
	rep.count(i, 0) // AllocsPerRun's warm-up call included
	return nil
}
