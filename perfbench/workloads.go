package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/graphner"
	"repro/internal/serving"
)

// A run repeats rounds until its budget is spent, at least minRounds of
// them. Each round takes a calibration sample, runs one Train + Test pass
// and then serves the first pass's system for hitWindows closed-loop
// windows of hits and missWindows of misses. Interleaving the stages
// spreads every metric's samples over the whole run, so a change of the
// host's speed during the run moves all of them alike.
const (
	minRounds   = 5
	hitWindows  = 3
	missWindows = 4
)

// setupReps is how often each set-up step is repeated, each from a
// collected heap; setup_s adds the medians of the steps.
const setupReps = 7

// f1 scores tags against the gold corpus through eval (exact match with
// alternative boundaries).
func f1(gold *corpus.Corpus, tags [][]corpus.Tag) (float64, error) {
	preds, err := eval.PredictionsFromTags(gold, tags)
	if err != nil {
		return 0, err
	}
	res, err := eval.Evaluate(gold, preds)
	if err != nil {
		return 0, err
	}
	return res.Metrics().F1, nil
}

// equalTags reports whether two tag sequences per sentence are identical.
func equalTags(a, b [][]corpus.Tag) bool {
	return slices.EqualFunc(a, b, func(x, y []corpus.Tag) bool { return slices.Equal(x, y) })
}

// pipelineRun is one Train + Test pass, plus pointReps TestWithGraph
// calls over Test's graph, with their timings.
type pipelineRun struct {
	sys         *graphner.System
	out         *graphner.Output
	train, test time.Duration
	points      []time.Duration
}

// pointReps is how many TestWithGraph calls a pass times. With one call
// per pass, two runs of the same seed differed by up to a quarter.
const pointReps = 3

// runPipeline trains, tests, and re-runs TEST over the graph Test built,
// checking that every re-run reproduces Test's tags. between runs after
// Train and after Test, outside the timed calls, with the pass so far.
func runPipeline(train, test *corpus.Corpus, cfg graphner.Config, between func(*pipelineRun)) (pipelineRun, error) {
	var r pipelineRun
	runtime.GC() // every pass starts from a collected heap
	t0 := time.Now()
	sys, err := graphner.Train(train, cfg)
	if err != nil {
		return r, err
	}
	r.train = time.Since(t0)
	between(&r)
	t1 := time.Now()
	out, err := sys.Test(test)
	if err != nil {
		return r, err
	}
	r.test = time.Since(t1)
	r.sys, r.out = sys, out
	for i := 0; i < pointReps; i++ {
		t2 := time.Now()
		pt, err := sys.TestWithGraph(test, out.Graph)
		if err != nil {
			return r, err
		}
		r.points = append(r.points, time.Since(t2))
		if !equalTags(pt.Tags, out.Tags) {
			return r, fmt.Errorf("TestWithGraph over Test's own graph gave different tags")
		}
	}
	between(&r)
	return r, nil
}

// runWorkload runs a workload: set-up generates the corpus; each round
// then runs a Train + Test pass (+ pointReps TestWithGraph over Test's
// graph) and serves; after the first pass its system is frozen and a
// server started on it (set-up again). A calibration sample is taken
// between any two timed stages. The run ends with a short open loop of
// each class and the checks of every pass's tags and the served answers.
func runWorkload(rep *report, w workload, seed int64, budget time.Duration) error {
	cal := newCalibration()
	rep.calibrate(cal)
	var train, test *corpus.Corpus
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		train, test = corpora(seed, w.sentences)
		rep.timed("setup_corpus", time.Since(t0).Seconds())
	}
	rep.calibrate(cal)
	cfg := pipelineConfig(w.mode)
	start := time.Now()
	var tags [][]corpus.Tag
	var sess *serveSession
	defer func() {
		if sess != nil {
			sess.srv.Close()
		}
	}()
	for round := 1; ; round++ {
		roundStart := time.Now()
		passTimes := func(r *pipelineRun) {
			// Train's time at the first call, Test's and the points' at the second.
			if r.sys == nil {
				rep.timed("train", r.train.Seconds())
			} else {
				rep.timed("test", r.test.Seconds())
				rep.timed("point", seconds(r.points)...)
			}
			rep.calibrate(cal)
		}
		r, err := runPipeline(train, test, cfg, passTimes)
		if err != nil {
			return err
		}
		rep.count(2+len(r.points), 0)
		if tags == nil {
			tags = r.out.Tags
			score, err := f1(test, tags)
			if err != nil {
				return err
			}
			rep.put("f1", "ratio", score, 1)
			if sess, err = setUpServing(rep, seed, r, test); err != nil {
				return err
			}
			rep.calibrate(cal)
		} else if !equalTags(r.out.Tags, tags) {
			return fmt.Errorf("pass %d gave different tags from pass 1: the pipeline is not deterministic", round)
		}
		logf("round %d: train %.3fs, test %.3fs, TEST over the built graph %.3fs (median)", round, r.train.Seconds(), r.test.Seconds(), median(seconds(r.points)))
		r = pipelineRun{} // let the pass's system and graph be collected
		// The previous round's misses cleared the workers' caches.
		if err := warm(sess.srv, sess.plan); err != nil {
			return err
		}
		for _, miss := range []bool{false, true} {
			name, windows := "hit", hitWindows
			if miss {
				name, windows = "miss", missWindows
			}
			for i := 0; i < windows; i++ {
				p50, sps, err := sess.window(miss)
				if err != nil {
					return fmt.Errorf("%ses: %w", name, err)
				}
				rep.timed(name+"_p50_us", p50)
				rep.timed(name+"_sps", sps)
			}
			rep.calibrate(cal)
		}
		if round >= minRounds && time.Since(start)+time.Since(roundStart) > budget {
			break
		}
	}
	if err := sess.openLoops(); err != nil {
		return err
	}
	if err := sess.finish(); err != nil {
		return err
	}
	putServeMetrics(rep, sess)

	rep.putAtReference("train_s", "s", "train", 1)
	rep.putAtReference("test_s", "s", "test", 1)
	rep.putAtReference("sweep_point_s", "s", "point", 1)
	rep.putAtReference("serve_hit_p50_us", "us", "hit_p50_us", 1)
	rep.putAtReference("serve_miss_p50_us", "us", "miss_p50_us", 1)
	rep.putAtReference("serve_hit_sps", "sentences/s", "hit_sps", -1)
	rep.putAtReference("serve_miss_sps", "sentences/s", "miss_sps", -1)
	corpusS, serverS := rep.atReference("setup_corpus", 1), rep.atReference("setup_server", 1)
	rep.put("setup_s", "s", median(corpusS)+median(serverS), len(corpusS)+len(serverS))
	rep.measured["setup_s"] = rep.measuredMedian("setup_corpus") + rep.measuredMedian("setup_server")
	rep.calibrationNotes()
	return nil
}

// setUpServing freezes a pass's system, then starts a server on the
// artifact setupReps times, each from a collected heap, keeping the last.
func setUpServing(rep *report, seed int64, r pipelineRun, test *corpus.Corpus) (*serveSession, error) {
	plan, err := newServePlan(seed, r.sys, test, r.out)
	if err != nil {
		return nil, err
	}
	var srv *serving.Server
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.Close() // the previous set-up's server
		}
		runtime.GC()
		t0 := time.Now()
		if srv, err = startServer(plan); err != nil {
			return nil, err
		}
		rep.timed("setup_server", time.Since(t0).Seconds())
	}
	logf("serving: %d-byte artifact, %d frozen sentences; peak RSS %.0f MiB", len(plan.blob), len(plan.frozen), peakRSSMiB())
	return newServeSession(srv, plan), nil
}
