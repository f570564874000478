package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/graph"
	"repro/internal/graphner"
	"repro/internal/propagate"
)

// genShardCorpus mirrors the hotpaths corpus generator: same profile,
// same seed, so the shard sweep measures the exact workload behind the
// recorded baselines.
func genShardCorpus(sentences int) *corpus.Corpus {
	cfg := synth.DefaultConfig(synth.BC2GM, 5)
	cfg.Sentences = sentences
	return synth.NewGenerator(cfg).Generate()
}

// shardBench is one measured (shard count × worker count) cell in
// BENCH_shard.json.
type shardBench struct {
	Name       string  `json:"name"`
	GoMaxProcs int     `json:"go_max_procs"`
	Shards     int     `json:"shards"`
	Workers    int     `json:"workers"`
	NsOp       float64 `json:"ns_op"`
	BOp        int64   `json:"b_op"`
	AllocsOp   int64   `json:"allocs_op"`
	// BaselineNsOp carries the BENCH_hotpaths.json all-core number for
	// the same workload (1000-sentence construction, iterations=4
	// propagation with loss every sweep) — the bar the sharded path is
	// measured against. Zero means the workload has no recorded
	// baseline (the sweep-only propagation variant).
	BaselineNsOp float64 `json:"baseline_ns_op,omitempty"`
	// BitIdentical records the inline equivalence check: before timing,
	// the sharded output (assembled graph, or converged beliefs + loss
	// trajectory + max delta) was compared bit-for-bit against the
	// single-index path on the same inputs. The run aborts if the check
	// fails, so a written report always says true; the field keeps the
	// guarantee visible in the artifact.
	BitIdentical bool `json:"bit_identical"`
}

type shardReport struct {
	GeneratedBy string       `json:"generated_by"`
	GoMaxProcs  int          `json:"go_max_procs"`
	Sentences   int          `json:"sentences"`
	Benchmarks  []shardBench `json:"benchmarks"`
}

// Recorded BENCH_hotpaths.json baselines for the two workloads the shard
// sweep re-measures (GOMAXPROCS=1 on the development machine). They are
// embedded, like seedBaseline in hotpaths.go, so the report carries its
// own bar even when BENCH_hotpaths.json is regenerated.
const (
	baselineConstruction1000NsOp = 2625448271 // Scaling_GraphConstruction/sentences=1000
	baselinePropagationIter4NsOp = 6434281    // Scaling_Propagation/iterations=4
)

// runShard benchmarks postings-partitioned graph construction and the
// per-shard SPMD propagation sweep across shard counts S ∈ {1, 2, 4,
// GOMAXPROCS} × worker counts {1, 4, GOMAXPROCS} (deduplicated), with
// every measured configuration first verified bit-identical to the
// single-index path, and writes BENCH_shard.json.
func runShard(outPath string, log *os.File) error {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}
	var report shardReport
	report.GeneratedBy = "benchtables -shard"
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.Sentences = 1000

	record := func(name string, shards, workers int, baseline float64, r testing.BenchmarkResult) {
		b := shardBench{
			Name:         name,
			GoMaxProcs:   runtime.GOMAXPROCS(0),
			Shards:       shards,
			Workers:      workers,
			NsOp:         float64(r.NsPerOp()),
			BOp:          r.AllocedBytesPerOp(),
			AllocsOp:     r.AllocsPerOp(),
			BaselineNsOp: baseline,
			BitIdentical: true,
		}
		report.Benchmarks = append(report.Benchmarks, b)
		logf("%-55s %12.0f ns/op %12d B/op %10d allocs/op\n", name, b.NsOp, b.BOp, b.AllocsOp)
	}

	// Shard counts: 1 (the existing single-index path), 2, 4, and all
	// cores, deduplicated and kept ascending.
	shardSweep := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		shardSweep = append(shardSweep, n)
	}
	workerSweep := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		if n > 4 {
			workerSweep = append(workerSweep, 4)
		}
		workerSweep = append(workerSweep, n)
	}

	c := genShardCorpus(report.Sentences)

	// Single-index reference graph: every sharded build below must
	// assemble this exact graph before its timing counts.
	logf("building single-index reference graph (%d sentences)...\n", report.Sentences)
	want, err := graph.Build(c, graph.BuilderConfig{K: 10})
	if err != nil {
		return err
	}

	// Construction sweep.
	for _, s := range shardSweep {
		for _, w := range workerSweep {
			cfg := graph.BuilderConfig{K: 10, Workers: w, Shards: s}
			sg, err := graph.BuildSharded(c, cfg)
			if err != nil {
				return err
			}
			if !sg.Flat().Equal(want) {
				return fmt.Errorf("shards=%d workers=%d: sharded build is not bit-identical to the single-index graph", s, w)
			}
			name := fmt.Sprintf("ShardSweep_GraphConstruction/shards=%d/workers=%d", s, w)
			logf("running %s...\n", name)
			record(name, s, w, baselineConstruction1000NsOp, testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := graph.BuildSharded(c, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}

	// Propagation sweep over the BENCH_hotpaths iterations=4 workload:
	// same graph, same reference distributions, Mu = Nu = 1e-6.
	refs := graphner.ReferenceDistributions(c)
	xref := make([][]float64, want.NumVertices())
	labelled := make([]bool, want.NumVertices())
	for v, ng := range want.Vertices {
		if d, ok := refs[ng]; ok {
			xref[v], labelled[v] = d, true
		}
	}
	propCfg := func(workers, lossEvery int) propagate.Config {
		return propagate.Config{Mu: 1e-6, Nu: 1e-6, Iterations: 4, Workers: workers, LossEvery: lossEvery}
	}
	runOnce := func(sg *graph.ShardedGraph, s int, cfg propagate.Config) ([]float64, propagate.Result, error) {
		X := uniformBeliefs(want.NumVertices())
		var res propagate.Result
		var err error
		if s > 1 {
			res, err = propagate.RunShardedFlat(sg, X, xref, labelled, cfg)
		} else {
			res, err = propagate.RunFlat(want, X, xref, labelled, cfg)
		}
		return X, res, err
	}

	// Reference outputs from the single-index path, per loss schedule.
	wantX, wantRes, err := runOnce(nil, 1, propCfg(1, 0))
	if err != nil {
		return err
	}
	wantXSweep, wantResSweep, err := runOnce(nil, 1, propCfg(1, -1))
	if err != nil {
		return err
	}

	for _, s := range shardSweep {
		var sg *graph.ShardedGraph
		if s > 1 {
			if sg, err = graph.ShardGraph(want, s); err != nil {
				return err
			}
		}
		for _, w := range workerSweep {
			for _, sched := range []struct {
				suffix    string
				lossEvery int
				wx        []float64
				wres      propagate.Result
				baseline  float64
			}{
				// LossEvery=0 reproduces the recorded workload exactly
				// (loss after every sweep); LossEvery=-1 isolates the
				// sweep + halo-exchange kernel.
				{"Propagation", 0, wantX, wantRes, baselinePropagationIter4NsOp},
				{"PropagationSweepOnly", -1, wantXSweep, wantResSweep, 0},
			} {
				cfg := propCfg(w, sched.lossEvery)
				gotX, gotRes, err := runOnce(sg, s, cfg)
				if err != nil {
					return err
				}
				if err := sameBeliefs(gotX, sched.wx, gotRes, sched.wres); err != nil {
					return fmt.Errorf("shards=%d workers=%d lossEvery=%d: %w", s, w, sched.lossEvery, err)
				}
				name := fmt.Sprintf("ShardSweep_%s/shards=%d/workers=%d", sched.suffix, s, w)
				logf("running %s...\n", name)
				record(name, s, w, sched.baseline, testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := runOnce(sg, s, cfg); err != nil {
							b.Fatal(err)
						}
					}
				}))
			}
		}
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	logf("wrote %s\n", outPath)
	return nil
}

// sameBeliefs checks bit-identity of converged beliefs, the loss
// trajectory, and the final max delta between a sharded run and the
// single-index reference.
func sameBeliefs(gotX, wantX []float64, got, want propagate.Result) error {
	if len(gotX) != len(wantX) {
		return fmt.Errorf("belief count mismatch: %d vs %d", len(gotX), len(wantX))
	}
	for i, x := range wantX {
		if gotX[i] != x { // lint:checked bit-identity is the contract; exact compare intended
			return fmt.Errorf("vertex %d tag %d: beliefs differ: %v vs %v", i/corpus.NumTags, i%corpus.NumTags, gotX[i], x)
		}
	}
	if got.MaxDelta != want.MaxDelta { // lint:checked bit-identity is the contract; exact compare intended
		return fmt.Errorf("max delta differs: %v vs %v", got.MaxDelta, want.MaxDelta)
	}
	if len(got.Loss) != len(want.Loss) {
		return fmt.Errorf("loss trajectory length differs: %d vs %d", len(got.Loss), len(want.Loss))
	}
	for i, l := range want.Loss {
		if got.Loss[i] != l { // lint:checked bit-identity is the contract; exact compare intended
			return fmt.Errorf("loss[%d] differs: %v vs %v", i, got.Loss[i], l)
		}
	}
	return nil
}
