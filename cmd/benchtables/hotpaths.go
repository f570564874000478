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

// hotpathBench is one measured hot-path workload in BENCH_hotpaths.json.
type hotpathBench struct {
	Name string `json:"name"`
	// GoMaxProcs is the scheduler width this benchmark ran under, and
	// Workers the worker count the kernel was configured with (0 = the
	// kernel's default, GOMAXPROCS). Recorded per benchmark: a single
	// top-level value cannot describe a worker sweep.
	GoMaxProcs int     `json:"go_max_procs"`
	Workers    int     `json:"workers,omitempty"`
	NsOp       float64 `json:"ns_op"`
	BOp        int64   `json:"b_op"`
	AllocsOp   int64   `json:"allocs_op"`
	// Seed* carry the same workload measured at the seed commit (pre
	// allocation-free hot paths), when a baseline is on record; zero
	// values mean no baseline. They keep the optimization trajectory
	// visible next to fresh numbers from `benchtables -hotpaths`.
	SeedNsOp     float64 `json:"seed_ns_op,omitempty"`
	SeedBOp      int64   `json:"seed_b_op,omitempty"`
	SeedAllocsOp int64   `json:"seed_allocs_op,omitempty"`
}

type hotpathReport struct {
	GeneratedBy string         `json:"generated_by"`
	GoMaxProcs  int            `json:"go_max_procs"`
	Benchmarks  []hotpathBench `json:"benchmarks"`
}

// seedBaseline holds `go test -bench Scaling -benchmem` results measured at
// the seed commit (bd97aa1) on the development machine (Xeon @ 2.10GHz),
// recorded when the allocation-free hot paths landed. Absent entries simply
// omit the seed fields from the report.
var seedBaseline = map[string][3]float64{ // name -> {ns/op, B/op, allocs/op}
	"Scaling_GraphConstruction/sentences=250":  {760720986, 24089124, 436763},
	"Scaling_GraphConstruction/sentences=500":  {2393390227, 43358312, 856034},
	"Scaling_GraphConstruction/sentences=1000": {6918688131, 79129832, 1636627},
	"Scaling_Propagation/iterations=1":         {2566359, 1011024, 10379},
	"Scaling_Propagation/iterations=2":         {3839380, 1011256, 10383},
	"Scaling_Propagation/iterations=4":         {6317860, 1011728, 10391},
	"Scaling_Propagation/iterations=8":         {11597893, 1012656, 10407},
}

// runHotpaths benchmarks the allocation-sensitive kernels — graph
// construction, propagation, reference-distribution extraction — via
// testing.Benchmark and writes a JSON report.
func runHotpaths(outPath string, log *os.File) error {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}
	var report hotpathReport
	report.GeneratedBy = "benchtables -hotpaths"
	report.GoMaxProcs = runtime.GOMAXPROCS(0)

	recordWorkers := func(name string, workers int, r testing.BenchmarkResult) {
		b := hotpathBench{
			Name:       name,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Workers:    workers,
			NsOp:       float64(r.NsPerOp()),
			BOp:        r.AllocedBytesPerOp(),
			AllocsOp:   r.AllocsPerOp(),
		}
		if s, ok := seedBaseline[name]; ok {
			b.SeedNsOp, b.SeedBOp, b.SeedAllocsOp = s[0], int64(s[1]), int64(s[2])
		}
		report.Benchmarks = append(report.Benchmarks, b)
		logf("%-50s %12.0f ns/op %12d B/op %10d allocs/op\n", name, b.NsOp, b.BOp, b.AllocsOp)
	}
	record := func(name string, r testing.BenchmarkResult) { recordWorkers(name, 0, r) }

	// Worker counts for the parallel-speedup sweeps: 1, 4, and all cores
	// (deduplicated when they coincide).
	workerSweep := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		if n > 4 {
			workerSweep = append(workerSweep, 4)
		}
		workerSweep = append(workerSweep, n)
	}

	genCorpus := func(sentences int) *corpus.Corpus {
		cfg := synth.DefaultConfig(synth.BC2GM, 5)
		cfg.Sentences = sentences
		return synth.NewGenerator(cfg).Generate()
	}

	// Graph construction across corpus sizes (the O(Nf + V²FK) claim).
	for _, n := range []int{250, 500, 1000} {
		c := genCorpus(n)
		name := fmt.Sprintf("Scaling_GraphConstruction/sentences=%d", n)
		logf("running %s...\n", name)
		record(name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.Build(c, graph.BuilderConfig{K: 10}); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Propagation across sweep counts (the O(V·K·#iterations) claim).
	{
		c := genCorpus(1000)
		g, err := graph.Build(c, graph.BuilderConfig{K: 10})
		if err != nil {
			return err
		}
		refs := graphner.ReferenceDistributions(c)
		xref := make([][]float64, g.NumVertices())
		labelled := make([]bool, g.NumVertices())
		for v, ng := range g.Vertices {
			if d, ok := refs[ng]; ok {
				xref[v], labelled[v] = d, true
			}
		}
		for _, iters := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("Scaling_Propagation/iterations=%d", iters)
			logf("running %s...\n", name)
			record(name, testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					X := uniformBeliefs(g.NumVertices())
					if _, err := propagate.RunFlat(g, X, xref, labelled, propagate.Config{
						Mu: 1e-6, Nu: 1e-6, Iterations: iters,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}

		// Parallel-speedup sweep over the same propagation workload.
		for _, w := range workerSweep {
			name := fmt.Sprintf("WorkerSweep_Propagation/workers=%d", w)
			logf("running %s...\n", name)
			recordWorkers(name, w, testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					X := uniformBeliefs(g.NumVertices())
					if _, err := propagate.RunFlat(g, X, xref, labelled, propagate.Config{
						Mu: 1e-6, Nu: 1e-6, Iterations: 4, Workers: w,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}

	// Parallel-speedup sweep for graph construction.
	{
		c := genCorpus(500)
		for _, w := range workerSweep {
			name := fmt.Sprintf("WorkerSweep_GraphConstruction/workers=%d", w)
			logf("running %s...\n", name)
			recordWorkers(name, w, testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := graph.Build(c, graph.BuilderConfig{K: 10, Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}

	// Reference distributions across corpus sizes (the O(N_l + V_l) claim).
	for _, n := range []int{500, 1000, 2000} {
		c := genCorpus(n)
		name := fmt.Sprintf("Scaling_ReferenceDistributions/sentences=%d", n)
		logf("running %s...\n", name)
		record(name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graphner.ReferenceDistributions(c)
			}
		}))
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

// uniformBeliefs returns a flat n×corpus.NumTags belief matrix with every
// row uniform — the seed of vertices no posterior reached, and the start
// state of the propagation benchmarks.
func uniformBeliefs(n int) []float64 {
	X := make([]float64, n*corpus.NumTags)
	for i := range X {
		X[i] = 1.0 / corpus.NumTags
	}
	return X
}
