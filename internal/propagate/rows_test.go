package propagate

import (
	"repro/internal/corpus"
	"repro/internal/graph"
)

// flatRows flattens slice-of-rows beliefs into RunFlat's row-major layout,
// starting nil rows uniform — the seed graphner gives vertices no
// posterior reached.
func flatRows(X [][]float64) []float64 {
	const Y = corpus.NumTags
	flat := make([]float64, len(X)*Y)
	for v, row := range X {
		if row == nil {
			for y := 0; y < Y; y++ {
				flat[v*Y+y] = 1.0 / Y
			}
			continue
		}
		copy(flat[v*Y:(v+1)*Y], row)
	}
	return flat
}

// runRows propagates a slice-of-rows fixture through RunFlat: it
// flattens X with flatRows, runs the kernel, and on success writes the
// beliefs back into X's rows, materializing nil ones. Tests keep
// readable per-vertex rows while exercising the production kernel.
func runRows(g *graph.Graph, X, xref [][]float64, labelled []bool, cfg Config) (Result, error) {
	const Y = corpus.NumTags
	flat := flatRows(X)
	res, err := RunFlat(g, flat, xref, labelled, cfg)
	if err != nil {
		return res, err
	}
	for v := range X {
		if X[v] == nil {
			X[v] = make([]float64, Y)
		}
		copy(X[v], flat[v*Y:(v+1)*Y])
	}
	return res, nil
}
