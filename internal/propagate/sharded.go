// SPMD propagation over a sharded graph.
//
// RunShardedFlat sweeps each shard's CSR slice independently: a shard's
// belief buffer holds its owned rows followed by a halo region — copies
// of the remote rows its edges read — so the row kernel indexes one flat
// local buffer with no branch on edge locality. Buffers are
// double-buffered per shard (cur/next); after the sweep barrier a halo
// exchange copies every shard's freshly written owned rows into the halo
// regions that mirror them, and the spawner swaps the buffer pairs.
//
// Determinism: the per-row update is the same Jacobi kernel RunFlat
// uses, reading the same neighbour values in the same edge order (the
// shard CSR preserves flat row order, and halo copies are bit-exact), so
// the beliefs after every sweep — and the converged result — are
// bit-identical to RunFlat for every shard count. The loss is evaluated
// by gathering the owned regions into a global scratch matrix and running
// the flat loss kernel verbatim, in global vertex order, so Result is
// bit-identical too.
package propagate

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/analysis/assert"
	"repro/internal/corpus"
	"repro/internal/graph"
)

// shardState is one shard's working set: its CSR slice, the per-shard
// views of the reference distributions and the labelled mask, the
// double-buffered belief matrices (owned rows then halo rows), and the
// shard's max per-entry delta of the current sweep.
type shardState struct {
	adj       adjacency // local CSR; targets >= nLocal index the halo
	verts     []int32   // local id -> global vertex id
	xref      [][]float64
	labelled  []bool
	nLocal    int
	haloOwner []int32
	haloLocal []int32
	cur, next []float64 // (nLocal + len(haloOwner)) × NumTags
	delta     float64
}

// RunShardedFlat performs propagation in place on the flat belief matrix
// X over a sharded graph. For every shard count the returned Result and
// the final X are bit-identical to RunFlat over the flat graph with the
// same Config. Symmetrize is not supported on the sharded layout (the
// shard CSR mirrors the directed graph); use RunFlat for that ablation.
//
//graphner:noalloc per-shard working sets are built once per call, justified inline; TestShardedSweepAllocGuard pins the sweeps
func RunShardedFlat(sg *graph.ShardedGraph, X []float64, xref [][]float64, labelled []bool, cfg Config) (Result, error) {
	const Y = corpus.NumTags
	n := sg.NumVertices()
	if len(X) != n*Y {
		return Result{}, fmt.Errorf("propagate: flat matrix length %d != %d vertices × %d tags", len(X), n, Y) // lint:checked noalloc: cold validation failure path
	}
	if len(xref) != n || len(labelled) != n {
		// lint:checked noalloc: cold validation failure path
		return Result{}, fmt.Errorf("propagate: slice lengths (%d,%d) != vertex count %d",
			len(xref), len(labelled), n)
	}
	if cfg.Iterations < 0 {
		return Result{}, fmt.Errorf("propagate: negative iterations") // lint:checked noalloc: cold validation failure path
	}
	if cfg.Mu < 0 || cfg.Nu < 0 {
		return Result{}, fmt.Errorf("propagate: negative hyper-parameter (mu=%g nu=%g)", cfg.Mu, cfg.Nu) // lint:checked noalloc: cold validation failure path
	}
	if cfg.Symmetrize {
		return Result{}, fmt.Errorf("propagate: sharded propagation does not support Symmetrize") // lint:checked noalloc: cold validation failure path
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	uniform := 1.0 / Y

	// Per-shard working sets.
	S := sg.NumShards()
	states := make([]shardState, S) // lint:checked noalloc: per-call shard table, built once
	for s := 0; s < S; s++ {
		sh := &sg.Shards[s]
		st := &states[s]
		nL, nH := len(sh.Verts), sh.NumHalo()
		st.adj = adjacency{off: sh.Off, to: sh.To, w: sh.W}
		st.verts = sh.Verts
		st.nLocal = nL
		st.haloOwner, st.haloLocal = sh.HaloOwner, sh.HaloLocal
		st.xref = make([][]float64, nL)      // lint:checked noalloc: per-call shard view of the reference rows
		st.labelled = make([]bool, nL)       // lint:checked noalloc: per-call shard view of the label mask
		st.cur = make([]float64, (nL+nH)*Y)  // lint:checked noalloc: per-call owned+halo belief buffer, reused every sweep
		st.next = make([]float64, (nL+nH)*Y) // lint:checked noalloc: per-call ping-pong partner of cur
		for li, gi := range sh.Verts {
			st.xref[li] = xref[gi]
			st.labelled[li] = labelled[gi]
			copy(st.cur[li*Y:(li+1)*Y], X[int(gi)*Y:(int(gi)+1)*Y])
		}
		if assert.Enabled {
			assert.CSRMonotonic(sh.Off, len(sh.To), "sharded propagate adjacency")
		}
	}
	// Initial halo fill: cur halo regions mirror the owners' initial rows.
	for s := range states {
		st := &states[s]
		base := st.nLocal * Y
		for i := range st.haloOwner {
			src := states[st.haloOwner[i]].cur
			o := int(st.haloLocal[i]) * Y
			copy(st.cur[base+i*Y:base+(i+1)*Y], src[o:o+Y])
		}
	}

	checkRows := false
	if assert.Enabled {
		checkRows = assert.Stochastic(X, Y)
		for v := 0; checkRows && v < n; v++ {
			if labelled[v] && !assert.Stochastic(xref[v], Y) {
				checkRows = false
			}
		}
	}

	// The loss runs the flat kernel over a gathered global matrix, so it
	// accumulates in global vertex order — bit-identical to RunFlat. Both
	// scratch pieces are skipped entirely under LossEvery < 0.
	var glob []float64
	var gadj adjacency
	if cfg.LossEvery >= 0 {
		glob = make([]float64, n*Y)        // lint:checked noalloc: opt-in loss scratch, skipped entirely under LossEvery < 0
		gadj = adjacencyOf(sg.G, n, false) // lint:checked noalloc: opt-in loss CSR, built once per call
	}
	gatherLoss := func() float64 { // lint:checked noalloc: one closure per call
		for s := range states {
			st := &states[s]
			for li, gi := range st.verts {
				copy(glob[int(gi)*Y:int(gi)*Y+Y], st.cur[li*Y:li*Y+Y])
			}
		}
		return lossFlat(gadj, glob, xref, labelled, n, cfg.Mu, cfg.Nu)
	}

	var res Result
	if cfg.lossWanted(0, cfg.Iterations == 0) {
		res.Loss = make([]float64, 0, cfg.Iterations+1) // lint:checked noalloc: opt-in loss history, sized once up front
		res.Loss = append(res.Loss, gatherLoss())       // lint:checked noalloc: append stays within the capacity reserved above
	}
	if cfg.Iterations == 0 {
		return res, nil
	}

	workers := cfg.Workers
	if workers > S {
		workers = S
	}
	var sweepGuard assert.SweepGuard
	for it := 0; it < cfg.Iterations; it++ {
		var sweepToken uint64
		if assert.Enabled {
			sweepToken = sweepGuard.BeginSweep("sharded propagate belief matrix")
		}
		// Update pass: every shard sweeps its owned rows, reading cur
		// (owned + halo) and writing its own next. Writes are disjoint by
		// construction — worker w owns shards [lo,hi) and touches only
		// states[s] for s in its block.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) { // lint:checked noalloc: sweep-pass goroutines + closure are per-sweep runtime cost accepted by design; TestShardedSweepAllocGuard bounds the total
				defer wg.Done()
				if assert.Enabled {
					sweepGuard.CheckSweep(sweepToken, "sharded propagate belief matrix")
				}
				for s := lo; s < hi; s++ {
					adj := states[s].adj
					cur, next := states[s].cur, states[s].next
					xr, lab := states[s].xref, states[s].labelled
					var maxDelta float64
					for li, nL := 0, states[s].nLocal; li < nL; li++ {
						row := li * Y
						d := updateRow(adj, cur, xr, lab, li, cfg.Mu, cfg.Nu, uniform, next[row:row+Y])
						if d > maxDelta {
							maxDelta = d
						}
					}
					states[s].delta = maxDelta
				}
			}(S*w/workers, S*(w+1)/workers)
		}
		wg.Wait()
		// Halo exchange: each shard refreshes its own next-buffer halo
		// region from the owners' freshly written owned rows. Reads cross
		// shards; writes stay within the worker's own shard block.
		var xg sync.WaitGroup
		for w := 0; w < workers; w++ {
			xg.Add(1)
			go func(lo, hi int) { // lint:checked noalloc: halo-exchange goroutines + closure, same per-sweep cost as the update pass
				defer xg.Done()
				if assert.Enabled {
					sweepGuard.CheckSweep(sweepToken, "sharded propagate belief matrix")
				}
				for s := lo; s < hi; s++ {
					dst := states[s].next
					base := states[s].nLocal * Y
					ho, hl := states[s].haloOwner, states[s].haloLocal
					for i := range ho {
						src := states[ho[i]].next
						o := int(hl[i]) * Y
						copy(dst[base+i*Y:base+(i+1)*Y], src[o:o+Y])
					}
				}
			}(S*w/workers, S*(w+1)/workers)
		}
		xg.Wait()
		if assert.Enabled {
			sweepGuard.EndSweep(sweepToken, "sharded propagate belief matrix")
		}
		// Buffer swap belongs to the spawner: swapping slice headers
		// inside the exchange goroutines would race with readers of the
		// neighbouring shards' states.
		res.MaxDelta = 0
		for s := range states {
			states[s].cur, states[s].next = states[s].next, states[s].cur
			if states[s].delta > res.MaxDelta {
				res.MaxDelta = states[s].delta
			}
		}
		if assert.Enabled {
			for s := range states {
				assert.NoNaN(states[s].cur, "sharded propagate beliefs after sweep")
				if checkRows {
					assert.RowsSumToOne(states[s].cur, Y, "sharded propagate beliefs after sweep")
				}
			}
		}
		stop := cfg.Tolerance > 0 && res.MaxDelta <= cfg.Tolerance
		if cfg.lossWanted(it+1, stop || it == cfg.Iterations-1) {
			res.Loss = append(res.Loss, gatherLoss()) // lint:checked noalloc: loss history append within the capacity reserved up front
		}
		if stop {
			break
		}
	}

	// Scatter the owned regions back into the caller's flat matrix.
	for s := range states {
		st := &states[s]
		for li, gi := range st.verts {
			copy(X[int(gi)*Y:int(gi)*Y+Y], st.cur[li*Y:li*Y+Y])
		}
	}
	return res, nil
}
