package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// A second seed must give a structurally identical workload: the same
// corpus sizes and request classes, with different text. A claim made on
// one seed can then be re-run on a held-out one.
func TestSecondSeedSameShape(t *testing.T) {
	for _, w := range workloads {
		trainA, testA := corpora(1, w.sentences)
		trainB, testB := corpora(2, w.sentences)
		if len(trainA.Sentences) != len(trainB.Sentences) || len(testA.Sentences) != len(testB.Sentences) {
			t.Errorf("%s: split sizes differ between seeds: %d/%d vs %d/%d", w.name,
				len(trainA.Sentences), len(testA.Sentences), len(trainB.Sentences), len(testB.Sentences))
		}
		if len(trainA.Sentences)+len(testA.Sentences) != w.sentences || len(trainA.Sentences) != w.sentences*3/4 {
			t.Errorf("%s: split %d/%d, want %d sentences at 75/25", w.name, len(trainA.Sentences), len(testA.Sentences), w.sentences)
		}
		if reflect.DeepEqual(texts(testA), texts(testB)) {
			t.Errorf("%s: seeds 1 and 2 generated the same test text", w.name)
		}
	}

	const n = 20000
	var firstHits []request
	for _, seed := range []int64{1, 2} {
		_, test := corpora(seed, workloads[0].sentences)
		frozen := texts(test)
		src := newNovelSource(seed, frozen)
		novel, err := src.next(n / 2)
		if err != nil {
			t.Fatal(err)
		}
		more, err := src.next(n / 2)
		if err != nil {
			t.Fatal(err)
		}
		novel = append(novel, more...)
		inFrozen := make(map[string]bool, len(frozen))
		for _, s := range frozen {
			inFrozen[s] = true
		}
		seen := map[string]bool{}
		for _, text := range novel {
			if inFrozen[text] || seen[text] {
				t.Fatalf("seed %d: novel text %q is frozen or repeats an earlier one", seed, text)
			}
			seen[text] = true
		}
		plan := &servePlan{frozen: frozen, hitOrder: hitOrder(seed, len(frozen))}
		counts := make([]int, len(frozen))
		hits := make([]request, n)
		for i := range hits {
			r := plan.hit(i)
			if r.frozen < 0 || r.text != frozen[r.frozen] {
				t.Fatalf("seed %d: hit request %+v is not a frozen sentence", seed, r)
			}
			counts[r.frozen]++
			hits[i] = r
		}
		if lo, hi := slices.Min(counts), slices.Max(counts); hi-lo > 1 {
			t.Errorf("seed %d: frozen sentences requested %d to %d times, want equally often", seed, lo, hi)
		}
		if firstHits == nil {
			firstHits = hits
		} else if reflect.DeepEqual(hits, firstHits) {
			t.Error("seeds 1 and 2 drew the same hit requests")
		}
	}
}

// BENCHMARK.json at the repository root declares the same workloads and
// metrics, with the same units, as this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricSpec) {
		var got []metricSpec
		for _, m := range declared {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, printed) {
			t.Errorf("BENCHMARK.json %s metrics differ from the program's:\n declared %v\n printed  %v", kind, got, printed)
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd)
	check("per-layer", b.PerLayer, perLayer)
}

// Bad arguments fail without printing a result.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "offline-exact", "--trace", "2"},
		{"--workload", "offline-exact", "--seconds", "0"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code == 0 || out.String() != "" {
			t.Errorf("run(%v) = %d with output %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
