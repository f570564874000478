// Walkthrough reproduces the paper's Figure 1 worked example: the labelled
// data contains "wilms tumor - 1" as a gene and "'s tumor - 1 subclone" as
// background, which misleads the base CRF about "-" inside gene mentions;
// graph propagation over shared 3-gram contexts corrects the labels of the
// unlabelled sentences. The program prints the CRF posteriors, the vertex
// beliefs before and after propagation, the α-combination, and the final
// Viterbi labels, mirroring the figure's narration.
package main

import (
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/graphner"
	"repro/internal/tokenize"
)

func main() {
	labelled := corpus.New()
	mk := func(c *corpus.Corpus, id, text string, tags []corpus.Tag) {
		s := &corpus.Sentence{ID: id, Text: text, Tokens: tokenize.Sentence(text)}
		if tags != nil && len(tags) != len(s.Tokens) {
			log.Fatalf("%s: %d tags for %d tokens", id, len(tags), len(s.Tokens))
		}
		s.Tags = tags
		c.Sentences = append(c.Sentences, s)
	}
	T := func(ts ...corpus.Tag) []corpus.Tag { return ts }
	const (
		B = corpus.B
		I = corpus.I
		O = corpus.O
	)
	// The labelled data of Figure 1 (expanded with a few more sentences so
	// the CRF has enough signal to train).
	mk(labelled, "L1", "drug response was significant in wilms tumor - 1 positive patients .",
		T(O, O, O, O, O, B, I, I, I, O, O, O))
	mk(labelled, "L2", "we observed the following mutations in wilms tumor - 1 .",
		T(O, O, O, O, O, O, B, I, I, I, O))
	mk(labelled, "L3", "we did not observe this mutation in the patient 's tumor - 1 subclone .",
		T(O, O, O, O, O, O, O, O, O, O, O, O, O, O, O, O))
	mk(labelled, "L4", "expression of wilms tumor - 1 was high in these samples .",
		T(O, O, B, I, I, I, O, O, O, O, O, O))
	mk(labelled, "L5", "mutations of wilms tumor - 1 were frequent .",
		T(O, O, B, I, I, I, O, O, O))
	mk(labelled, "L6", "the patient 's tumor - 1 subclone was sequenced .",
		T(O, O, O, O, O, O, O, O, O, O, O))

	unlabelled := corpus.New()
	mk(unlabelled, "U1", "wilms tumor - 1 ( wt1 ) gene was highly expressed .", nil)
	mk(unlabelled, "U2", "we did not observe this mutation in the patient 's tumor - 2 subclone .", nil)

	cfg := graphner.Default()
	cfg.Alpha = 0.1 // the figure's walkthrough value
	cfg.Order = crf.Order1
	cfg.CRFIterations = 50
	cfg.K = 5
	cfg.Mu = 0.5
	cfg.Nu = 0.01
	cfg.Iterations = 3

	fmt.Println("== TRAIN: fit base CRF, record reference distributions over V_l ==")
	sys, err := graphner.Train(labelled, cfg)
	if err != nil {
		log.Fatal(err)
	}
	refs := graphner.ReferenceDistributions(labelled)
	show := func(words []string, i int) {
		g := corpus.Trigram(words, i)
		if d, ok := refs[g]; ok {
			fmt.Printf("  X_ref%v = (B=%.2f, I=%.2f, O=%.2f)\n", g, d[B], d[I], d[O])
		} else {
			fmt.Printf("  X_ref%v: not in labelled data\n", g)
		}
	}
	w := []string{"wilms", "tumor", "-", "1"}
	show(w, 2) // [tumor - 1]
	show(w, 1) // [wilms tumor -]

	fmt.Println("\n== TEST line 5: CRF posteriors on the unlabelled data ==")
	post := sys.Posteriors(unlabelled)
	printDash := func(tag string, si int, posts [][]float64) {
		s := unlabelled.Sentences[si]
		for i, tok := range s.Tokens {
			if tok.Text == "-" {
				fmt.Printf("  %s %q token %d: (B=%.2f, I=%.2f, O=%.2f)\n",
					tag, s.ID, i, posts[i][B], posts[i][I], posts[i][O])
			}
		}
	}
	printDash("posterior of '-':", 0, post[0])
	printDash("posterior of '-':", 1, post[1])

	fmt.Println("\n== TEST lines 6-7: averaged beliefs, propagated on the graph ==")
	out, err := sys.Test(unlabelled)
	if err != nil {
		log.Fatal(err)
	}
	g := out.Graph
	for _, words := range [][]string{{"wilms", "tumor", "-", "1"}, {"tumor", "-", "2"}} {
		idx := 2
		if len(words) == 3 {
			idx = 1
		}
		tri := corpus.Trigram(words, idx)
		if vi := g.Lookup(tri); vi >= 0 {
			x := out.VertexBeliefs[vi*corpus.NumTags : (vi+1)*corpus.NumTags]
			fmt.Printf("  after propagation X%v = (B=%.2f, I=%.2f, O=%.2f)\n", tri, x[B], x[I], x[O])
		}
	}

	fmt.Println("\n== TEST lines 8-9: α-combination and final Viterbi labels ==")
	for si, s := range unlabelled.Sentences {
		fmt.Printf("  %s: ", s.ID)
		for i, tok := range s.Tokens {
			fmt.Printf("%s/%s ", tok.Text, out.Tags[si][i])
		}
		fmt.Println()
	}

	// Confirm the figure's claims programmatically.
	u1 := out.Tags[0]
	if u1[0] == B && u1[1] == I && u1[2] == I && u1[3] == I {
		fmt.Println("\nOK: 'wilms tumor - 1' in U1 is labelled B I I I, as in Figure 1(d).")
	} else {
		fmt.Println("\nUNEXPECTED: U1 gene labels are", u1[:4])
	}
	u2 := out.Tags[1]
	clean := true
	for _, t := range u2 {
		if t != O {
			clean = false
		}
	}
	if clean {
		fmt.Println("OK: U2 ('... tumor - 2 subclone') stays all-O, as in Figure 1.")
	} else {
		fmt.Println("UNEXPECTED: U2 labels are", u2)
	}
}
