package graphner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/crf"
	"repro/internal/graph"
	"repro/internal/tokenize"
)

// frozenSystem trains a small system and runs the TEST pass an artifact
// freezes. The result is cached — several tests share it read-only, and
// training is the dominant cost.
var frozenOnce struct {
	sync.Once
	sys  *System
	test *corpus.Corpus
	out  *Output
	err  error
}

func frozenSystem(t *testing.T) (*System, *corpus.Corpus, *Output) {
	t.Helper()
	frozenOnce.Do(func() {
		cfg := synth.DefaultConfig(synth.AML, 31)
		cfg.Sentences = 200
		train, test := synth.GenerateSplit(cfg)
		gcfg := fastConfig()
		gcfg.CRFIterations = 20
		sys, err := Train(train, gcfg)
		if err != nil {
			frozenOnce.err = err
			return
		}
		out, err := sys.Test(test)
		if err != nil {
			frozenOnce.err = err
			return
		}
		frozenOnce.sys, frozenOnce.test, frozenOnce.out = sys, test, out
	})
	if frozenOnce.err != nil {
		t.Fatal(frozenOnce.err)
	}
	return frozenOnce.sys, frozenOnce.test, frozenOnce.out
}

func TestArtifactRoundTrip(t *testing.T) {
	sys, test, out := frozenSystem(t)
	art, err := sys.Freeze(test, out)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.Checksum() == "" || got.Checksum() != art.Checksum() {
		t.Errorf("checksum mismatch: wrote %q, read %q", art.Checksum(), got.Checksum())
	}
	if !reflect.DeepEqual(got.Config(), art.Config()) {
		t.Errorf("config round trip: got %+v want %+v", got.Config(), art.Config())
	}
	if got.Config().LossEvery != -1 {
		t.Errorf("frozen LossEvery = %d, want the serving default -1", got.Config().LossEvery)
	}
	if !reflect.DeepEqual(got.Model(), art.Model()) {
		t.Error("model lost in round trip")
	}
	if !got.Graph().Equal(art.Graph()) {
		t.Error("graph lost in round trip")
	}
	if !reflect.DeepEqual(got.Beliefs(), art.Beliefs()) {
		t.Error("beliefs lost in round trip")
	}
	if !reflect.DeepEqual(got.names, art.names) {
		t.Error("alphabet lost in round trip")
	}
	if !reflect.DeepEqual(got.xref, art.xref) {
		t.Error("reference distributions lost in round trip")
	}
	if !reflect.DeepEqual(got.Transitions(), art.Transitions()) {
		t.Error("transitions differ after round trip")
	}
	if len(got.FrozenCorpus().Sentences) != len(test.Sentences) {
		t.Fatalf("frozen corpus has %d sentences, want %d",
			len(got.FrozenCorpus().Sentences), len(test.Sentences))
	}

	// The reconstructed system must reproduce the frozen TEST labels.
	loaded, err := got.System(nil)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := loaded.Test(got.FrozenCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Tags, out2.Tags) {
		t.Error("reconstructed system labels the frozen corpus differently")
	}
}

// TestArtifactLSHConfigRoundTrip pins the version-2 config section: a
// frozen system carrying an LSH graph mode keeps every LSH knob through
// WriteTo/ReadArtifact.
func TestArtifactLSHConfigRoundTrip(t *testing.T) {
	sys, test, out := frozenSystem(t)
	cp := *sys
	cp.cfg.GraphMode = graph.ModeLSH
	cp.cfg.LSH = graph.LSHConfig{Bits: 7, Tables: 13, MaxBucket: 800, Rerank: 50, Refine: 2, MultiProbe: true, Seed: 77}
	art, err := cp.Freeze(test, out)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Config().GraphMode != graph.ModeLSH {
		t.Errorf("GraphMode = %v after artifact round trip, want lsh", got.Config().GraphMode)
	}
	if want := cp.cfg.LSH; got.Config().LSH != want {
		t.Errorf("LSH config after artifact round trip:\n got %+v\nwant %+v", got.Config().LSH, want)
	}
}

// TestArtifactFullConfigRoundTrip pins every persistable Config field
// through Freeze → WriteTo → ReadArtifact → Artifact.System, including
// the ones a partial encoding can silently drop (Shards was dropped
// once). Workers is machine-local — re-derived from GOMAXPROCS on the
// loading machine — and Extractor is supplied by the caller.
func TestArtifactFullConfigRoundTrip(t *testing.T) {
	// Every Config field, each set to a non-default value below or
	// handled as machine-local. A new field must be added here (and to
	// the artifact encoding) before this test passes again.
	fields := []string{
		"Alpha", "Mu", "Nu", "Iterations", "K", "Mode", "MIThreshold",
		"Order", "L2", "CRFIterations", "Extractor", "Workers", "MaxDF",
		"Shards", "GraphMode", "LSH", "LossEvery", "TransitionPower",
	}
	ct := reflect.TypeOf(Config{})
	if ct.NumField() != len(fields) {
		t.Fatalf("Config has %d fields, this test covers %d: set and check the new one", ct.NumField(), len(fields))
	}
	for _, name := range fields {
		if _, ok := ct.FieldByName(name); !ok {
			t.Fatalf("Config has no field %s", name)
		}
	}

	cfg := synth.DefaultConfig(synth.AML, 33)
	cfg.Sentences = 120
	train, test := synth.GenerateSplit(cfg)

	gcfg := fastConfig()
	gcfg.CRFIterations = 10
	gcfg.Alpha = 0.17
	gcfg.Mu = 3e-5
	gcfg.Nu = 4e-6
	gcfg.Iterations = 5
	gcfg.K = 7
	gcfg.Mode = graph.MIFeatures
	gcfg.MIThreshold = 0.0005
	gcfg.L2 = 2.5
	gcfg.Workers = 3
	gcfg.MaxDF = 123
	gcfg.Shards = 3
	gcfg.LossEvery = 4
	gcfg.TransitionPower = 0.11
	gcfg.GraphMode = graph.ModeLSH
	gcfg.LSH = graph.LSHConfig{Bits: 9, Tables: 11, MaxBucket: 500, Rerank: 70, Refine: 3, MultiProbe: true, Seed: 42}
	sys, err := Train(train, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	art, err := sys.Freeze(test, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := read.System(nil)
	if err != nil {
		t.Fatal(err)
	}

	want := sys.Config()
	got := loaded.Config()
	if want := runtime.GOMAXPROCS(0); got.Workers != want {
		t.Errorf("loaded Workers = %d, want %d re-derived from GOMAXPROCS", got.Workers, want)
	}
	if got.Extractor == nil {
		t.Error("loaded Extractor is nil, want the default extractor")
	}
	want.Workers, got.Workers = 0, 0
	want.Extractor, got.Extractor = nil, nil
	if !reflect.DeepEqual(want, got) {
		t.Errorf("config round trip:\n got %+v\nwant %+v", got, want)
	}
	if got.Shards != 3 {
		t.Errorf("Shards = %d after round trip, want 3", got.Shards)
	}
	if got.LossEvery != 4 {
		t.Errorf("LossEvery = %d after round trip, want 4", got.LossEvery)
	}
	if got.GraphMode != graph.ModeLSH {
		t.Errorf("GraphMode = %v after round trip, want lsh", got.GraphMode)
	}
	wantLSH := graph.LSHConfig{Bits: 9, Tables: 11, MaxBucket: 500, Rerank: 70, Refine: 3, MultiProbe: true, Seed: 42}
	if got.LSH != wantLSH {
		t.Errorf("LSH config round trip:\n got %+v\nwant %+v", got.LSH, wantLSH)
	}
}

// TestArtifactDeterministic locks in the byte-determinism contract: two
// writes of the same artifact are identical files with identical
// checksums.
func TestArtifactDeterministic(t *testing.T) {
	sys, test, out := frozenSystem(t)
	art, err := sys.Freeze(test, out)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := art.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	sum := art.Checksum()
	if _, err := art.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same artifact differ")
	}
	if art.Checksum() != sum {
		t.Fatal("checksum changed between identical writes")
	}
}

func TestFreezeValidates(t *testing.T) {
	sys, test, out := frozenSystem(t)
	if _, err := sys.Freeze(corpus.New(), nil); err == nil {
		t.Error("empty frozen corpus accepted")
	}
	if _, err := sys.Freeze(test, &Output{}); err == nil {
		t.Error("output without graph accepted")
	}
	bad := *out
	bad.VertexBeliefs = out.VertexBeliefs[:1]
	if _, err := sys.Freeze(test, &bad); err == nil {
		t.Error("belief/vertex count mismatch accepted")
	}
}

// wantReadError writes the artifact, applies corrupt to the bytes, and
// asserts ReadArtifact fails mentioning substr.
func wantReadError(t *testing.T, art *Artifact, corrupt func([]byte) []byte, substr string) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := corrupt(append([]byte(nil), buf.Bytes()...))
	_, err := ReadArtifact(bytes.NewReader(raw))
	if err == nil {
		t.Fatalf("corrupted artifact (%s) accepted", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestArtifactReadFailures(t *testing.T) {
	sys, test, out := frozenSystem(t)
	art, err := sys.Freeze(test, out)
	if err != nil {
		t.Fatal(err)
	}
	ident := func(b []byte) []byte { return b }

	wantReadError(t, art, func(b []byte) []byte { return b[:10] }, "truncated header")
	// A header alone that promises the largest accepted payload: the
	// reader must report truncation without reserving 64 GiB first.
	wantReadError(t, art, func(b []byte) []byte {
		b = b[:artifactHeaderSize]
		binary.LittleEndian.PutUint64(b[16:], 1<<36)
		return b
	}, "truncated payload")
	wantReadError(t, art, func(b []byte) []byte { return b[:len(b)-7] }, "truncated payload")
	wantReadError(t, art, func(b []byte) []byte { b[0] = 'X'; return b }, "magic")
	wantReadError(t, art, func(b []byte) []byte { b[8] = 99; return b }, "version")
	wantReadError(t, art, func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "checksum")

	// Structural failures: encode a deliberately inconsistent artifact
	// (same package, so the fields are reachable) and verify the decoder
	// rejects it rather than building a partial artifact.
	short := *art
	short.beliefs = art.beliefs[:len(art.beliefs)-corpus.NumTags]
	wantReadError(t, &short, ident, "belief matrix")

	badModel := *art
	m := *art.model
	m.W = m.W[:len(m.W)-1]
	badModel.model = &m
	wantReadError(t, &badModel, ident, "emission weights")

	badOrder := *art
	mo := *art.model
	mo.Order = 7
	badOrder.model = &mo
	wantReadError(t, &badOrder, ident, "invalid shape")

	badCSR := *art
	g := *art.graph
	g.EdgeOffsets = append([]int32(nil), g.EdgeOffsets...)
	g.EdgeOffsets[0] = -1
	badCSR.graph = &g
	wantReadError(t, &badCSR, ident, "offsets start")

	badNames := *art
	badNames.names = art.names[:len(art.names)-1]
	wantReadError(t, &badNames, ident, "alphabet")

	badTags := *art
	badTags.train = corpus.New()
	badTags.train.Sentences = append(badTags.train.Sentences, &corpus.Sentence{
		ID: "bad", Text: "a b c", Tokens: tokenize.Sentence("a b c"),
		Tags: []corpus.Tag{corpus.O},
	})
	wantReadError(t, &badTags, ident, "tags for")

	badTagValue := *art
	badTagValue.train = corpus.New()
	badTagValue.train.Sentences = append(badTagValue.train.Sentences, &corpus.Sentence{
		ID: "bad", Text: "a b", Tokens: tokenize.Sentence("a b"),
		Tags: []corpus.Tag{corpus.B, corpus.NumTags},
	})
	wantReadError(t, &badTagValue, ident, "outside the")

	// A model-less artifact must fail at write time.
	if _, err := (&Artifact{}).WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("artifact without model serialized")
	}
}

// tinyArtifact is a valid artifact small enough to be a useful fuzzing
// seed: a two-feature model, one labelled and one frozen sentence, and a
// two-vertex graph.
func tinyArtifact(f *testing.F) []byte {
	f.Helper()
	sent := func(text string, tags []corpus.Tag) *corpus.Sentence {
		return &corpus.Sentence{ID: text, Text: text, Tokens: tokenize.Sentence(text), Tags: tags}
	}
	train, frozen := corpus.New(), corpus.New()
	train.Sentences = append(train.Sentences, sent("kinase binds", []corpus.Tag{corpus.B, corpus.O}))
	frozen.Sentences = append(frozen.Sentences, sent("protein binds", nil))
	g := &graph.Graph{
		K:         1,
		Vertices:  []corpus.NGram{"a", "b"},
		Index:     map[corpus.NGram]int{"a": 0, "b": 1},
		Neighbors: [][]graph.Edge{{{To: 1, Weight: 0.5}}, nil},
	}
	art := &Artifact{
		cfg: Default(),
		model: &crf.Model{
			Order: crf.Order1, NumFeatures: 2, S: corpus.NumTags, BIO: true,
			W: []float64{1, 0, -1, 0, 1, 0}, T: make([]float64, 9), Start: []float64{0, -1, 0},
		},
		names:   []string{"w=kinase", "w=binds"},
		xref:    map[corpus.NGram][]float64{"a": {0.5, 0.25, 0.25}},
		train:   train,
		frozen:  frozen,
		graph:   g.EnsureCSR(),
		beliefs: []float64{0.5, 0.25, 0.25, 1.0 / 3, 1.0 / 3, 1.0 / 3},
	}
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	if _, err := ReadArtifact(bytes.NewReader(buf.Bytes())); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadArtifact feeds arbitrary bytes to ReadArtifact, both as given
// and re-sealed under a header whose length and checksum match, so
// mutations also reach the structural decoder past the checksum. Every
// input must be rejected with an error or yield a valid artifact: one
// whose accessors work and which writes and reads back to the same bytes.
func FuzzReadArtifact(f *testing.F) {
	valid := tinyArtifact(f)
	f.Add(valid)
	for _, n := range []int{0, 10, artifactHeaderSize, artifactHeaderSize + 9, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	oversized := append([]byte(nil), valid[:artifactHeaderSize]...)
	binary.LittleEndian.PutUint64(oversized[16:], 1<<36)
	f.Add(oversized)

	f.Fuzz(func(t *testing.T, raw []byte) {
		checkArtifactBytes(t, raw)
		if len(raw) >= artifactHeaderSize {
			sealed := append([]byte(nil), raw...)
			payload := sealed[artifactHeaderSize:]
			binary.LittleEndian.PutUint64(sealed[16:], uint64(len(payload)))
			sum := sha256.Sum256(payload)
			copy(sealed[24:], sum[:])
			checkArtifactBytes(t, sealed)
		}
	})
}

// checkArtifactBytes asserts ReadArtifact either rejects raw or returns a
// valid artifact.
func checkArtifactBytes(t *testing.T, raw []byte) {
	t.Helper()
	art, err := ReadArtifact(bytes.NewReader(raw))
	if err != nil {
		return
	}
	if got, want := len(art.Beliefs()), art.Graph().NumVertices()*corpus.NumTags; got != want {
		t.Fatalf("accepted artifact has %d belief entries, want %d", got, want)
	}
	art.Transitions()
	comp := art.NewCompiler(nil)
	for _, s := range art.FrozenCorpus().Sentences {
		art.Model().Decode(comp.CompileSentence(s))
	}
	if _, err := art.System(nil); err != nil {
		t.Fatalf("accepted artifact rebuilds no system: %v", err)
	}
	var once, twice bytes.Buffer
	if _, err := art.WriteTo(&once); err != nil {
		t.Fatalf("accepted artifact does not write: %v", err)
	}
	again, err := ReadArtifact(bytes.NewReader(once.Bytes()))
	if err != nil {
		t.Fatalf("rewritten artifact is rejected: %v", err)
	}
	if _, err := again.WriteTo(&twice); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once.Bytes(), twice.Bytes()) {
		t.Fatal("rewritten artifact does not read back to the same bytes")
	}
}
