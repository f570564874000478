package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/corpus"
	"repro/internal/graphner"
	"repro/internal/serving"
)

// tagBufLen bounds the tokens per served sentence; synth sentences are far
// shorter, so a short-buffer error is a failure, not a retry.
const tagBufLen = 1024

// servePlan is everything serving replays: the frozen artifact's bytes,
// the frozen sentences with the tags System.Test gave them, the seeded
// order hits cycle through, and the source of novel texts for misses.
type servePlan struct {
	blob     []byte
	frozen   []string
	want     [][]corpus.Tag
	hitOrder []int
	novel    *novelSource
}

// newServePlan freezes the tested system and prepares the request
// sources.
func newServePlan(seed int64, sys *graphner.System, test *corpus.Corpus, out *graphner.Output) (*servePlan, error) {
	art, err := sys.Freeze(test, out)
	if err != nil {
		return nil, err
	}
	var blob bytes.Buffer
	if _, err := art.WriteTo(&blob); err != nil {
		return nil, err
	}
	frozen := texts(test)
	return &servePlan{
		blob:     blob.Bytes(),
		frozen:   frozen,
		want:     out.Tags,
		hitOrder: hitOrder(seed, len(frozen)),
		novel:    newNovelSource(seed, frozen),
	}, nil
}

// hitOrder is the seeded order in which hits cycle through n frozen
// sentences.
func hitOrder(seed int64, n int) []int { return rand.New(rand.NewSource(seed)).Perm(n) }

// hit is the i-th cache-hit request: the frozen sentences in a seeded
// random order, cycled, so every frozen sentence is requested equally
// often.
func (p *servePlan) hit(i int) request {
	f := p.hitOrder[i%len(p.hitOrder)]
	return request{text: p.frozen[f], frozen: f}
}

// Closed-loop ceilings bound how many requests of each class one closed
// window can take: more per second than two cores serve of that class,
// so a window runs out of time, not of requests. One 2-core VM served
// 45000–120000 hits/s and 5000–19000 misses/s within a day, as the host's
// speed changed.
const (
	hitCeiling  = 300000
	missCeiling = 40000
)

// Open-loop arrival rates, in requests per second, of the two classes.
// Each is at most a fifth of what two cores serve of that class in the
// closed loop.
const (
	hitRate  = 4000
	missRate = 1000
)

// openLoopTime is how long each class's open loop lasts. The open loops
// feed the notes only (see putServeMetrics).
const openLoopTime = time.Second

// checkEvery selects the novel responses a run verifies: every
// checkEvery-th miss is replayed through a single Tagger Scratch, which
// bounds the replay's cost.
const checkEvery = 50

// closedWindow is how long each closed loop lasts. The throughput metric
// is the median window, so a stall of the host moves one window, not the
// metric. A window must be long enough to hold several garbage
// collections: misses allocate enough to collect several times a second,
// and on a 2-core VM a 100 ms window holding one collection more served
// about a quarter fewer misses.
const closedWindow = 400 * time.Millisecond

// warmPasses is how often set-up sends every frozen sentence through the
// server. The server hands each request to whichever worker is free, and
// a worker caches only the sentences it compiled itself, so one pass
// leaves each sentence cached on one worker. The passes come from nproc
// clients, each pass in another order, so the requests land on workers
// about at random: after eight passes a worker still lacks a given
// sentence with a probability of about 2^-8.
const warmPasses = 8

// startServer is the serving set-up: validate and decode the artifact,
// start a server with the library defaults, and warm it.
func startServer(plan *servePlan) (*serving.Server, error) {
	art, err := graphner.ReadArtifact(bytes.NewReader(plan.blob))
	if err != nil {
		return nil, err
	}
	srv, err := serving.NewServer(art, serving.Config{})
	if err != nil {
		return nil, err
	}
	if err := warm(srv, plan); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// warm puts every frozen sentence into every worker's compiled-sentence
// cache (see warmPasses), checking each answer against System.Test.
func warm(srv *serving.Server, plan *servePlan) error {
	n := len(plan.frozen)
	errs := make([]error, n)
	for p := 0; p < warmPasses; p++ {
		order := rand.New(rand.NewSource(int64(p))).Perm(n)
		parallel(n, func(k int) {
			i := order[k]
			buf := make([]corpus.Tag, tagBufLen)
			got, err := srv.TagInto(plan.frozen[i], time.Time{}, buf)
			switch {
			case err != nil:
				errs[i] = fmt.Errorf("warm-up: frozen sentence %d: %w", i, err)
			case !slices.Equal(buf[:got], plan.want[i]):
				errs[i] = fmt.Errorf("warm-up: frozen sentence %d: served tags differ from System.Test", i)
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// classOutcome is what one request class measured: its open loop, and
// the median latency and the throughput of each closed-loop window.
type classOutcome struct {
	open                     openLoopResult
	p50, sps                 []float64
	closedDone, closedFailed int
	// gcCycles counts the garbage collections during the closed loops.
	gcCycles uint32
}

// counts is how many requests the class sent and how many failed.
func (o classOutcome) counts() (attempted, failed int) {
	for _, f := range o.open.Failed {
		if f {
			failed++
		}
	}
	return len(o.open.Failed) + o.closedDone, failed + o.closedFailed
}

// checkedMiss is a novel request whose served tags are replayed through a
// single Tagger Scratch at the end.
type checkedMiss struct {
	text string
	tags []corpus.Tag
}

// serveSession drives one server, class by class, window by window, and
// checks every answer: frozen sentences against System.Test as they come,
// sampled novel ones against a Tagger replay at the end.
type serveSession struct {
	srv       *serving.Server
	plan      *servePlan
	clients   int
	bufs      [][]corpus.Tag
	errs      []error
	hit, miss classOutcome
	// nextHit is the index of the next hit request; pending holds novel
	// texts not sent yet, sent counts the novel texts sent.
	nextHit int
	pending []string
	sent    int
	checked []checkedMiss
}

func newServeSession(srv *serving.Server, plan *servePlan) *serveSession {
	s := &serveSession{srv: srv, plan: plan, clients: runtime.GOMAXPROCS(0)}
	s.bufs = make([][]corpus.Tag, s.clients)
	for c := range s.bufs {
		s.bufs[c] = make([]corpus.Tag, tagBufLen)
	}
	s.errs = make([]error, s.clients)
	return s
}

// hits returns the request function over the hit requests that follow
// s.nextHit; request i is hit s.nextHit+i.
func (s *serveSession) hits() func(c, i int) bool {
	base := s.nextHit
	return func(c, i int) bool {
		r := s.plan.hit(base + i)
		n, err := s.srv.TagInto(r.text, time.Time{}, s.bufs[c])
		if err != nil {
			return true
		}
		if s.errs[c] == nil && !slices.Equal(s.bufs[c][:n], s.plan.want[r.frozen]) {
			s.errs[c] = fmt.Errorf("served tags for frozen sentence %d differ from System.Test", r.frozen)
		}
		return false
	}
}

// misses tops the pending novel texts up to n and returns the request
// function over them, which keeps the tags of every checkEvery-th novel
// text in slots; request i is pending text i.
func (s *serveSession) misses(n int) (func(c, i int) bool, [][]corpus.Tag, error) {
	if k := n - len(s.pending); k > 0 {
		more, err := s.plan.novel.next(k)
		if err != nil {
			return nil, nil, err
		}
		s.pending = append(s.pending, more...)
	}
	pending, base := s.pending, s.sent
	slots := make([][]corpus.Tag, len(pending))
	return func(c, i int) bool {
		n, err := s.srv.TagInto(pending[i], time.Time{}, s.bufs[c])
		if err != nil {
			return true
		}
		if (base+i)%checkEvery == 0 {
			slots[i] = slices.Clone(s.bufs[c][:n])
		}
		return false
	}, slots, nil
}

// consumeMisses drops the first n pending texts, which were sent, keeping
// the sampled answers among them for the replay.
func (s *serveSession) consumeMisses(n int, slots [][]corpus.Tag) {
	for i, tags := range slots[:n] {
		if tags != nil {
			s.checked = append(s.checked, checkedMiss{text: s.pending[i], tags: tags})
		}
	}
	s.pending = slices.Delete(s.pending, 0, n)
	s.sent += n
}

// window runs one closed loop of nproc clients for closedWindow on the
// class, from a collected heap, and returns its median request latency in
// microseconds (failed requests count as infinitely late) and its
// throughput. It fails when the window runs out of requests before its
// time is up, rather than report a throughput over less time.
func (s *serveSession) window(miss bool) (p50, sps float64, err error) {
	o, n, do := &s.hit, int(hitCeiling*closedWindow.Seconds()), s.hits()
	var slots [][]corpus.Tag
	if miss {
		o, n = &s.miss, int(missCeiling*closedWindow.Seconds())
		if do, slots, err = s.misses(n); err != nil {
			return 0, 0, err
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	r := closedLoop(wallClock{}, n, s.clients, time.Now().Add(closedWindow), do)
	runtime.ReadMemStats(&ms)
	o.gcCycles += ms.NumGC - gc0
	done := len(r.Latency)
	if done == n {
		return 0, 0, fmt.Errorf("a closed-loop window ran out of its %d requests", n)
	}
	if miss {
		s.consumeMisses(done, slots)
	} else {
		s.nextHit += done
	}
	ok := done
	for _, f := range r.Failed {
		if f {
			ok--
		}
	}
	o.closedDone += done
	o.closedFailed += done - ok
	p50, sps = median(latencies(r.Latency, r.Failed)), float64(ok)/r.Elapsed.Seconds()
	o.p50, o.sps = append(o.p50, p50), append(o.sps, sps)
	return p50, sps, nil
}

// openLoops runs each class for openLoopTime as an open loop at the
// class's rate, hits first.
func (s *serveSession) openLoops() error {
	runtime.GC()
	n := int(hitRate * openLoopTime.Seconds())
	s.hit.open = openLoop(wallClock{}, n, s.clients, time.Second/hitRate, s.hits())
	s.nextHit += n
	runtime.GC()
	n = int(missRate * openLoopTime.Seconds())
	do, slots, err := s.misses(n)
	if err != nil {
		return err
	}
	s.miss.open = openLoop(wallClock{}, n, s.clients, time.Second/missRate, do)
	s.consumeMisses(n, slots)
	return nil
}

// finish reports the first wrong answer, if any, and replays the sampled
// novel requests, in order, through one Tagger Scratch, comparing the
// tags with what the server answered.
func (s *serveSession) finish() error {
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	tg := s.srv.Tagger()
	sc := tg.NewScratch()
	buf := make([]corpus.Tag, tagBufLen)
	for i, m := range s.checked {
		n, err := tg.TagInto(sc, m.text, buf)
		if err != nil {
			return fmt.Errorf("replay of novel request %d: %w", i*checkEvery, err)
		}
		if !slices.Equal(buf[:n], m.tags) {
			return fmt.Errorf("novel request %d: served tags differ from the Tagger replay", i*checkEvery)
		}
	}
	if len(s.checked) == 0 {
		return fmt.Errorf("no novel response was checked")
	}
	return nil
}

// latencies converts request latencies to microseconds, failed requests
// counting as infinitely late.
func latencies(ds []time.Duration, failed []bool) []float64 {
	lat := micros(ds)
	for i, f := range failed {
		if f {
			lat[i] = math.Inf(1)
		}
	}
	return lat
}

// putServeMetrics counts the served requests and records the serving
// notes. The serving metrics are each of one request class, so that none
// depends on how a real traffic would mix the classes; they are
// closed-loop medians (see runWorkload). In the open loop a stall of the
// host delays every request due during it, and its median moved threefold
// between runs of the same code, so the open-loop latencies and tails go
// to the notes only (see README.md).
func putServeMetrics(rep *report, s *serveSession) {
	rep.count(s.hit.counts())
	rep.count(s.miss.counts())
	hit, miss := latencies(s.hit.open.Latency, s.hit.open.Failed), latencies(s.miss.open.Latency, s.miss.open.Failed)
	rep.info["open_loop_rate_per_s"] = map[string]float64{"hit": hitRate, "miss": missRate}
	rep.info["open_loop_latency_us"] = map[string]any{"hit": tailNotes(hit), "miss": tailNotes(miss)}
	rep.info["closed_loop_clients"] = s.clients
	rep.info["closed_loop_requests"] = map[string]int{"hit": s.hit.closedDone, "miss": s.miss.closedDone}
	rep.info["closed_loop_window_p50_us"] = map[string][]float64{"hit": s.hit.p50, "miss": s.miss.p50}
	rep.info["closed_loop_window_sps"] = map[string][]float64{"hit": s.hit.sps, "miss": s.miss.sps}
	rep.info["closed_loop_gc_cycles"] = map[string]uint32{"hit": s.hit.gcCycles, "miss": s.miss.gcCycles}
	rep.info["novel_responses_checked"] = len(s.checked)
	lag := micros(append(slices.Clone(s.hit.open.Lag), s.miss.open.Lag...))
	rep.info["generator_lag_p50_us"] = median(lag)
	rep.info["generator_lag_max_us"] = slices.Max(lag)
}

// tailNotes describes a latency sample: its size, the highest percentile
// of the ladder with at least ten samples beyond it, every percentile
// from p90 up that has, and the maximum.
func tailNotes(lat []float64) map[string]float64 {
	s := sortedCopy(lat)
	notes := map[string]float64{"samples": float64(len(s)), "max": s[len(s)-1]}
	for _, p := range []float64{90, 95, 99, 99.9} {
		if beyond(len(s), p) >= minTail {
			notes[fmt.Sprintf("p%g", p)] = rankPercentile(s, p)
		}
	}
	if p, ok := tailPercentile(len(s), tailLadder); ok {
		notes["tail_percentile"], notes["tail_us"] = p, rankPercentile(s, p)
	}
	return notes
}
