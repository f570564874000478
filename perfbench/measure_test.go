package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestRankPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := rankPercentile(xs, c.p); got != c.want { // lint:checked exact sample values
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 { // lint:checked exact arithmetic on small integers
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The reported tail percentile is the highest one of the ladder that still
// has at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 99.9, true},
		{10000, 99.9, true}, // rank 9990 of 10000: exactly ten beyond
		{9999, 99, true},    // p99.9 would leave nine beyond
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{99, 75, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true}, // ten beyond p50
		{19, 0, false}, // nine beyond even the median
	} {
		got, ok := tailPercentile(c.n, tailLadder)
		if got != c.want || ok != c.ok { // lint:checked ladder constants
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minTail {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
}

// fakeClock is a single-client clock: time moves only when the client
// sleeps or a request is served.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time { return f.now }

func (f *fakeClock) SleepUntil(t time.Time) {
	if t.After(f.now) {
		f.now = t
	}
}

// An open-loop request is timed from when it was due: a slow request makes
// the next ones late, and that wait counts in their latency and lag.
func TestOpenLoopDueTimeLatency(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0)}
	service := []time.Duration{ms / 2, 5 * ms / 2, ms / 5, ms / 5, ms / 5}
	r := openLoop(clk, len(service), 1, ms, func(c, i int) bool {
		clk.now = clk.now.Add(service[i])
		return i == 4
	})
	wantLat := []time.Duration{ms / 2, 5 * ms / 2, 17 * ms / 10, 9 * ms / 10, ms / 5}
	wantLag := []time.Duration{0, 0, 3 * ms / 2, 7 * ms / 10, 0}
	for i := range service {
		if r.Latency[i] != wantLat[i] || r.Lag[i] != wantLag[i] {
			t.Errorf("request %d: latency %v lag %v, want %v and %v", i, r.Latency[i], r.Lag[i], wantLat[i], wantLag[i])
		}
	}
	if !r.Failed[4] || r.Failed[0] {
		t.Errorf("failures not recorded per request: %v", r.Failed)
	}
	lat := latencies(r.Latency, r.Failed)
	if !math.IsInf(lat[4], 1) || lat[0] != 500 { // lint:checked exact microsecond conversion
		t.Errorf("open-loop latencies in µs = %v; a failed request must count as infinitely late", lat)
	}
}

// With several clients sharing the schedule every request is sent
// exactly once.
func TestOpenLoopSendsEachOnce(t *testing.T) {
	const n, clients = 103, 3
	sent := make([]atomic.Int32, n)
	r := openLoop(wallClock{}, n, clients, time.Microsecond, func(c, i int) bool {
		sent[i].Add(1)
		return false
	})
	for i := range sent {
		if k := sent[i].Load(); k != 1 {
			t.Fatalf("request %d sent %d times", i, k)
		}
	}
	if len(r.Latency) != n {
		t.Fatalf("%d latencies for %d requests", len(r.Latency), n)
	}
}

func TestClosedLoopStops(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		n, want int
		horizon time.Duration
	}{{n: 100, want: 10, horizon: 10 * ms}, {n: 4, want: 4, horizon: time.Second}} {
		clk := &fakeClock{now: time.Unix(0, 0)}
		r := closedLoop(clk, c.n, 1, clk.now.Add(c.horizon), func(_, i int) bool {
			clk.now = clk.now.Add(ms)
			return i%2 == 1
		})
		done, failed := len(r.Latency), 0
		for i, f := range r.Failed {
			if f {
				failed++
			}
			if r.Latency[i] != ms {
				t.Errorf("n=%d: request %d took %v, want %v", c.n, i, r.Latency[i], ms)
			}
		}
		if done != c.want || failed != c.want/2 || r.Elapsed != time.Duration(c.want)*ms {
			t.Errorf("n=%d horizon=%v: done %d failed %d elapsed %v; want %d, %d, %v",
				c.n, c.horizon, done, failed, r.Elapsed, c.want, c.want/2, time.Duration(c.want)*ms)
		}
	}
}

func TestSpanArithmetic(t *testing.T) {
	t0 := time.Unix(100, 0)
	a := mark{wall: t0, cpu: 2 * time.Second, mallocs: 10, bytes: 1000}
	b := mark{wall: t0.Add(3 * time.Second), cpu: 7 * time.Second, mallocs: 25, bytes: 4096}
	got := a.since(b)
	want := span{Wall: 3 * time.Second, CPU: 5 * time.Second, Allocs: 15, Bytes: 3096}
	if got != want {
		t.Errorf("span = %+v, want %+v", got, want)
	}
}

var sink [][]byte

// A span's allocation counts cover what runs inside it, and its CPU time
// covers work but not sleep.
func TestSpanMeasuresWork(t *testing.T) {
	sp, err := measureSpan(func() error {
		sink = make([][]byte, 1000)
		for i := range sink {
			sink[i] = make([]byte, 1024)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Allocs < 1000 || sp.Bytes < 1000*1024 {
		t.Errorf("span over 1000 × 1 KiB allocations counted %d allocs, %d bytes", sp.Allocs, sp.Bytes)
	}
	sink = nil

	busy, _ := measureSpan(func() error {
		for start := processCPU(); processCPU()-start < 20*time.Millisecond; {
		}
		return nil
	})
	if busy.CPU < 20*time.Millisecond {
		t.Errorf("busy span used %v CPU, want at least 20ms", busy.CPU)
	}
	idle, _ := measureSpan(func() error {
		time.Sleep(50 * time.Millisecond)
		return nil
	})
	if idle.Wall < 50*time.Millisecond || idle.CPU > idle.Wall/2 {
		t.Errorf("sleeping span: wall %v, CPU %v", idle.Wall, idle.CPU)
	}
}

// A timed sample is scaled by the mean of the calibration samples taken
// just before and just after it; a rate is divided by the same factor.
func TestAtReference(t *testing.T) {
	r := newReport()
	r.calib = append(r.calib, calSample{compute: calibrationRef / 2, memory: calibrationRef / 2})
	r.timed("x", 2)
	r.calib = append(r.calib, calSample{compute: 3 * calibrationRef})
	r.timed("last", 3) // no sample follows: the one before is used alone
	for _, c := range []struct {
		name string
		exp  int
		want float64
	}{{"x", 1, 1}, {"x", -1, 4}, {"last", 1, 1}} {
		got := r.atReference(c.name, c.exp)
		if len(got) != 1 || math.Abs(got[0]-c.want) > 1e-12 {
			t.Errorf("atReference(%s, %d) = %v, want [%v]", c.name, c.exp, got, c.want)
		}
	}
	if got := r.measuredMedian("x"); got != 2 { // lint:checked exact stored value
		t.Errorf("measured median = %v, want 2", got)
	}
}
