package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified; an empty slice yields NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankPercentile is the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func rankPercentile(sorted []float64, p float64) float64 {
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the index of the nearest-rank p-th percentile among n
// sorted samples.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100)) - 1
	return min(max(k, 0), n-1)
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// minTail is how many samples a reported tail percentile must have beyond
// it, so that one outlier cannot set it.
const minTail = 10

// tailPercentile picks the highest percentile of ladder (sorted
// descending) that leaves at least minTail of n samples beyond it, and
// reports false when none does.
func tailPercentile(n int, ladder []float64) (float64, bool) {
	for _, p := range ladder {
		if beyond(n, p) >= minTail {
			return p, true
		}
	}
	return 0, false
}

// tailLadder is the percentile ladder the reported open-loop tail walks
// down: p99.9 from 10000 samples, p99 from 1000, and so on.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// micros converts durations to microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// mark is a snapshot of the process counters a span is measured with:
// wall clock, process CPU time (user+system, all threads) and the heap
// allocation counters.
type mark struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// span is the difference of two marks.
type span struct {
	Wall   time.Duration
	CPU    time.Duration
	Allocs uint64
	Bytes  uint64
}

// takeMark reads the counters. ReadMemStats stops the world briefly, so
// marks belong at layer boundaries, never inside a loop being timed.
func takeMark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{wall: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// since is the span from m to end.
func (m mark) since(end mark) span {
	return span{
		Wall:   end.wall.Sub(m.wall),
		CPU:    end.cpu - m.cpu,
		Allocs: end.mallocs - m.mallocs,
		Bytes:  end.bytes - m.bytes,
	}
}

// measureSpan runs fn between two marks.
func measureSpan(fn func() error) (span, error) {
	start := takeMark()
	err := fn()
	return start.since(takeMark()), err
}

// processCPU is the CPU time the process has used in user and system
// mode, summed over its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
