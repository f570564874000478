package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the time source of the load drivers; tests substitute a fake
// one to check the due-time accounting without real sleeps.
type clock interface {
	Now() time.Time
	// SleepUntil returns no earlier than t.
	SleepUntil(t time.Time)
}

// wallClock sleeps with nanosleep(2) and then yields in a loop for the
// last spinWindow. It avoids the runtime timer, which on an idle process
// wakes through the network poller with millisecond granularity — fifty
// warm requests. nanosleep overshoots by under 150µs at the 99th
// percentile (measured on a 2-core Linux VM), so the loop that follows
// costs little CPU, and it yields to every runnable goroutine.
type wallClock struct{}

const spinWindow = 150 * time.Microsecond

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	// nanosleep returns early when a signal arrives (the runtime's
	// preemption signals do), so sleep again until within the window.
	for d := time.Until(t); d > spinWindow; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d - spinWindow))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is retried by the loop
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoopResult holds one open-loop phase, indexed by request.
type openLoopResult struct {
	// Latency runs from when the request was due to when its answer
	// arrived, so a stall also charges the requests queued behind it.
	Latency []time.Duration
	// Lag runs from when the request was due to when it was sent: how
	// late the generator ran.
	Lag    []time.Duration
	Failed []bool
}

// openLoop sends n requests on a fixed schedule: request i is due at
// start + i·interval, whatever happened to earlier requests. clients
// goroutines share the schedule: each takes the next unsent request,
// waits until it is due and sends it. When every client is still busy at
// a due time the request goes out late, and that wait counts in its
// latency. A client stalled by the OS delays only the request it holds.
// do(c, i) performs request i on client c and reports whether it failed.
func openLoop(clk clock, n, clients int, interval time.Duration, do func(c, i int) bool) openLoopResult {
	res := openLoopResult{
		Latency: make([]time.Duration, n),
		Lag:     make([]time.Duration, n),
		Failed:  make([]bool, n),
	}
	type sample struct {
		i            int
		latency, lag time.Duration
		failed       bool
	}
	start := clk.Now()
	var next atomic.Int64
	parts := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				due := start.Add(time.Duration(i) * interval)
				clk.SleepUntil(due)
				sent := clk.Now()
				failed := do(c, i)
				mine = append(mine, sample{i, clk.Now().Sub(due), sent.Sub(due), failed})
			}
			parts[c] = mine
		}(c)
	}
	wg.Wait()
	for _, p := range parts {
		for _, x := range p {
			res.Latency[x.i], res.Lag[x.i], res.Failed[x.i] = x.latency, x.lag, x.failed
		}
	}
	return res
}

// closedLoopResult holds one closed loop's completed requests, in the
// order each client completed them.
type closedLoopResult struct {
	// Latency runs from when a request was sent to when its answer
	// arrived.
	Latency []time.Duration
	Failed  []bool
	Elapsed time.Duration
}

// closedLoop runs clients goroutines that each send their next request as
// soon as the previous one is answered, taking requests 0, 1, 2, … from a
// shared counter until n are taken or the clock passes deadline.
func closedLoop(clk clock, n, clients int, deadline time.Time, do func(c, i int) bool) closedLoopResult {
	var next atomic.Int64
	parts := make([]closedLoopResult, clients)
	start := clk.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine closedLoopResult
			for t0 := clk.Now(); t0.Before(deadline); t0 = clk.Now() {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				failed := do(c, i)
				mine.Latency = append(mine.Latency, clk.Now().Sub(t0))
				mine.Failed = append(mine.Failed, failed)
			}
			parts[c] = mine
		}(c)
	}
	wg.Wait()
	res := closedLoopResult{Elapsed: clk.Now().Sub(start)}
	for _, p := range parts {
		res.Latency = append(res.Latency, p.Latency...)
		res.Failed = append(res.Failed, p.Failed...)
	}
	return res
}
