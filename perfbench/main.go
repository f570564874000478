// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, runs the GraphNER program on them for a
// fixed time, checks the outputs, and prints every metric by name and
// unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics (tracing off);
// with -trace 1 a separate run times calls into each layer's public
// functions and prints the per-layer metrics instead. Run it from the
// repository root with
//
//	bash perfbench/run.sh --workload offline-exact --seed 1 --seconds 55 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics, their sample counts, the
// operation counts and provenance notes.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	attempted int
	failed    int
	info      map[string]any
	// calib holds the run's calibration samples in order, timedSamples
	// the samples of the quantities reported at the reference speed, and
	// measured their medians as measured (see calibrate.go).
	calib        []calSample
	timedSamples map[string][]timedSample
	measured     map[string]float64
}

func newReport() *report {
	return &report{
		metrics: map[string]metric{}, samples: map[string]int{}, info: map[string]any{},
		timedSamples: map[string][]timedSample{}, measured: map[string]float64{},
	}
}

// put records a metric computed from n samples.
func (r *report) put(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// putMedian records the median of samples.
func (r *report) putMedian(name, unit string, samples []float64) {
	r.put(name, unit, median(samples), len(samples))
}

// count adds attempted and failed operations.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// timedSample is one sample of a quantity reported at the reference
// speed, with the index of the calibration sample taken just before it.
type timedSample struct {
	v   float64
	cal int
}

// calibrate takes a calibration sample.
func (r *report) calibrate(c *calibration) { r.calib = append(r.calib, c.sample()) }

// timed records samples of a quantity measured since the last calibration
// sample; the next calibration sample follows them.
func (r *report) timed(name string, vs ...float64) {
	for _, v := range vs {
		r.timedSamples[name] = append(r.timedSamples[name], timedSample{v, len(r.calib) - 1})
	}
}

// atReference returns name's samples at the reference speed: a time
// (exp +1) is multiplied, a rate (exp -1) divided, by calibrationRef over
// the mean of the calibration samples taken just before and just after
// it.
func (r *report) atReference(name string, exp int) []float64 {
	var out []float64
	for _, s := range r.timedSamples[name] {
		after := min(s.cal+1, len(r.calib)-1)
		cal := (r.calib[s.cal].total() + r.calib[after].total()).Seconds() / 2
		out = append(out, s.v*math.Pow(calibrationRef.Seconds()/cal, float64(exp)))
	}
	return out
}

// measuredMedian is the median of name's samples as measured.
func (r *report) measuredMedian(name string) float64 {
	var vs []float64
	for _, s := range r.timedSamples[name] {
		vs = append(vs, s.v)
	}
	return median(vs)
}

// putAtReference records the median of name's samples at the reference
// speed as the metric, and their measured median in the notes.
func (r *report) putAtReference(metric, unit, name string, exp int) {
	r.putMedian(metric, unit, r.atReference(name, exp))
	r.measured[metric] = r.measuredMedian(name)
}

// calibrationNotes records the calibration samples in the notes.
func (r *report) calibrationNotes() {
	var total, compute, memory, handoff []time.Duration
	for _, s := range r.calib {
		total, compute, memory, handoff = append(total, s.total()), append(compute, s.compute), append(memory, s.memory), append(handoff, s.handoff)
	}
	r.info["measured"] = r.measured
	r.info["calibration_s"] = seconds(total)
	r.info["calibration_ref_s"] = calibrationRef.Seconds()
	r.info["calibration_part_median_s"] = map[string]float64{
		"compute": median(seconds(compute)), "memory": median(seconds(memory)), "handoff": median(seconds(handoff)),
	}
}

// metricSpec is a metric's name and unit, as BENCHMARK.json declares it.
type metricSpec struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload prints with
// tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"test_s", "s"},
	{"sweep_point_s", "s"},
	{"f1", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"serve_hit_p50_us", "us"},
	{"serve_miss_p50_us", "us"},
	{"serve_hit_sps", "sentences/s"},
	{"serve_miss_sps", "sentences/s"},
	{"ok_ratio", "ratio"},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: offline-exact or offline-lsh")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	secs := fs.Int("seconds", 55, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (offline-exact|offline-lsh), -seconds >= 1 and -trace 0|1 (%v)\n", err)
		return 2
	}

	rep := newReport()
	want := endToEnd
	if *trace == 1 {
		want = perLayer
		err = traceWorkload(rep, w, *seed)
	} else {
		err = runWorkload(rep, w, *seed, time.Duration(*secs)*time.Second)
		rep.put("peak_rss_mb", "MiB", peakRSSMiB(), 1)
		if rep.attempted > 0 {
			rep.put("ok_ratio", "ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted), rep.attempted)
		}
	}
	if err == nil {
		err = checkComplete(rep, want)
	}

	prov := map[string]any{
		"workload":    w.name,
		"seed":        *seed,
		"seconds":     *secs,
		"trace":       *trace,
		"commit":      commit(),
		"go_version":  runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"samples":     rep.samples,
		"notes":       rep.info,
		"attempted":   rep.attempted,
		"failed":      rep.failed,
		"check_error": errString(err),
	}
	line, jerr := json.Marshal(map[string]any{"provenance": prov})
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))

	res := result{Correct: err == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: check failed:", err)
	} else {
		for _, m := range want {
			res.Metrics[m.name] = rep.metrics[m.name]
			fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.name, rep.metrics[m.name].Value, m.unit)
		}
	}
	line, jerr = json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		return 1
	}
	return 0
}

// checkComplete fails unless every wanted metric was recorded with its
// declared unit and a finite value.
func checkComplete(rep *report, want []metricSpec) error {
	for _, m := range want {
		got, ok := rep.metrics[m.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", m.name)
		case got.Unit != m.unit:
			return fmt.Errorf("metric %s has unit %q, declared %q", m.name, got.Unit, m.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is not finite (%v)", m.name, got.Value)
		}
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// saw a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	if rev == "" {
		return "unknown (not built from a git checkout)"
	}
	return rev + dirty
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// started is when the process began; progress lines carry the time since.
var started = time.Now()

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%7.2fs] ", time.Since(started).Seconds())
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
