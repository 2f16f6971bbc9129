// Command perfbench is the repository benchmark. It drives the serving and
// tuning stack through its public entry points — the gateway's HTTP handler,
// fleet.Pool, core.RecFlex and the tuner — on seeded workloads, checks the
// program's outputs, and prints one JSON result line.
//
//	perfbench --workload serve-warm --seed 1 --seconds 8 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it carries the per-layer metrics, measured from spans the
// benchmark records around its calls into each layer. A human-readable report
// goes to standard error. Run it through run.sh, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to the function that runs it. Each one
// fills the full end-to-end and per-layer metric sets (endToEndDefs,
// perLayerDefs).
var workloads = map[string]func(*bench) error{
	"serve-warm":   serveWarm,
	"serve-cold":   serveCold,
	"fleet-replay": fleetReplay,
	"tune-drift":   tuneDrift,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: serve-warm, serve-cold, fleet-replay or tune-drift")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 8, "length of the time-boxed measurement phases")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || (*traced != 0 && *traced != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b := newBench(*workload, *seed, *seconds, *traced == 1, stderr)
	b.logf("workload %s seed %d seconds %g trace %d", *workload, *seed, *seconds, *traced)
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	b.set("rss_peak_mb", peakRSSMiB())
	if b.tr != nil {
		b.finishTrace(spanDir)
	}
	return b.emit(stdout, spec)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef names one metric with its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the harness checks itself against.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

const (
	// specFile is the benchmark definition, read from the checkout root; the
	// metric names a run prints must match it.
	specFile = "BENCHMARK.json"
	// spanDir is where a traced run writes its spans.
	spanDir = ".bench_build/spans"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	return &s, nil
}

// bench carries one run's settings, its tracer and everything it measured.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	tr       *tracer // nil in untraced (end-to-end) runs
	log      io.Writer

	e2e   map[string]float64
	layer map[string]float64

	attempted, failed int
	failures          []string
}

func newBench(workload string, seed int64, seconds float64, traced bool, log io.Writer) *bench {
	b := &bench{
		workload: workload, seed: seed, seconds: seconds, log: log,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	// Layers a workload does not exercise report 0.
	for _, d := range perLayerDefs {
		b.layer[d.Name] = 0
	}
	if traced {
		b.tr = newTracer()
	}
	return b
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench: "+format+"\n", args...)
}

// set records an end-to-end metric.
func (b *bench) set(name string, v float64) { b.e2e[name] = v }

// setLayer records a per-layer metric.
func (b *bench) setLayer(name string, v float64) { b.layer[name] = v }

// setQuantile records percentile q of xs as a per-layer metric when at
// least ten samples lie beyond it; otherwise the metric stays 0.
func (b *bench) setQuantile(name string, xs []float64, q float64) {
	if supported(len(xs), q) {
		b.layer[name] = quantile(xs, q)
	}
}

// report prints one human-readable measurement with its sample count.
func (b *bench) report(phase, name string, v float64, unit string, n int) {
	fmt.Fprintf(b.log, "  %-8s %-28s %14.4f %-8s n=%d\n", phase, name, v, unit, n)
}

// check records a correctness check; a failed check fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line. A run whose checks failed reports failure and
// no numbers, and exits 1. The printed metric set must equal the one
// BENCHMARK.json declares for the mode; a mismatch is a harness defect and
// exits 2.
func (b *bench) emit(stdout io.Writer, s *spec) int {
	defs, got, want := endToEndDefs, b.e2e, s.EndToEnd
	if b.tr != nil {
		defs, got, want = perLayerDefs, b.layer, s.PerLayer
	}
	if err := sameNames(defs, want); err != nil {
		fmt.Fprintf(b.log, "perfbench: harness and BENCHMARK.json disagree: %v\n", err)
		return 2
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	if b.attempted < 1 {
		b.failures = append(b.failures, "no operation was attempted")
	}
	if b.failed > 0 {
		b.failures = append(b.failures, fmt.Sprintf("%d of %d operations failed", b.failed, b.attempted))
	}
	if len(b.failures) > 0 {
		for _, f := range b.failures {
			fmt.Fprintf(b.log, "perfbench: CHECK FAILED: %s\n", f)
		}
		writeResult(stdout, res)
		return 1
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(b.log, "perfbench: harness defect: metric %s was not measured (%v)\n", d.Name, v)
			return 2
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Correct = true
	writeResult(stdout, res)
	return 0
}

func writeResult(w io.Writer, res result) {
	line, err := json.Marshal(res) // cannot fail: emit admits only finite values
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

// sameNames checks that the harness's metric table and BENCHMARK.json list the
// same names with the same units, and that every name is well formed.
func sameNames(harness, declared []metricDef) error {
	have := map[string]string{}
	for _, d := range harness {
		if !metricName.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		have[d.Name] = d.Unit
	}
	if len(declared) != len(harness) {
		return fmt.Errorf("harness has %d metrics, BENCHMARK.json %d", len(harness), len(declared))
	}
	for _, d := range declared {
		unit, ok := have[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("BENCHMARK.json metric %s is not measured by the harness", d.Name)
		case unit != d.Unit:
			return fmt.Errorf("metric %s: harness unit %s, BENCHMARK.json unit %s", d.Name, unit, d.Unit)
		}
	}
	return nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
