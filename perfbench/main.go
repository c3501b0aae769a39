// Command perfbench is the repository benchmark. It drives one workload of
// the interpretable-feedback system from outside — the HTTP workloads
// through a serve.Server it starts on a loopback listener, the campaign
// workload through the library — checks the program's outputs, and prints
// one JSON result line with the workload's metrics:
//
//	bash perfbench/run.sh --workload predict --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run records spans around its calls into each layer, replays those
// layers on the workload's inputs, and the result carries the per-layer
// metrics instead. See README.md for the workloads, metrics and figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/netml/alefb/internal/automl"
)

// buildDir, relative to the repository root the benchmark runs from, holds
// everything a run leaves behind: the span files of traced runs and each
// run's scratch directory (removed when the run ends).
const buildDir = ".bench_build"

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names every end-to-end metric and its unit. Every workload
// reports all of them; "op" is the workload's primary operation and "op2"
// its secondary one (README.md, "Metrics").
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op2_p50_ms", "ms"},
}

// perLayer names every per-layer metric of a traced run and its unit.
var perLayer = []struct{ name, unit string }{
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.reqs_per_batch", "count"},
	{"serve.interp_hit_ratio", "ratio"},
	{"serve.drift_evals", "count"},
	{"serve.drift_coalesced", "count"},
	{"serve.drift_eval_ms", "ms"},
	{"automl.predict_batch_us", "us"},
	{"automl.run_s", "s"},
	{"automl.evaluated", "count"},
	{"automl.cache_hits", "count"},
	{"ml.refit_s", "s"},
	{"interpret.committee_ms", "ms"},
	{"core.compute_ms", "ms"},
	{"core.window_ms", "ms"},
	{"core.sample_ms", "ms"},
	{"feedback.append_p50_ms", "ms"},
	{"feedback.append_p99_ms", "ms"},
	{"feedback.compactions", "count"},
	{"feedback.compact_append_ms", "ms"},
	{"modelstore.save_ms", "ms"},
	{"modelstore.snapshot_kb", "KB"},
	{"screamset.label_ms", "ms"},
	{"screamset.labels", "count"},
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"predict":  runPredict,
	"ingest":   runIngest,
	"retrain":  runRetrain,
	"campaign": runCampaign,
}

// bench is the state of one run: its flags, its scratch directory, the
// operation tallies, the output checks and the metrics it measured.
type bench struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil in an untraced run
	work    string  // scratch directory, removed when the run ends

	lastSearch *automl.Ensemble // result of the newest search the benchmark ran
	reqs       atomic.Int64     // request ids of traced client spans
	appends    int              // feedback batches the ladder appends (0: ladderBatches)

	ops    opTally
	mu     sync.Mutex
	checks []check
	e2e    map[string]float64
	layer  map[string]float64
	record map[string]any // extra run-record fields
}

// check is the outcome of one output check.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
}

// verify records the outcome of an output check.
func (b *bench) verify(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Err = err.Error()
	}
	b.mu.Lock()
	b.checks = append(b.checks, c)
	b.mu.Unlock()
}

func (b *bench) note(key string, v any) {
	b.mu.Lock()
	b.record[key] = v
	b.mu.Unlock()
}

// opTally counts attempted and failed timed operations by kind.
type opTally struct {
	mu     sync.Mutex
	byKind map[string]*[2]int64
}

func (t *opTally) add(kind string, failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byKind == nil {
		t.byKind = map[string]*[2]int64{}
	}
	c := t.byKind[kind]
	if c == nil {
		c = new([2]int64)
		t.byKind[kind] = c
	}
	c[0]++
	if failed {
		c[1]++
	}
}

func (t *opTally) totals() (attempted, failed int64, byKind map[string][2]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byKind = map[string][2]int64{}
	for k, c := range t.byKind {
		attempted += c[0]
		failed += c[1]
		byKind[k] = *c
	}
	return attempted, failed, byKind
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: predict, ingest, retrain or campaign")
		seed     = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 records spans (written to .bench_build/trace-<workload>-<seed>.json) and reports per-layer metrics, 0 reports end-to-end metrics")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload predict|ingest|retrain|campaign --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		work:    work,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		record:  map[string]any{},
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	b.e2e["peak_rss_mb"] = peakRSSMB()

	attempted, failed, byKind := b.ops.totals()
	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, c := range b.checks {
		res.Correct = res.Correct && c.OK
	}
	names, values := endToEnd, b.e2e
	if b.tr != nil {
		names, values = perLayer, b.layer
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			return 1
		}
		b.note("trace_file", path)
	}
	for _, m := range names {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *workload, m.name)
			return 1
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation was attempted\n", *workload)
		return 1
	}

	// The run record: environment, operations by kind, every check and
	// every figure measured (end-to-end ones too in a traced run, so the
	// tracing overhead can be read off against an untraced run).
	rec := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"env":        environment(work),
		"ops":        byKind,
		"checks":     b.checks,
		"end_to_end": b.e2e,
	}
	if b.tr != nil {
		rec["per_layer"] = b.layer
	}
	keys := make([]string, 0, len(b.record))
	for k := range b.record {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec[k] = b.record[k]
	}
	printJSON(map[string]any{"record": rec})
	printJSON(res)
	return 0
}

func printJSON(v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode output:", err)
		return
	}
	fmt.Println(string(blob))
}

// peakRSSMB is the peak resident set of this process in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
