// Command benchmark is gdpn's end-to-end and per-layer benchmark. It runs
// one named workload from a seed for a fixed time, checks the program's
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of the workload;
// with -trace 1 every workload runs once untraced and once with the obs
// registry and span tracer enabled, and the metrics are the per-layer
// metrics. README.md describes the workloads and metrics; run.sh builds
// and runs this command from the root of a checkout.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one pass of one workload.
type config struct {
	root   string        // checkout root: topology input and scratch files
	work   string        // scratch directory for store files
	seed   int64         // input seed
	window time.Duration // timed window
	setups int           // set-up repetitions; setup_s is their median
	traced bool          // obs registry and span tracer on, layer metrics kept
	short  bool          // a traced run's pass: sample-count floors do not apply
}

// run accumulates one invocation's operation counts, failures and
// per-layer metrics.
type run struct {
	attempted, failed int64
	problems          []string
	layers            map[string]metric
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check counts one checked operation and fails it when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) layer(name string, v float64, unit string) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

// e2e is one pass's end-to-end metrics, by name.
type e2e map[string]metric

type workloadSpec struct {
	name string
	// loadGoroutines is how many goroutines the load generator runs.
	loadGoroutines int
	run            func(cfg config, r *run) e2e
}

var workloads = []workloadSpec{
	{"stream", 2, runStream},
	{"churn", 1, runChurn},
	{"sweep", 1, runSweep},
	{"resweep", 1, runResweep},
}

// endToEnd names the end-to-end metrics every workload reports, the ones
// BENCHMARK.json gates.
var endToEnd = []string{"setup_s", "items_per_s", "latency_p50_ms", "latency_p99_ms", "cpu_us_per_item", "live_heap_mb"}

// setupReps is how many times an untraced run sets its workload up; the
// reported setup_s is the median.
const setupReps = 5

func main() {
	name := flag.String("workload", "", "workload: stream, churn, sweep or resweep")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	commit := flag.String("commit", "none", "source commit, recorded in the provenance line")
	flag.Parse()

	var w *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload stream|churn|sweep|resweep --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	maxLoad := w.loadGoroutines
	if *trace == 1 {
		for _, x := range workloads {
			maxLoad = max(maxLoad, x.loadGoroutines)
		}
	}
	prov := map[string]any{
		"workload":        w.name,
		"seed":            *seed,
		"seconds":         *seconds,
		"trace":           *trace,
		"nproc":           nproc,
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"commit":          *commit,
		"source_sha256":   sourceDigest(*root),
		"load_goroutines": maxLoad,
		"sweep_workers":   sweepWorkers,
	}
	pj, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(pj))
	if maxLoad > nproc {
		fmt.Fprintf(os.Stderr, "benchmark: refused: the load generator needs %d goroutines, the host has %d CPUs\n", maxLoad, nproc)
		os.Exit(2)
	}

	work := filepath.Join(*root, ".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(work)

	r := &run{layers: map[string]metric{}}
	cfg := config{root: *root, work: work, seed: *seed, window: time.Duration(*seconds) * time.Second, setups: setupReps}
	var out map[string]metric
	if *trace == 1 {
		runTraced(cfg, r)
		out = r.layers
	} else {
		out = w.run(cfg, r)
		for _, n := range endToEnd {
			if out[n].Value <= 0 {
				r.fail("%s: end-to-end metric %s missing or not positive", w.name, n)
			}
		}
	}

	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := out[n].Value
		fmt.Printf("metric %-44s %14.6g %s\n", n, v, out[n].Unit)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is %v", n, v)
			out[n] = metric{Value: -1, Unit: out[n].Unit}
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: %s\n", p)
	}
	res := result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: out}
	rj, _ := json.Marshal(res)
	os.RemoveAll(work)
	fmt.Println(string(rj))
	if !res.Correct {
		os.Exit(1)
	}
}

// runTraced runs every workload twice, untraced then traced, each with an
// eighth of the window and one set-up. The traced pass turns on the obs
// registry and the span tracer and records the per-layer metrics; every
// traced run reports every per-layer metric, whichever workload it names,
// because each layer metric is read on the workload whose path holds
// that layer.
func runTraced(cfg config, r *run) {
	cfg.window /= time.Duration(2 * len(workloads))
	cfg.setups = 1
	cfg.short = true
	for _, w := range workloads {
		untraced := w.run(cfg, r)
		tc := cfg
		tc.traced = true
		setTracing(true)
		traced := w.run(tc, r)
		setTracing(false)
		if untraced != nil && traced != nil {
			// Traced ÷ untraced time per item.
			r.layer("obs.trace_overhead."+w.name, untraced["items_per_s"].Value/traced["items_per_s"].Value, "ratio")
		}
	}
	r.layer("obs.spans_dropped", float64(spansDropped), "count")
	r.check(spansDropped == 0, "the span collector lost %d spans", spansDropped)
}

// setTracing switches the process-wide registry and tracer together and
// clears what an earlier pass recorded.
func setTracing(on bool) {
	obs.Default().Reset()
	span.Default().Reset()
	obs.Default().SetEnabled(on)
	span.Default().SetEnabled(on)
}

// sourceDigest hashes the checkout's Go sources, module file and example
// topologies, so a result names the exact program it measured even where
// the checkout carries no version-control metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || strings.HasSuffix(p, ".json")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
