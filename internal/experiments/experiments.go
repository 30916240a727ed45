// Package experiments regenerates every evaluation artifact of the paper.
// The paper's "evaluation" consists of constructions (Figures 1–15),
// optimality lower bounds (Lemmas 3.1–3.14), and correctness theorems
// (Theorems 3.13–3.17); each is mechanized as an Experiment that produces
// a Table, and EXPERIMENTS.md records paper-claim vs machine-checked
// outcome per row. cmd/gdpbench and the root bench_test.go both drive this
// registry.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/store"
	"gdpn/internal/verify"
)

// Config tunes an experiment run.
type Config struct {
	// Quick trades exhaustiveness for speed: random verification instead
	// of full enumeration on the larger instances, fewer trials. Full runs
	// (Quick=false) are machine proofs wherever enumeration is feasible.
	Quick bool
	// Seed drives every randomized component (deterministic per seed).
	Seed int64
	// Workers bounds verification parallelism (0 = GOMAXPROCS).
	Workers int
	// Symmetry enables orbit-reduced exhaustive verification: only one
	// representative per automorphism orbit of fault sets is solved. The
	// verdicts are identical (SYM re-proves this per family); the solver
	// call counts drop by up to the automorphism group order.
	Symmetry bool
	// Batch sets the transport batch size for the streaming experiments
	// (S3). ≤ 0 uses the pipeline default.
	Batch int
	// Store attaches a content-addressed proof store to every exhaustive
	// verification the experiments run, making repeated gdpbench
	// invocations incremental (each size an earlier sweep decided in full
	// replays its proof block instead of re-solving). The ST experiment
	// measures its effect with a private store regardless. The caller
	// owns the lifecycle. nil disables it.
	Store *store.Store
	// Context cancels in-flight verifications (SIGINT → partial report).
	Context context.Context
}

// VerifyOptions returns the verification options implied by the config.
// Callers layer experiment-specific fields (Solver.Layout, Universe) on
// top of the returned value.
func (cfg Config) VerifyOptions() verify.Options {
	return verify.Options{
		Workers:         cfg.Workers,
		ExploitSymmetry: cfg.Symmetry,
		Context:         cfg.Context,
		Store:           cfg.Store,
	}
}

// layoutOpts is VerifyOptions with the planner's layout attached.
func layoutOpts(cfg Config, lay *construct.Layout) verify.Options {
	o := cfg.VerifyOptions()
	o.Solver.Layout = lay
	return o
}

// mergedOpts is VerifyOptions under the §3 merged-terminal fault model.
func mergedOpts(cfg Config) verify.Options {
	o := cfg.VerifyOptions()
	o.Universe = verify.ProcessorsOnly
	return o
}

// Table is one regenerated artifact: rows of measured results plus the
// paper's claim for side-by-side comparison.
type Table struct {
	ID    string     `json:"id"` // experiment id from DESIGN.md (F2, T317, …)
	Title string     `json:"title"`
	Claim string     `json:"claim"` // what the paper asserts
	Cols  []string   `json:"cols"`
	Rows  [][]string `json:"rows"`
	Notes []string   `json:"notes,omitempty"`
	// OK reports that every row matched the claim.
	OK      bool          `json:"ok"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// AllocsPerOp / BytesPerOp are the heap allocation count and volume of
	// one execution of this experiment (measured by timed around Run, the
	// same "op" elapsed_ns covers) — benchdiff gates allocation
	// regressions on them alongside the timing gate.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	status := "OK"
	if !t.OK {
		status = "MISMATCH"
	}
	fmt.Fprintf(w, "== %s: %s [%s, %v]\n", t.ID, t.Title, status, t.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "   paper: %s\n", t.Claim)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		fmt.Fprint(w, "   ")
		for i, cell := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(cell)
			}
			fmt.Fprint(w, cell, strings.Repeat(" ", pad+2))
		}
		fmt.Fprintln(w)
	}
	line(t.Cols)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is one registry entry.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) *Table
}

var registry []Experiment

func register(id, title string, run func(cfg Config) *Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by id in declaration
// groups (figures, theorems/lemmas, systems).
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all registered experiment ids.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment and renders the tables to w. It
// returns false if any table mismatched its claim.
func RunAll(cfg Config, w io.Writer) bool {
	ok := true
	for _, e := range registry {
		tbl := timed(e, cfg)
		tbl.Render(w)
		ok = ok && tbl.OK
	}
	return ok
}

// CollectAll executes every experiment and returns the tables without
// rendering them — the machine-readable path behind `gdpbench -json`.
func CollectAll(cfg Config) ([]*Table, bool) {
	ok := true
	tables := make([]*Table, 0, len(registry))
	for _, e := range registry {
		tbl := timed(e, cfg)
		tables = append(tables, tbl)
		ok = ok && tbl.OK
	}
	return tables, ok
}

// RunOne executes a single experiment by id.
func RunOne(id string, cfg Config, w io.Writer) (bool, error) {
	tbl, err := CollectOne(id, cfg)
	if err != nil {
		return false, err
	}
	tbl.Render(w)
	return tbl.OK, nil
}

// CollectOne executes a single experiment by id and returns its table.
func CollectOne(id string, cfg Config) (*Table, error) {
	e, found := ByID(id)
	if !found {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return timed(e, cfg), nil
}

func timed(e Experiment, cfg Config) *Table {
	// Experiments run serially, so MemStats deltas attribute cleanly.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	tbl := e.Run(cfg)
	tbl.Elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	tbl.AllocsPerOp = int64(after.Mallocs - before.Mallocs)
	tbl.BytesPerOp = int64(after.TotalAlloc - before.TotalAlloc)
	if tbl.ID == "" {
		tbl.ID = e.ID
	}
	if tbl.Title == "" {
		tbl.Title = e.Title
	}
	return tbl
}

func boolCell(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
