// Command gdpbench regenerates the paper's evaluation artifacts: every
// figure, lemma, and theorem table from DESIGN.md's per-experiment index,
// each annotated with the paper's claim and the machine-checked outcome.
//
// Usage:
//
//	gdpbench                 # full run (exhaustive where feasible)
//	gdpbench -quick          # sampled verification, smaller grids
//	gdpbench -run F14        # one experiment
//	gdpbench -list
//	gdpbench -quick -json    # machine-readable result + metrics blob
//
// With -json the run emits a single JSON object on stdout: the experiment
// tables, the overall verdict, and a snapshot of the runtime metrics
// registry (solver timings, tier hit counters) — the seed format of the
// BENCH_*.json benchmark trajectory.
//
// SIGINT/SIGTERM cancel the run: in-flight verifications stop, the
// remaining experiments finish fast with interrupted reports, and the
// partial output — marked "interrupted" under -json — is still flushed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"gdpn/internal/experiments"
	"gdpn/internal/obs"
	"gdpn/internal/store"
	"gdpn/internal/telemetry"
)

// jsonReport is the -json output schema.
type jsonReport struct {
	OK          bool                 `json:"ok"`
	Quick       bool                 `json:"quick"`
	Seed        int64                `json:"seed"`
	Interrupted bool                 `json:"interrupted,omitempty"`
	Experiments []*experiments.Table `json:"experiments"`
	Metrics     obs.Snapshot         `json:"metrics"`
}

func main() {
	var (
		quick   = flag.Bool("quick", false, "sampled verification, smaller grids")
		run     = flag.String("run", "", "run a single experiment id (see -list)")
		list    = flag.Bool("list", false, "list experiment ids")
		seed    = flag.Int64("seed", 1, "random seed")
		symm    = flag.Bool("symmetry", false, "orbit-reduced exhaustive verification inside every experiment")
		jsonOut = flag.Bool("json", false, "emit a machine-readable JSON blob (tables + metrics) on stdout")
		batch   = flag.Int("batch", 0, "transport batch size for the streaming experiments (0 = pipeline default)")
		storeP  = flag.String("store", "", "content-addressed verdict store file (created if absent): repeated gdpbench runs replay cached verdicts instead of re-solving")
		addr    = flag.String("metrics-addr", "", "serve /metrics, /debug/spans, /slo on this address during the run")
	)
	tf := telemetry.Register()
	flag.Parse()
	if tf.SLO > 0 || tf.TraceDump != "" {
		obs.Default().SetEnabled(true)
	}
	if err := tf.Activate(); err != nil {
		fmt.Fprintln(os.Stderr, "gdpbench:", err)
		os.Exit(2)
	}
	if *addr != "" {
		obs.Default().SetEnabled(true)
		srv := &http.Server{Addr: *addr, Handler: obs.Default().Mux(tf.MuxOptions()...)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "gdpbench: metrics server:", err)
				os.Exit(2)
			}
		}()
		fmt.Fprintf(os.Stderr, "gdpbench: serving /metrics, /debug/spans, /slo on %s\n", *addr)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	// SIGINT/SIGTERM cancel in-flight verifications; partial output flushes.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Symmetry: *symm,
		Batch: *batch, Context: ctx}
	// closeStore flushes appended verdicts; called explicitly because the
	// exit paths below use os.Exit (which skips defers).
	closeStore := func() {}
	if *storeP != "" {
		st, err := store.Open(*storeP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdpbench:", err)
			os.Exit(2)
		}
		cfg.Store = st
		closeStore = func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "gdpbench:", err)
				os.Exit(2)
			}
		}
	}
	if *jsonOut {
		// Collect runtime metrics (solver wall time, tier hit rates) along
		// with the tables.
		obs.Default().SetEnabled(true)
		var (
			tables []*experiments.Table
			ok     bool
		)
		if *run != "" {
			tbl, err := experiments.CollectOne(*run, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gdpbench:", err)
				os.Exit(2)
			}
			tables, ok = []*experiments.Table{tbl}, tbl.OK
		} else {
			tables, ok = experiments.CollectAll(cfg)
		}
		closeStore()
		rep := jsonReport{OK: ok, Quick: *quick, Seed: *seed,
			Interrupted: ctx.Err() != nil,
			Experiments: tables, Metrics: obs.Default().Snapshot()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "gdpbench:", err)
			os.Exit(2)
		}
		if !tf.Report(os.Stderr) || !ok {
			os.Exit(1)
		}
		return
	}
	if *run != "" {
		ok, err := experiments.RunOne(*run, cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdpbench:", err)
			os.Exit(2)
		}
		closeStore()
		if !tf.Report(os.Stderr) || !ok {
			os.Exit(1)
		}
		return
	}
	allOK := experiments.RunAll(cfg, os.Stdout)
	closeStore()
	if !allOK {
		fmt.Fprintln(os.Stderr, "gdpbench: at least one experiment mismatched its paper claim")
		os.Exit(1)
	}
	if !tf.Report(os.Stderr) {
		os.Exit(1)
	}
	fmt.Println("all experiments match the paper's claims")
}
