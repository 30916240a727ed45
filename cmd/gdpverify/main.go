// Command gdpverify machine-checks k-graceful degradability of a designed
// solution graph, exhaustively or by random sampling, and can re-check a
// proof from its verdict store with no solver.
//
// Usage:
//
//	gdpverify -n 22 -k 4                  # exhaustive: a proof for this instance
//	gdpverify -n 200 -k 6 -trials 100000  # randomized at scale
//	gdpverify -n 10 -k 2 -merge           # merged model, processor faults only
//	gdpverify -n 22 -k 4 -symmetry        # orbit-reduced exhaustive proof
//	gdpverify -n 22 -k 4 -store v.gdps    # incremental: replay cached verdicts, append new ones
//	gdpverify -n 22 -k 4 -symmetry -store v.gdps  # also files the proof's per-size proof blocks
//	gdpverify -n 22 -k 4 -store v.gdps -replay    # re-check those blocks (no solver, nothing written)
//	gdpverify -n 22 -k 4 -json            # machine-readable report + metrics
//	gdpverify -n 22 -k 4 -fail-fast       # stop at the first counterexample
//
// SIGINT/SIGTERM cancel the run: workers stop mid-sweep (abandoning any
// in-flight solve) and the partial report — marked "interrupted" — is
// still printed, or flushed as JSON under -json.
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

	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/obs"
	"gdpn/internal/store"
	"gdpn/internal/telemetry"
	"gdpn/internal/verify"
)

func main() {
	var (
		n        = flag.Int("n", 10, "minimum pipeline processors")
		k        = flag.Int("k", 2, "fault tolerance")
		trials   = flag.Int("trials", 0, "random trials (0 = exhaustive)")
		seed     = flag.Int64("seed", 1, "random seed")
		merge    = flag.Bool("merge", false, "verify the merged model (processor faults only)")
		work     = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		replay   = flag.Bool("replay", false, "prove from the proof blocks of an existing -store file with no solver, writing nothing to it")
		symm     = flag.Bool("symmetry", false, "exhaustive mode: solve one representative per automorphism orbit of fault sets")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable JSON blob (report + metrics) on stdout")
		failFast = flag.Bool("fail-fast", false, "exhaustive mode: stop the sweep at the first counterexample")
		summary  = flag.String("summary", "", "write the canonical verdict summary to this file (diffable against gdpfleet serve -summary)")
		storeP   = flag.String("store", "", "content-addressed verdict store file (created if absent): sweeps replay cached verdicts instead of re-solving and append new ones; a clean -symmetry sweep also files its proof blocks, which -replay re-checks")
		addr     = flag.String("metrics-addr", "", "serve /metrics, /debug/spans, /slo on this address during the run")
	)
	tf := telemetry.Register()
	flag.Parse()
	if tf.SLO > 0 || tf.TraceDump != "" {
		obs.Default().SetEnabled(true)
	}
	if err := tf.Activate(); err != nil {
		fatal(err)
	}
	if *addr != "" {
		obs.Default().SetEnabled(true)
		srv := &http.Server{Addr: *addr, Handler: obs.Default().Mux(tf.MuxOptions()...)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fatal(fmt.Errorf("metrics server: %w", err))
			}
		}()
		fmt.Fprintf(os.Stderr, "gdpverify: serving /metrics, /debug/spans, /slo on %s\n", *addr)
	}
	// SIGINT/SIGTERM cancel the sweep; the partial report still flushes.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *jsonOut {
		// Collect solver metrics (embed_find_ns, tier counters) for the blob.
		obs.Default().SetEnabled(true)
	}
	sol, err := construct.Design(*n, *k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdpverify:", err)
		os.Exit(1)
	}
	g := sol.Graph
	opts := verify.Options{
		Workers:         *work,
		Solver:          embed.Options{Layout: sol.Layout},
		ExploitSymmetry: *symm,
		Context:         ctx,
		FailFast:        *failFast,
	}
	if *merge {
		g = construct.Merge(g)
		opts.Universe = verify.ProcessorsOnly
		opts.Solver = embed.Options{}
	}
	var st *store.Store
	if *storeP != "" {
		if _, err := os.Stat(*storeP); *replay && err != nil {
			fatal(err) // nothing to replay, and a replay creates no store
		}
		st, err = store.Open(*storeP)
		if err != nil {
			fatal(err)
		}
		opts.Store = st
	}
	if !*jsonOut {
		fmt.Println(g.Summary())
	}
	var rep *verify.Report
	switch {
	case *replay:
		rep = verify.Replay(g, *k, opts)
	case *trials > 0:
		rep = verify.Random(g, *k, *trials, *seed, opts)
	default:
		rep = verify.Exhaustive(g, *k, opts)
	}
	// Close (flushing appends) before any exit path below; a replay writes nothing.
	if st != nil && !*replay {
		if err := st.Close(); err != nil {
			fatal(err)
		}
	}
	if *summary != "" {
		if err := os.WriteFile(*summary, []byte(rep.VerdictSummary()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		out := struct {
			OK      bool           `json:"ok"`
			Graph   string         `json:"graph"`
			K       int            `json:"k"`
			Trials  int            `json:"trials"`
			Merge   bool           `json:"merge"`
			Report  *verify.Report `json:"report"`
			Metrics obs.Snapshot   `json:"metrics"`
		}{rep.OK(), g.Name(), *k, *trials, *merge, rep, obs.Default().Snapshot()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		if !tf.Report(os.Stderr) || !rep.OK() {
			os.Exit(1)
		}
		return
	}
	fmt.Println(rep.String())
	for _, f := range rep.Failures {
		fmt.Printf("  counterexample: %v (%s)\n", f.Nodes, f.Err)
	}
	for _, u := range rep.Unknowns {
		fmt.Printf("  unknown: %v (%s)\n", u.Nodes, u.Err)
	}
	if !tf.Report(os.Stderr) || !rep.OK() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gdpverify:", err)
	os.Exit(1)
}
