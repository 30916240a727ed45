// Command gdpverify machine-checks k-graceful degradability of a designed
// solution graph, exhaustively or by random sampling, and can emit or
// replay solver-independent certificate files.
//
// Usage:
//
//	gdpverify -n 22 -k 4                  # exhaustive: a proof for this instance
//	gdpverify -n 200 -k 6 -trials 100000  # randomized at scale
//	gdpverify -n 10 -k 2 -merge           # merged model, processor faults only
//	gdpverify -n 10 -k 2 -certify g.certs # write one witness per fault set
//	gdpverify -n 10 -k 2 -replay g.certs  # re-check witnesses (no solver trust)
//	gdpverify -n 22 -k 4 -symmetry        # orbit-reduced exhaustive proof
//	gdpverify -n 22 -k 4 -store v.gdps    # incremental: replay cached verdicts, append new ones
//	gdpverify -n 22 -k 4 -json            # machine-readable report + metrics
//	gdpverify -n 22 -k 4 -race-engines    # race DP vs backtracker on hard sets
//	gdpverify -n 22 -k 4 -fail-fast       # stop at the first counterexample
//
// SIGINT/SIGTERM cancel the run: workers stop mid-sweep (abandoning any
// in-flight solve) and the partial report — marked "interrupted" — is
// still printed, or flushed as JSON under -json.
package main

import (
	"bytes"
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
	"gdpn/internal/graph"
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
		certify  = flag.String("certify", "", "write a certificate file (one witness per fault set)")
		replay   = flag.String("replay", "", "replay a certificate file instead of searching")
		symm     = flag.Bool("symmetry", false, "exhaustive mode: solve one representative per automorphism orbit of fault sets")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable JSON blob (report + metrics) on stdout")
		raceEng  = flag.Bool("race-engines", false, "race the exact DP and the backtracker on hard fault sets (verdict-identical, often faster)")
		failFast = flag.Bool("fail-fast", false, "exhaustive mode: stop the sweep at the first counterexample")
		summary  = flag.String("summary", "", "write the canonical verdict summary to this file (diffable against gdpfleet serve -summary)")
		storeP   = flag.String("store", "", "content-addressed verdict store file (created if absent): sweeps replay cached verdicts instead of re-solving and append new ones; -certify reuses a cached certificate set when it replays cleanly")
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
	if *certify != "" || *replay != "" {
		certMode(*n, *k, *certify, *replay, *storeP)
		return
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
		Solver:          embed.Options{Layout: sol.Layout, Race: *raceEng},
		ExploitSymmetry: *symm,
		Context:         ctx,
		FailFast:        *failFast,
	}
	if *merge {
		g = construct.Merge(g)
		opts.Universe = verify.ProcessorsOnly
		opts.Solver = embed.Options{Race: *raceEng}
	}
	var st *store.Store
	if *storeP != "" {
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
	if *trials > 0 {
		rep = verify.Random(g, *k, *trials, *seed, opts)
	} else {
		rep = verify.Exhaustive(g, *k, opts)
	}
	// Close (flushing appends) before any exit path below.
	if st != nil {
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

// certMode writes or replays a certificate file for Design(n, k). With a
// store attached, -certify caches the certificate-set JSON as a blob on
// the graph's slot and reuses it on later runs — but only after a full
// Replay against the freshly constructed graph re-establishes it, per
// the store's untrusted-hint model.
func certMode(n, k int, certifyPath, replayPath, storePath string) {
	sol, err := construct.Design(n, k)
	if err != nil {
		fatal(err)
	}
	if certifyPath != "" {
		var st *store.Store
		var ref *store.GraphRef
		blobName := fmt.Sprintf("certset/k%d", k)
		if storePath != "" {
			if st, err = store.Open(storePath); err != nil {
				fatal(err)
			}
			ref = st.Register(sol.Graph)
		}
		cs := cachedCertSet(ref, blobName, sol.Graph, k)
		if cs == nil {
			if cs, err = verify.Certify(sol.Graph, k, embed.Options{Layout: sol.Layout}); err != nil {
				fatal(err)
			}
			if ref != nil {
				var buf bytes.Buffer
				if err := cs.Write(&buf); err != nil {
					fatal(err)
				}
				ref.PutBlob(blobName, buf.Bytes())
			}
		}
		if st != nil {
			if err := st.Close(); err != nil {
				fatal(err)
			}
		}
		f, err := os.Create(certifyPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := cs.Write(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d certificates for %s to %s\n", len(cs.Certs), sol.Graph.Name(), certifyPath)
		return
	}
	f, err := os.Open(replayPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	cs, err := verify.ReadCertificates(f)
	if err != nil {
		fatal(err)
	}
	if err := cs.Replay(sol.Graph); err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %d certificates for %s: GD(G, %d) re-established without a solver\n",
		len(cs.Certs), sol.Graph.Name(), k)
}

// cachedCertSet returns the store's cached certificate set for the slot
// if it decodes AND replays cleanly against g; any failure (missing blob,
// corrupt JSON, failed replay) returns nil and the caller re-certifies.
func cachedCertSet(ref *store.GraphRef, name string, g *graph.Graph, k int) *verify.CertificateSet {
	if ref == nil {
		return nil
	}
	b, ok := ref.Blob(name)
	if !ok {
		return nil
	}
	cs, err := verify.ReadCertificates(bytes.NewReader(b))
	if err != nil || cs.K != k || cs.Replay(g) != nil {
		return nil
	}
	fmt.Printf("reusing %d cached certificates (replayed cleanly from store)\n", len(cs.Certs))
	return cs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gdpverify:", err)
	os.Exit(1)
}
