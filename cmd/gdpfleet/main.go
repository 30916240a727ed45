// Command gdpfleet runs the sharded verification fleet: a coordinator
// that leases orbit-representative rank chunks to workers over HTTP,
// checks each chunk's proof block and files it in a proof store, and
// merges the chunk reports into a verdict byte-identical to a
// single-process gdpverify run.
//
// Usage:
//
//	gdpfleet serve -addr :7117 -n 22 -k 4 -symmetry -store sweep.gdps
//	gdpfleet work  -coord http://host:7117 -j 4
//	gdpfleet serve -local 3 -n 3 -k 5 -symmetry -store sweep.gdps   # one-binary fleet
//	gdpfleet serve ... -summary verdict.txt -json                   # CI-diffable outputs
//	gdpverify -n 3 -k 5 -symmetry -store sweep.gdps -replay         # re-check the fleet's proof
//
// A SIGKILLed coordinator restarted with the same -store file replays the
// blocks filed so far and leases only the rest (the final report then
// carries "resumed": true); workers ride out the outage by retrying for
// -retry.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"gdpn/internal/fleet"
	"gdpn/internal/obs"
	"gdpn/internal/store"
	"gdpn/internal/telemetry"
)

func main() {
	var (
		// Instance flags (serve; workers fetch them from /v1/job).
		n     = flag.Int("n", 10, "minimum pipeline processors")
		k     = flag.Int("k", 2, "fault tolerance")
		merge = flag.Bool("merge", false, "verify the merged model (processor faults only)")
		symm  = flag.Bool("symmetry", false, "solve one representative per automorphism orbit of fault sets")

		// Coordinator flags.
		addr       = flag.String("addr", "127.0.0.1:7117", "serve: coordinator listen address")
		chunkRanks = flag.Int64("chunk-ranks", 0, "serve: subset ranks per chunk (0 = 2048)")
		leaseTTL   = flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "serve: chunk lease duration; silent workers lose their chunks after this")
		local      = flag.Int("local", 0, "serve: also run this many in-process workers over loopback HTTP")
		storeP     = flag.String("store", "", "serve (required): proof store file (created if absent): each chunk's checked proof block is filed and flushed there, and a restarted coordinator resumes from it")
		jsonOut    = flag.Bool("json", false, "serve: emit the machine-readable result (report + fleet accounting + metrics) on stdout")
		summary    = flag.String("summary", "", "serve: also write the canonical verdict summary to this file (diffable against gdpverify -summary)")

		// Worker flags (also applied to -local workers).
		coord    = flag.String("coord", "http://127.0.0.1:7117", "work: coordinator base URL")
		id       = flag.String("id", "", "work: worker id (default hostname-pid)")
		jobs     = flag.Int("j", 1, "work: concurrent shard runners")
		throttle = flag.Duration("throttle", 0, "work: artificial delay per enumerated fault set (CI gauntlet pacing)")
		retry    = flag.Duration("retry", 30*time.Second, "work: keep retrying coordinator calls through outages for this long")
		memo     = flag.Bool("memo", true, "work: enable the per-runner solver result memo")
		quiet    = flag.Bool("quiet", false, "suppress progress logging on stderr")
	)
	tf := telemetry.Register()
	if len(os.Args) < 2 || (os.Args[1] != "serve" && os.Args[1] != "work") {
		fmt.Fprintln(os.Stderr, "usage: gdpfleet serve|work [flags]   (gdpfleet <cmd> -h for flags)")
		os.Exit(2)
	}
	cmd := os.Args[1]
	flag.CommandLine.Parse(os.Args[2:])
	if cmd == "work" && *storeP != "" {
		fmt.Fprintln(os.Stderr, "gdpfleet: -store is a serve flag: workers keep no store")
		os.Exit(2)
	}
	if cmd == "serve" && *storeP == "" {
		fmt.Fprintln(os.Stderr, "gdpfleet: serve needs -store: the proof store is the sweep's record")
		os.Exit(2)
	}
	if err := tf.Activate(); err != nil {
		fatal(err)
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	spec := fleet.JobSpec{N: *n, K: *k, Merge: *merge, Symmetry: *symm, ChunkRanks: *chunkRanks}
	workerCfg := fleet.WorkerConfig{
		Coordinator: *coord, ID: *id, Parallel: *jobs,
		Throttle: *throttle, Retry: *retry, Memo: *memo, Logf: logf,
	}

	switch cmd {
	case "work":
		if err := fleet.RunWorker(ctx, workerCfg); err != nil && ctx.Err() == nil {
			fatal(err)
		}
	case "serve":
		st, err := store.Open(*storeP)
		if err != nil {
			fatal(err)
		}
		serve(ctx, tf, spec, workerCfg, st, *addr, *leaseTTL, *local, *jsonOut, *summary, logf)
	}
}

func serve(ctx context.Context, tf *telemetry.Flags, spec fleet.JobSpec, workerCfg fleet.WorkerConfig,
	st *store.Store, addr string, leaseTTL time.Duration, local int, jsonOut bool,
	summary string, logf func(string, ...any)) {

	obs.Default().SetEnabled(true)
	c, err := fleet.NewCoordinator(fleet.Config{Spec: spec, LeaseTTL: leaseTTL, Store: st})
	if err != nil {
		fatal(err)
	}

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", c.Handler())
	mux.Handle("/", obs.Default().Mux(tf.MuxOptions()...))
	srv := &http.Server{Handler: mux}
	go srv.Serve(lis)
	base := "http://" + lis.Addr().String()
	logf("gdpfleet: coordinator on %s (resumed=%v); /metrics, /debug/spans, /slo served alongside /v1/", base, c.Resumed())

	var wg sync.WaitGroup
	for i := 0; i < local; i++ {
		cfg := workerCfg
		cfg.Coordinator = base
		cfg.ID = fmt.Sprintf("local-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fleet.RunWorker(ctx, cfg); err != nil && ctx.Err() == nil {
				logf("gdpfleet: %v", err)
			}
		}()
	}

	select {
	case <-ctx.Done():
		// Interrupted: the store was flushed after each chunk it filed,
		// and a restart resumes from it.
		wg.Wait()
		srv.Close()
		st.Close()
		logf("gdpfleet: interrupted; the proven chunks are filed in %q", st.Stats().Path)
		os.Exit(130)
	case <-c.Done():
	}
	res := c.Final()
	wg.Wait()
	srv.Close()
	if err := st.Close(); err != nil {
		fatal(err)
	}

	if summary != "" {
		if err := os.WriteFile(summary, []byte(res.Report.VerdictSummary()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	healthy := tf.Report(os.Stderr)
	if jsonOut {
		out := struct {
			OK      bool   `json:"ok"`
			Summary string `json:"summary"`
			*fleet.Result
			Metrics obs.Snapshot `json:"metrics"`
		}{res.Report.OK(), res.Report.VerdictSummary(), res, obs.Default().Snapshot()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		fmt.Println(res.Report.String())
		fmt.Printf("fleet: %d/%d chunks (%d from store), %d leases (%d re-leased), %d workers, %d chunk results rejected, resumed=%v\n",
			res.ChunksCompleted, res.ChunksTotal, res.ChunksFromStore, res.Leases, res.Releases,
			res.WorkersSeen, res.ChunksRejected, res.Resumed)
	}
	if !res.Report.OK() || !healthy {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gdpfleet:", err)
	os.Exit(1)
}
