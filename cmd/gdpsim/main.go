// Command gdpsim runs the streaming-pipeline fault-injection demo: a
// video-style stage chain mapped onto a gracefully degradable network,
// with faults arriving between epochs and the stream continuing on every
// healthy processor.
//
// With -metrics-addr the run is observable live: /metrics serves the
// Prometheus text exposition (frame-latency quantiles, per-tactic repair
// counts, solver timings; append ?format=json for a JSON snapshot),
// /debug/spans serves the remap span trees when span tracing is on
// (-trace-dump): one "remap" root per fault or repair, with its phases and
// events. A one-line metrics summary is printed to stderr every
// -snapshot-interval.
//
// With -chaos the epoch model is replaced by the soak harness
// (internal/chaos): one Gold tenant (default stage chain, -frame samples
// per frame) runs on the whole pool through the control plane while a
// seeded stochastic fault/repair process (-mtbf, -mttr, -burst-prob)
// churns the network live. Each event is one coordinated replan: the
// planner's reconfig.Manager repairs the pipeline (locally when it can),
// and the tenant drains and requeues in-flight frames onto the new
// placement. The run ends with an invariant report — zero frames lost,
// zero duplicated, every healthy processor in use after every replan. The
// exit status is non-zero if any invariant failed; rerun a failing seed
// with the same -seed to reproduce the exact fault sequence.
// -remap-deadline bounds each replan's full-remap fallback (a miss rolls
// the event back; it is counted, not a failure). SIGINT/SIGTERM end the
// soak early: the stream drains cleanly and the report — marked
// "interrupted" — is still printed (or emitted as JSON with -json).
//
// With -tenants <topology.json> the same soak runs every tenant declared
// in the topology file on its shared pool: each event remaps every
// affected tenant in one coordinated replan, with per-tenant zero-loss
// drain/requeue. The report (and exit status) covers per-tenant sink
// audits and the partition invariant — running segments always tile the
// healthy processors. Example topologies live under examples/topologies/.
//
// Usage:
//
//	gdpsim -n 24 -k 4 -epoch-frames 128 -frame 4096
//	gdpsim -n 1000 -k 6 -model terminals-first
//	gdpsim -n 24 -k 4 -metrics-addr :9090 -epochs 50
//	gdpsim -chaos -n 12 -k 3 -seed 1 -duration 30s
//	gdpsim -chaos -n 12 -k 3 -json
//	gdpsim -tenants examples/topologies/mixed.json -duration 10s -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"gdpn/internal/chaos"
	"gdpn/internal/construct"
	"gdpn/internal/control"
	"gdpn/internal/faults"
	"gdpn/internal/obs"
	"gdpn/internal/pipeline"
	"gdpn/internal/plan"
	"gdpn/internal/reconfig"
	"gdpn/internal/telemetry"
	"gdpn/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 24, "minimum pipeline processors")
		k        = flag.Int("k", 4, "fault tolerance")
		frames   = flag.Int("epoch-frames", 128, "frames per epoch")
		size     = flag.Int("frame", 4096, "samples per frame")
		model    = flag.String("model", "processors-only", "fault model: uniform, processors-only, terminals-first")
		seed     = flag.Int64("seed", 1, "random seed")
		epochs   = flag.Int("epochs", 0, "total epochs to run (0 = stop when the fault sequence is exhausted)")
		addr     = flag.String("metrics-addr", "", "serve /metrics, /debug/spans, /slo on this address (e.g. :9090); enables instrumentation")
		interval = flag.Duration("snapshot-interval", 5*time.Second, "period of the one-line stderr metrics snapshot (with -metrics-addr)")
		batch    = flag.Int("batch", 0, "frames per transport batch (0 = default 8; 1 = per-frame)")
		chanDep  = flag.Int("chan-depth", 0, "per-stage channel depth in batches (0 = default 4)")

		chaosMode = flag.Bool("chaos", false, "run the continuous chaos soak instead of the epoch demo")
		tenants   = flag.String("tenants", "", "run the chaos soak over every tenant of this topology JSON file (pool size comes from the file; -n, -k and -frame are ignored)")
		duration  = flag.Duration("duration", 30*time.Second, "chaos: soak length")
		mtbf      = flag.Duration("mtbf", 3*time.Second, "chaos: mean time between processor failures")
		mttr      = flag.Duration("mttr", 800*time.Millisecond, "chaos: mean time to repair")
		burstProb = flag.Float64("burst-prob", 0.1, "chaos: probability a fault becomes a correlated burst (up to k faults)")
		remapDL   = flag.Duration("remap-deadline", 0, "chaos: bound each remap; late solves roll back to the last valid pipeline (0 = unbounded)")
		quiet     = flag.Bool("quiet", false, "chaos: suppress the per-event log, print only the final report")
		jsonOut   = flag.Bool("json", false, "chaos: emit the soak report as JSON on stdout")
	)
	tf := telemetry.Register()
	flag.Parse()

	reg := obs.Default()
	if tf.SLO > 0 || tf.TraceDump != "" {
		// Both layers feed off the registry (SLO gauges, dump snapshots).
		reg.SetEnabled(true)
	}
	if err := tf.Activate(); err != nil {
		fatal(err)
	}
	if *addr != "" {
		reg.SetEnabled(true)
		srv := &http.Server{Addr: *addr, Handler: reg.Mux(tf.MuxOptions()...)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fatal(fmt.Errorf("metrics server: %w", err))
			}
		}()
		fmt.Fprintf(os.Stderr, "gdpsim: serving /metrics, /debug/spans, /slo on %s\n", *addr)
		if *interval > 0 {
			ticker := time.NewTicker(*interval)
			go func() {
				for range ticker.C {
					fmt.Fprintln(os.Stderr, summaryLine(reg))
				}
			}()
		}
	}

	if *chaosMode || *tenants != "" {
		// The soak's own counters (chaos_faults_injected_total, the frame-loss
		// gauge, per-tactic repairs) are part of its contract: always observe.
		reg.SetEnabled(true)
		// A topology file declares its own pool (-n/-k are ignored there);
		// -chaos soaks one Gold tenant over the whole G(n,k) pool.
		var topo *plan.Topology
		var err error
		mode, rerun := "chaos", "-chaos"
		if *tenants != "" {
			topo, err = plan.Load(*tenants)
			mode, rerun = "multi-tenant", "-tenants "+*tenants
		} else {
			topo, err = chaos.OneTenant(*n, *k, *size)
		}
		if err != nil {
			fatal(err)
		}
		sol, err := construct.Design(topo.Pool.N, topo.Pool.K)
		if err != nil {
			fatal(err)
		}
		// SIGINT/SIGTERM end the soak early; the report still flushes.
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		cfg := chaos.MultiConfig{
			Topology:  topo,
			Seed:      *seed,
			Duration:  *duration,
			MTBF:      *mtbf,
			MTTR:      *mttr,
			BurstProb: *burstProb,
			Executor: control.Config{
				ReplanDeadline: *remapDL,
				Batch:          *batch,
				ChannelDepth:   *chanDep,
			},
			Context: ctx,
		}
		if !*quiet && !*jsonOut {
			cfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		if !*jsonOut {
			fmt.Println(sol.Graph.Summary())
			fmt.Printf("%s soak: tenants=%d seed=%d duration=%v mtbf=%v mttr=%v burst-prob=%.2f remap-deadline=%v\n",
				mode, len(topo.Tenants), *seed, *duration, *mtbf, *mttr, *burstProb, *remapDL)
		}
		rep, err := chaos.MultiRun(sol, cfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			out := struct {
				OK      bool               `json:"ok"`
				Graph   string             `json:"graph"`
				Seed    int64              `json:"seed"`
				Report  *chaos.MultiReport `json:"report"`
				Metrics obs.Snapshot       `json:"metrics"`
			}{rep.OK(), sol.Graph.Name(), *seed, rep, reg.Snapshot()}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(out); err != nil {
				fatal(err)
			}
		} else {
			fmt.Print(rep.Summary())
		}
		if *addr != "" {
			fmt.Fprintln(os.Stderr, summaryLine(reg))
		}
		healthy := tf.Report(os.Stderr)
		if !rep.OK() {
			fmt.Fprintf(os.Stderr, "gdpsim: %s soak FAILED (rerun with %s -seed %d to reproduce)\n", mode, rerun, *seed)
			os.Exit(1)
		}
		if !healthy {
			fmt.Fprintln(os.Stderr, "gdpsim: SLO objective breached")
			os.Exit(1)
		}
		return
	}

	sol, err := construct.Design(*n, *k)
	if err != nil {
		fatal(err)
	}

	// Epoch mode: the manager plans each fault's pipeline, the engine runs
	// frames on its interior between faults.
	mgr, err := reconfig.New(sol)
	if err != nil {
		fatal(err)
	}
	stgs, err := (&plan.TenantSpec{Stages: plan.DefaultStages()}).BuildStages()
	if err != nil {
		fatal(err)
	}
	eng, err := pipeline.NewPlaced(sol.Graph, mgr.Interior(), stgs,
		pipeline.WithBatchSize(*batch), pipeline.WithChannelDepth(*chanDep))
	if err != nil {
		fatal(err)
	}
	m, err := faults.ByName(*model)
	if err != nil {
		fatal(err)
	}
	inj := faults.NewInjector(m, sol.Graph, *k, *seed)
	gen := workload.Video(*size/4, *seed)

	fmt.Println(sol.Graph.Summary())
	fmt.Printf("%-6s %-7s %-13s %-9s %-14s %s\n", "epoch", "faults", "procs-in-use", "frames", "throughput", "remap")
	var remap, remapTotal time.Duration
	remaps := 0
	for epoch := 0; ; epoch++ {
		batch := workload.Frames(gen, *frames, *size, epoch**frames)
		start := time.Now()
		out := eng.Process(batch)
		elapsed := time.Since(start)
		fmt.Printf("%-6d %-7d %-13d %-9d %8.1f MB/s %10s\n",
			epoch, mgr.Faults().Count(), eng.ProcessorsInUse(), len(out),
			float64(*frames**size*8)/1e6/elapsed.Seconds(), remap.Round(time.Microsecond))
		remap = 0
		if *epochs > 0 && epoch+1 >= *epochs {
			break
		}
		node, ok := inj.Next()
		if !ok {
			if *epochs > 0 {
				continue // keep streaming (and serving metrics) until -epochs
			}
			break
		}
		start = time.Now()
		if err := mgr.Apply(reconfig.OpFault, node, eng.ApplyPlacement); err != nil {
			fatal(fmt.Errorf("fault at node %d: %w", node, err))
		}
		remap = time.Since(start)
		remapTotal += remap
		remaps++
	}
	fmt.Printf("done: %d frames, %d remaps, total remap time %v\n",
		eng.Metrics().FramesProcessed, remaps, remapTotal.Round(time.Microsecond))
	if *addr != "" {
		fmt.Fprintln(os.Stderr, summaryLine(reg))
	}
	if !tf.Report(os.Stderr) {
		fmt.Fprintln(os.Stderr, "gdpsim: SLO objective breached")
		os.Exit(1)
	}
}

// summaryLine condenses the registry into one stderr line:
//
//	obs: frames=640 lat p50=1.2ms p99=3.4ms stall p99=80µs tput=120.0MB/s procs=23 repairs splice=1 full-remap=1
func summaryLine(reg *obs.Registry) string {
	s := reg.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "obs: frames=%d", s.Counters["pipeline_frames_total"])
	if h, ok := s.Histograms["pipeline_frame_latency_ns"]; ok && h.Count > 0 {
		fmt.Fprintf(&b, " lat p50=%v p99=%v", time.Duration(h.P50).Round(time.Microsecond),
			time.Duration(h.P99).Round(time.Microsecond))
	}
	if h, ok := s.Histograms["pipeline_send_stall_ns"]; ok && h.Count > 0 {
		fmt.Fprintf(&b, " stall p99=%v", time.Duration(h.P99).Round(time.Microsecond))
	}
	if bps, ok := s.Gauges["pipeline_epoch_throughput_bps"]; ok && bps > 0 {
		fmt.Fprintf(&b, " tput=%.1fMB/s", float64(bps)/1e6)
	}
	fmt.Fprintf(&b, " procs=%d", s.Gauges["pipeline_procs_in_use"])
	// Per-tactic repair counts, sorted for a stable line.
	type kv struct {
		tactic string
		n      int64
	}
	var repairs []kv
	for key, v := range s.Counters {
		if v == 0 {
			continue
		}
		if tac, ok := strings.CutPrefix(key, `reconfig_repairs_total{tactic="`); ok {
			repairs = append(repairs, kv{strings.TrimSuffix(tac, `"}`), v})
		}
	}
	sort.Slice(repairs, func(i, j int) bool { return repairs[i].tactic < repairs[j].tactic })
	for i, r := range repairs {
		if i == 0 {
			b.WriteString(" repairs")
		}
		fmt.Fprintf(&b, " %s=%d", r.tactic, r.n)
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gdpsim:", err)
	os.Exit(1)
}
