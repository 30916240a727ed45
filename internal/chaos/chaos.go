// Package chaos is the soak harness: it runs a live pipeline.Engine under
// a seeded stochastic fault/repair schedule (internal/faults.Schedule)
// while frames stream continuously through a pipeline.Stream, and checks
// the paper's graceful-degradation guarantee as a *runtime* property
// rather than a theorem. A reconfig.Manager plans each event's pipeline
// and the engine executes it, so the harness also checks that the two
// owners never disagree. The invariants:
//
//   - zero frame loss, zero duplication, in-order delivery across every
//     live reconfiguration (the congested-clique "no work lost across
//     recoveries" invariant);
//   - after every remap the pipeline is a valid certificate
//     (verify.CheckPipeline) and uses every healthy processor — the
//     paper's graceful degradation, re-proved at each step of an ongoing
//     fault process rather than for a one-shot fault set;
//   - the engine runs exactly the manager's pipeline interior, and an
//     event the manager rolls back leaves the stream untouched (no remap
//     counted, no downtime added).
//
// Runs are seeded and replayable: a failing nightly seed reruns locally
// with `gdpsim -chaos -seed N` and reproduces the same fault sequence.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/faults"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
	"gdpn/internal/verify"
	"gdpn/internal/workload"
)

// maxRecordedViolations caps the violation strings kept in a Report;
// further violations are counted but summarized.
const maxRecordedViolations = 32

// Config parameterizes one soak run.
type Config struct {
	// Seed makes the run replayable (fault schedule and workload).
	Seed int64
	// Duration is the wall-clock soak length. Default 10s.
	Duration time.Duration
	// MTBF / MTTR are the processor-class failure/repair means.
	// Defaults 3s / 800ms.
	MTBF, MTTR time.Duration
	// TerminalMTBF / TerminalMTTR enable terminal-class faults (0 = off).
	TerminalMTBF, TerminalMTTR time.Duration
	// BurstProb upgrades a fault into a correlated burst of up to MaxBurst
	// simultaneous faults (budget permitting). Defaults 0 / design k.
	BurstProb float64
	MaxBurst  int
	// FrameSamples is the samples per frame. Default 1024.
	FrameSamples int
	// MaxPending is the stream's backpressure bound. Default 64.
	MaxPending int
	// Batch / ChannelDepth tune the engine's batched transport (frames per
	// carrier batch, per-stage channel depth). ≤ 0 keeps the defaults.
	Batch        int
	ChannelDepth int
	// RemapDeadline bounds each remap; a solve that misses it rolls back
	// to the last valid pipeline and the fault is retried later. 0 = off.
	RemapDeadline time.Duration
	// Context cancels the soak early: event sleeps wake immediately, an
	// in-flight remap solve is abandoned (and rolled back), and Run drains
	// the stream and returns a partial Report with Interrupted set. nil
	// means the soak always runs to Duration.
	Context context.Context
	// Logf, when non-nil, narrates events live (fault/repair/rollback).
	Logf func(format string, args ...any)
}

// Report is the end-of-run invariant report.
type Report struct {
	// Stream is the zero-loss ledger (lost/duplicated/out-of-order must be
	// zero, delivered must equal submitted).
	Stream pipeline.StreamReport `json:"stream"`
	// Downtime is the reconfiguration manager's per-tactic ledger.
	Downtime reconfig.DowntimeStats `json:"downtime"`
	// Elapsed is the achieved wall-clock run length.
	Elapsed time.Duration `json:"elapsed_ns"`
	// FaultsInjected / RepairsApplied count applied schedule events;
	// Bursts counts multi-fault batches.
	FaultsInjected int `json:"faults_injected"`
	RepairsApplied int `json:"repairs_applied"`
	Bursts         int `json:"bursts"`
	// DeadlineRollbacks counts remaps rolled back for missing the deadline
	// (retried later by the schedule); OtherFailures counts unexpected
	// apply errors — any of those is also recorded as a violation.
	DeadlineRollbacks int `json:"deadline_rollbacks"`
	OtherFailures     int `json:"other_failures"`
	// Checks counts post-remap invariant checks; Violations records the
	// failures (capped at maxRecordedViolations, then counted).
	Checks          int      `json:"checks"`
	Violations      []string `json:"violations,omitempty"`
	TotalViolations int      `json:"total_violations"`
	// FinalFaults / FinalProcsInUse snapshot the end state.
	FinalFaults     []int `json:"final_faults"`
	FinalProcsInUse int   `json:"final_procs_in_use"`
	// Interrupted reports that Config.Context canceled the soak before
	// Duration elapsed; the invariants above cover the partial run, which
	// is still a meaningful audit (every delivered frame was checked).
	Interrupted bool `json:"interrupted,omitempty"`
}

func (r *Report) violate(format string, args ...any) {
	r.TotalViolations++
	msg := fmt.Sprintf(format, args...)
	span.Trip(span.AnomalyInvariant, msg)
	if len(r.Violations) < maxRecordedViolations {
		r.Violations = append(r.Violations, msg)
	}
}

// OK reports whether every invariant held: clean stream and no
// verification violations.
func (r *Report) OK() bool {
	return r.Stream.Clean() && r.TotalViolations == 0
}

// Summary renders the multi-line invariant report printed at the end of a
// soak run.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %v elapsed\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  frames:     submitted=%d delivered=%d requeued=%d lost=%d duplicated=%d out-of-order=%d\n",
		r.Stream.Submitted, r.Stream.Delivered, r.Stream.Requeued,
		r.Stream.Lost, r.Stream.Duplicated, r.Stream.OutOfOrder)
	fmt.Fprintf(&b, "  faults:     injected=%d repaired=%d bursts=%d deadline-rollbacks=%d other-failures=%d\n",
		r.FaultsInjected, r.RepairsApplied, r.Bursts, r.DeadlineRollbacks, r.OtherFailures)
	fmt.Fprintf(&b, "  remaps:     ok=%d failed=%d downtime total=%v max=%v rollback-time=%v\n",
		r.Stream.Remaps, r.Stream.RemapFailures,
		r.Stream.TotalDowntime.Round(time.Microsecond), r.Stream.MaxDowntime.Round(time.Microsecond),
		r.Downtime.RollbackTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  tactics:    ")
	for t := reconfig.NoChange; t <= reconfig.FullRemap; t++ {
		if d := r.Downtime.PerTactic[t]; d > 0 {
			fmt.Fprintf(&b, "%s=%v ", t, d.Round(time.Microsecond))
		}
	}
	fmt.Fprintf(&b, "\n  invariants: checks=%d violations=%d (all healthy processors in use after every remap, no loss, no duplication)\n",
		r.Checks, r.TotalViolations)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    VIOLATION: %s\n", v)
	}
	if extra := r.TotalViolations - len(r.Violations); extra > 0 {
		fmt.Fprintf(&b, "    ... and %d more\n", extra)
	}
	fmt.Fprintf(&b, "  end state:  faults=%v procs-in-use=%d\n", r.FinalFaults, r.FinalProcsInUse)
	if r.OK() {
		b.WriteString("  RESULT: PASS — zero frame loss, zero duplication, graceful degradation held\n")
	} else {
		b.WriteString("  RESULT: FAIL\n")
	}
	return b.String()
}

// DefaultStages returns the video-style stage chain the soak (and gdpsim)
// pushes frames through.
func DefaultStages() []stages.Stage {
	return []stages.Stage{
		stages.NewSubsample(2),
		&stages.Rescale{Gain: 1.5, Offset: 0.1},
		stages.NewFIR([]float64{0.25, 0.5, 0.25}),
		stages.NewQuantize(-16, 16, 256),
		stages.NewLZ78(4096),
	}
}

// Run executes one soak: continuous traffic, scheduled faults/repairs,
// invariant checks after every remap, and a final zero-loss audit. The
// returned error covers setup problems only; invariant failures land in
// the Report.
func Run(sol *construct.Solution, stgs []stages.Stage, cfg Config) (*Report, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.MTBF <= 0 {
		cfg.MTBF = 3 * time.Second
	}
	if cfg.MTTR <= 0 {
		cfg.MTTR = 800 * time.Millisecond
	}
	if cfg.FrameSamples <= 0 {
		cfg.FrameSamples = 1024
	}
	if cfg.MaxBurst <= 0 {
		cfg.MaxBurst = sol.K
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(stgs) == 0 {
		stgs = DefaultStages()
	}

	mgr, err := reconfig.New(sol)
	if err != nil {
		return nil, err
	}
	eng, err := pipeline.NewPlaced(sol.Graph, mgr.Interior(), stgs,
		pipeline.WithBatchSize(cfg.Batch), pipeline.WithChannelDepth(cfg.ChannelDepth))
	if err != nil {
		return nil, err
	}
	// Cancellation: the token aborts in-flight remap solves (each event's
	// remap runs under a child scope carrying RemapDeadline), the context's
	// channel wakes event sleeps. Both latch from the same Config.Context.
	tok := embed.NewResources(cfg.Context, 0, 0)
	defer tok.Release()
	var ctxDone <-chan struct{}
	if cfg.Context != nil {
		ctxDone = cfg.Context.Done()
	}
	// sleep waits d (which may be ≤ 0) or until cancellation; false means
	// the soak was interrupted.
	sleep := func(d time.Duration) bool {
		if d <= 0 {
			return !tok.Stopped()
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-ctxDone:
			return false
		}
	}
	sch, err := faults.NewSchedule(sol.Graph, faults.ScheduleConfig{
		MTBF:         cfg.MTBF,
		MTTR:         cfg.MTTR,
		TerminalMTBF: cfg.TerminalMTBF,
		TerminalMTTR: cfg.TerminalMTTR,
		MaxFaults:    sol.K,
		BurstProb:    cfg.BurstProb,
		MaxBurst:     cfg.MaxBurst,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: cfg.MaxPending})
	if err != nil {
		return nil, err
	}
	injected := obs.Default().Counter("chaos_faults_injected_total")
	// The soak's own root span: schedule events attach to it as they are
	// applied, and it lands in the ring when the run finishes — a flight
	// dump mid-soak therefore carries the remap trees, while the soak span
	// itself shows up in end-of-run snapshots.
	soak := span.Start(nil, "soak")
	soak.SetInt("seed", cfg.Seed).SetInt("k", int64(sol.K)).SetInt("n", int64(sol.N))

	// Producer: continuous seq-numbered traffic until told to stop.
	stop := make(chan struct{})
	var producerWG sync.WaitGroup
	producerWG.Add(1)
	go func() {
		defer producerWG.Done()
		gen := workload.Video(cfg.FrameSamples/4, cfg.Seed)
		seq := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Lease frame storage from the engine pool (the consumer
			// recycles it) so the soak itself runs the zero-allocation
			// steady state it certifies.
			d := eng.GetBuffer(cfg.FrameSamples)
			workload.Fill(gen, d)
			if st.Submit(pipeline.Frame{Seq: seq, Data: d}) != nil {
				return
			}
			seq++
		}
	}()

	// Consumer: drain deliveries (the stream itself audits sequence) and
	// return their buffers to the engine pool.
	var consumed atomic.Int64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for f := range st.Out() {
			consumed.Add(1)
			eng.Recycle(f)
		}
	}()

	rep := &Report{}
	g := sol.Graph
	start := time.Now()
	end := start.Add(cfg.Duration)
eventLoop:
	for {
		evs := sch.Next()
		at := start.Add(evs[0].At)
		if at.After(end) {
			if !sleep(time.Until(end)) {
				rep.Interrupted = true
			}
			break
		}
		if !sleep(time.Until(at)) {
			rep.Interrupted = true
			break
		}
		if len(evs) > 1 {
			rep.Bursts++
		}
		for _, ev := range evs {
			op := reconfig.OpFault
			if ev.Repair {
				op = reconfig.OpRepair
			}
			before := st.Report()
			scope := embed.Scoped(tok, cfg.RemapDeadline)
			mgr.SetResources(scope)
			err := mgr.Apply(op, ev.Node, eng.ApplyPlacement)
			scope.Release()
			if after := st.Report(); err != nil &&
				(after.Remaps != before.Remaps || after.TotalDowntime != before.TotalDowntime) {
				rep.violate("rolled-back %s reached the stream: remaps %d→%d, downtime %v→%v",
					ev, before.Remaps, after.Remaps, before.TotalDowntime, after.TotalDowntime)
			}
			switch {
			case err == nil:
				if ev.Repair {
					rep.RepairsApplied++
				} else {
					rep.FaultsInjected++
					injected.Inc()
				}
				soak.Eventf("apply", "%s procs-in-use=%d", ev, eng.ProcessorsInUse())
				logf("chaos: %s procs-in-use=%d", ev, eng.ProcessorsInUse())
			case errors.Is(err, embed.ErrCanceled):
				// External cancellation aborted the remap mid-solve; the
				// event rolled back cleanly. Not a violation — end the soak.
				rep.Interrupted = true
				sch.Deny(ev)
				logf("chaos: %s ROLLED BACK (canceled): %v", ev, err)
				break eventLoop
			case errors.Is(err, reconfig.ErrDeadline):
				rep.DeadlineRollbacks++
				sch.Deny(ev)
				soak.Eventf("rollback", "%s deadline: %v", ev, err)
				logf("chaos: %s ROLLED BACK (deadline): %v", ev, err)
			default:
				// Within the k budget every event must apply; anything else
				// is itself an invariant violation.
				rep.OtherFailures++
				sch.Deny(ev)
				rep.violate("apply %s: %v", ev, err)
			}
		}
		rep.Checks++
		checkInvariants(rep, mgr, eng, g, evs[0].At)
	}

	close(stop)
	producerWG.Wait()
	rep.Stream = st.Close()
	<-consumerDone

	rep.Downtime = mgr.Downtime()
	rep.Elapsed = time.Since(start)
	rep.FinalFaults = mgr.Faults().Slice()
	rep.FinalProcsInUse = eng.ProcessorsInUse()
	rep.Checks++
	checkInvariants(rep, mgr, eng, g, rep.Elapsed)
	if got := consumed.Load(); got != rep.Stream.Delivered {
		rep.violate("consumer saw %d frames, stream delivered %d", got, rep.Stream.Delivered)
	}
	if !rep.Stream.Clean() {
		rep.violate("stream not clean: lost=%d duplicated=%d out-of-order=%d submitted=%d delivered=%d",
			rep.Stream.Lost, rep.Stream.Duplicated, rep.Stream.OutOfOrder,
			rep.Stream.Submitted, rep.Stream.Delivered)
	}
	soak.SetInt("faults", int64(rep.FaultsInjected)).SetInt("repairs", int64(rep.RepairsApplied))
	soak.SetInt("remaps", rep.Stream.Remaps).SetInt("violations", int64(rep.TotalViolations))
	if rep.OK() {
		soak.End(span.OK)
	} else {
		soak.End(span.Errored)
	}
	return rep, nil
}

// checkInvariants re-proves graceful degradation on the live state: the
// manager's pipeline must be a valid certificate over the current fault
// set, the engine must run exactly its interior, and that must use every
// healthy processor.
func checkInvariants(rep *Report, mgr *reconfig.Manager, eng *pipeline.Engine, g *graph.Graph, at time.Duration) {
	f := mgr.Faults()
	if err := verify.CheckPipeline(g, f, mgr.Pipeline()); err != nil {
		rep.violate("t=%v: invalid pipeline: %v", at.Round(time.Millisecond), err)
		return
	}
	if !slices.Equal(eng.Pipeline(), mgr.Interior()) {
		rep.violate("t=%v: engine runs %v but the manager planned %v",
			at.Round(time.Millisecond), eng.Pipeline(), mgr.Interior())
		return
	}
	healthy := 0
	for _, p := range g.Processors() {
		if !f.Contains(p) {
			healthy++
		}
	}
	if used := eng.ProcessorsInUse(); used != healthy {
		rep.violate("t=%v: %d healthy processors but only %d in use", at.Round(time.Millisecond), healthy, used)
	}
}
