// Package chaos is the soak harness: a control.Executor runs a Topology on
// one shared pool while a seeded stochastic fault/repair schedule
// (internal/faults.Schedule) hits the pool and every tenant streams frames
// continuously. Each event triggers one coordinated replan, in which the
// planner's reconfig.Manager repairs the global pipeline and every moved
// tenant drains and requeues live. The harness checks the paper's
// graceful-degradation guarantee as a runtime property rather than a
// theorem. The invariants:
//
//   - every tenant's lifetime sink audit is clean (zero loss, zero
//     duplication, in order) across every coordinated remap, shed, and
//     readmission — the congested-clique "no work lost across recoveries"
//     invariant;
//   - after every event the running placements partition the healthy
//     processors exactly: disjoint valid segments (verify.CheckSegment)
//     whose union is every healthy processor, i.e. graceful degradation
//     holds for the fleet, not just per pipeline;
//   - a tenant's stream counts exactly one remap per replan that moved it,
//     so an event the control plane rolled back never reached a stream.
//
// The single-pipeline soak (gdpsim -chaos) is the same run over a topology
// of one Gold tenant. Runs are seeded and replayable: a failing nightly
// seed reruns locally with `gdpsim -chaos -seed N` and reproduces the same
// fault sequence.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/control"
	"gdpn/internal/faults"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/plan"
	"gdpn/internal/reconfig"
	"gdpn/internal/verify"
	"gdpn/internal/workload"
)

// maxRecordedViolations caps the violation strings kept in a report;
// further violations are counted but summarized.
const maxRecordedViolations = 32

// MultiConfig parameterizes one soak run. The zero value of every field
// except Topology is usable.
type MultiConfig struct {
	// Topology declares the tenants (required, validated by plan.Parse).
	Topology *plan.Topology
	// Seed makes the run replayable.
	Seed int64
	// Duration is the wall-clock soak length. Default 10s.
	Duration time.Duration
	// MTBF / MTTR are the processor failure/repair means. Defaults 3s /
	// 800ms.
	MTBF, MTTR time.Duration
	// TerminalMTBF / TerminalMTTR enable terminal-class faults (0 = off).
	TerminalMTBF, TerminalMTTR time.Duration
	// BurstProb upgrades a fault into a correlated burst of up to design k
	// simultaneous faults.
	BurstProb float64
	// Executor tunes the control plane: the pool solver budget, the
	// per-event ReplanDeadline (a miss rolls the event back and is counted
	// in DeadlineRollbacks, not as a violation) and the tenant engines'
	// transport.
	Executor control.Config
	// Context ends the soak early: event sleeps wake at once, the tenants
	// drain, and the partial report comes back with Interrupted set. nil
	// means the soak always runs to Duration.
	Context context.Context
	// Logf, when non-nil, narrates events live.
	Logf func(format string, args ...any)
}

// MultiReport is the end-of-run fleet audit.
type MultiReport struct {
	// Tenants are the per-tenant lifetime reports, topology order.
	Tenants []control.TenantReport `json:"tenants"`
	// Elapsed is the achieved wall-clock run length.
	Elapsed time.Duration `json:"elapsed_ns"`
	// FaultsInjected / RepairsApplied / Bursts count applied schedule
	// events. DeadlineRollbacks counts events rolled back for missing the
	// replan deadline; Denied counts events the control plane refused for
	// any other reason, each also a violation. The schedule rolls both
	// back and retries later.
	FaultsInjected    int `json:"faults_injected"`
	RepairsApplied    int `json:"repairs_applied"`
	Bursts            int `json:"bursts"`
	DeadlineRollbacks int `json:"deadline_rollbacks"`
	Denied            int `json:"denied"`
	// Replans counts fault-driven coordinated replans (the bootstrap plan
	// is excluded); MaxTenantsRemapped is the most tenants one replan
	// moved — ≥2 proves cross-tenant coordination actually happened.
	Replans            int64 `json:"replans"`
	MaxTenantsRemapped int   `json:"max_tenants_remapped"`
	// Moved counts, per tenant, the replans that remapped it live
	// (ReplanResult.Affected); its stream must count exactly as many
	// remaps.
	Moved map[string]int64 `json:"moved"`
	// Repairs counts how the global pipeline was repaired, by tactic, and
	// Downtime is the manager's per-tactic ledger of the same repairs.
	Repairs  reconfig.Stats         `json:"repairs"`
	Downtime reconfig.DowntimeStats `json:"downtime"`
	// Checks counts per-event partition audits; Violations records the
	// failures (capped at maxRecordedViolations, then counted).
	Checks          int      `json:"checks"`
	Violations      []string `json:"violations,omitempty"`
	TotalViolations int      `json:"total_violations"`
	// FinalFaults snapshots the pool fault set at close.
	FinalFaults []int `json:"final_faults"`
	// SubmitShed totals Bronze frames dropped at intake across tenants
	// (policy, not loss — they never entered a stream).
	SubmitShed int64 `json:"submit_shed"`
	// Interrupted reports that MultiConfig.Context ended the soak before
	// Duration elapsed; the invariants above cover the partial run.
	Interrupted bool `json:"interrupted,omitempty"`
}

func (r *MultiReport) violate(format string, args ...any) {
	r.TotalViolations++
	msg := fmt.Sprintf(format, args...)
	span.Trip(span.AnomalyInvariant, msg)
	if len(r.Violations) < maxRecordedViolations {
		r.Violations = append(r.Violations, msg)
	}
}

// OK reports whether every invariant held: clean lifetime audit for every
// tenant and no partition violations.
func (r *MultiReport) OK() bool {
	for _, t := range r.Tenants {
		if !t.Stream.Clean() {
			return false
		}
	}
	return r.TotalViolations == 0
}

// Summary renders the end-of-soak fleet report.
func (r *MultiReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %v elapsed, %d tenants\n", r.Elapsed.Round(time.Millisecond), len(r.Tenants))
	for _, t := range r.Tenants {
		state := "running"
		if !t.Running {
			state = "shed"
			if t.ShedReason != "" {
				state = "shed (" + t.ShedReason + ")"
			}
		}
		fmt.Fprintf(&b, "  tenant %-12s %-6s %-18s procs=%-2d incarnations=%d submitted=%d delivered=%d requeued=%d lost=%d duplicated=%d out-of-order=%d remaps=%d shed-at-intake=%d\n",
			t.Tenant, t.Class, state, t.Procs, t.Incarnations,
			t.Stream.Submitted, t.Stream.Delivered, t.Stream.Requeued,
			t.Stream.Lost, t.Stream.Duplicated, t.Stream.OutOfOrder,
			t.Stream.Remaps, t.SubmitShed)
	}
	fmt.Fprintf(&b, "  faults:     injected=%d repaired=%d bursts=%d deadline-rollbacks=%d denied=%d\n",
		r.FaultsInjected, r.RepairsApplied, r.Bursts, r.DeadlineRollbacks, r.Denied)
	fmt.Fprintf(&b, "  replans:    %d coordinated, max tenants moved by one replan=%d\n",
		r.Replans, r.MaxTenantsRemapped)
	s := r.Repairs
	fmt.Fprintf(&b, "  tactics:    splice=%d rewire=%d endpoint-swap=%d insert=%d full-remap=%d no-change=%d\n",
		s.Splice, s.Rewire, s.EndpointSwap, s.Insert, s.FullRemap, s.NoChange)
	fmt.Fprintf(&b, "  downtime:   ")
	for t := reconfig.NoChange; t <= reconfig.FullRemap; t++ {
		if d := r.Downtime.PerTactic[t]; d > 0 {
			fmt.Fprintf(&b, "%s=%v ", t, d.Round(time.Microsecond))
		}
	}
	fmt.Fprintf(&b, "rollbacks=%d rollback-time=%v\n", r.Downtime.Rollbacks, r.Downtime.RollbackTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  invariants: checks=%d violations=%d (segments partition healthy processors after every replan, per-tenant zero loss)\n",
		r.Checks, r.TotalViolations)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    VIOLATION: %s\n", v)
	}
	if extra := r.TotalViolations - len(r.Violations); extra > 0 {
		fmt.Fprintf(&b, "    ... and %d more\n", extra)
	}
	fmt.Fprintf(&b, "  end state:  faults=%v\n", r.FinalFaults)
	if r.OK() {
		b.WriteString("  RESULT: PASS — zero frame loss per tenant, coordinated graceful degradation held\n")
	} else {
		b.WriteString("  RESULT: FAIL\n")
	}
	return b.String()
}

// OneTenant is the topology of the single-pipeline soak (gdpsim -chaos):
// one Gold tenant named "chaos", with the default stage chain and the
// given frame size, granted every healthy processor of the G(n,k) pool.
func OneTenant(n, k, frameSamples int) (*plan.Topology, error) {
	topo := &plan.Topology{
		Pool:    plan.PoolSpec{N: n, K: k},
		Tenants: []plan.TenantSpec{{Name: "chaos", Class: plan.Gold, FrameSamples: frameSamples}},
	}
	return topo, topo.Validate()
}

// MultiRun executes one soak: per-tenant continuous traffic through a
// control.Executor, scheduled pool faults driving coordinated replans, and
// a partition audit after every event. The returned error covers setup
// problems only; invariant failures land in the report.
func MultiRun(sol *construct.Solution, cfg MultiConfig) (*MultiReport, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("chaos: MultiConfig.Topology is required")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.MTBF <= 0 {
		cfg.MTBF = 3 * time.Second
	}
	if cfg.MTTR <= 0 {
		cfg.MTTR = 800 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var ctxDone <-chan struct{}
	if cfg.Context != nil {
		ctxDone = cfg.Context.Done()
	}

	x, err := control.New(sol, cfg.Topology, cfg.Executor)
	if err != nil {
		return nil, err
	}
	sch, err := faults.NewSchedule(sol.Graph, faults.ScheduleConfig{
		MTBF:         cfg.MTBF,
		MTTR:         cfg.MTTR,
		TerminalMTBF: cfg.TerminalMTBF,
		TerminalMTTR: cfg.TerminalMTTR,
		MaxFaults:    sol.K,
		BurstProb:    cfg.BurstProb,
		MaxBurst:     sol.K,
	}, cfg.Seed)
	if err != nil {
		x.Close()
		return nil, err
	}
	injected := obs.Default().Counter("chaos_faults_injected_total")

	// The soak's own root span: schedule events attach to it as they are
	// applied, and it lands in the ring when the run finishes — a flight
	// dump mid-soak therefore carries the replan trees, while the soak span
	// itself shows up in end-of-run snapshots.
	soak := span.Start(nil, "soak")
	soak.SetInt("seed", cfg.Seed).
		SetInt("k", int64(sol.K)).SetInt("n", int64(sol.N)).
		SetInt("tenants", int64(len(cfg.Topology.Tenants)))

	// One producer per tenant: continuous seq-numbered traffic. A shed
	// tenant's producer keeps polling (brief backoff) so readmission
	// resumes its stream; Bronze intake drops are policy, not loss, and
	// the dropped seq is reused for the next attempt.
	stop := make(chan struct{})
	var producerWG sync.WaitGroup
	for i := range cfg.Topology.Tenants {
		spec := cfg.Topology.Tenants[i]
		producerWG.Add(1)
		go func(name string, samples int, seed int64) {
			defer producerWG.Done()
			gen := workload.Video(samples/4, seed)
			seq := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Lease frame storage from the tenant's engine pool (the
				// executor's consumer recycles it) so the soak runs the
				// zero-allocation steady state it certifies.
				d := x.GetBuffer(name, samples)
				workload.Fill(gen, d)
				err := x.Submit(name, pipeline.Frame{Seq: seq, Data: d})
				switch {
				case err == nil:
					seq++
				case err == control.ErrBackpressure:
					// Dropped at intake by class policy; yield briefly.
					if !sleepOrStop(stop, 200*time.Microsecond) {
						return
					}
				case err == control.ErrClosed:
					return
				default:
					// Shed (poll for readmission) or an unexpected submit
					// error, recorded post-run via the tenant's audit; back
					// off so the loop cannot spin.
					if !sleepOrStop(stop, time.Millisecond) {
						return
					}
				}
			}
		}(spec.Name, spec.FrameSamples, cfg.Seed+int64(i))
	}

	rep := &MultiReport{Moved: make(map[string]int64)}
	start := time.Now()
	end := start.Add(cfg.Duration)
	for {
		evs := sch.Next()
		at := start.Add(evs[0].At)
		if at.After(end) {
			rep.Interrupted = !sleepOrStop(ctxDone, time.Until(end))
			break
		}
		if !sleepOrStop(ctxDone, time.Until(at)) {
			rep.Interrupted = true
			break
		}
		if len(evs) > 1 {
			rep.Bursts++
		}
		for _, ev := range evs {
			var res *control.ReplanResult
			var err error
			if ev.Repair {
				res, err = x.Repair(ev.Node)
			} else {
				res, err = x.Inject(ev.Node)
			}
			switch {
			case err == nil:
				if ev.Repair {
					rep.RepairsApplied++
				} else {
					rep.FaultsInjected++
					injected.Inc()
				}
				for _, name := range res.Affected {
					rep.Moved[name]++
				}
				soak.Eventf("apply", "%s affected=%d admitted=%d shed=%d",
					ev, len(res.Affected), len(res.Admitted), len(res.Shed))
				logf("chaos: %s replan gen=%d affected=%v admitted=%v shed=%v",
					ev, res.Gen, res.Affected, res.Admitted, res.Shed)
			case errors.Is(err, reconfig.ErrDeadline):
				rep.DeadlineRollbacks++
				sch.Deny(ev)
				soak.Eventf("rollback", "%s deadline: %v", ev, err)
				logf("chaos: %s ROLLED BACK (deadline): %v", ev, err)
			default:
				// Within the k budget every event must replan; the schedule
				// never exceeds it, so a refusal is itself a violation.
				rep.Denied++
				sch.Deny(ev)
				rep.violate("apply %s: %v", ev, err)
			}
		}
		rep.Checks++
		checkPartitionInvariants(rep, x, sol, evs[0].At)
	}

	close(stop)
	producerWG.Wait()
	rep.FinalFaults = x.Faults().Slice()
	rep.Checks++
	checkPartitionInvariants(rep, x, sol, time.Since(start))
	rep.Repairs, rep.Downtime = x.Tactics()
	rep.Tenants = x.Close()
	rep.Elapsed = time.Since(start)
	n, maxMoved := x.Replans()
	rep.Replans = n - 1 // exclude the bootstrap plan
	rep.MaxTenantsRemapped = maxMoved
	for _, t := range rep.Tenants {
		rep.SubmitShed += t.SubmitShed
		if !t.Stream.Clean() {
			rep.violate("tenant %s not clean: lost=%d duplicated=%d out-of-order=%d submitted=%d delivered=%d",
				t.Tenant, t.Stream.Lost, t.Stream.Duplicated, t.Stream.OutOfOrder,
				t.Stream.Submitted, t.Stream.Delivered)
		}
		if t.Stream.Remaps != rep.Moved[t.Tenant] || t.Stream.RemapFailures != 0 {
			rep.violate("tenant %s stream counted %d remaps and %d failures for %d replans that moved it",
				t.Tenant, t.Stream.Remaps, t.Stream.RemapFailures, rep.Moved[t.Tenant])
		}
	}
	soak.SetInt("faults", int64(rep.FaultsInjected)).SetInt("repairs", int64(rep.RepairsApplied))
	soak.SetInt("replans", rep.Replans).SetInt("violations", int64(rep.TotalViolations))
	if rep.OK() {
		soak.End(span.OK)
	} else {
		soak.End(span.Errored)
	}
	return rep, nil
}

// sleepOrStop waits d (which may be ≤ 0) or until stop closes; false means
// stop closed first. A nil stop never closes.
func sleepOrStop(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// checkPartitionInvariants re-proves fleet-level graceful degradation on
// the live state: the running segments must be disjoint valid placements
// whose union is exactly the healthy processors.
func checkPartitionInvariants(rep *MultiReport, x *control.Executor, sol *construct.Solution, at time.Duration) {
	f := x.Faults()
	segs := x.Segments()
	covered := make(map[int]string)
	for name, seg := range segs {
		if err := verify.CheckSegment(sol.Graph, f, seg, seg); err != nil {
			rep.violate("t=%v: tenant %s segment invalid: %v", at.Round(time.Millisecond), name, err)
			return
		}
		for _, v := range seg {
			if prev, dup := covered[v]; dup {
				rep.violate("t=%v: processor %d granted to both %s and %s", at.Round(time.Millisecond), v, prev, name)
				return
			}
			covered[v] = name
		}
	}
	if len(segs) == 0 {
		return // everyone shed: nothing to cover
	}
	healthy := 0
	for _, p := range sol.Graph.Processors() {
		if !f.Contains(p) {
			healthy++
		}
	}
	if len(covered) != healthy {
		rep.violate("t=%v: placements cover %d processors, pool has %d healthy",
			at.Round(time.Millisecond), len(covered), healthy)
	}
}
