package chaos

// Multi-tenant soak: the control-plane analogue of Run. Instead of one
// engine whose pipeline a reconfig.Manager plans, a control.Executor
// runs a whole Topology on one shared pool while the fault schedule hits
// the pool; every event triggers one coordinated replan, and the
// invariants are re-proved per tenant:
//
//   - every tenant's lifetime sink audit is clean (zero loss, zero
//     duplication, in order) across every coordinated remap, shed, and
//     readmission;
//   - after every event the running placements partition the healthy
//     processors exactly — disjoint valid segments (verify.CheckSegment)
//     whose union is every healthy processor, i.e. graceful degradation
//     holds for the fleet, not just per pipeline.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/control"
	"gdpn/internal/faults"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/plan"
	"gdpn/internal/verify"
	"gdpn/internal/workload"
)

// MultiConfig parameterizes one multi-tenant soak run. The zero value of
// every field except Topology is usable.
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
	// BurstProb / MaxBurst configure correlated fault bursts.
	BurstProb float64
	MaxBurst  int
	// Budget is the pool-wide solver allowance (0 = unlimited).
	Budget int64
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
	// events; Denied counts events the control plane refused (replan
	// failure), which the schedule then rolled back.
	FaultsInjected int `json:"faults_injected"`
	RepairsApplied int `json:"repairs_applied"`
	Bursts         int `json:"bursts"`
	Denied         int `json:"denied"`
	// Replans counts fault-driven coordinated replans (the bootstrap plan
	// is excluded); MaxTenantsRemapped is the most tenants one replan
	// moved — ≥2 proves cross-tenant coordination actually happened.
	Replans            int64 `json:"replans"`
	MaxTenantsRemapped int   `json:"max_tenants_remapped"`
	// Checks / Violations mirror Report: per-event partition audits.
	Checks          int      `json:"checks"`
	Violations      []string `json:"violations,omitempty"`
	TotalViolations int      `json:"total_violations"`
	// FinalFaults snapshots the pool fault set at close.
	FinalFaults []int `json:"final_faults"`
	// SubmitShed totals Bronze frames dropped at intake across tenants
	// (policy, not loss — they never entered a stream).
	SubmitShed int64 `json:"submit_shed"`
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
	fmt.Fprintf(&b, "multi-tenant soak: %v elapsed, %d tenants\n", r.Elapsed.Round(time.Millisecond), len(r.Tenants))
	for _, t := range r.Tenants {
		state := "running"
		if !t.Running {
			state = "shed"
			if t.ShedReason != "" {
				state = "shed (" + t.ShedReason + ")"
			}
		}
		fmt.Fprintf(&b, "  tenant %-12s %-6s %-18s procs=%-2d incarnations=%d submitted=%d delivered=%d requeued=%d lost=%d dup=%d ooo=%d remaps=%d shed-at-intake=%d\n",
			t.Tenant, t.Class, state, t.Procs, t.Incarnations,
			t.Stream.Submitted, t.Stream.Delivered, t.Stream.Requeued,
			t.Stream.Lost, t.Stream.Duplicated, t.Stream.OutOfOrder,
			t.Stream.Remaps, t.SubmitShed)
	}
	fmt.Fprintf(&b, "  faults:     injected=%d repaired=%d bursts=%d denied=%d\n",
		r.FaultsInjected, r.RepairsApplied, r.Bursts, r.Denied)
	fmt.Fprintf(&b, "  replans:    %d coordinated, max tenants moved by one replan=%d\n",
		r.Replans, r.MaxTenantsRemapped)
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

// MultiRun executes one multi-tenant soak: per-tenant continuous traffic
// through a control.Executor, scheduled pool faults driving coordinated
// replans, and a partition audit after every event. The returned error
// covers setup problems only; invariant failures land in the report.
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
	if cfg.MaxBurst <= 0 {
		cfg.MaxBurst = sol.K
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	x, err := control.New(sol, cfg.Topology, control.Config{Budget: cfg.Budget})
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
		MaxBurst:     cfg.MaxBurst,
	}, cfg.Seed)
	if err != nil {
		x.Close()
		return nil, err
	}

	soak := span.Start(nil, "soak")
	soak.SetStr("mode", "tenants").SetInt("seed", cfg.Seed).
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
				case err == control.ErrTenantShed:
					if !sleepOrStop(stop, time.Millisecond) {
						return
					}
				case err == control.ErrClosed:
					return
				default:
					// Unexpected submit error: recorded post-run via the
					// tenant's audit; back off so the loop cannot spin.
					if !sleepOrStop(stop, time.Millisecond) {
						return
					}
				}
			}
		}(spec.Name, spec.FrameSamples, cfg.Seed+int64(i))
	}

	rep := &MultiReport{}
	start := time.Now()
	end := start.Add(cfg.Duration)
	for {
		evs := sch.Next()
		at := start.Add(evs[0].At)
		if at.After(end) {
			time.Sleep(time.Until(end))
			break
		}
		time.Sleep(time.Until(at))
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
			if err != nil {
				// Within the k budget every event must replan; the schedule
				// never exceeds it, so a refusal is itself a violation.
				rep.Denied++
				sch.Deny(ev)
				rep.violate("apply %s: %v", ev, err)
				continue
			}
			if ev.Repair {
				rep.RepairsApplied++
			} else {
				rep.FaultsInjected++
			}
			soak.Eventf("apply", "%s affected=%d admitted=%d shed=%d",
				ev, len(res.Affected), len(res.Admitted), len(res.Shed))
			logf("chaos: %s replan gen=%d affected=%v admitted=%v shed=%v",
				ev, res.Gen, res.Affected, res.Admitted, res.Shed)
		}
		rep.Checks++
		checkPartitionInvariants(rep, x, sol, evs[0].At)
	}

	close(stop)
	producerWG.Wait()
	rep.FinalFaults = x.Faults().Slice()
	rep.Checks++
	checkPartitionInvariants(rep, x, sol, time.Since(start))
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
