package chaos

import (
	"context"
	"testing"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/control"
)

// oneTenant builds the single-pipeline soak's topology over sol's pool.
func oneTenant(t *testing.T, sol *construct.Solution) MultiConfig {
	t.Helper()
	topo, err := OneTenant(sol.N, sol.K, 256)
	if err != nil {
		t.Fatalf("OneTenant: %v", err)
	}
	return MultiConfig{Topology: topo}
}

// TestSoakShortRun is the in-tree smoke version of the nightly soak: a
// fast fault process on a one-tenant G(12,3) for ~1.5s must finish with a
// clean stream, zero invariant violations, and actual fault churn.
func TestSoakShortRun(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 400 * time.Millisecond
	}
	cfg := oneTenant(t, sol)
	cfg.Seed = 1
	cfg.Duration = dur
	cfg.MTBF = 120 * time.Millisecond
	cfg.MTTR = 40 * time.Millisecond
	cfg.BurstProb = 0.2
	rep, err := MultiRun(sol, cfg)
	if err != nil {
		t.Fatalf("MultiRun: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("soak failed:\n%s", rep.Summary())
	}
	if rep.FaultsInjected == 0 {
		t.Fatalf("no faults injected in %v (MTBF too long for test?)", dur)
	}
	if st := rep.Tenants[0].Stream; st.Submitted == 0 || st.Delivered != st.Submitted {
		t.Fatalf("stream not clean: %+v", st)
	}
	if rep.Checks == 0 {
		t.Fatalf("no invariant checks ran")
	}
}

// TestSoakDeadlineRollbacksLeaveStreamUntouched forces full-remap
// rollbacks with a 1ns replan deadline. The soak must still pass, which
// includes MultiRun's own check that each stream counts one remap per
// replan that moved its tenant, and the stream must count exactly one
// remap per event that moved the tenant: a rolled-back event adds none,
// and an applied one that left the segment unchanged (a terminal fault or
// repair) adds none either.
func TestSoakDeadlineRollbacksLeaveStreamUntouched(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	cfg := oneTenant(t, sol)
	cfg.Seed = 2
	cfg.Duration = 600 * time.Millisecond
	cfg.MTBF = 40 * time.Millisecond
	cfg.MTTR = 15 * time.Millisecond
	cfg.TerminalMTBF = 40 * time.Millisecond
	cfg.TerminalMTTR = 15 * time.Millisecond
	cfg.Executor = control.Config{ReplanDeadline: time.Nanosecond}
	rep, err := MultiRun(sol, cfg)
	if err != nil {
		t.Fatalf("MultiRun: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("soak failed:\n%s", rep.Summary())
	}
	if rep.DeadlineRollbacks == 0 {
		t.Fatalf("no deadline rollbacks in %v:\n%s", rep.Elapsed, rep.Summary())
	}
	st, moved := rep.Tenants[0].Stream, rep.Moved[rep.Tenants[0].Tenant]
	if moved == 0 || st.Remaps != moved || st.RemapFailures != 0 {
		t.Fatalf("stream saw %d remaps and %d failures for %d events that moved the tenant",
			st.Remaps, st.RemapFailures, moved)
	}
}

// TestSoakSeedReplay checks that two runs with the same seed inject the
// same number of faults — the property that makes a failing nightly seed
// reproducible locally. (Exact event times are wall-clock dependent, but
// the schedule's event sequence is seed-determined; with MTBF far above
// the run length only the deterministic prefix fires.)
func TestSoakSeedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replay comparison needs two timed runs")
	}
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatalf("Design(10,2): %v", err)
	}
	cfg := oneTenant(t, sol)
	cfg.Seed = 7
	cfg.Duration = 600 * time.Millisecond
	cfg.MTBF = 100 * time.Millisecond
	cfg.MTTR = 30 * time.Millisecond
	a, err := MultiRun(sol, cfg)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	sol2, _ := construct.Design(10, 2)
	b, err := MultiRun(sol2, cfg)
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if !a.OK() || !b.OK() {
		t.Fatalf("replay runs not clean:\nA:\n%s\nB:\n%s", a.Summary(), b.Summary())
	}
	// Same seed, same config, same duration: the event prefixes that fit in
	// the window are identical, so fault counts may differ by at most the
	// scheduling jitter at the window edge.
	diff := a.FaultsInjected - b.FaultsInjected
	if diff < 0 {
		diff = -diff
	}
	if diff > 2 {
		t.Fatalf("seed replay diverged: %d vs %d faults", a.FaultsInjected, b.FaultsInjected)
	}
}

// TestSoakContextCancelFlushesCleanly: canceling the soak's context ends
// the run early with Interrupted set, and the shutdown still drains the
// stream — every submitted frame is delivered, nothing lost.
func TestSoakContextCancelFlushesCleanly(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	cfg := oneTenant(t, sol)
	cfg.Seed = 1
	cfg.Duration = time.Hour // would run forever without the cancel
	cfg.MTBF = 60 * time.Millisecond
	cfg.MTTR = 30 * time.Millisecond
	cfg.Context = ctx
	rep, err := MultiRun(sol, cfg)
	if err != nil {
		t.Fatalf("MultiRun: %v", err)
	}
	if !rep.Interrupted {
		t.Fatal("canceled soak not marked interrupted")
	}
	if rep.Elapsed >= time.Hour {
		t.Fatalf("soak ran to full duration despite cancel: %v", rep.Elapsed)
	}
	if rep.TotalViolations != 0 {
		t.Fatalf("cancellation produced violations:\n%s", rep.Summary())
	}
	if st := rep.Tenants[0].Stream; !st.Clean() {
		t.Fatalf("interrupted shutdown lost frames: %+v", st)
	}
}
