package reconfig_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
)

// TestApplyOneTreePerEvent drives a live stream through one successful
// fault and one deadline rollback via Manager.Apply and checks the trace
// contract. Each event yields exactly one "remap" root. The successful one
// carries the manager's detect/plan phases and the engine's
// drain/requeue/rewire phases as direct children. The rolled-back one
// never reaches the engine (no drain, stream report unchanged) and is the
// only event that trips the flight recorder. The remap SLO sees each
// event once.
func TestApplyOneTreePerEvent(t *testing.T) {
	tr, slo, rec := span.Default(), span.DefaultSLO(), span.DefaultRecorder()
	slo.SetEnabled(true)
	if err := rec.Arm(span.RecorderConfig{Dir: t.TempDir(), Cooldown: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		rec.Disarm()
		slo.SetEnabled(false)
		tr.SetEnabled(false)
		tr.Reset()
	}()
	remapCount := func() int64 {
		for _, o := range slo.Snapshot().Objectives {
			if o.Name == "remap" {
				return o.Count
			}
		}
		return 0
	}
	sloBefore := remapCount()

	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipeline.NewPlaced(sol.Graph, m.Interior(), []stages.Stage{
		stages.NewFIR([]float64{0.5, 0.5}),
		stages.NewQuantize(-8, 8, 64),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 8})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range st.Out() {
			eng.Recycle(f)
		}
	}()
	for seq := 0; seq < 32; seq++ {
		if err := st.Submit(pipeline.Frame{Seq: seq, Data: eng.GetBuffer(64)}); err != nil {
			t.Fatal(err)
		}
	}

	// Only the events' spans count, not the initial solve's.
	tr.Reset()
	// A processor fault: planned by the manager, then placed on the engine.
	if err := m.Apply(reconfig.OpFault, m.Pipeline()[3], eng.ApplyPlacement); err != nil {
		t.Fatalf("processor fault: %v", err)
	}
	if !slices.Equal(eng.Pipeline(), m.Interior()) {
		t.Fatalf("engine runs %v, manager planned %v", eng.Pipeline(), m.Interior())
	}
	// A G(10,2) pipeline endpoint has degree 1, so faulting it needs the
	// full solver, which an expired deadline rolls back.
	m.SetResources(embed.Scoped(nil, time.Nanosecond))
	before := st.Report()
	if err := m.Apply(reconfig.OpFault, m.Pipeline()[0], eng.ApplyPlacement); !errors.Is(err, reconfig.ErrDeadline) {
		t.Fatalf("terminal fault under 1ns deadline = %v, want ErrDeadline", err)
	}
	if after := st.Report(); after.Remaps != before.Remaps || after.TotalDowntime != before.TotalDowntime {
		t.Fatalf("rollback reached the stream: %+v → %+v", before, after)
	}
	rep := st.Close()
	<-done
	if !rep.Clean() || rep.Remaps != 1 {
		t.Fatalf("stream report %+v, want clean with one remap", rep)
	}
	if got := remapCount() - sloBefore; got != 2 {
		t.Fatalf("remap SLO observed %d times, want once per event (2)", got)
	}
	if written, _ := rec.Dumps(); written != 1 {
		t.Fatalf("flight recorder wrote %d dumps, want 1 (the rollback)", written)
	}

	var roots []span.Span
	children := map[uint64][]string{}
	for _, sp := range tr.Snapshot() {
		if sp.Parent == 0 {
			roots = append(roots, sp)
		} else {
			children[sp.Parent] = append(children[sp.Parent], sp.Name)
		}
	}
	if len(roots) != 2 {
		t.Fatalf("got %d root spans, want one remap root per event: %v", len(roots), roots)
	}
	for _, root := range roots {
		kids := children[root.ID]
		if root.Name != "remap" || !slices.Contains(kids, "detect") || !slices.Contains(kids, "plan") {
			t.Fatalf("root %s (%v) has children %v, want a remap with detect and plan", root.Name, root.Status, kids)
		}
		placed := slices.Contains(kids, "drain") && slices.Contains(kids, "requeue") && slices.Contains(kids, "rewire")
		switch root.Status {
		case span.OK:
			if !placed {
				t.Fatalf("successful remap children %v lack the engine's drain/requeue/rewire", kids)
			}
		case span.Deadline:
			if slices.Contains(kids, "drain") {
				t.Fatalf("rolled-back remap drained the stream: children %v", kids)
			}
		default:
			t.Fatalf("remap root status %v", root.Status)
		}
	}
}

// TestNewTracesBootstrapUnderOneRoot checks that the initial mapping New
// computes leaves one trace: a "remap" root with op=bootstrap, and its
// solve and audit phases, the solver's own solve span among them, below
// it rather than as roots of their own.
func TestNewTracesBootstrapUnderOneRoot(t *testing.T) {
	tr := span.Default()
	tr.Reset()
	tr.SetEnabled(true)
	defer func() {
		tr.SetEnabled(false)
		tr.Reset()
	}()
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reconfig.New(sol); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	var roots []span.Span
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
		if sp.Parent == 0 {
			roots = append(roots, sp)
		}
	}
	if len(roots) != 1 || roots[0].Name != "remap" || roots[0].Status != span.OK {
		t.Fatalf("root spans %+v, want one OK remap root", roots)
	}
	if op, _ := roots[0].Attr("op"); op != "bootstrap" {
		t.Fatalf("remap root op=%q, want bootstrap", op)
	}
	if names["solve"] != 2 || names["audit"] != 1 {
		t.Fatalf("spans by name %v, want the phase and solver solve spans and one audit", names)
	}
	for _, sp := range spans {
		if sp.Trace != roots[0].Trace {
			t.Fatalf("span %s is in trace %d, the root in %d", sp.Name, sp.Trace, roots[0].Trace)
		}
	}
}
