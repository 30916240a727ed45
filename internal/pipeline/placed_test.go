package pipeline_test

import (
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/pipeline"
	"gdpn/internal/verify"
)

// poolInterior solves the global pipeline over an unfaulted Design(n,k)
// pool and returns the solution plus the interior processor path — the
// segment stock that placed-engine tests carve tenant placements from.
func poolInterior(t *testing.T, n, k int) (*construct.Solution, graph.Path) {
	t.Helper()
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Fatalf("Design(%d,%d): %v", n, k, err)
	}
	solver := embed.NewSolver(sol.Graph, embed.Options{Layout: sol.Layout})
	res := solver.Find(bitset.New(sol.Graph.NumNodes()))
	if !res.Found {
		t.Fatalf("no global pipeline for unfaulted G(%d,%d)", n, k)
	}
	if err := verify.CheckPipeline(sol.Graph, bitset.New(sol.Graph.NumNodes()), res.Pipeline); err != nil {
		t.Fatalf("global pipeline invalid: %v", err)
	}
	return sol, append(graph.Path(nil), res.Pipeline[1:len(res.Pipeline)-1]...)
}

// TestPlacedEngineModeErrors pins NewPlaced's contract: the engine runs
// exactly the segment it is given, carries its tenant label, and rejects
// structurally invalid segments. (Engines have no fault entry points at
// all; faults reach them only as placements.)
func TestPlacedEngineModeErrors(t *testing.T) {
	sol, interior := poolInterior(t, 12, 3)

	eng, err := pipeline.NewPlaced(sol.Graph, interior[:5], testStages(), pipeline.WithTenant("acme"))
	if err != nil {
		t.Fatalf("NewPlaced: %v", err)
	}
	if got := eng.Tenant(); got != "acme" {
		t.Fatalf("Tenant() = %q, want %q", got, "acme")
	}
	if got := eng.ProcessorsInUse(); got != 5 {
		t.Fatalf("ProcessorsInUse() = %d, want 5", got)
	}

	if _, err := pipeline.NewPlaced(sol.Graph, nil, testStages()); err == nil {
		t.Fatal("NewPlaced with empty segment should fail")
	}
	dup := graph.Path{interior[0], interior[1], interior[0]}
	if _, err := pipeline.NewPlaced(sol.Graph, dup, testStages()); err == nil {
		t.Fatal("NewPlaced with a repeated node should fail")
	}
	terminal := -1
	for v := 0; v < sol.Graph.NumNodes(); v++ {
		if sol.Graph.Kind(v) != graph.Processor {
			terminal = v
			break
		}
	}
	if terminal < 0 {
		t.Fatal("pool has no terminals")
	}
	if _, err := pipeline.NewPlaced(sol.Graph, graph.Path{terminal}, testStages()); err == nil {
		t.Fatal("NewPlaced with a terminal node should fail")
	}
}

// TestPlacedStreamMatchesReference streams through a placed engine with no
// placement changes and checks the output is bit-identical to the
// sequential reference: placement mode must not perturb stage semantics.
func TestPlacedStreamMatchesReference(t *testing.T) {
	sol, interior := poolInterior(t, 12, 3)
	eng, err := pipeline.NewPlaced(sol.Graph, interior[:7], testStages())
	if err != nil {
		t.Fatalf("NewPlaced: %v", err)
	}
	ref := mustEngine(t, 12, 3)
	frames := genFrames(40, 256, 11)
	want := ref.ProcessSequential(copyFrames(frames))

	st, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	done := make(chan []pipeline.Frame)
	go func() {
		var got []pipeline.Frame
		for f := range st.Out() {
			got = append(got, f)
		}
		done <- got
	}()
	for _, f := range frames {
		if err := st.Submit(f); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	rep := st.Close()
	got := <-done
	if !rep.Clean() {
		t.Fatalf("stream not clean: %+v", rep)
	}
	assertSameFrames(t, got, want)
}

// TestPlacedApplyPlacementZeroLoss swaps placements live while frames
// flow — growing, shrinking, and shifting the segment — and checks the
// zero-loss ledger plus bit-identical output against the sequential
// reference. This is the placed-mode analogue of
// TestStreamZeroLossAcrossRemaps: a coordinated replan must drain and
// requeue exactly like a fault remap.
func TestPlacedApplyPlacementZeroLoss(t *testing.T) {
	sol, interior := poolInterior(t, 12, 3)
	eng, err := pipeline.NewPlaced(sol.Graph, interior[:6], testStages(), pipeline.WithTenant("swap"))
	if err != nil {
		t.Fatalf("NewPlaced: %v", err)
	}
	ref := mustEngine(t, 12, 3)
	frames := genFrames(120, 256, 23)
	want := ref.ProcessSequential(copyFrames(frames))

	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 16})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	done := make(chan []pipeline.Frame)
	go func() {
		var got []pipeline.Frame
		for f := range st.Out() {
			got = append(got, f)
		}
		done <- got
	}()

	placements := []graph.Path{
		interior[:9],  // grow
		interior[4:],  // shift to the tail end
		interior[2:5], // shrink hard
		interior,      // whole interior
	}
	swapEvery := len(frames) / (len(placements) + 1)
	next := 0
	for i, f := range frames {
		if next < len(placements) && i == (next+1)*swapEvery {
			if err := eng.ApplyPlacement(placements[next], nil); err != nil {
				t.Fatalf("ApplyPlacement %d: %v", next, err)
			}
			next++
		}
		if err := st.Submit(f); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// An invalid placement must be rejected without disturbing the stream.
	bad := graph.Path{interior[0], interior[0]}
	if err := eng.ApplyPlacement(bad, nil); err == nil {
		t.Fatal("ApplyPlacement with invalid segment should fail")
	}
	rep := st.Close()
	got := <-done
	if !rep.Clean() {
		t.Fatalf("stream not clean: %+v", rep)
	}
	if rep.Remaps != int64(len(placements)) {
		t.Fatalf("Remaps = %d, want %d", rep.Remaps, len(placements))
	}
	if rep.RemapFailures != 1 {
		t.Fatalf("RemapFailures = %d, want 1", rep.RemapFailures)
	}
	assertSameFrames(t, got, want)
}
