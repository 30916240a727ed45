package reconfig_test

// Warm-cache integration tests: the manager keeps ONE embed.Solver alive
// for its whole lifetime, so the solver's result memo must survive
// fault/repair churn — revisited fault sets are answered from the memo.

import (
	"slices"
	"testing"

	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/reconfig"
)

// remapChurnGraph is the TestFullRemapAttribution topology: each
// processor carries one input and one output terminal, with the spares on
// the OTHER processor, so a failed on-pipeline terminal can never be
// swapped locally and every such fault forces a full solver recompute.
func remapChurnGraph() (*graph.Graph, [2]int, [2]int) {
	g := graph.New("warm-cache-test")
	a := g.AddNode(graph.Processor, 0)
	b := g.AddNode(graph.Processor, 1)
	i1 := g.AddNode(graph.InputTerminal, 0)
	i2 := g.AddNode(graph.InputTerminal, 1)
	o1 := g.AddNode(graph.OutputTerminal, 0)
	o2 := g.AddNode(graph.OutputTerminal, 1)
	g.AddEdge(a, b)
	g.AddEdge(i1, a)
	g.AddEdge(o2, a)
	g.AddEdge(i2, b)
	g.AddEdge(o1, b)
	return g, [2]int{i1, i2}, [2]int{o1, o2}
}

// TestManagerSolverWarmAcrossRemaps churns fault/repair cycles that each
// force a full remap and asserts the solver stayed warm throughout: after
// the first lap every fault set is a memo hit.
func TestManagerSolverWarmAcrossRemaps(t *testing.T) {
	g, ins, _ := remapChurnGraph()
	m := managerFor(t, g)

	remaps := 0
	const laps = 4
	for lap := 0; lap < laps; lap++ {
		// Alternate faulting whichever input terminal the current
		// pipeline starts at; the remap flips to the other terminal pair,
		// the repair of an off-pipeline terminal is a NoChange (so the
		// fault-set delta spans a repair the solver never saw).
		for _, in := range ins {
			if m.Pipeline()[0] != in {
				continue
			}
			tac, err := m.Fault(in)
			if err != nil {
				t.Fatalf("lap %d: Fault(%d): %v", lap, in, err)
			}
			if tac != reconfig.FullRemap {
				t.Fatalf("lap %d: Fault(%d) tactic = %v, want full-remap", lap, in, tac)
			}
			remaps++
			if tac, err := m.Repair(in); err != nil || tac != reconfig.NoChange {
				t.Fatalf("lap %d: Repair(%d) = %v, %v, want no-change", lap, in, tac, err)
			}
		}
	}
	// Each lap forces two remaps (fault one terminal, then the other the
	// flip exposed), except the first when the initial pipeline already
	// starts at the second terminal.
	if remaps < 2*laps-1 {
		t.Fatalf("forced %d full remaps, want at least %d", remaps, 2*laps-1)
	}

	memoHits, memoMisses := m.SolverCache()
	// Distinct fault sets the solver saw: {} at New, then the two
	// alternating single-terminal sets. Everything else is a revisit.
	wantMisses := int64(3)
	wantHits := int64(remaps+1) - wantMisses
	if memoMisses != wantMisses || memoHits != wantHits {
		t.Fatalf("memo hits/misses = %d/%d, want %d/%d", memoHits, memoMisses, wantHits, wantMisses)
	}
}

// TestManagerDeltaSpansRolledBackFault pins the rollback bookkeeping: a
// fault whose remap fails (deadline expired before the solve even
// started) is rolled back, and the next remap of the same fault is valid.
func TestManagerDeltaSpansRolledBackFault(t *testing.T) {
	g, ins, _ := remapChurnGraph()
	m := managerFor(t, g)

	first := m.Pipeline()[0]
	// An already-expired deadline fails the remap before the solver runs;
	// the fault rolls back and the pipeline stays valid.
	m.SetResources(embed.Scoped(nil, 1))
	if _, err := m.Fault(first); err == nil {
		t.Fatal("Fault under expired deadline succeeded, want rollback")
	}
	m.SetResources(nil)
	if got := m.Faults().Count(); got != 0 {
		t.Fatalf("faults after rollback = %d, want 0", got)
	}

	// The rolled-back fault must not poison the solver: this remap
	// succeeds and lands on the other terminal pair.
	tac, err := m.Fault(first)
	if err != nil {
		t.Fatalf("Fault(%d) after rollback: %v", first, err)
	}
	if tac != reconfig.FullRemap {
		t.Fatalf("tactic = %v, want full-remap", tac)
	}
	if got := m.Pipeline()[0]; got == first || (got != ins[0] && got != ins[1]) {
		t.Fatalf("pipeline %v still starts at faulted terminal %d", m.Pipeline(), first)
	}
}

// TestManagerPipelineSurvivesRemap keeps every slice Pipeline returns
// across later full remaps, solved ones and one answered from the
// solver's memo, and requires each unchanged: the manager must not let a
// later solve write into a path it handed out.
func TestManagerPipelineSurvivesRemap(t *testing.T) {
	g, ins, _ := remapChurnGraph()
	m := managerFor(t, g)
	first := m.Pipeline()[0]
	other := ins[0]
	if other == first {
		other = ins[1]
	}
	var kept, want []graph.Path
	for i, step := range []func() (reconfig.Tactic, error){
		func() (reconfig.Tactic, error) { return m.Fault(first) },  // full remap, solved
		func() (reconfig.Tactic, error) { return m.Repair(first) }, // no change
		func() (reconfig.Tactic, error) { return m.Fault(other) },  // full remap, solved
		func() (reconfig.Tactic, error) { return m.Repair(other) }, // no change
		func() (reconfig.Tactic, error) { return m.Fault(first) },  // full remap, a memo hit
	} {
		kept, want = append(kept, m.Pipeline()), append(want, slices.Clone(m.Pipeline()))
		if _, err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for j := range kept {
			if !slices.Equal(kept[j], want[j]) {
				t.Fatalf("step %d: the pipeline handed out before step %d changed from %v to %v", i, j, want[j], kept[j])
			}
		}
	}
	if hits, _ := m.SolverCache(); hits == 0 {
		t.Fatal("no remap was answered from the memo")
	}
}
