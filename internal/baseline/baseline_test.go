package baseline_test

import (
	"math"
	"testing"

	"gdpn/internal/baseline"
	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/verify"
)

func TestHayesCycleStructure(t *testing.T) {
	g := baseline.HayesCycle(12, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 16 || g.CountKind(graph.Processor) != 16 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Offsets {1,2,3}: 6-regular.
	for _, p := range g.Processors() {
		if g.Degree(p) != 6 {
			t.Fatalf("degree %d, want 6", g.Degree(p))
		}
	}
	// Same maximum degree as the paper's construction (§3.4 remark).
	gn, _, err := construct.Asymptotic(22, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxProcessorDegree() != gn.MaxProcessorDegree() {
		t.Fatalf("Hayes degree %d vs paper degree %d", g.MaxProcessorDegree(), gn.MaxProcessorDegree())
	}
}

func TestHayesCycleOddK(t *testing.T) {
	g := baseline.HayesCycle(13, 5) // m=18, offsets {1,2,3,9(bisector)}
	for _, p := range g.Processors() {
		if g.Degree(p) != 7 {
			t.Fatalf("degree %d, want 7 (2·3 + bisector)", g.Degree(p))
		}
	}
}

func TestHayesCycleSurvivesFaults(t *testing.T) {
	// The unlabeled guarantee: after ≤ k faults a C_n survives.
	const n, k = 10, 2
	g := baseline.HayesCycle(n, k)
	for _, fs := range [][]int{{}, {0}, {3, 4}, {0, 11}, {5, 6}} {
		faults := bitset.FromSlice(g.NumNodes(), fs)
		cyc, ok := baseline.FindCycle(g, faults, n, 5_000_000)
		if !ok {
			t.Fatalf("no C_%d with faults %v", n, fs)
		}
		// Validate: distinct healthy processors forming a closed walk.
		seen := map[int]bool{}
		for i, v := range cyc {
			if faults.Contains(v) || seen[v] {
				t.Fatalf("invalid cycle %v", cyc)
			}
			seen[v] = true
			if !g.HasEdge(v, cyc[(i+1)%len(cyc)]) {
				t.Fatalf("cycle uses non-edge: %v", cyc)
			}
		}
		if len(cyc) != n {
			t.Fatalf("cycle length %d", len(cyc))
		}
	}
}

func TestNaiveTerminalsNotDegreeOptimal(t *testing.T) {
	// §2 critique, measured (experiment S2a): naively attaching terminals
	// to Hayes's circulant turns out to be k-gracefully-degradable on the
	// small instances we exhaustively checked — but it EXCEEDS the optimal
	// maximum processor degree: terminal-carrying processors reach k+3
	// where the paper's construction achieves a uniform k+2. The paper's
	// contribution survives as a degree-optimality result, not a
	// feasibility one, and EXPERIMENTS.md records this empirical finding.
	const n, k = 10, 2
	g := baseline.NaiveTerminals(baseline.HayesCycle(n, k), k)
	if err := verify.CheckStandard(g, n, k); err != nil {
		t.Fatalf("naive graph should still be standard-shaped: %v", err)
	}
	rep := verify.Exhaustive(g, k, verify.Options{})
	if !rep.OK() {
		t.Fatalf("naive Hayes labeling unexpectedly failed verification: %s %v",
			rep.String(), rep.Failures)
	}
	if got := g.MaxProcessorDegree(); got != k+3 {
		t.Fatalf("naive max degree %d, want k+3 = %d", got, k+3)
	}
	if err := verify.CheckDegreeOptimal(g, n, k); err == nil {
		t.Fatal("naive labeling should NOT be degree-optimal (bound is k+2)")
	}
	// The paper's own G(10,2) achieves the optimal degree k+2 = 4.
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckDegreeOptimal(sol.Graph, n, k); err != nil {
		t.Fatal(err)
	}
}

func TestFindCycleRejectsImpossible(t *testing.T) {
	g := baseline.HayesCycle(10, 2)
	if _, ok := baseline.FindCycle(g, nil, 2, 1000); ok {
		t.Fatal("length-2 cycle")
	}
	if _, ok := baseline.FindCycle(g, nil, 99, 1000); ok {
		t.Fatal("cycle longer than graph")
	}
}

func TestFindFixedPipeline(t *testing.T) {
	sol, err := construct.Design(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := sol.Graph
	// Non-graceful contract: exactly n = 6 processors even though 8 are
	// healthy.
	p, ok := baseline.FindFixedPipeline(g, nil, 6, 5_000_000)
	if !ok {
		t.Fatal("no fixed pipeline on fault-free graph")
	}
	if len(p) != 8 { // i + 6 procs + o
		t.Fatalf("fixed pipeline length %d, want 8", len(p))
	}
	// With the two processors p leaves out as faults, p must be a pipeline
	// of what remains.
	unused := g.KindSet(graph.Processor)
	for _, v := range p {
		unused.Remove(v)
	}
	if err := verify.CheckPipeline(g, unused, p); err != nil {
		t.Fatalf("invalid path: %v", err)
	}
	if g.Kind(p[0]) != graph.InputTerminal || g.Kind(p[len(p)-1]) != graph.OutputTerminal {
		t.Fatal("bad endpoints")
	}
	// Compare utilizations: graceful uses all 8, baseline uses 6.
	full, found := embed.FindPipeline(g, nil)
	if !found {
		t.Fatal("graceful pipeline missing")
	}
	uGraceful := baseline.Utilization(8, len(full)-2)
	uSpare := baseline.Utilization(8, len(p)-2)
	if uGraceful != 1.0 {
		t.Fatalf("graceful utilization %v", uGraceful)
	}
	if math.Abs(uSpare-0.75) > 1e-9 {
		t.Fatalf("spare utilization %v, want 0.75", uSpare)
	}
}

func TestFindFixedPipelineUnderFaults(t *testing.T) {
	sol, err := construct.Design(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := sol.Graph
	faults := bitset.FromSlice(g.NumNodes(), []int{0})
	p, ok := baseline.FindFixedPipeline(g, faults, 6, 5_000_000)
	if !ok {
		t.Fatal("no fixed pipeline with one fault")
	}
	for _, v := range p {
		if faults.Contains(v) {
			t.Fatal("pipeline visits faulty node")
		}
	}
}

func TestUtilization(t *testing.T) {
	if baseline.Utilization(0, 0) != 0 {
		t.Fatal("0/0")
	}
	if baseline.Utilization(10, 5) != 0.5 {
		t.Fatal("5/10")
	}
}

func TestHayesCyclePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { baseline.HayesCycle(2, 1) },
		func() { baseline.HayesCycle(5, 0) },
		func() { baseline.NaiveTerminals(baseline.HayesCycle(3, 1), 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}
