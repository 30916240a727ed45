package embed_test

import (
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/verify"
)

// buildLine returns i0 — p0 — p1 — … — p_{n-1} — o0.
func buildLine(n int) *graph.Graph {
	g := graph.New("line")
	prev := -1
	for j := 0; j < n; j++ {
		p := g.AddNode(graph.Processor, j)
		if prev >= 0 {
			g.AddEdge(prev, p)
		}
		prev = p
	}
	in := g.AddNode(graph.InputTerminal, 0)
	out := g.AddNode(graph.OutputTerminal, 0)
	g.AddEdge(in, 0)
	g.AddEdge(out, prev)
	return g
}

func TestFindPipelineOnLine(t *testing.T) {
	g := buildLine(7)
	path, ok := embed.FindPipeline(g, nil)
	if !ok {
		t.Fatal("no pipeline on a fault-free line")
	}
	if err := verify.CheckPipeline(g, nil, path); err != nil {
		t.Fatal(err)
	}
	if len(path) != 9 {
		t.Fatalf("pipeline length %d, want 9", len(path))
	}
}

func TestLineBreaksWithMiddleFault(t *testing.T) {
	g := buildLine(5)
	faults := bitset.FromSlice(g.NumNodes(), []int{2})
	if _, ok := embed.FindPipeline(g, faults); ok {
		t.Fatal("line with a middle fault cannot host a full pipeline")
	}
}

func TestSingleProcessorPipeline(t *testing.T) {
	g := buildLine(1)
	path, ok := embed.FindPipeline(g, nil)
	if !ok || len(path) != 3 {
		t.Fatalf("single-processor pipeline: ok=%v path=%v", ok, path)
	}
	if err := verify.CheckPipeline(g, nil, path); err != nil {
		t.Fatal(err)
	}
}

func TestSingleProcessorMissingTerminal(t *testing.T) {
	g := graph.New("half")
	p := g.AddNode(graph.Processor, 0)
	in := g.AddNode(graph.InputTerminal, 0)
	g.AddEdge(in, p)
	if _, ok := embed.FindPipeline(g, nil); ok {
		t.Fatal("pipeline without an output terminal")
	}
}

func TestNoHealthyTerminal(t *testing.T) {
	g := buildLine(3)
	in := g.InputTerminals()[0]
	faults := bitset.FromSlice(g.NumNodes(), []int{in})
	if _, ok := embed.FindPipeline(g, faults); ok {
		t.Fatal("pipeline without a healthy input terminal")
	}
}

func TestAllProcessorsFaulty(t *testing.T) {
	g := buildLine(2)
	faults := bitset.FromSlice(g.NumNodes(), []int{0, 1})
	if _, ok := embed.FindPipeline(g, faults); ok {
		t.Fatal("pipeline with zero healthy processors")
	}
}

// agreeOnAll checks that two engines agree on existence for every fault set
// of size ≤ k, and that every returned pipeline validates.
func agreeOnAll(t *testing.T, g *graph.Graph, k int, a, b embed.Options) {
	t.Helper()
	sa := embed.NewSolver(g, a)
	sb := embed.NewSolver(g, b)
	n := g.NumNodes()
	faults := bitset.New(n)
	var rec func(next, left int)
	var check func()
	check = func() {
		ra := sa.Find(faults)
		rb := sb.Find(faults)
		if ra.Unknown || rb.Unknown {
			t.Fatalf("unknown result on faults %v", faults.Slice())
		}
		if ra.Found != rb.Found {
			t.Fatalf("engines disagree on faults %v: %v vs %v (methods %v/%v)",
				faults.Slice(), ra.Found, rb.Found, a.Method, b.Method)
		}
		if ra.Found {
			if err := verify.CheckPipeline(g, faults, ra.Pipeline); err != nil {
				t.Fatalf("engine %v invalid pipeline on %v: %v", a.Method, faults.Slice(), err)
			}
			if err := verify.CheckPipeline(g, faults, rb.Pipeline); err != nil {
				t.Fatalf("engine %v invalid pipeline on %v: %v", b.Method, faults.Slice(), err)
			}
		}
	}
	rec = func(next, left int) {
		check()
		if left == 0 {
			return
		}
		for v := next; v < n; v++ {
			faults.Add(v)
			rec(v+1, left-1)
			faults.Remove(v)
		}
	}
	rec(0, k)
}

func TestDPAndBacktrackingAgreeG2(t *testing.T) {
	agreeOnAll(t, construct.G2(2), 2,
		embed.Options{Method: embed.DP},
		embed.Options{Method: embed.Backtracking})
}

func TestDPAndBacktrackingAgreeG3(t *testing.T) {
	agreeOnAll(t, construct.G3(2), 2,
		embed.Options{Method: embed.DP},
		embed.Options{Method: embed.Backtracking})
}

func TestDPAndBacktrackingAgreeOnSparseGraph(t *testing.T) {
	// A graph where many fault sets are infeasible: both engines must agree
	// on the negatives too.
	agreeOnAll(t, buildLine(6), 2,
		embed.Options{Method: embed.DP},
		embed.Options{Method: embed.Backtracking})
}

func TestStructuredAgreesWithAutoExhaustive1Fault(t *testing.T) {
	g, lay, err := construct.Asymptotic(22, 4)
	if err != nil {
		t.Fatal(err)
	}
	agreeOnAll(t, g, 1,
		embed.Options{Layout: lay},
		embed.Options{Method: embed.Backtracking})
}

func TestBudgetExhaustionReportsUnknown(t *testing.T) {
	g, _, err := construct.Asymptotic(40, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := embed.NewSolver(g, embed.Options{Method: embed.Backtracking, Budget: 1})
	r := s.Find(nil)
	if r.Found || !r.Unknown {
		t.Fatalf("budget=1 should be Unknown, got found=%v unknown=%v", r.Found, r.Unknown)
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[embed.Method]string{
		embed.Auto: "auto", embed.DP: "dp",
		embed.Backtracking: "backtracking", embed.Method(42): "method(42)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Method(%d).String() = %q, want %q", m, got, want)
		}
	}
}

func TestSolverReuseAcrossFaultSets(t *testing.T) {
	// The solver reuses scratch buffers; interleaved fault sets must not
	// contaminate each other.
	g := construct.G3(3)
	s := embed.NewSolver(g, embed.Options{})
	for trial := 0; trial < 50; trial++ {
		faults := bitset.New(g.NumNodes())
		faults.Add(trial % g.NumNodes())
		r := s.Find(faults)
		if r.Found {
			if err := verify.CheckPipeline(g, faults, r.Pipeline); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		r2 := s.Find(nil)
		if !r2.Found {
			t.Fatalf("trial %d: fault-free search regressed", trial)
		}
	}
}

func TestStructuredLargeNetworkFast(t *testing.T) {
	// n = 2000: the planner must find a pipeline without the
	// full-graph engines (which would be visible as a timeout here).
	g, lay, err := construct.Asymptotic(2000, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := embed.NewSolver(g, embed.Options{Layout: lay})
	faults := bitset.FromSlice(g.NumNodes(), []int{100, 500, 900, 1300, 1700, 1999})
	r := s.Find(faults)
	if !r.Found {
		t.Fatal("no pipeline on large network")
	}
	if err := verify.CheckPipeline(g, faults, r.Pipeline); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineEndpointsAreTerminals(t *testing.T) {
	g := construct.G1(3)
	path, ok := embed.FindPipeline(g, nil)
	if !ok {
		t.Fatal("no pipeline")
	}
	kf, kl := g.Kind(path[0]), g.Kind(path[len(path)-1])
	if kf == graph.Processor || kl == graph.Processor {
		t.Fatalf("endpoints %v, %v; want terminals", kf, kl)
	}
}
