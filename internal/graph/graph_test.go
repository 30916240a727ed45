package graph

import (
	"math/rand"
	"testing"

	"gdpn/internal/bitset"
)

// buildTriangle returns i0 — p0 — p1 — p2 — o0 with p-clique.
func buildTriangle(t testing.TB) *Graph {
	g := New("triangle")
	p0 := g.AddNode(Processor, 0)
	p1 := g.AddNode(Processor, 1)
	p2 := g.AddNode(Processor, 2)
	i0 := g.AddNode(InputTerminal, 0)
	o0 := g.AddNode(OutputTerminal, 0)
	g.AddEdge(p0, p1)
	g.AddEdge(p1, p2)
	g.AddEdge(p0, p2)
	g.AddEdge(i0, p0)
	g.AddEdge(o0, p2)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestAddNodeAndKinds(t *testing.T) {
	g := buildTriangle(t)
	if g.NumNodes() != 5 || g.NumEdges() != 5 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.CountKind(Processor) != 3 || g.CountKind(InputTerminal) != 1 || g.CountKind(OutputTerminal) != 1 {
		t.Fatal("kind counts wrong")
	}
	if got := g.Processors(); len(got) != 3 || got[0] != 0 {
		t.Fatalf("Processors = %v", got)
	}
	if got := len(g.InputTerminals()); got != 1 {
		t.Fatalf("inputs = %d", got)
	}
	if got := len(g.OutputTerminals()); got != 1 {
		t.Fatalf("outputs = %d", got)
	}
}

func TestKindString(t *testing.T) {
	if Processor.String() != "processor" || InputTerminal.String() != "input" || OutputTerminal.String() != "output" {
		t.Fatal("kind strings")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatalf("unknown kind string = %q", Kind(9).String())
	}
}

func TestEdgePanics(t *testing.T) {
	g := buildTriangle(t)
	for name, fn := range map[string]func(){
		"self-loop":    func() { g.AddEdge(0, 0) },
		"duplicate":    func() { g.AddEdge(0, 1) },
		"out-of-range": func() { g.AddEdge(0, 99) },
		"negative":     func() { g.AddEdge(-1, 0) },
		"remove-miss":  func() { g.RemoveEdge(3, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRemoveEdge(t *testing.T) {
	g := buildTriangle(t)
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge still present")
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after remove: %v", err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New("star")
	c := g.AddNode(Processor, NoLabel)
	var leaves []int
	for i := 0; i < 5; i++ {
		leaves = append(leaves, g.AddNode(Processor, NoLabel))
	}
	// Add in reverse to exercise sorting.
	for i := len(leaves) - 1; i >= 0; i-- {
		g.AddEdge(c, leaves[i])
	}
	ns := g.Neighbors(c)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("Neighbors not sorted: %v", ns)
		}
	}
	if g.Degree(c) != 5 {
		t.Fatalf("Degree = %d", g.Degree(c))
	}
}

func TestDegreeStats(t *testing.T) {
	g := buildTriangle(t)
	if got := g.MaxProcessorDegree(); got != 3 {
		t.Fatalf("MaxProcessorDegree = %d, want 3", got)
	}
	if got := g.MinProcessorDegree(); got != 2 {
		t.Fatalf("MinProcessorDegree = %d, want 2 (p1 has no terminal)", got)
	}
	if got := g.MaxDegree(); got != 3 {
		t.Fatalf("MaxDegree = %d", got)
	}
	if got := g.ProcessorNeighborCount(0); got != 2 {
		t.Fatalf("ProcessorNeighborCount(p0) = %d, want 2", got)
	}
	empty := New("empty")
	if empty.MaxDegree() != 0 || empty.MinProcessorDegree() != 0 {
		t.Fatal("empty graph degrees")
	}
}

func TestNodeByKindLabel(t *testing.T) {
	g := buildTriangle(t)
	if v := g.NodeByKindLabel(Processor, 1); v != 1 {
		t.Fatalf("NodeByKindLabel(p1) = %d", v)
	}
	if v := g.NodeByKindLabel(InputTerminal, 7); v != -1 {
		t.Fatalf("missing label should give -1, got %d", v)
	}
}

func TestSetKindSetLabel(t *testing.T) {
	g := buildTriangle(t)
	g.SetKind(3, Processor)
	g.SetLabel(3, 42)
	if g.Kind(3) != Processor || g.Label(3) != 42 {
		t.Fatal("SetKind/SetLabel")
	}
}

func TestCloneDeep(t *testing.T) {
	g := buildTriangle(t)
	c := g.Clone()
	c.AddEdge(3, 1) // i0 - p1 in the clone only
	if g.HasEdge(3, 1) {
		t.Fatal("clone shares storage")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
	if c.Name() != g.Name() {
		t.Fatal("clone name")
	}
}

func TestKindSet(t *testing.T) {
	g := buildTriangle(t)
	ps := g.KindSet(Processor)
	if ps.Count() != 3 || !ps.Contains(0) || !ps.Contains(2) || ps.Contains(3) {
		t.Fatalf("KindSet = %v", ps)
	}
}

func TestConnectedIgnoring(t *testing.T) {
	g := buildTriangle(t)
	if !g.ConnectedIgnoring(nil) {
		t.Fatal("triangle+terminals should be connected")
	}
	// Removing p0 and p2 disconnects i0 and o0 from the rest.
	excl := bitset.FromSlice(g.NumNodes(), []int{0, 2})
	if g.ConnectedIgnoring(excl) {
		t.Fatal("should be disconnected after removing p0, p2")
	}
	// Excluding everything is vacuously connected.
	all := bitset.New(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		all.Add(v)
	}
	if !g.ConnectedIgnoring(all) {
		t.Fatal("empty graph should count as connected")
	}
}

func TestAddCirculantEdges(t *testing.T) {
	g := New("c8")
	ring := make([]int, 8)
	for i := range ring {
		ring[i] = g.AddNode(Processor, i)
	}
	AddCirculantEdges(g, ring, []int{1, 2, 4}) // 4 = m/2 bisector
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Degrees: offsets 1 and 2 contribute 2 each, bisector contributes 1.
	for _, v := range ring {
		if g.Degree(v) != 5 {
			t.Fatalf("degree(%d) = %d, want 5", v, g.Degree(v))
		}
	}
	if g.NumEdges() != 8+8+4 {
		t.Fatalf("edges = %d, want 20", g.NumEdges())
	}
	if !g.HasEdge(ring[0], ring[4]) || !g.HasEdge(ring[3], ring[7]) {
		t.Fatal("bisector edges missing")
	}
}

func TestAddCirculantEdgesBadOffset(t *testing.T) {
	g := New("bad")
	ring := []int{g.AddNode(Processor, 0), g.AddNode(Processor, 1)}
	for _, s := range []int{0, 2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("offset %d did not panic", s)
				}
			}()
			AddCirculantEdges(g, ring, []int{s})
		}()
	}
}

func TestPathHelpers(t *testing.T) {
	g := buildTriangle(t)
	p := Path{3, 0, 1, 2, 4} // i0, p0, p1, p2, o0
	rev := Path{1, 2, 3}.Reverse()
	if rev[0] != 3 || rev[2] != 1 {
		t.Fatalf("Reverse = %v", rev)
	}
	if got := p.String(g); got != "i0 — p0 — p1 — p2 — o0" {
		t.Fatalf("String = %q", got)
	}
}

func TestNodeNameUnlabeled(t *testing.T) {
	g := New("u")
	v := g.AddNode(Processor, NoLabel)
	if got := NodeName(g, v); got != "p#0" {
		t.Fatalf("NodeName = %q", got)
	}
}

func TestSummary(t *testing.T) {
	g := buildTriangle(t)
	s := g.Summary()
	if s == "" || len(s) < 10 {
		t.Fatalf("Summary = %q", s)
	}
}

func TestRowConsistency(t *testing.T) {
	// Row must stay correct when later nodes are added after edges.
	g := New("grow")
	a := g.AddNode(Processor, 0)
	b := g.AddNode(Processor, 1)
	g.AddEdge(a, b)
	for i := 0; i < 100; i++ {
		g.AddNode(Processor, NoLabel)
	}
	c := g.AddNode(Processor, 2)
	g.AddEdge(a, c)
	if !g.HasEdge(a, c) || !g.HasEdge(a, b) {
		t.Fatal("adjacency lost edges after growth")
	}
	if g.HasEdge(b, c) {
		t.Fatal("phantom edge")
	}
}

func TestRandomGraphValidateAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := New("rand")
		n := 5 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.AddNode(Kind(rng.Intn(3)), rng.Intn(10))
		}
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("random graph Validate: %v", err)
		}
		if err := g.Clone().Validate(); err != nil {
			t.Fatalf("clone Validate: %v", err)
		}
	}
}
