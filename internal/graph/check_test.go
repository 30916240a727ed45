package graph

import (
	"strings"
	"testing"
	"time"

	"gdpn/internal/bitset"
)

// TestCheckerFollowsMutation checks that a mutation drops the graph's
// cached checker rows, so a later CheckPipeline sees the new graph.
func TestCheckerFollowsMutation(t *testing.T) {
	g := buildTriangle(t)
	p := Path{3, 0, 1, 2, 4} // i0, p0, p1, p2, o0
	if err := CheckPipeline(g, nil, p); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		mutate func()
		want   string // "" = valid
	}{
		{func() { g.RemoveEdge(0, 1) }, "non-edge"},
		{func() { g.AddEdge(0, 1) }, ""},
		{func() { g.SetKind(1, InputTerminal) }, "interior node 1 is a input"},
		{func() { g.SetKind(1, Processor); g.AddNode(Processor, 3) }, "4 are healthy"},
	}
	for i, s := range steps {
		s.mutate()
		err := CheckPipeline(g, nil, p)
		if s.want == "" && err != nil || s.want != "" && (err == nil || !strings.Contains(err.Error(), s.want)) {
			t.Fatalf("step %d: got %v, want %q", i, err, s.want)
		}
	}
}

// TestCheckerWithoutDenseRows checks a graph above denseRowNodes, whose
// checker tests edges by HasEdge: a chain of processors between two
// terminals.
func TestCheckerWithoutDenseRows(t *testing.T) {
	g := New("chain")
	in := g.AddNode(InputTerminal, 0)
	path := Path{in}
	for i := 0; i <= denseRowNodes; i++ {
		v := g.AddNode(Processor, i)
		g.AddEdge(path[len(path)-1], v)
		path = append(path, v)
	}
	out := g.AddNode(OutputTerminal, 0)
	g.AddEdge(path[len(path)-1], out)
	path = append(path, out)

	c := NewChecker(g)
	if c.stride != 0 {
		t.Fatalf("%d nodes got dense rows", g.NumNodes())
	}
	if err := c.Pipeline(nil, path); err != nil {
		t.Fatal(err)
	}
	swapped := append(Path(nil), path...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if err := c.Pipeline(nil, swapped); err == nil || !strings.Contains(err.Error(), "non-edge") {
		t.Fatalf("swapped hop: %v", err)
	}
	faults := bitset.FromSlice(g.NumNodes(), []int{path[len(path)-2]})
	if err := c.Pipeline(faults, path); err == nil || !strings.Contains(err.Error(), "faulty") {
		t.Fatalf("faulty node: %v", err)
	}
	if err := c.Pipeline(nil, path); err != nil {
		t.Fatalf("checker kept state between calls: %v", err)
	}
}

// TestCheckerPathDefects checks the walk's two structural defects on
// pipelines and segments, and that a reused checker keeps no state from a
// failed check.
func TestCheckerPathDefects(t *testing.T) {
	g := buildTriangle(t)
	c := NewChecker(g)
	cases := []struct {
		path Path
		want string // "" = valid
	}{
		{Path{3, 0, 1, 2, 4}, ""},
		{Path{3, 2, 1, 0, 4}, "pipeline uses a non-edge"},
		{Path{3, 0, 1, 0, 4}, "pipeline revisits a node"},
		{Path{3, 0, 7, 2, 4}, "pipeline uses a non-edge"},
		{Path{3, 0, 1, 2, 4}, ""},
	}
	for _, tc := range cases {
		if err := c.Pipeline(nil, tc.path); errText(err) != tc.want {
			t.Errorf("Pipeline(%v) = %q, want %q", tc.path, errText(err), tc.want)
		}
	}
	segments := []struct {
		path Path
		want string
	}{
		{Path{0, 2, 1}, ""},
		{Path{0, 1, 0}, "segment revisits a node"},
		{Path{3, 2}, "segment uses a non-edge"},
		{Path{-1}, "segment uses a non-edge"},
		{Path{1, 0, 3}, "segment node 3 is a input, not a processor"},
		{Path{0, 1}, "segment uses 2 processors; placement grants 3 healthy (graceful degradation requires all)"},
	}
	for _, tc := range segments {
		if err := CheckSegment(g, "segment", nil, []int{0, 1, 2}, tc.path); errText(err) != tc.want {
			t.Errorf("CheckSegment(%v) = %q, want %q", tc.path, errText(err), tc.want)
		}
	}
}

// TestCheckerLongHostilePath feeds the checker a path of a million
// distinct ids outside the graph, as a certificate file may hold. Such ids
// are sorted to find repeats; comparing them pairwise would take ~5·10¹¹
// steps.
func TestCheckerLongHostilePath(t *testing.T) {
	g := buildTriangle(t)
	c := NewChecker(g)
	path := Path{3}
	for i := range 1 << 20 {
		path = append(path, 5+(i*7919)&(1<<20-1)) // distinct, in scrambled order
	}
	path = append(path, 4)
	start := time.Now()
	if err := c.Pipeline(nil, path); errText(err) != "pipeline uses a non-edge" {
		t.Fatalf("distinct ids: %q", errText(err))
	}
	path[len(path)/2] = path[1]
	if err := c.Pipeline(nil, path); errText(err) != "pipeline revisits a node" {
		t.Fatalf("one repeat: %q", errText(err))
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("two checks of %d nodes took %v", len(path), d)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestCheckPipelineAllocs pins the one-shot checks on a small graph to
// zero allocations: they share the cached rows and keep their visited set
// on the stack.
func TestCheckPipelineAllocs(t *testing.T) {
	g := buildTriangle(t)
	p := Path{3, 0, 1, 2, 4}
	if allocs := testing.AllocsPerRun(100, func() {
		if CheckPipeline(g, nil, p) != nil {
			t.Fatal("valid pipeline rejected")
		}
	}); allocs != 0 {
		t.Fatalf("CheckPipeline allocates %.1f times per call", allocs)
	}
	seg := p[1:4]
	if allocs := testing.AllocsPerRun(100, func() {
		if CheckSegment(g, "segment", nil, seg, seg) != nil {
			t.Fatal("valid segment rejected")
		}
	}); allocs != 0 {
		t.Fatalf("CheckSegment allocates %.1f times per call", allocs)
	}
}
