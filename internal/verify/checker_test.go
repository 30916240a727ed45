package verify_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/verify"
)

// oracleCheckPipeline is CheckPipeline as it was before the shared
// graph.Checker: the reference every checker result is compared against.
func oracleCheckPipeline(g *graph.Graph, faults bitset.Set, path graph.Path) error {
	if len(path) < 3 {
		return fmt.Errorf("pipeline too short: %d nodes", len(path))
	}
	if !oracleDistinct(path) {
		return fmt.Errorf("pipeline revisits a node")
	}
	if !oracleIsWalk(g, path) {
		return fmt.Errorf("pipeline uses a non-edge")
	}
	for _, v := range path {
		if faults != nil && faults.Contains(v) {
			return fmt.Errorf("pipeline visits faulty node %d", v)
		}
	}
	first, last := path[0], path[len(path)-1]
	kf, kl := g.Kind(first), g.Kind(last)
	validEnds := (kf == graph.InputTerminal && kl == graph.OutputTerminal) ||
		(kf == graph.OutputTerminal && kl == graph.InputTerminal)
	if !validEnds {
		return fmt.Errorf("pipeline endpoints are %v and %v; want one input and one output terminal", kf, kl)
	}
	healthy := 0
	for v, n := 0, g.NumNodes(); v < n; v++ {
		if g.Kind(v) == graph.Processor && (faults == nil || !faults.Contains(v)) {
			healthy++
		}
	}
	interior := 0
	for _, v := range path[1 : len(path)-1] {
		if g.Kind(v) != graph.Processor {
			return fmt.Errorf("interior node %d is a %v, not a processor", v, g.Kind(v))
		}
		interior++
	}
	if interior != healthy {
		return fmt.Errorf("pipeline uses %d processors; %d are healthy (graceful degradation requires all)", interior, healthy)
	}
	return nil
}

// oracleCheckSegment is CheckSegment as it was before the shared
// graph.Checker.
func oracleCheckSegment(g *graph.Graph, faults bitset.Set, placement []int, path graph.Path) error {
	if len(path) == 0 {
		return fmt.Errorf("segment is empty")
	}
	if !oracleDistinct(path) {
		return fmt.Errorf("segment revisits a node")
	}
	if !oracleIsWalk(g, path) {
		return fmt.Errorf("segment uses a non-edge")
	}
	granted := make(map[int]bool, len(placement))
	for _, v := range placement {
		granted[v] = true
	}
	for _, v := range path {
		if g.Kind(v) != graph.Processor {
			return fmt.Errorf("segment node %d is a %v, not a processor", v, g.Kind(v))
		}
		if faults != nil && faults.Contains(v) {
			return fmt.Errorf("segment visits faulty node %d", v)
		}
		if !granted[v] {
			return fmt.Errorf("segment visits node %d outside its placement", v)
		}
	}
	healthy := 0
	for _, v := range placement {
		if faults == nil || !faults.Contains(v) {
			healthy++
		}
	}
	if len(path) != healthy {
		return fmt.Errorf("segment uses %d processors; placement grants %d healthy (graceful degradation requires all)",
			len(path), healthy)
	}
	return nil
}

// oracleDistinct and oracleIsWalk are the Path helpers the oracles used.
func oracleDistinct(p graph.Path) bool {
	seen := make(map[int]bool, len(p))
	for _, v := range p {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func oracleIsWalk(g *graph.Graph, p graph.Path) bool {
	for i := 1; i < len(p); i++ {
		if !g.HasEdge(p[i-1], p[i]) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkerRig is one designed network with a reused checker.
type checkerRig struct {
	g   *graph.Graph
	lay *construct.Layout
	k   int
	chk *graph.Checker
}

func checkerRigs(tb testing.TB) []checkerRig {
	tb.Helper()
	var rigs []checkerRig
	for _, c := range []struct{ n, k int }{{12, 3}, {22, 4}, {26, 5}} {
		sol, err := construct.Design(c.n, c.k)
		if err != nil {
			tb.Fatal(err)
		}
		rigs = append(rigs, checkerRig{g: sol.Graph, lay: sol.Layout, k: c.k, chk: graph.NewChecker(sol.Graph)})
	}
	g := endsGraph()
	return append(rigs, checkerRig{g: g, k: 1, chk: graph.NewChecker(g)})
}

// endsGraph is a three-processor chain whose two ends each reach two
// input and two output terminals, with one terminal-terminal edge: the
// designed networks have neither, so wrong end kinds and a terminal
// inside a path only get past the edge check here.
func endsGraph() *graph.Graph {
	g := graph.New("ends")
	p0 := g.AddNode(graph.Processor, 0)
	p1 := g.AddNode(graph.Processor, 1)
	p2 := g.AddNode(graph.Processor, 2)
	g.AddEdge(p0, p1)
	g.AddEdge(p1, p2)
	var ts []int
	for j, k := range []graph.Kind{graph.InputTerminal, graph.InputTerminal, graph.OutputTerminal, graph.OutputTerminal} {
		t := g.AddNode(k, j)
		g.AddEdge(t, p0)
		g.AddEdge(t, p2)
		ts = append(ts, t)
	}
	g.AddEdge(ts[2], ts[3])
	return g
}

// compare checks one (faults, path) pair against the oracle: the one-shot
// CheckPipeline and the rig's reused checker must return the oracle's
// error text.
func (r checkerRig) compare(t *testing.T, what string, faults bitset.Set, path graph.Path) error {
	t.Helper()
	want := oracleCheckPipeline(r.g, faults, path)
	if got := verify.CheckPipeline(r.g, faults, path); errText(got) != errText(want) {
		t.Fatalf("%s: %s faults %v path %v: CheckPipeline %q, oracle %q",
			what, r.g.Name(), faults.Slice(), path, errText(got), errText(want))
	}
	if got := r.chk.Pipeline(faults, path); errText(got) != errText(want) {
		t.Fatalf("%s: %s faults %v path %v: reused checker %q, oracle %q",
			what, r.g.Name(), faults.Slice(), path, errText(got), errText(want))
	}
	return want
}

// corruption turns a valid pipeline (and its fault set) into a test case.
// It works on copies and may return the inputs unchanged when the graph
// offers no instance of the defect.
type corruption func(r *rand.Rand, g *graph.Graph, faults bitset.Set, p graph.Path) (bitset.Set, graph.Path)

// outOfRange holds ids outside every test graph, including negative ids
// that a signed word index would map into a bitset (-1 to -63) or before
// it (-64 and below).
var outOfRange = []int{-1, -63, -64, -65, -1 << 40, 43, 64, 127, 1 << 40}

// pipelineCorruptions are the corrupted-path classes; want is a fragment
// of the oracle's error the class produces at least once ("" = valid).
var pipelineCorruptions = []struct {
	name string
	want string
	fn   corruption
}{
	{"valid", "", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		return f, p
	}},
	{"reversed", "", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		return f, append(graph.Path(nil), p...).Reverse()
	}},
	{"repeat", "revisits", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		i, j := r.Intn(len(p)), r.Intn(len(p)-1)
		if j >= i {
			j++
		}
		p[i] = p[j]
		return f, p
	}},
	{"non-edge", "non-edge", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		i, j := 1+r.Intn(len(p)-2), 1+r.Intn(len(p)-2)
		p[i], p[j] = p[j], p[i]
		return f, p
	}},
	{"faulty", "faulty node", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		if v := p[r.Intn(len(p))]; inGraph(g, v) {
			f.Add(v)
		}
		return f, p
	}},
	{"no input end", "endpoints", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		return f, p[1:]
	}},
	{"two outputs", "endpoints", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		return f, swapEnd(g, f, p, 0, graph.OutputTerminal)
	}},
	{"two inputs", "endpoints", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		return f, swapEnd(g, f, p, len(p)-1, graph.InputTerminal)
	}},
	{"terminal inside", "not a processor", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		// Extend past an end to a healthy terminal of the same kind, so
		// the old end becomes an interior node.
		for _, at := range []int{len(p) - 1, 0} {
			end := p[at]
			if !inGraph(g, end) {
				continue
			}
			for _, u := range g.Neighbors(end) {
				if v := int(u); !f.Contains(v) && !onPath(p, v) && g.Kind(v) == g.Kind(end) {
					if at == 0 {
						return f, append(graph.Path{v}, p...)
					}
					return f, append(p, v)
				}
			}
		}
		return f, p
	}},
	{"skipped processor", "are healthy", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		// Heal a faulty processor the path does not visit; failing that,
		// drop an interior node whose neighbors on the path are adjacent.
		for _, v := range f.Slice() {
			if g.Kind(v) == graph.Processor {
				f.Remove(v)
				return f, p
			}
		}
		for i := 2; i < len(p)-1; i++ {
			if g.HasEdge(p[i-1], p[i+1]) {
				return f, append(p[:i:i], p[i+1:]...)
			}
		}
		return f, p
	}},
	{"too short", "too short", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		return f, p[:r.Intn(3)]
	}},
	{"out of range", "non-edge", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		p[r.Intn(len(p))] = outOfRange[r.Intn(len(outOfRange))]
		return f, p
	}},
	{"out of range twice", "revisits", func(r *rand.Rand, g *graph.Graph, f bitset.Set, p graph.Path) (bitset.Set, graph.Path) {
		id := outOfRange[r.Intn(len(outOfRange))]
		p[0], p[len(p)-1] = id, id
		return f, p
	}},
}

// swapEnd replaces p[at] with a healthy terminal of kind k adjacent to
// its neighbor on the path, when one exists.
func swapEnd(g *graph.Graph, f bitset.Set, p graph.Path, at int, k graph.Kind) graph.Path {
	next := p[1]
	if at > 0 {
		next = p[at-1]
	}
	if !inGraph(g, next) {
		return p
	}
	for _, u := range g.Neighbors(next) {
		if v := int(u); g.Kind(v) == k && !f.Contains(v) && !onPath(p, v) {
			p[at] = v
			return p
		}
	}
	return p
}

func inGraph(g *graph.Graph, v int) bool { return v >= 0 && v < g.NumNodes() }

func onPath(p graph.Path, v int) bool {
	for _, u := range p {
		if u == v {
			return true
		}
	}
	return false
}

// validCases yields, per rig, pipelines the solver found for random fault
// sets of size ≤ k, each with a copy of its fault set.
func validCases(t *testing.T, rigs []checkerRig, sets int, fn func(r checkerRig, faults bitset.Set, p graph.Path)) {
	t.Helper()
	rng := rand.New(rand.NewSource(18))
	for _, r := range rigs {
		s := embed.NewSolver(r.g, embed.Options{Layout: r.lay})
		n := r.g.NumNodes()
		for done := 0; done < sets; {
			faults := bitset.New(n)
			for size := rng.Intn(r.k + 1); faults.Count() < size; {
				faults.Add(rng.Intn(n))
			}
			res := s.Find(faults)
			if !res.Found {
				continue
			}
			fn(r, faults, res.Pipeline)
			done++
		}
	}
}

// TestCheckerMatchesOracle feeds every corrupted-path class, alone and
// several at once, to the oracle, to CheckPipeline and to one reused
// checker per graph on G(12,3), G(22,4), G(26,5) and endsGraph. All must return the
// same error text, and each class must produce its defect at least once.
func TestCheckerMatchesOracle(t *testing.T) {
	rigs := checkerRigs(t)
	rng := rand.New(rand.NewSource(7))
	hits := map[string]int{}
	validCases(t, rigs, 40, func(r checkerRig, faults bitset.Set, p graph.Path) {
		for _, c := range pipelineCorruptions {
			for draw := 0; draw < 4; draw++ {
				f, q := c.fn(rng, r.g, faults.Clone(), append(graph.Path(nil), p...))
				err := r.compare(t, c.name, f, q)
				if (err == nil) == (c.want == "") && (err == nil || strings.Contains(err.Error(), c.want)) {
					hits[c.name]++
				}
			}
		}
		for draw := 0; draw < 8; draw++ {
			f, q := faults.Clone(), append(graph.Path(nil), p...)
			names := ""
			for i := 2 + rng.Intn(2); i > 0; i-- {
				c := pipelineCorruptions[2+rng.Intn(len(pipelineCorruptions)-2)]
				if len(q) < 3 {
					break
				}
				f, q = c.fn(rng, r.g, f, q)
				names += c.name + "+"
			}
			r.compare(t, "several: "+names, f, q)
		}
	})
	for _, c := range pipelineCorruptions {
		if hits[c.name] == 0 {
			t.Errorf("class %q never produced %q", c.name, c.want)
		}
	}
}

// TestCheckSegmentMatchesOracle does the same for tenant segments: the
// interior of a pipeline, granted with a faulty processor or two.
func TestCheckSegmentMatchesOracle(t *testing.T) {
	rigs := checkerRigs(t)
	rng := rand.New(rand.NewSource(9))
	classes := []struct {
		name, want string
		fn         func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path)
	}{
		{"valid", "", func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path) {
			return f, place, seg
		}},
		{"reversed", "", func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path) {
			return f, place, seg.Reverse()
		}},
		{"empty", "empty", func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path) {
			return f, place, seg[:0]
		}},
		{"repeat", "revisits", func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path) {
			seg[rng.Intn(len(seg))] = seg[rng.Intn(len(seg))]
			return f, place, seg
		}},
		{"non-edge", "non-edge", func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path) {
			i, j := rng.Intn(len(seg)), rng.Intn(len(seg))
			seg[i], seg[j] = seg[j], seg[i]
			return f, place, seg
		}},
		{"faulty", "faulty node", func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path) {
			f.Add(seg[rng.Intn(len(seg))])
			return f, place, seg
		}},
		{"outside placement", "outside its placement", func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path) {
			i := rng.Intn(len(place))
			return f, append(place[:i:i], place[i+1:]...), seg
		}},
		{"terminal", "not a processor", func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path) {
			for _, u := range g.Neighbors(seg[0]) {
				if v := int(u); g.Kind(v) != graph.Processor {
					return f, append(place, v), append(graph.Path{v}, seg...)
				}
			}
			return f, place, seg
		}},
		{"skipped processor", "grants", func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path) {
			for v := 0; v < g.NumNodes(); v++ {
				if g.Kind(v) == graph.Processor && !onPath(seg, v) && !f.Contains(v) {
					return f, append(place, v), seg
				}
			}
			return f, append(place, seg[0]), seg
		}},
		{"out of range", "non-edge", func(g *graph.Graph, f bitset.Set, place []int, seg graph.Path) (bitset.Set, []int, graph.Path) {
			id := outOfRange[rng.Intn(len(outOfRange))]
			seg[rng.Intn(len(seg))] = id
			return f, append(place, id), seg
		}},
	}
	hits := map[string]int{}
	validCases(t, rigs, 40, func(r checkerRig, faults bitset.Set, p graph.Path) {
		seg := p[1 : len(p)-1]
		place := append([]int(nil), seg...)
		for _, v := range faults.Slice() {
			if r.g.Kind(v) == graph.Processor {
				place = append(place, v)
			}
		}
		for _, c := range classes {
			for draw := 0; draw < 4; draw++ {
				f, pl, q := c.fn(r.g, faults.Clone(), append([]int(nil), place...), append(graph.Path(nil), seg...))
				want := oracleCheckSegment(r.g, f, pl, q)
				if got := verify.CheckSegment(r.g, f, pl, q); errText(got) != errText(want) {
					t.Fatalf("%s: %s faults %v placement %v segment %v: CheckSegment %q, oracle %q",
						c.name, r.g.Name(), f.Slice(), pl, q, errText(got), errText(want))
				}
				if (want == nil) == (c.want == "") && (want == nil || strings.Contains(want.Error(), c.want)) {
					hits[c.name]++
				}
			}
		}
	})
	for _, c := range classes {
		if hits[c.name] == 0 {
			t.Errorf("class %q never produced %q", c.name, c.want)
		}
	}
}

// FuzzCheckPipeline decodes bytes into a graph choice, a fault set and an
// arbitrary path, and requires the checker never to panic and to agree
// with the oracle. Byte 0 picks G(12,3), G(22,4), G(26,5) or endsGraph;
// byte 1 mod 8 counts the fault bytes that follow (each mod the node
// count); every remaining byte is one path node as a signed int8, so
// paths reach negative and out-of-range ids. The seed corpus in
// testdata/fuzz/FuzzCheckPipeline holds one seed per corrupted-path class
// of TestCheckerMatchesOracle, plus several defects at once.
func FuzzCheckPipeline(f *testing.F) {
	rigs := checkerRigs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		r := rigs[int(data[0])%len(rigs)]
		n := r.g.NumNodes()
		faults := bitset.New(n)
		nf := int(data[1]) % 8
		data = data[2:]
		for ; nf > 0 && len(data) > 0; nf-- {
			faults.Add(int(data[0]) % n)
			data = data[1:]
		}
		path := make(graph.Path, len(data))
		for i, b := range data {
			path[i] = int(int8(b))
		}
		r.compare(t, "fuzz", faults, path)
	})
}

// TestCheckersShareGraph runs two ShardRunners and a warm store replay at
// once on one *graph.Graph that has not been checked before. Each owns
// its checkers while the graph's checker rows are built on first use and
// then shared; under -race this shows the sharing is safe, and every run
// must still reach the single-process verdict.
func TestCheckersShareGraph(t *testing.T) {
	const k = 3
	opts := func(sol *construct.Solution) verify.Options {
		return verify.Options{ExploitSymmetry: true, Solver: embed.Options{Layout: sol.Layout}}
	}
	// Populate the store from a twin of the graph, so the graph under test
	// is first checked by the concurrent runs below.
	twin, err := construct.Design(12, k)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	coldOpts := opts(twin)
	coldOpts.Store = s
	want := verify.Exhaustive(twin.Graph, k, coldOpts).VerdictSummary()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, path)
	defer s2.Close()

	sol, err := construct.Design(12, k)
	if err != nil {
		t.Fatal(err)
	}
	g := sol.Graph
	shards := verify.Shards(g, k, verify.AllNodes, 64)
	parts := make([]*verify.Report, 2)
	var warm *verify.Report
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := verify.NewShardRunner(g, k, opts(sol))
			defer r.Close()
			rep := &verify.Report{GraphName: g.Name(), K: k}
			for j := i; j < len(shards); j += len(parts) {
				verify.MergeReports(rep, r.Run(shards[j]), 0)
			}
			parts[i] = rep
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		warmOpts := opts(sol)
		warmOpts.Store, warmOpts.Workers = s2, 2
		warm = verify.Exhaustive(g, k, warmOpts)
	}()
	wg.Wait()

	sharded := &verify.Report{GraphName: g.Name(), K: k}
	for _, p := range parts {
		verify.MergeReports(sharded, p, 0)
	}
	if got := sharded.VerdictSummary(); got != want {
		t.Errorf("concurrent ShardRunners:\n got %q\nwant %q", got, want)
	}
	if got := warm.VerdictSummary(); got != want {
		t.Errorf("concurrent store replay:\n got %q\nwant %q", got, want)
	}
	if warm.Tiers.Total() != 0 {
		t.Errorf("store replay made %d solver calls, want 0 (every size replayed)", warm.Tiers.Total())
	}
}
