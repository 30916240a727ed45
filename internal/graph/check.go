package graph

import (
	"errors"
	"fmt"
	"slices"

	"gdpn/internal/bitset"
)

// denseRowNodes bounds the graphs whose checker keeps one adjacency row
// bitset per node: n rows of n bits cost n²/8 bytes, 2 MiB at this bound.
// Larger graphs (the million-node asymptotic constructions) test edges by
// HasEdge's binary search instead.
const denseRowNodes = 4096

// checkRows is the read-only half of a Checker, built once per graph and
// cached on the Graph.
type checkRows struct {
	g *Graph
	n int
	// rows[0:words] is all ones, the row of "no previous node", and node
	// v's adjacency row starts at (v+1)*stride. Above denseRowNodes the
	// stride is 0: every lookup reads the all-ones row and walk tests the
	// edges by HasEdge.
	rows      []uint64
	stride    int
	procs     bitset.Set
	procCount int
}

// checkRows returns g's checker rows, building them on first use. Racing
// first calls may each build a copy; any of them is correct.
func (g *Graph) checkRows() *checkRows {
	if r := g.rows.Load(); r != nil {
		return r
	}
	n := len(g.kinds)
	r := &checkRows{g: g, n: n, procs: g.KindSet(Processor)}
	r.procCount = r.procs.Count()
	words := len(r.procs)
	if n <= denseRowNodes {
		r.stride = words
	}
	r.rows = make([]uint64, words+n*r.stride)
	for i := range words {
		r.rows[i] = ^uint64(0)
	}
	for v := 0; r.stride > 0 && v < n; v++ {
		row := bitset.Set(r.rows[(v+1)*r.stride : (v+2)*r.stride])
		for _, u := range g.adj[v] {
			row.Add(int(u))
		}
	}
	g.rows.Store(r)
	return r
}

// Checker certifies pipelines of one graph in the sense of the paper's §2.
// Checkers of a graph share its adjacency rows and processor mask, built
// on the first check. Each owns a visited set that every check reuses, so
// it is not safe for concurrent use: a loop that checks many paths keeps
// one Checker per goroutine. A Checker sees the graph as it was when
// built.
type Checker struct {
	*checkRows
	seen bitset.Set // the path's nodes, cleared again before a check returns
}

// NewChecker returns a checker of g.
func NewChecker(g *Graph) *Checker {
	c := newChecker(g, nil)
	return &c
}

// newChecker returns a checker of g whose visited set lives in buf when
// buf is large enough.
func newChecker(g *Graph, buf []uint64) Checker {
	r := g.checkRows()
	w := len(r.procs)
	if len(buf) < w {
		buf = make([]uint64, w)
	}
	return Checker{checkRows: r, seen: buf[:w:w]}
}

// CheckPipeline is Checker.Pipeline for one check. It shares g's rows and
// keeps its visited set on the stack, so on graphs of up to 512 nodes it
// allocates nothing.
func CheckPipeline(g *Graph, faults bitset.Set, path Path) error {
	var buf [8]uint64
	c := newChecker(g, buf[:])
	return c.Pipeline(faults, path)
}

// Pipeline verifies that path is a pipeline in g \ faults: a simple path
// whose endpoints are a healthy input terminal and a healthy output
// terminal, in either order, and whose interior is exactly the set of all
// healthy processors. A nil error is a complete certificate. Of several
// defects the first in this order is reported: too short, a repeated
// node, a non-edge (an id outside the graph counts as one), a faulty
// node, wrong end kinds, a non-processor inside, a healthy processor left
// out.
func (c *Checker) Pipeline(faults bitset.Set, path Path) error {
	if len(path) < 3 {
		return fmt.Errorf("pipeline too short: %d nodes", len(path))
	}
	dup, nonEdge := c.walk(path)
	defer clear(c.seen)
	switch {
	case dup:
		return errors.New("pipeline revisits a node")
	case nonEdge:
		return errors.New("pipeline uses a non-edge")
	case c.seen.Intersects(faults):
		for _, v := range path {
			if faults.Contains(v) {
				return fmt.Errorf("pipeline visits faulty node %d", v)
			}
		}
	}
	kf, kl := c.g.Kind(path[0]), c.g.Kind(path[len(path)-1])
	if (kf != InputTerminal || kl != OutputTerminal) && (kf != OutputTerminal || kl != InputTerminal) {
		return fmt.Errorf("pipeline endpoints are %v and %v; want one input and one output terminal", kf, kl)
	}
	interior := len(path) - 2
	if c.seen.IntersectionCount(c.procs) != interior {
		for _, v := range path[1 : len(path)-1] {
			if k := c.g.Kind(v); k != Processor {
				return fmt.Errorf("interior node %d is a %v, not a processor", v, k)
			}
		}
	}
	if healthy := c.procCount - c.procs.IntersectionCount(faults); interior != healthy {
		return fmt.Errorf("pipeline uses %d processors; %d are healthy (graceful degradation requires all)", interior, healthy)
	}
	return nil
}

// CheckSegment verifies that path is a tenant placement over g \ faults: a
// non-empty simple path of processors visiting exactly the healthy
// processors of placement, once each. noun names the path in error
// messages. Of several defects the first in this order is reported:
// empty, a repeated node, a non-edge, the first node on the path that is
// not a processor, is faulty or lies outside placement (tested in that
// order), a healthy granted processor left out.
func CheckSegment(g *Graph, noun string, faults bitset.Set, placement []int, path Path) error {
	if len(path) == 0 {
		return fmt.Errorf("%s is empty", noun)
	}
	var buf [8]uint64
	c := newChecker(g, buf[:])
	switch dup, nonEdge := c.walk(path); {
	case dup:
		return fmt.Errorf("%s revisits a node", noun)
	case nonEdge:
		return fmt.Errorf("%s uses a non-edge", noun)
	}
	// Taking placement out of seen leaves the path's nodes outside it.
	healthy := 0
	for _, v := range placement {
		if c.seen.Contains(v) {
			c.seen.Remove(v)
		}
		if !faults.Contains(v) {
			healthy++
		}
	}
	for _, v := range path {
		switch {
		case g.Kind(v) != Processor:
			return fmt.Errorf("%s node %d is a %v, not a processor", noun, v, g.Kind(v))
		case faults.Contains(v):
			return fmt.Errorf("%s visits faulty node %d", noun, v)
		case c.seen.Contains(v):
			return fmt.Errorf("%s visits node %d outside its placement", noun, v)
		}
	}
	if len(path) != healthy {
		return fmt.Errorf("%s uses %d processors; placement grants %d healthy (graceful degradation requires all)",
			noun, len(path), healthy)
	}
	return nil
}

// walk is the one pass every check makes over path: it adds the path's
// nodes to c.seen and reports whether a node repeats and whether a hop is
// not an edge; a missing edge shows as a bit in missed. An id outside the
// graph is adjacent to nothing. Such ids are sorted to find repeats among
// them, so a hostile path costs O(L log L), not O(L²).
func (c *Checker) walk(path Path) (dup, nonEdge bool) {
	var far []int
	var missed uint64
	at := 0 // where the previous node's row starts
	for _, v := range path {
		if uint(v) >= uint(c.n) {
			far = append(far, v)
			continue
		}
		w, bit := v>>6, uint64(1)<<(uint(v)&63)
		if c.seen[w]&bit != 0 {
			return true, true
		}
		c.seen[w] |= bit
		missed |= bit &^ c.rows[at+w]
		at = (v + 1) * c.stride
	}
	n := len(far)
	slices.Sort(far)
	nonEdge = missed != 0 || n > 0
	for i := 1; c.stride == 0 && !nonEdge && i < len(path); i++ {
		nonEdge = !c.g.HasEdge(path[i-1], path[i])
	}
	return len(slices.Compact(far)) < n, nonEdge
}
