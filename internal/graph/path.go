package graph

import "fmt"

// Path is a sequence of distinct node ids in which consecutive nodes are
// intended to be adjacent. A pipeline (paper §2) is a Path whose first and
// last nodes are terminals of opposite kinds and whose interior visits
// every healthy processor; a Checker certifies one.
type Path []int

// Reverse reverses p in place and returns it.
func (p Path) Reverse() Path {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// String renders the path with the paper's node notation: i/o for
// terminals, p for processors, subscripted by the paper label (or node id
// when unlabeled), e.g. "i1 — p3 — p4 — o2".
func (p Path) String(g *Graph) string {
	s := ""
	for idx, v := range p {
		if idx > 0 {
			s += " — "
		}
		s += NodeName(g, v)
	}
	return s
}

// NodeName returns the paper-style name of node v: p<label>, i<label>, or
// o<label>, falling back to the node id when the node is unlabeled.
func NodeName(g *Graph, v int) string {
	tag := g.Label(v)
	id := fmt.Sprint(tag)
	if tag == NoLabel {
		id = fmt.Sprintf("#%d", v)
	}
	switch g.Kind(v) {
	case InputTerminal:
		return "i" + id
	case OutputTerminal:
		return "o" + id
	default:
		return "p" + id
	}
}
