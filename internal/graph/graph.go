// Package graph implements the node-labeled graph model of Cypher & Laing
// (IPPS 1997): simple undirected graphs whose nodes are processors, input
// terminals, or output terminals, each optionally carrying the paper's
// integer label. It provides the adjacency structure shared by the
// construction, embedding, verification, and search packages: sorted
// adjacency lists, giving O(deg) iteration and O(log deg) edge tests with
// O(V+E) memory, so million-node asymptotic constructions stay cheap.
// Beside them each graph caches the rows of its one path Checker (dense
// adjacency bitsets and a processor mask), which the planner, the
// verifier and the pipeline engine all certify paths with.
package graph

import (
	"fmt"
	"sync/atomic"

	"gdpn/internal/bitset"
)

// Kind classifies a node per the paper's labeled-graph model (§2): parallel
// machines with I/O devices cannot be modeled as unlabeled graphs because
// only certain nodes connect to the outside world and I/O devices are not
// processors.
type Kind uint8

const (
	// Processor is a compute node; a pipeline must visit every healthy one.
	Processor Kind = iota
	// InputTerminal is an input device; a pipeline starts at a healthy one.
	InputTerminal
	// OutputTerminal is an output device; a pipeline ends at a healthy one.
	OutputTerminal
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case Processor:
		return "processor"
	case InputTerminal:
		return "input"
	case OutputTerminal:
		return "output"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NoLabel marks nodes without a paper integer label.
const NoLabel = -1

// Graph is a simple undirected node-labeled graph. Nodes are dense integers
// 0..NumNodes()-1. The zero value is an empty graph; use New for a named one.
//
// Graphs are built once (AddNode/AddEdge) and then queried from many
// goroutines; mutation is not synchronized.
type Graph struct {
	name   string
	kinds  []Kind
	labels []int
	adj    [][]int32 // kept sorted ascending at all times
	edges  int
	rows   atomic.Pointer[checkRows] // built on first check, dropped on mutation
}

// New returns an empty graph with the given display name.
func New(name string) *Graph {
	return &Graph{name: name}
}

// Name returns the graph's display name.
func (g *Graph) Name() string { return g.name }

// SetName updates the graph's display name.
func (g *Graph) SetName(name string) { g.name = name }

// AddNode appends a node of the given kind and paper label (or NoLabel)
// and returns its id.
func (g *Graph) AddNode(kind Kind, label int) int {
	id := len(g.kinds)
	g.rows.Store(nil)
	g.kinds = append(g.kinds, kind)
	g.labels = append(g.labels, label)
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge inserts the undirected edge (u, v). It panics on self-loops,
// duplicate edges, or out-of-range ids: the paper's model requires simple
// graphs (Lemma 3.14's case analysis explicitly rejects loops and duplicate
// edges), so a construction that produces one is a programming error.
func (g *Graph) AddEdge(u, v int) {
	n := len(g.kinds)
	if u < 0 || v < 0 || u >= n || v >= n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: duplicate edge (%d,%d)", u, v))
	}
	g.rows.Store(nil)
	g.adj[u] = insertSorted(g.adj[u], int32(v))
	g.adj[v] = insertSorted(g.adj[v], int32(u))
	g.edges++
}

// insertSorted inserts v into the ascending slice a. Keeping adjacency
// sorted at construction time makes every read path pure, so a built Graph
// is safe for concurrent readers (the verification workers rely on this).
func insertSorted(a []int32, v int32) []int32 {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a = append(a, 0)
	copy(a[lo+1:], a[lo:])
	a[lo] = v
	return a
}

// RemoveEdge deletes the undirected edge (u, v). It panics if the edge does
// not exist. Used by ablation experiments (e.g. dropping bisector edges).
func (g *Graph) RemoveEdge(u, v int) {
	if !g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: RemoveEdge(%d,%d): no such edge", u, v))
	}
	g.rows.Store(nil)
	g.adj[u] = removeVal(g.adj[u], int32(v))
	g.adj[v] = removeVal(g.adj[v], int32(u))
	g.edges--
}

func removeVal(a []int32, v int32) []int32 {
	for i, x := range a {
		if x == v {
			copy(a[i:], a[i+1:])
			return a[:len(a)-1]
		}
	}
	return a
}

// HasEdge reports whether (u, v) is an edge, by binary search over u's
// sorted adjacency. Pure read: safe for concurrent readers.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	a := g.adj[u]
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(a[mid]) < v:
			lo = mid + 1
		case int(a[mid]) > v:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.kinds) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Kind returns the kind of node v.
func (g *Graph) Kind(v int) Kind { return g.kinds[v] }

// Label returns the paper integer label of node v, or NoLabel.
func (g *Graph) Label(v int) int { return g.labels[v] }

// SetLabel updates the paper label of node v.
func (g *Graph) SetLabel(v, label int) { g.labels[v] = label }

// SetKind updates the kind of node v. Used by the Lemma 3.6 extension,
// which relabels input terminals as processors.
func (g *Graph) SetKind(v int, k Kind) {
	g.rows.Store(nil)
	g.kinds[v] = k
}

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the adjacency list of v in ascending order. The
// returned slice aliases internal storage and must not be modified. Safe
// for concurrent readers once construction is complete.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[v]
}

// NodesOfKind returns the ids of all nodes of the given kind, ascending.
func (g *Graph) NodesOfKind(k Kind) []int {
	var out []int
	for v, kv := range g.kinds {
		if kv == k {
			out = append(out, v)
		}
	}
	return out
}

// CountKind returns the number of nodes of the given kind.
func (g *Graph) CountKind(k Kind) int {
	c := 0
	for _, kv := range g.kinds {
		if kv == k {
			c++
		}
	}
	return c
}

// Processors returns the ids of all processor nodes.
func (g *Graph) Processors() []int { return g.NodesOfKind(Processor) }

// InputTerminals returns the ids of all input terminals.
func (g *Graph) InputTerminals() []int { return g.NodesOfKind(InputTerminal) }

// OutputTerminals returns the ids of all output terminals.
func (g *Graph) OutputTerminals() []int { return g.NodesOfKind(OutputTerminal) }

// KindSet returns a bitset over node ids containing the nodes of kind k.
func (g *Graph) KindSet(k Kind) bitset.Set {
	s := bitset.New(len(g.kinds))
	for v, kv := range g.kinds {
		if kv == k {
			s.Add(v)
		}
	}
	return s
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		name:   g.name,
		kinds:  append([]Kind(nil), g.kinds...),
		labels: append([]int(nil), g.labels...),
		adj:    make([][]int32, len(g.adj)),
		edges:  g.edges,
	}
	for v := range g.adj {
		c.adj[v] = append([]int32(nil), g.adj[v]...)
	}
	return c
}

// NodeByKindLabel returns the node with the given kind and paper label,
// or -1 if absent.
func (g *Graph) NodeByKindLabel(k Kind, label int) int {
	for v := range g.kinds {
		if g.kinds[v] == k && g.labels[v] == label {
			return v
		}
	}
	return -1
}

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// MaxProcessorDegree returns the maximum degree over processor nodes. The
// paper's degree-optimality claims are all about this quantity.
func (g *Graph) MaxProcessorDegree() int {
	max := 0
	for v := range g.adj {
		if g.kinds[v] == Processor && len(g.adj[v]) > max {
			max = len(g.adj[v])
		}
	}
	return max
}

// MinProcessorDegree returns the minimum degree over processor nodes,
// or 0 if there are none.
func (g *Graph) MinProcessorDegree() int {
	min := -1
	for v := range g.adj {
		if g.kinds[v] == Processor {
			if d := len(g.adj[v]); min == -1 || d < min {
				min = d
			}
		}
	}
	if min == -1 {
		return 0
	}
	return min
}

// ProcessorNeighborCount returns the number of processor neighbors of v
// (Lemma 3.4 bounds this from below by k+1 in any solution graph).
func (g *Graph) ProcessorNeighborCount(v int) int {
	c := 0
	for _, u := range g.adj[v] {
		if g.kinds[u] == Processor {
			c++
		}
	}
	return c
}

// Validate checks structural invariants: adjacency symmetry, sortedness,
// no self-loops, and no duplicate edges. Constructions call it in tests; it
// is O(V + E log E).
func (g *Graph) Validate() error {
	seen := map[[2]int32]bool{}
	var count int
	for v := range g.adj {
		for _, u := range g.adj[v] {
			if int(u) == v {
				return fmt.Errorf("self-loop at %d", v)
			}
			if int(u) < 0 || int(u) >= len(g.kinds) {
				return fmt.Errorf("edge (%d,%d) out of range", v, u)
			}
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("asymmetric adjacency: %d->%d", v, u)
			}
			key := [2]int32{int32(v), u}
			if v > int(u) {
				key = [2]int32{u, int32(v)}
			}
			if v < int(u) {
				if seen[key] {
					return fmt.Errorf("duplicate edge (%d,%d)", v, u)
				}
				seen[key] = true
				count++
			}
		}
	}
	if count != g.edges {
		return fmt.Errorf("edge count mismatch: counted %d, recorded %d", count, g.edges)
	}
	return nil
}

// ConnectedIgnoring reports whether the subgraph induced by nodes NOT in
// excl is connected (vacuously true when it has ≤ 1 node).
func (g *Graph) ConnectedIgnoring(excl bitset.Set) bool {
	n := len(g.kinds)
	start := -1
	for v := 0; v < n; v++ {
		if excl == nil || !excl.Contains(v) {
			start = v
			break
		}
	}
	if start == -1 {
		return true
	}
	visited := bitset.New(n)
	stack := []int{start}
	visited.Add(start)
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.adj[v] {
			ui := int(u)
			if (excl == nil || !excl.Contains(ui)) && !visited.Contains(ui) {
				visited.Add(ui)
				cnt++
				stack = append(stack, ui)
			}
		}
	}
	total := 0
	for v := 0; v < n; v++ {
		if excl == nil || !excl.Contains(v) {
			total++
		}
	}
	return cnt == total
}

// AddCirculantEdges connects the given ring of nodes as a circulant graph:
// ring[i] is adjacent to ring[(i+s) mod m] for each offset s. Offsets equal
// to m/2 (for even m) are added once per pair. Duplicate offsets or offsets
// that re-create existing edges panic (simple-graph invariant).
func AddCirculantEdges(g *Graph, ring []int, offsets []int) {
	m := len(ring)
	for _, s := range offsets {
		if s <= 0 || s >= m {
			panic(fmt.Sprintf("graph: circulant offset %d out of range (m=%d)", s, m))
		}
		if 2*s == m {
			for i := 0; i < m/2; i++ {
				g.AddEdge(ring[i], ring[i+s])
			}
		} else {
			for i := 0; i < m; i++ {
				j := (i + s) % m
				g.AddEdge(ring[i], ring[j])
			}
		}
	}
}

// Summary returns a one-line description used by the CLIs.
func (g *Graph) Summary() string {
	return fmt.Sprintf("%s: %d nodes (%d processors, %d inputs, %d outputs), %d edges, max processor degree %d",
		g.name, g.NumNodes(), g.CountKind(Processor), g.CountKind(InputTerminal),
		g.CountKind(OutputTerminal), g.NumEdges(), g.MaxProcessorDegree())
}
