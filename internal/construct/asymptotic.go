package construct

import (
	"fmt"

	"gdpn/internal/graph"
)

// Layout records the structural metadata of the §3.4 asymptotic
// construction: which node ids play which role. The constructive
// reconfiguration planner (internal/embed) consumes it to find pipelines in
// O(n) instead of by general search.
type Layout struct {
	N int // minimum pipeline processors
	K int // fault tolerance
	M int // circulant size |C| = n - k - 2
	P int // ⌊k/2⌋; circulant offsets are 1..P+1

	// Node ids by paper label. Missing nodes (Ti[0], I[0], To[k+1],
	// O[k+1]) are -1. Slices have length k+2.
	Ti, To, I, O []int

	// C lists the circulant ring: C[j] is the node with label j,
	// j = 0..M-1. Positions 0..k+1 are the S nodes; the rest are R.
	C []int

	// HasBisector reports whether the bisector offset ⌊M/2⌋ is present
	// (k odd). When M is odd the "bisector" behaves as a regular offset
	// contributing two edges per node and the maximum degree is k+3.
	HasBisector bool
	Bisector    int
}

// SSize returns the number of S nodes (k+2).
func (l *Layout) SSize() int { return l.K + 2 }

// IsS reports whether ring position j holds an S node.
func (l *Layout) IsS(j int) bool { return j < l.K+2 }

// MinAsymptoticN returns the smallest n for which Asymptotic will build a
// graph for the given k: the circulant must have room for the offsets
// (m ≥ 2(p+2)) and the R set must be nonempty. The paper only claims
// k-graceful degradability for "sufficiently large n" (linear in k); the
// experiment suite (EXPERIMENTS.md, T317) maps where verification actually
// starts succeeding.
func MinAsymptoticN(k int) int {
	p := k / 2
	min := k + 2 + 2*(p+2) // m = n-k-2 ≥ 2p+4
	if alt := 2*k + 5; alt > min {
		min = alt // |R| = n-2k-4 ≥ 1
	}
	return min
}

// Asymptotic builds the §3.4 solution graph G_{n,k} for k ≥ 4 and
// sufficiently large n, together with its Layout. The construction:
//
//   - six label-indexed sets Ti, To, I, O (k+1 nodes each after deleting
//     Ti[0], I[0], To[k+1], O[k+1] from the extended graph), S (k+2), and
//     R (n-2k-4); C = S ∪ R
//   - chains Ti[j]—I[j]—S[j]—O[j]—To[j] where the endpoints exist
//   - cliques on I and on O
//   - a circulant on C with offsets {1..⌊k/2⌋+1}, plus the bisector
//     offset ⌊|C|/2⌋ when k is odd, minus the unit edges between S nodes
//
// The resulting graph is standard with n+3k+2 nodes. Every processor has
// degree k+2 when k is even or when n and k are both odd; when n is even
// and k odd the maximum degree is k+3, matching the Lemma 3.5 lower bound.
func Asymptotic(n, k int) (*graph.Graph, *Layout, error) {
	if k < 4 {
		return nil, nil, fmt.Errorf("construct: asymptotic construction requires k ≥ 4, got k=%d", k)
	}
	if min := MinAsymptoticN(k); n < min {
		return nil, nil, fmt.Errorf("construct: asymptotic construction requires n ≥ %d for k=%d, got n=%d", min, k, n)
	}
	m := n - k - 2
	p := k / 2
	g := graph.New(fmt.Sprintf("G(n=%d,k=%d)", n, k))
	lay := &Layout{
		N: n, K: k, M: m, P: p,
		Ti: make([]int, k+2), To: make([]int, k+2),
		I: make([]int, k+2), O: make([]int, k+2),
		C: make([]int, m),
	}

	// Ring nodes: S labels 0..k+1, R labels k+2..m-1.
	for j := 0; j < m; j++ {
		lay.C[j] = g.AddNode(graph.Processor, j)
	}
	// I (labels 1..k+1) and O (labels 0..k); label-0 input side and
	// label-(k+1) output side are the nodes deleted from the extended graph.
	for j := 0; j <= k+1; j++ {
		lay.I[j], lay.O[j], lay.Ti[j], lay.To[j] = -1, -1, -1, -1
	}
	for j := 1; j <= k+1; j++ {
		lay.I[j] = g.AddNode(graph.Processor, j)
	}
	for j := 0; j <= k; j++ {
		lay.O[j] = g.AddNode(graph.Processor, j)
	}
	for j := 1; j <= k+1; j++ {
		lay.Ti[j] = g.AddNode(graph.InputTerminal, j)
	}
	for j := 0; j <= k; j++ {
		lay.To[j] = g.AddNode(graph.OutputTerminal, j)
	}

	// Chains Ti[j]—I[j]—S[j]—O[j]—To[j].
	for j := 1; j <= k+1; j++ {
		g.AddEdge(lay.Ti[j], lay.I[j])
		g.AddEdge(lay.I[j], lay.C[j])
	}
	for j := 0; j <= k; j++ {
		g.AddEdge(lay.C[j], lay.O[j])
		g.AddEdge(lay.O[j], lay.To[j])
	}

	// Cliques on I and O.
	for a := 1; a <= k+1; a++ {
		for b := a + 1; b <= k+1; b++ {
			g.AddEdge(lay.I[a], lay.I[b])
		}
	}
	for a := 0; a <= k; a++ {
		for b := a + 1; b <= k; b++ {
			g.AddEdge(lay.O[a], lay.O[b])
		}
	}

	// Circulant on C. Offset 1 skips the S—S unit edges (both endpoints
	// with labels ≤ k+1 and label difference 1), which the construction
	// deletes.
	for i := 0; i < m; i++ {
		j := (i + 1) % m
		if i < k+1 && j < k+2 {
			continue // deleted S—S unit edge
		}
		g.AddEdge(lay.C[i], lay.C[j])
	}
	for s := 2; s <= p+1; s++ {
		for i := 0; i < m; i++ {
			g.AddEdge(lay.C[i], lay.C[(i+s)%m])
		}
	}
	if k%2 == 1 {
		lay.HasBisector = true
		lay.Bisector = m / 2
		if m%2 == 0 {
			for i := 0; i < m/2; i++ {
				g.AddEdge(lay.C[i], lay.C[i+m/2])
			}
		} else {
			for i := 0; i < m; i++ {
				g.AddEdge(lay.C[i], lay.C[(i+m/2)%m])
			}
		}
	}
	return g, lay, nil
}

// ExtendedGraph builds the §3.4 extended graph G′_{n,k}: the more regular
// supergraph from which Asymptotic deletes Ti[0], I[0], To[k+1], O[k+1] and
// the S—S unit edges. Exposed for the construction tests and ablation
// benches; it is NOT itself a standard solution graph (it has k+2 terminals
// of each kind).
func ExtendedGraph(n, k int) (*graph.Graph, error) {
	if k < 4 {
		return nil, fmt.Errorf("construct: extended graph requires k ≥ 4, got k=%d", k)
	}
	if min := MinAsymptoticN(k); n < min {
		return nil, fmt.Errorf("construct: extended graph requires n ≥ %d for k=%d", min, k)
	}
	m := n - k - 2
	p := k / 2
	g := graph.New(fmt.Sprintf("G'(n=%d,k=%d)", n, k))
	C := make([]int, m)
	I := make([]int, k+2)
	O := make([]int, k+2)
	Ti := make([]int, k+2)
	To := make([]int, k+2)
	for j := 0; j < m; j++ {
		C[j] = g.AddNode(graph.Processor, j)
	}
	for j := 0; j <= k+1; j++ {
		I[j] = g.AddNode(graph.Processor, j)
		O[j] = g.AddNode(graph.Processor, j)
		Ti[j] = g.AddNode(graph.InputTerminal, j)
		To[j] = g.AddNode(graph.OutputTerminal, j)
	}
	for j := 0; j <= k+1; j++ {
		g.AddEdge(Ti[j], I[j])
		g.AddEdge(I[j], C[j])
		g.AddEdge(C[j], O[j])
		g.AddEdge(O[j], To[j])
		for l := j + 1; l <= k+1; l++ {
			g.AddEdge(I[j], I[l])
			g.AddEdge(O[j], O[l])
		}
	}
	offsets := make([]int, 0, p+2)
	for s := 1; s <= p+1; s++ {
		offsets = append(offsets, s)
	}
	if k%2 == 1 {
		offsets = append(offsets, m/2)
	}
	graph.AddCirculantEdges(g, C, offsets)
	return g, nil
}
