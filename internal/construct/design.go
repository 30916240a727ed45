package construct

import (
	"fmt"

	"gdpn/internal/graph"
)

// DegreeLowerBound returns the paper's lower bound on the maximum processor
// degree of ANY standard k-gracefully-degradable graph for n nodes:
//
//   - k+2 always (Lemma 3.1 / Corollary 3.2);
//   - k+3 for n = 2 (Lemma 3.9 + Corollary 3.10: the unique standard
//     solution has degree k+3);
//   - k+3 for n = 3, k > 1 (Lemma 3.11);
//   - k+3 for even n with odd k (Lemma 3.5, the parity argument);
//   - k+3 for n = 5, k = 2 (Lemma 3.14, proven by case analysis in the
//     paper and re-proven by exhaustive search in internal/search).
func DegreeLowerBound(n, k int) int {
	switch {
	case n == 2:
		return k + 3
	case n == 3 && k > 1:
		return k + 3
	case n%2 == 0 && k%2 == 1:
		return k + 3
	case n == 5 && k == 2:
		return k + 3
	default:
		return k + 2
	}
}

// Solution is a designed k-gracefully-degradable graph with its metadata.
type Solution struct {
	Graph *graph.Graph
	// Layout is non-nil when the asymptotic construction was used; it
	// enables the O(n) constructive reconfiguration planner.
	Layout *Layout
	N, K   int
	// Method names the construction used ("G1", "extend(G2)×3",
	// "special", "asymptotic", ...).
	Method string
	// MaxDegree is the maximum processor degree of Graph.
	MaxDegree int
	// DegreeOptimal reports whether MaxDegree meets DegreeLowerBound(n,k).
	// It is true for every (n, k) the paper covers; extension chains used
	// to fill the k ≥ 4 residue gaps may be one above the bound.
	DegreeOptimal bool
}

// ErrNoConstruction is returned (wrapped) by Design for the (n, k)
// combinations the paper leaves open: k ≥ 4 with n below the asymptotic
// threshold and n ≢ 1, 2, 3 (mod k+1).
var ErrNoConstruction = fmt.Errorf("no construction known")

// Design returns a standard k-gracefully-degradable graph for n processors,
// following the paper's decision tree:
//
//   - n ∈ {1, 2, 3}: Lemmas 3.7, 3.9, 3.12 — any k (degree-optimal);
//   - k = 1: Theorem 3.13 — extension chains from G1/G2 (degree-optimal);
//   - k = 2: Theorem 3.15 — chains from G1/G2 plus specials G6,2 and G8,2
//     (degree-optimal, with the n ∈ {2,3,5} exceptions at k+3);
//   - k = 3: Theorem 3.16 — chains plus specials G4,3 and G7,3
//     (degree-optimal: k+2 odd n, k+3 even n);
//   - k ≥ 4: the §3.4 asymptotic construction for n ≥ MinAsymptoticN(k)
//     (degree-optimal), otherwise extension chains from G1/G2/G3 when
//     n ≡ 1, 2, 3 (mod k+1) — the G2/G3 chains may exceed the degree
//     bound by one; remaining small-n residues return ErrNoConstruction
//     (the paper leaves them open).
func Design(n, k int) (*Solution, error) {
	if n < 1 || k < 1 {
		return nil, fmt.Errorf("construct: require n ≥ 1 and k ≥ 1, got n=%d k=%d", n, k)
	}
	sol, err := design(n, k)
	if err != nil {
		return nil, err
	}
	sol.N, sol.K = n, k
	sol.MaxDegree = sol.Graph.MaxProcessorDegree()
	sol.DegreeOptimal = sol.MaxDegree == DegreeLowerBound(n, k)
	sol.Graph.SetName(fmt.Sprintf("G(n=%d,k=%d)", n, k))
	return sol, nil
}

func design(n, k int) (*Solution, error) {
	switch n {
	case 1:
		return &Solution{Graph: G1(k), Method: "G1"}, nil
	case 2:
		return &Solution{Graph: G2(k), Method: "G2"}, nil
	case 3:
		return &Solution{Graph: G3(k), Method: "G3"}, nil
	}
	switch k {
	case 1, 2, 3:
		return designSmallK(n, k)
	default:
		return designLargeK(n, k)
	}
}

// designSmallK implements Theorems 3.13, 3.15, 3.16 for n ≥ 4.
func designSmallK(n, k int) (*Solution, error) {
	// Base constructions per residue class modulo k+1, per theorem.
	type base struct {
		n     int
		build func() (*graph.Graph, error)
	}
	bases := map[int][]base{
		1: {
			{1, func() (*graph.Graph, error) { return G1(1), nil }},
			{2, func() (*graph.Graph, error) { return G2(1), nil }},
		},
		2: {
			{1, func() (*graph.Graph, error) { return G1(2), nil }},
			{5, func() (*graph.Graph, error) { return Extend(G2(2)), nil }},
			{6, func() (*graph.Graph, error) { return Special(6, 2) }},
			{8, func() (*graph.Graph, error) { return Special(8, 2) }},
		},
		3: {
			{1, func() (*graph.Graph, error) { return G1(3), nil }},
			{4, func() (*graph.Graph, error) { return Special(4, 3) }},
			{6, func() (*graph.Graph, error) { return Extend(G2(3)), nil }},
			{7, func() (*graph.Graph, error) { return Special(7, 3) }},
		},
	}
	// Pick the largest base ≤ n in the right residue class mod k+1.
	var chosen *base
	for i := range bases[k] {
		b := &bases[k][i]
		if b.n <= n && (n-b.n)%(k+1) == 0 {
			if chosen == nil || b.n > chosen.n {
				chosen = b
			}
		}
	}
	if chosen == nil {
		return nil, fmt.Errorf("construct: internal gap for n=%d k=%d: %w", n, k, ErrNoConstruction)
	}
	g, err := chosen.build()
	if err != nil {
		return nil, err
	}
	l := (n - chosen.n) / (k + 1)
	method := fmt.Sprintf("base(n=%d)", chosen.n)
	if l > 0 {
		method = fmt.Sprintf("extend(base n=%d)×%d", chosen.n, l)
	}
	return &Solution{Graph: ExtendTimes(g, l), Method: method}, nil
}

// designLargeK handles k ≥ 4, n ≥ 4.
func designLargeK(n, k int) (*Solution, error) {
	if n >= MinAsymptoticN(k) {
		// Degree-optimal and comes with a Layout, which enables the O(n)
		// constructive reconfiguration planner — preferable to the extension
		// chains at scale even where both apply.
		g, lay, err := Asymptotic(n, k)
		if err != nil {
			return nil, err
		}
		return &Solution{Graph: g, Layout: lay, Method: "asymptotic"}, nil
	}
	switch n % (k + 1) {
	case 1 % (k + 1):
		// Corollary 3.8 chain: degree-optimal at k+2.
		l := (n - 1) / (k + 1)
		return &Solution{Graph: ExtendTimes(G1(k), l), Method: fmt.Sprintf("extend(G1)×%d", l)}, nil
	case 2 % (k + 1):
		l := (n - 2) / (k + 1)
		return &Solution{Graph: ExtendTimes(G2(k), l), Method: fmt.Sprintf("extend(G2)×%d", l)}, nil
	case 3 % (k + 1):
		l := (n - 3) / (k + 1)
		return &Solution{Graph: ExtendTimes(G3(k), l), Method: fmt.Sprintf("extend(G3)×%d", l)}, nil
	}
	return nil, fmt.Errorf("construct: n=%d k=%d below the asymptotic threshold %d with residue %d mod %d: %w",
		n, k, MinAsymptoticN(k), n%(k+1), k+1, ErrNoConstruction)
}
