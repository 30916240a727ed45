// Package autom computes automorphism groups of the labeled solution
// graphs, for symmetry-reduced exhaustive verification.
//
// A Perm is a node permutation that preserves adjacency and either
// preserves every node kind (a strict automorphism) or swaps input and
// output terminals wholesale (an IO-swap automorphism). Both preserve
// k-graceful degradability fault set by fault set: a pipeline for fault set
// F maps under the permutation to a pipeline for the image of F — reversed
// end-to-end in the IO-swap case, which the paper's definition (§2) accepts
// since a pipeline may run from either terminal kind to the other. Two
// fault sets in the same orbit are therefore tolerated or not *together*,
// so an exhaustive verifier only needs one representative per orbit
// (verify.Options.ExploitSymmetry).
//
// Generators come from two sources, and every generator from either source
// is certificate-checked by CheckAutomorphism before it is trusted:
//
//   - cheap closed-form candidates for the circulant family of §3.4
//     (Reflection): the dihedral mirror of the ring composed with the
//     input/output exchange, respecting node kinds and terminal pairing;
//   - a generic backtracking search (Compute) over candidate target nodes
//     filtered by Weisfeiler–Lehman refinement colors (graph.WLColors),
//     organized as a stabilizer chain so the found permutations generate
//     the full group without enumerating it.
//
// The group can materialize its element closure up to a cap; the verifier
// uses the full element list when available (exact orbit-minimality, i.e.
// one solver call per orbit) and falls back to the generator set plus
// inverses otherwise (a sound over-approximation that never skips an
// orbit, only prunes less).
package autom

import (
	"encoding/binary"
	"fmt"

	"gdpn/internal/construct"
	"gdpn/internal/graph"
)

// Perm is one automorphism: node v maps to Map[v]. When IOSwap is true the
// permutation exchanges input and output terminals (kind(Map[v]) is the
// I/O-swapped kind of v); otherwise it preserves every kind.
type Perm struct {
	Map    []int32
	IOSwap bool
}

// identity reports whether p maps every node to itself.
func (p Perm) identity() bool {
	for v, u := range p.Map {
		if int32(v) != u {
			return false
		}
	}
	return true
}

// Inverse returns the inverse permutation.
func (p Perm) Inverse() Perm {
	inv := make([]int32, len(p.Map))
	for v, u := range p.Map {
		inv[u] = int32(v)
	}
	return Perm{Map: inv, IOSwap: p.IOSwap}
}

// compose returns a∘b: v ↦ a(b(v)).
func compose(a, b Perm) Perm {
	return composeInto(make([]int32, len(a.Map)), a, b)
}

// composeInto is compose with its map in m, of the maps' length.
func composeInto(m []int32, a, b Perm) Perm {
	for v := range m {
		m[v] = a.Map[b.Map[v]]
	}
	return Perm{Map: m, IOSwap: a.IOSwap != b.IOSwap}
}

// swapKind exchanges the terminal kinds and fixes Processor.
func swapKind(k graph.Kind) graph.Kind {
	switch k {
	case graph.InputTerminal:
		return graph.OutputTerminal
	case graph.OutputTerminal:
		return graph.InputTerminal
	default:
		return k
	}
}

// CheckAutomorphism verifies that p is a valid automorphism of g: a
// bijection on the nodes that maps every edge to an edge (degrees force the
// converse) and respects kinds per p.IOSwap. A nil error is a complete
// certificate; callers discard any candidate generator that fails.
func CheckAutomorphism(g *graph.Graph, p Perm) error {
	n := g.NumNodes()
	if len(p.Map) != n {
		return fmt.Errorf("autom: permutation over %d nodes, graph has %d", len(p.Map), n)
	}
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		u := p.Map[v]
		if u < 0 || int(u) >= n {
			return fmt.Errorf("autom: node %d maps out of range to %d", v, u)
		}
		if seen[u] {
			return fmt.Errorf("autom: node %d hit twice (not a bijection)", u)
		}
		seen[u] = true
		want := g.Kind(v)
		if p.IOSwap {
			want = swapKind(want)
		}
		if g.Kind(int(u)) != want {
			return fmt.Errorf("autom: node %d (%v) maps to %d (%v), want kind %v",
				v, g.Kind(v), u, g.Kind(int(u)), want)
		}
		if g.Degree(v) != g.Degree(int(u)) {
			return fmt.Errorf("autom: node %d degree %d maps to %d degree %d",
				v, g.Degree(v), u, g.Degree(int(u)))
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if !g.HasEdge(int(p.Map[v]), int(p.Map[w])) {
				return fmt.Errorf("autom: edge (%d,%d) maps to non-edge (%d,%d)",
					v, w, p.Map[v], p.Map[w])
			}
		}
	}
	return nil
}

// Group is a set of certified automorphism generators, optionally with the
// materialized element closure.
type Group struct {
	gens []Perm
	// elems is the full non-identity element list when the closure fit
	// under the materialization cap, nil otherwise.
	elems []Perm
	// complete reports that the generic search finished within budget, so
	// gens generate the FULL automorphism group (closure caps permitting).
	// An incomplete group is still sound for orbit pruning: a subgroup's
	// orbits refine the true orbits.
	complete bool
	n        int
}

// Generators returns the certified generators (never the identity).
func (gr *Group) Generators() []Perm { return gr.gens }

// Elements returns every non-identity group element and true when the
// closure was materialized (it fit under Options.MaxElements), or nil and
// false otherwise.
func (gr *Group) Elements() ([]Perm, bool) {
	if gr.elems == nil {
		return nil, false
	}
	return gr.elems, true
}

// Order returns the group order (including the identity) and true when the
// closure was materialized, or 0 and false otherwise.
func (gr *Group) Order() (int, bool) {
	if gr.elems == nil {
		return 0, false
	}
	return len(gr.elems) + 1, true
}

// Complete reports that the generator search covered the whole group.
func (gr *Group) Complete() bool { return gr.complete }

// Trivial reports that no non-identity automorphism was found.
func (gr *Group) Trivial() bool { return len(gr.gens) == 0 }

// Options tunes Compute.
type Options struct {
	// Seeds are candidate generators (e.g. the circulant Reflection).
	// Invalid candidates are certificate-checked and silently dropped.
	Seeds []Perm
	// MaxNodes caps the generic backtracking search; larger graphs use the
	// Seeds only (default 384). Exhaustive verification is infeasible far
	// below this anyway.
	MaxNodes int
	// Budget caps total backtracking node assignments across the whole
	// generator search (default 4e6). On exhaustion the group found so far
	// is returned with Complete() == false.
	Budget int64
	// MaxElements caps the materialized closure (default 20000). Groups
	// larger than the cap keep only their generators.
	MaxElements int
}

func (o *Options) fill() {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 384
	}
	if o.Budget <= 0 {
		o.Budget = 4_000_000
	}
	if o.MaxElements <= 0 {
		o.MaxElements = 20000
	}
}

// Compute returns the automorphism group of g: certificate-checked Seeds
// plus, for graphs up to opts.MaxNodes, the generators found by the generic
// stabilizer-chain search (strict and IO-swap), with the element closure
// materialized up to opts.MaxElements.
func Compute(g *graph.Graph, opts Options) *Group {
	opts.fill()
	gr := &Group{n: g.NumNodes(), complete: true}
	for _, s := range opts.Seeds {
		if CheckAutomorphism(g, s) == nil && !s.identity() && !gr.knownElement(s) {
			gr.gens = append(gr.gens, s)
		}
	}
	if g.NumNodes() <= opts.MaxNodes {
		gr.complete = searchGenerators(g, gr, opts.Budget)
	} else {
		// Seeds alone are not known to generate the full group.
		gr.complete = false
	}
	gr.materialize(opts.MaxElements)
	return gr
}

// FromGenerators rebuilds a Group from externally supplied generators (e.g.
// loaded from the verdict store). Every generator is certificate-checked by
// CheckAutomorphism before it is trusted — a single failing generator makes
// the whole load fail, so a corrupted or mismatched cache entry can never
// smuggle an invalid symmetry into orbit pruning. complete carries the
// original search's completeness claim; it is trusted only in the sense
// that an overclaim cannot create unsoundness (orbit pruning with a
// subgroup is always sound, and completeness only widens pruning the same
// way the original run already did). maxElements ≤ 0 uses the default cap.
func FromGenerators(g *graph.Graph, gens []Perm, complete bool, maxElements int) (*Group, error) {
	if maxElements <= 0 {
		maxElements = 20000
	}
	gr := &Group{n: g.NumNodes(), complete: complete}
	for i, p := range gens {
		if err := CheckAutomorphism(g, p); err != nil {
			return nil, fmt.Errorf("autom: stored generator %d rejected: %w", i, err)
		}
		if !p.identity() && !gr.knownElement(p) {
			gr.gens = append(gr.gens, p)
		}
	}
	gr.materialize(maxElements)
	return gr, nil
}

// knownElement reports whether p duplicates a generator already kept; it
// dedupes the seeds and the searched IO-swap representative.
func (gr *Group) knownElement(p Perm) bool {
	for _, e := range gr.gens {
		if permEqual(e, p) {
			return true
		}
	}
	return false
}

func permEqual(a, b Perm) bool {
	if a.IOSwap != b.IOSwap || len(a.Map) != len(b.Map) {
		return false
	}
	for i := range a.Map {
		if a.Map[i] != b.Map[i] {
			return false
		}
	}
	return true
}

// materialize BFS-closes the generators into the full element list, up to
// cap elements (excluding the identity); on overflow elems stays nil.
func (gr *Group) materialize(cap int) {
	if len(gr.gens) == 0 {
		gr.elems = []Perm{}
		return
	}
	seen := make(map[string]bool, 64)
	id := identityPerm(gr.n)
	key, scratch := appendPermKey(nil, id), make([]int32, gr.n)
	seen[string(key)] = true
	var elems []Perm
	frontier := []Perm{id}
	for len(frontier) > 0 {
		var next []Perm
		for _, e := range frontier {
			for _, gen := range gr.gens {
				// Only a new element allocates: its map and its key.
				key = appendPermKey(key[:0], composeInto(scratch, gen, e))
				if seen[string(key)] {
					continue
				}
				seen[string(key)] = true
				c := compose(gen, e)
				elems = append(elems, c)
				if len(elems) > cap {
					return // closure too large; keep elems nil
				}
				next = append(next, c)
			}
		}
		frontier = next
	}
	gr.elems = elems
}

func identityPerm(n int) Perm {
	m := make([]int32, n)
	for i := range m {
		m[i] = int32(i)
	}
	return Perm{Map: m}
}

// appendPermKey appends the map key of the permutation to dst: its IO
// swap flag, then its map as little-endian uint32s.
func appendPermKey(dst []byte, p Perm) []byte {
	if p.IOSwap {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	for _, v := range p.Map {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// Reflection builds the cheap closed-form generator of the §3.4 asymptotic
// family: the ring mirror C[j] ↦ C[(k+1-j) mod m] composed with the
// input/output exchange I[j] ↔ O[k+1-j] (and the paired terminals
// Ti[j] ↔ To[k+1-j]). It is the only non-trivial symmetry of the family —
// ring rotations do not respect the S/R split — and is certificate-checked
// before being returned.
func Reflection(g *graph.Graph, lay *construct.Layout) (Perm, error) {
	n := g.NumNodes()
	m, k := lay.M, lay.K
	p := Perm{Map: make([]int32, n), IOSwap: true}
	for i := range p.Map {
		p.Map[i] = -1
	}
	set := func(from, to int) error {
		if from < 0 || to < 0 {
			return fmt.Errorf("autom: reflection pairs a deleted node (%d↦%d)", from, to)
		}
		p.Map[from] = int32(to)
		return nil
	}
	for j := 0; j < m; j++ {
		if err := set(lay.C[j], lay.C[((k+1-j)%m+m)%m]); err != nil {
			return Perm{}, err
		}
	}
	for j := 1; j <= k+1; j++ {
		if err := set(lay.I[j], lay.O[k+1-j]); err != nil {
			return Perm{}, err
		}
		if err := set(lay.Ti[j], lay.To[k+1-j]); err != nil {
			return Perm{}, err
		}
	}
	for j := 0; j <= k; j++ {
		if err := set(lay.O[j], lay.I[k+1-j]); err != nil {
			return Perm{}, err
		}
		if err := set(lay.To[j], lay.Ti[k+1-j]); err != nil {
			return Perm{}, err
		}
	}
	for v, u := range p.Map {
		if u < 0 {
			return Perm{}, fmt.Errorf("autom: reflection leaves node %d unmapped", v)
		}
	}
	if err := CheckAutomorphism(g, p); err != nil {
		return Perm{}, err
	}
	return p, nil
}
