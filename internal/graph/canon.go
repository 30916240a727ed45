package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"gdpn/internal/combin"
)

// WLColors returns the per-node colors after iterated Weisfeiler–Lehman
// refinement. seed gives the initial color of each node; a nil seed uses the
// node kinds. The refinement is deterministic (round count depends only on
// the node count), so two nodes related by a seed-preserving automorphism
// always receive equal colors — internal/autom uses this as a sound
// candidate filter when searching for automorphism generators. Unequal
// colors prove two nodes are NOT exchangeable; equal colors may (rarely)
// collide.
func (g *Graph) WLColors(seed []uint64) []uint64 {
	n := g.NumNodes()
	colors := make([]uint64, n)
	if seed != nil {
		if len(seed) != n {
			panic("graph: WLColors seed length mismatch")
		}
		copy(colors, seed)
	} else {
		for v := 0; v < n; v++ {
			colors[v] = uint64(g.Kind(v)) + 1
		}
	}
	next := make([]uint64, n)
	neigh := make([]uint64, 0, 16)
	rounds := 3 + n/4
	if rounds > 16 {
		rounds = 16
	}
	for r := 0; r < rounds; r++ {
		for v := 0; v < n; v++ {
			neigh = neigh[:0]
			for _, u := range g.adj[v] {
				neigh = append(neigh, colors[u])
			}
			slices.Sort(neigh)
			h := fnvU64(fnvOffset, colors[v])
			for _, c := range neigh {
				h = fnvU64(h, c)
			}
			next[v] = h
		}
		colors, next = next, colors
	}
	return colors
}

// Fingerprint returns an isomorphism-invariant hash of the labeled graph,
// computed by iterated Weisfeiler–Lehman color refinement seeded with node
// kinds. Graphs with different fingerprints are guaranteed non-isomorphic.
//
// Equal fingerprints do NOT imply isomorphism: WL refinement cannot separate
// certain non-isomorphic pairs (e.g. a 6-cycle vs. two disjoint triangles
// over degree-2 nodes of one kind — every node looks identical to WL), and
// the final hash can collide even when the color multisets differ. Callers
// that need a trustworthy equality decision must verify a fingerprint match
// with Canonical() byte equality (sound: equal bytes ⇒ isomorphic) or, for
// small graphs, IsomorphicBrute. The search module and internal/store both
// use Fingerprint only to bucket candidates and verify inside a bucket.
func (g *Graph) Fingerprint() uint64 {
	n := g.NumNodes()
	final := g.WLColors(nil)
	slices.Sort(final)
	h := fnvU64(fnvOffset, uint64(n))
	h = fnvU64(h, uint64(g.edges))
	for _, c := range final {
		h = fnvU64(h, c)
	}
	return h
}

// fnvOffset is the FNV-1a 64-bit offset basis.
const fnvOffset = 14695981039346656037

// fnvU64 folds v, as 8 little-endian bytes, into the FNV-1a 64-bit hash h.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// Canonical-labeling budgets. canonMaxNodes gates the IR search entirely
// (larger graphs get a greedy — still sound, not canonical — labeling);
// canonLeafBudget caps the number of discrete leaves the search may visit
// before giving up on exactness. Both exist so Canonical stays cheap on
// adversarial highly-symmetric inputs; every budget exhaustion degrades to
// Exact=false, never to an unsound answer.
const (
	canonMaxNodes   = 512
	canonLeafBudget = 512
)

// CanonicalForm is the strengthened content-address of a graph under
// kind-preserving isomorphism (paper labels are ignored, matching
// IsomorphicBrute's notion of equivalence).
//
// Trust model:
//   - Hash is the WL Fingerprint: cheap index key, collisions possible.
//   - Bytes is a complete adjacency encoding of the graph under some
//     concrete labeling, so byte equality of two CanonicalForms proves the
//     graphs isomorphic UNCONDITIONALLY (both are the graph the bytes
//     describe). This holds even when Exact is false.
//   - Byte inequality proves non-isomorphism only when BOTH forms are
//     Exact (the labeling was the true canonical one). Otherwise it means
//     "unknown": callers fall back to IsomorphicBrute or conservatively
//     treat the graphs as distinct (a safe cache miss, never a false hit).
type CanonicalForm struct {
	Hash     uint64  // WL fingerprint (index key; may collide)
	Bytes    []byte  // adjacency encoding under Labeling (verifier)
	Labeling []int32 // original node id -> canonical position
	Exact    bool    // true iff the IR search completed within budget
}

// Equal reports whether two canonical forms describe isomorphic graphs, as
// far as byte equality can tell. False means "not proven isomorphic", not
// "non-isomorphic", unless both forms are Exact.
func (c CanonicalForm) Equal(o CanonicalForm) bool {
	return c.Hash == o.Hash && bytes.Equal(c.Bytes, o.Bytes)
}

// Canonical computes a canonical form via individualization–refinement:
// refine the kind-seeded coloring to a stable equitable partition, branch on
// every vertex of the first non-singleton cell, and keep the
// lexicographically smallest leaf encoding. Two isomorphic graphs within
// budget produce byte-identical forms with Exact=true; over budget the form
// degrades per the CanonicalForm trust model. Cost is output-sensitive: one
// refinement is O((V+E) log V) and typical graphs need a handful of leaves.
func (g *Graph) Canonical() CanonicalForm {
	n := g.NumNodes()
	c := &canonCtx{g: g, n: n, exact: true}
	base := make([]int, n)
	for v := 0; v < n; v++ {
		base[v] = int(g.kinds[v])
	}
	base = c.refine(base)
	if n > canonMaxNodes {
		c.exact = false
		c.greedyLeaf(base)
	} else {
		c.search(base)
		if c.best == nil { // budget hit before the first leaf
			c.greedyLeaf(base)
		}
	}
	return CanonicalForm{
		Hash:     g.Fingerprint(),
		Bytes:    c.best,
		Labeling: c.bestLab,
		Exact:    c.exact,
	}
}

type canonCtx struct {
	g       *Graph
	n       int
	leaves  int
	exact   bool
	best    []byte
	bestLab []int32
}

// refine iterates color refinement until the partition is stable. Colors are
// normalized ranks 0..k-1 assigned by lexicographic signature order, so the
// result depends only on the isomorphism class of (graph, input partition).
func (c *canonCtx) refine(colors []int) []int {
	n := c.n
	cur := c.normalize(colors)
	sigs := make([][]int, n)
	order := make([]int, n)
	for {
		for v := 0; v < n; v++ {
			adj := c.g.adj[v]
			s := make([]int, 1, 1+len(adj))
			s[0] = cur[v]
			for _, u := range adj {
				s = append(s, cur[u])
			}
			sort.Ints(s[1:])
			sigs[v] = s
		}
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			return lessIntSlice(sigs[order[i]], sigs[order[j]])
		})
		next := make([]int, n)
		rank := 0
		for i, v := range order {
			if i > 0 && lessIntSlice(sigs[order[i-1]], sigs[v]) {
				rank++
			}
			next[v] = rank
		}
		if rank+1 == numColors(cur) {
			return cur // no cell split: stable
		}
		cur = next
	}
}

func (c *canonCtx) normalize(colors []int) []int {
	seen := make(map[int]struct{}, len(colors))
	for _, x := range colors {
		seen[x] = struct{}{}
	}
	vals := make([]int, 0, len(seen))
	for x := range seen {
		vals = append(vals, x)
	}
	sort.Ints(vals)
	rank := make(map[int]int, len(vals))
	for i, x := range vals {
		rank[x] = i
	}
	out := make([]int, len(colors))
	for v, x := range colors {
		out[v] = rank[x]
	}
	return out
}

func numColors(colors []int) int {
	max := -1
	for _, x := range colors {
		if x > max {
			max = x
		}
	}
	return max + 1
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// search explores the IR branching tree rooted at the stable coloring,
// keeping the lexicographically smallest leaf encoding in c.best.
func (c *canonCtx) search(colors []int) {
	if c.leaves >= canonLeafBudget {
		c.exact = false
		return
	}
	cell := c.firstNonSingletonCell(colors)
	if cell == nil {
		c.leaves++
		c.offerLeaf(colors)
		return
	}
	for _, v := range cell {
		if c.leaves >= canonLeafBudget {
			c.exact = false
			return
		}
		child := append([]int(nil), colors...)
		child[v] = c.n // fresh color above every rank: individualize v
		c.search(c.refine(child))
	}
}

// firstNonSingletonCell returns the members of the smallest-colored cell
// with ≥ 2 members (the classic IR target-cell rule), or nil if the
// partition is discrete.
func (c *canonCtx) firstNonSingletonCell(colors []int) []int {
	counts := make([]int, numColors(colors))
	for _, x := range colors {
		counts[x]++
	}
	target := -1
	for col, cnt := range counts {
		if cnt >= 2 {
			target = col
			break
		}
	}
	if target == -1 {
		return nil
	}
	var cell []int
	for v, x := range colors {
		if x == target {
			cell = append(cell, v)
		}
	}
	return cell
}

// greedyLeaf discretizes the partition by repeatedly individualizing the
// lowest-id vertex of the first non-singleton cell. The result is a valid
// adjacency encoding (byte-equal ⇒ isomorphic still holds) but not
// canonical; callers only reach it with c.exact already false or about to
// be forced false.
func (c *canonCtx) greedyLeaf(colors []int) {
	c.exact = false
	cur := colors
	for {
		cell := c.firstNonSingletonCell(cur)
		if cell == nil {
			break
		}
		child := append([]int(nil), cur...)
		child[cell[0]] = c.n
		cur = c.refine(child)
	}
	c.offerLeaf(cur)
}

// offerLeaf encodes a discrete coloring and keeps it if it beats the
// incumbent lexicographically.
func (c *canonCtx) offerLeaf(colors []int) {
	enc, lab := c.encode(colors)
	if c.best == nil || bytes.Compare(enc, c.best) < 0 {
		c.best, c.bestLab = enc, lab
	}
}

// encode serializes the graph under the discrete coloring (EncodeUnder).
func (c *canonCtx) encode(colors []int) ([]byte, []int32) {
	lab := make([]int32, c.n) // orig -> canon
	for v, col := range colors {
		lab[v] = int32(col)
	}
	enc, _ := c.g.EncodeUnder(lab)
	return enc, lab
}

// EncodeUnder serializes g under the labeling lab (original node id ->
// position), in the format of CanonicalForm.Bytes: uvarint node and edge
// counts, node kinds in position order, then for each position the sorted
// positions of its neighbors above it (each edge written once). ok is
// false when lab is not a permutation of g's node ids. Bytes equal to a
// CanonicalForm's prove that lab maps g onto the graph those bytes
// describe.
func (g *Graph) EncodeUnder(lab []int32) (_ []byte, ok bool) {
	n := len(g.kinds)
	if len(lab) != n {
		return nil, false
	}
	orig := make([]int32, n) // position -> orig
	for i := range orig {
		orig[i] = -1
	}
	for v, pos := range lab {
		if pos < 0 || int(pos) >= n || orig[pos] >= 0 {
			return nil, false
		}
		orig[pos] = int32(v)
	}
	buf := make([]byte, 0, 2+n+4*g.edges)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(g.edges))
	for pos := 0; pos < n; pos++ {
		buf = append(buf, byte(g.kinds[orig[pos]]))
	}
	neigh := make([]int, 0, 16)
	for pos := 0; pos < n; pos++ {
		neigh = neigh[:0]
		for _, u := range g.adj[orig[pos]] {
			if up := int(lab[u]); up > pos {
				neigh = append(neigh, up)
			}
		}
		sort.Ints(neigh)
		buf = binary.AppendUvarint(buf, uint64(len(neigh)))
		for _, up := range neigh {
			buf = binary.AppendUvarint(buf, uint64(up))
		}
	}
	return buf, true
}

// DecodeCanonical reconstructs a graph from a CanonicalForm.Bytes
// encoding. The result carries no name or paper labels (the encoding
// deliberately excludes both); it is isomorphic to every graph whose
// canonical form produced the same bytes.
func DecodeCanonical(enc []byte) (*Graph, error) {
	rd := enc
	next := func() (uint64, error) {
		v, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, fmt.Errorf("graph: truncated canonical encoding")
		}
		rd = rd[n:]
		return v, nil
	}
	nv, err := next()
	if err != nil {
		return nil, err
	}
	ev, err := next()
	if err != nil {
		return nil, err
	}
	n := int(nv)
	if len(rd) < n {
		return nil, fmt.Errorf("graph: truncated canonical kinds")
	}
	g := New("")
	for i := 0; i < n; i++ {
		k := Kind(rd[i])
		if k > OutputTerminal {
			return nil, fmt.Errorf("graph: invalid kind %d in canonical encoding", rd[i])
		}
		g.AddNode(k, NoLabel)
	}
	rd = rd[n:]
	for v := 0; v < n; v++ {
		cnt, err := next()
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < cnt; j++ {
			u, err := next()
			if err != nil {
				return nil, err
			}
			if int(u) <= v || int(u) >= n || g.HasEdge(v, int(u)) {
				return nil, fmt.Errorf("graph: invalid canonical edge (%d,%d)", v, u)
			}
			g.AddEdge(v, int(u))
		}
	}
	if g.NumEdges() != int(ev) {
		return nil, fmt.Errorf("graph: canonical edge count mismatch: %d vs %d", g.NumEdges(), ev)
	}
	return g, nil
}

// IsomorphicBrute decides kind-preserving isomorphism by enumerating
// permutations of the processor nodes (terminals have degree ≤ 1 in
// standard graphs, so once processors are matched, terminal matching is a
// bipartite check). It is exponential and intended only for the small
// uniqueness proofs (Lemmas 3.7/3.9) and search deduplication; it refuses
// graphs with more than 12 processors.
func IsomorphicBrute(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for _, k := range []Kind{Processor, InputTerminal, OutputTerminal} {
		if a.CountKind(k) != b.CountKind(k) {
			return false
		}
	}
	pa, pb := a.Processors(), b.Processors()
	if len(pa) > 12 {
		panic("graph: IsomorphicBrute limited to ≤ 12 processors")
	}
	// Degree-multiset quick rejection.
	if !sameDegreeMultiset(a, pa, b, pb) {
		return false
	}
	found := false
	combin.Permutations(len(pa), func(perm []int) bool {
		// map pa[i] -> pb[perm[i]]
		for i := range pa {
			if a.Degree(pa[i]) != b.Degree(pb[perm[i]]) {
				return true // continue
			}
		}
		for i := range pa {
			for j := i + 1; j < len(pa); j++ {
				if a.HasEdge(pa[i], pa[j]) != b.HasEdge(pb[perm[i]], pb[perm[j]]) {
					return true
				}
			}
		}
		// Processor mapping consistent; check terminal attachment profile:
		// for each processor, the multiset of attached terminal kinds must
		// match (terminals have arbitrary degree in general, but in all our
		// graphs they attach to exactly one processor, so this suffices
		// combined with the degree check above).
		for i := range pa {
			if termProfile(a, pa[i]) != termProfile(b, pb[perm[i]]) {
				return true
			}
		}
		found = true
		return false
	})
	return found
}

func termProfile(g *Graph, v int) [2]int {
	var prof [2]int
	for _, u := range g.adj[v] {
		switch g.Kind(int(u)) {
		case InputTerminal:
			prof[0]++
		case OutputTerminal:
			prof[1]++
		}
	}
	return prof
}

func sameDegreeMultiset(a *Graph, pa []int, b *Graph, pb []int) bool {
	da := make([]int, len(pa))
	db := make([]int, len(pb))
	for i := range pa {
		da[i] = a.Degree(pa[i])
		db[i] = b.Degree(pb[i])
	}
	sort.Ints(da)
	sort.Ints(db)
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}
