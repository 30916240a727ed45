package embed

import (
	"math/bits"
	"slices"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/graph"
)

// planAsymptotic constructs a pipeline for the §3.4 family directly,
// without search. The route is always
//
//	Ti[a] → I[a] → (all healthy I, clique order) → I[b] → S[b]
//	      → (cover all healthy C, ending adjacent to S[c]) → S[c]
//	      → O[c] → (all healthy O, clique order) → O[d] → To[d]
//
// and the interesting part is covering the ring C. Fault runs longer than
// p split the R interval into up to two "blocks", each reachable from one
// side only; a block can be traversed straight through (enter one end,
// leave the other) or — when it is contiguous — zigzagged (enter and leave
// at the same end on adjacent positions: lo, lo+2, …, top, top∓1, …, lo+1).
// The healthy S labels and the blocks are threaded together by an exact
// bitmask DP over at most k+2+2 items (see ringPlan). When that primary
// plan finds no order, fallback plans peel 1, 2, … positions off each block
// end as items of their own, so a route may enter or leave a block at an
// outer position (see ringPlans). The ring half depends on the faulty ring
// positions alone, so each plan is built once per such set and reused
// while consecutive calls repeat it; a call that reuses it costs O(n) and
// allocates only the returned path. Every produced path is validated
// locally before being returned; nil means "no plan of this shape", and
// the caller falls back to the complete search engines.
func (s *Solver) planAsymptotic(faults bitset.Set) graph.Path {
	if s.opts.Layout == nil {
		return nil
	}
	// A plan peeling deeper than plannerItemCap/2 positions off a block end
	// splits that block alone into more items than the cap, so it declines.
	return s.planToDepth(faults, plannerItemCap/2)
}

// planToDepth is planAsymptotic with the fallback plans limited to those
// that peel at most maxDepth positions off each block end; depth 0 is the
// primary plan alone.
func (s *Solver) planToDepth(faults bitset.Set, maxDepth int) graph.Path {
	lay := s.opts.Layout
	k := lay.K
	ok := func(v int) bool { return v >= 0 && (faults == nil || !faults.Contains(v)) }
	sc := &s.planScratch

	// Endpoint label candidates.
	sc.healthyI, sc.healthyO = sc.healthyI[:0], sc.healthyO[:0]
	for j := 1; j <= k+1; j++ {
		if ok(lay.I[j]) {
			sc.healthyI = append(sc.healthyI, j)
		}
	}
	for j := 0; j <= k; j++ {
		if ok(lay.O[j]) {
			sc.healthyO = append(sc.healthyO, j)
		}
	}
	if len(sc.healthyI) == 0 || len(sc.healthyO) == 0 {
		return nil
	}
	sc.bCands, sc.cCands = sc.bCands[:0], sc.cCands[:0]
	for _, j := range sc.healthyI {
		if ok(lay.C[j]) {
			sc.bCands = append(sc.bCands, j)
		}
	}
	for _, j := range sc.healthyO {
		if ok(lay.C[j]) {
			sc.cCands = append(sc.cCands, j)
		}
	}

	rings := s.ringPlansFor(faults)
	for depth := 0; depth <= maxDepth; depth++ {
		ring := rings.plan(s.g, lay, depth)
		if ring == nil {
			return nil
		}
		for _, b := range sc.bCands {
			for _, c := range sc.cCands {
				if b == c {
					continue
				}
				positions := ring.solve(b, c, &rings.scratch)
				if positions == nil {
					continue
				}
				if out := s.assemblePlan(lay, faults, b, c, positions); out != nil {
					return out
				}
			}
		}
	}
	return nil
}

// plannerScratch is planAsymptotic's per-call working storage, kept on the
// Solver so that a call reusing the ring plan allocates only its result.
type plannerScratch struct {
	ringFaulty                         []int // this call's faulty ring positions
	healthyI, healthyO, bCands, cCands []int // I/O labels
	iOrder, oOrder                     []int
	path                               graph.Path
}

// ringPlansFor returns the ring plans for the faulty ring positions of
// faults, dropping the Solver's plans only when those positions differ
// from the ones they were built for. Nothing else feeds a plan, so reuse
// is exact.
func (s *Solver) ringPlansFor(faults bitset.Set) *ringPlans {
	lay := s.opts.Layout
	key := s.planScratch.ringFaulty[:0]
	for j, v := range lay.C {
		if faults != nil && faults.Contains(v) {
			key = append(key, j)
		}
	}
	rs := &s.rings
	if slices.Equal(key, rs.faulty) {
		s.planScratch.ringFaulty = key
		return rs
	}
	s.planScratch.ringFaulty, rs.faulty = rs.faulty, key
	rs.built = 0
	return rs
}

// ringPlans holds the ring plans of one set of faulty ring positions. The
// primary plan, depth 0, sequences whole blocks, which a route can enter
// and leave only at their ends. When two faulty S labels are one or two
// apart, the S labels beside them reach only R positions inside a block,
// and the primary plan has no block end to attach them to. The fallback
// plan at depth d splits each block's d outer positions at either end off
// as single-position items and keeps the straight and zigzag variants for
// the middle, so the DP may enter or leave the block at any of them. Plans
// are built on first use, one depth after another, and kept until the
// faulty ring positions change.
type ringPlans struct {
	faulty  []int      // the faulty ring positions the plans belong to, ascending
	built   int        // plans[:built] are built for faulty
	plans   []ringPlan // plans[d] peels d positions off each block end
	scratch ringScratch
}

// plan returns the plan at the given depth, building it and every
// shallower one first, or nil when no deeper plan differs from the last
// one or fits plannerItemCap.
func (rs *ringPlans) plan(g *graph.Graph, lay *construct.Layout, depth int) *ringPlan {
	for rs.built <= depth {
		if rs.built > 0 && rs.plans[rs.built-1].deepest {
			return nil
		}
		if rs.built == len(rs.plans) {
			rs.plans = append(rs.plans, ringPlan{})
		}
		rs.plans[rs.built].build(g, lay, rs.faulty, rs.built)
		rs.built++
	}
	return &rs.plans[depth]
}

// ringScratch is the DP table and route scratch that the plans of one
// Solver share.
type ringScratch struct {
	// dp[mask*n+i] holds the variants of item i that can end a route from
	// S[b] through exactly the items in mask (c's item counted as visited).
	dp    []uint8
	steps []ringStep // route reconstruction
}

// ringBlock is a maximal internally-jumpable interval of healthy R
// positions.
type ringBlock struct {
	positions  []int // ascending
	contiguous bool  // no internal faults: zigzag traversals allowed
}

func newRingBlock(pos []int) ringBlock {
	contig := pos[len(pos)-1]-pos[0] == len(pos)-1
	return ringBlock{positions: pos, contiguous: contig}
}

// traversal is one way through an item: the ring positions visited, with
// enter/exit as first/last. For blocks, seq holds the concrete position
// order; for S labels it is the single label.
type traversal struct {
	enter, exit int
	seq         []int
}

// plannerItemCap bounds the items the DP sequences for one (b, c) pair:
// every healthy S label but c, and every R item.
const plannerItemCap = 16

// ringPlan is one way of cutting the ring into items for the DP,
// derived from the set of faulty ring positions alone. Its items are the
// healthy S labels in label order, then the R items in ring order: whole
// blocks in the primary plan, and peeled single positions around the
// middle of each block in a fallback plan. Each item has one or more
// traversal variants (a single position one, a block at most six, so a
// uint8 holds a set of an item's variants). succ is the DP's transition
// relation, computed once per plan, and orders memoizes the DP's answer
// per (b, c) endpoint pair for as long as the plan lives.
type ringPlan struct {
	g   *graph.Graph
	lay *construct.Layout

	n        int         // items
	declines bool        // more items than plannerItemCap: no pair is solved
	deepest  bool        // a deeper peel gives no new plan, or declines too
	sItem    []int       // S label -> its item, -1 when the label is faulty
	vars     []traversal // every item's variants, item by item
	varOff   []int       // item i's variants are vars[varOff[i]:varOff[i+1]]
	// succ[f*n+j] holds the variants of item j whose entry is one edge from
	// the exit of vars[f].
	succ   []uint8
	orders []ringOrder // by b*(k+2)+c

	pos []int // healthy R positions, block after block
}

// ringOrder is the memoized ring order of one (b, c) pair.
type ringOrder struct {
	solved bool
	pos    []int // nil when no order exists
}

// ringStep is one item of a reconstructed route and the index in vars of
// the variant it is traversed by.
type ringStep struct{ item, f int }

// build fills the plan for the faulty ring positions, peeling depth
// positions off each end of every block. Healthy R positions are split
// into blocks wherever the gap between consecutive healthy positions
// exceeds the largest offset p+1. With ≤ k faults and 2(p+1) > k there is
// at most one splitting gap, hence at most two blocks — but the DP handles
// any number of items up to the cap.
func (rp *ringPlan) build(g *graph.Graph, lay *construct.Layout, faulty []int, depth int) {
	k, m, p := lay.K, lay.M, lay.P
	rp.g, rp.lay, rp.deepest = g, lay, true
	if rp.sItem == nil {
		rp.sItem = make([]int, k+2)
		rp.orders = make([]ringOrder, (k+2)*(k+2))
	}
	for i := range rp.orders {
		rp.orders[i].solved = false
	}
	edge := func(x, y int) bool { return g.HasEdge(lay.C[x], lay.C[y]) }

	rp.vars, rp.varOff = rp.vars[:0], rp.varOff[:0]
	n := 0
	addItem := func(ts ...traversal) {
		rp.varOff = append(rp.varOff, len(rp.vars))
		rp.vars = append(rp.vars, ts...)
		n++
	}
	// Blocks are subslices of pos, so it must not reallocate while filling.
	pos := slices.Grow(rp.pos[:0], m)
	blockStart, prev := 0, -1
	closeBlock := func() {
		blk := pos[blockStart:len(pos):len(pos)]
		blockStart = len(pos)
		if len(blk) == 0 {
			return
		}
		peel := min(depth, len(blk)/2)
		for i := range peel {
			addItem(traversal{enter: blk[i], exit: blk[i], seq: blk[i : i+1]})
		}
		if mid := blk[peel : len(blk)-peel]; len(mid) > 0 {
			addItem(blockTraversals(newRingBlock(mid), edge)...)
		}
		for i := len(blk) - peel; i < len(blk); i++ {
			addItem(traversal{enter: blk[i], exit: blk[i], seq: blk[i : i+1]})
		}
		if len(blk) > 2*depth+1 {
			rp.deepest = false
		}
	}
	fi := 0
	for j := 0; j < m; j++ {
		if fi < len(faulty) && faulty[fi] == j {
			fi++
			if j <= k+1 {
				rp.sItem[j] = -1
			}
			continue
		}
		if j <= k+1 {
			rp.sItem[j] = n
			addItem(traversal{enter: j, exit: j, seq: []int{j}})
			continue
		}
		if prev >= 0 && j-prev > p+1 {
			closeBlock()
		}
		pos = append(pos, j)
		prev = j
	}
	closeBlock()
	rp.varOff = append(rp.varOff, len(rp.vars))
	rp.pos, rp.n = pos, n
	rp.declines = n-1 > plannerItemCap
	if rp.declines {
		rp.deepest = true
		return
	}

	rp.succ = slices.Grow(rp.succ[:0], len(rp.vars)*n)[:len(rp.vars)*n]
	clear(rp.succ)
	for f, from := range rp.vars {
		row := rp.succ[f*n : f*n+n]
		for j := range row {
			for v, to := range rp.vars[rp.varOff[j]:rp.varOff[j+1]] {
				if edge(from.exit, to.enter) {
					row[j] |= 1 << v
				}
			}
		}
	}
}

// solve returns a ring order for the endpoint pair (b, c): ring positions
// starting at S[b], covering every healthy S label except c and every R
// item, and ending at a position with an edge to S[c]. It returns nil
// when there is none. The slice belongs to the plan.
func (rp *ringPlan) solve(b, c int, sc *ringScratch) []int {
	o := &rp.orders[b*(rp.lay.K+2)+c]
	if !o.solved {
		o.solved = true
		o.pos = rp.sequence(b, c, o.pos[:0], sc)
	}
	return o.pos
}

// sequence runs the exact DP over (visited mask, last item, last variant),
// starting at S[b] with c's item marked visited, and appends the positions
// of the first route it finds — scanning items and variants in plan order
// — to dst. The DP table and route scratch are sc's.
func (rp *ringPlan) sequence(b, c int, dst []int, sc *ringScratch) []int {
	bi, ci := rp.sItem[b], rp.sItem[c]
	if rp.declines || bi < 0 || ci < 0 {
		return nil
	}
	n := rp.n
	start, full := 1<<bi|1<<ci, 1<<n-1
	size := n << n
	if cap(sc.dp) < size {
		sc.dp = make([]uint8, size)
	}
	dp := sc.dp[:size]
	clear(dp)
	dp[start*n+bi] = 1
	for mask := start; mask < full; mask++ {
		if mask&start != start {
			continue
		}
		for it, vb := range dp[mask*n : mask*n+n] {
			for ; vb != 0; vb &= vb - 1 {
				f := rp.varOff[it] + bits.TrailingZeros8(vb)
				for nt, next := range rp.succ[f*n : f*n+n] {
					if next != 0 && mask&(1<<nt) == 0 {
						dp[(mask|1<<nt)*n+nt] |= next
					}
				}
			}
		}
	}

	// A final state whose exit connects to S[c].
	g, lay := rp.g, rp.lay
	steps := sc.steps[:0]
	for it := 0; it < n && len(steps) == 0; it++ {
		for vb := dp[full*n+it]; vb != 0; vb &= vb - 1 {
			f := rp.varOff[it] + bits.TrailingZeros8(vb)
			if g.HasEdge(lay.C[rp.vars[f].exit], lay.C[c]) {
				steps = append(steps, ringStep{it, f})
				break
			}
		}
	}
	if len(steps) == 0 {
		return nil
	}
	// Reconstruct the route backwards.
	for mask := full; mask != start; {
		cur := steps[len(steps)-1]
		enter := uint8(1) << (cur.f - rp.varOff[cur.item])
		mask &^= 1 << cur.item
		found := false
		for it := 0; it < n && !found; it++ {
			for vb := dp[mask*n+it]; vb != 0; vb &= vb - 1 {
				f := rp.varOff[it] + bits.TrailingZeros8(vb)
				if rp.succ[f*n+cur.item]&enter != 0 {
					steps = append(steps, ringStep{it, f})
					found = true
					break
				}
			}
		}
		if !found {
			return nil // should not happen
		}
	}
	sc.steps = steps
	for i := len(steps) - 1; i >= 0; i-- {
		dst = append(dst, rp.vars[steps[i].f].seq...)
	}
	return dst
}

// blockTraversals enumerates the ways through a block: straight in either
// direction, plus — when possible — zigzags that enter and exit at the
// same end (required when the block's other end is a dead end against a
// long fault run). Contiguous blocks get the analytic zigzag; blocks with
// internal jumpable gaps get one found by a budget-bounded DFS over the
// block's own positions.
func blockTraversals(blk ringBlock, edge func(x, y int) bool) []traversal {
	pos := blk.positions
	n := len(pos)
	if n == 1 {
		return []traversal{{enter: pos[0], exit: pos[0], seq: pos}}
	}
	rev := make([]int, n)
	for i, p := range pos {
		rev[n-1-i] = p
	}
	out := []traversal{
		{enter: pos[0], exit: pos[n-1], seq: pos},
		{enter: pos[n-1], exit: pos[0], seq: rev},
	}
	addZig := func(seq []int) {
		if seq == nil {
			return
		}
		// The constructive zigzags assume their crossing offsets exist
		// (true for internal gaps ≤ p−1); re-check every hop against the
		// real edges so a boundary shape degrades to "variant unavailable"
		// rather than an invalid plan.
		for i := 1; i < len(seq); i++ {
			if !edge(seq[i-1], seq[i]) {
				return
			}
		}
		out = append(out, traversal{enter: seq[0], exit: seq[len(seq)-1], seq: seq})
		rv := make([]int, len(seq))
		for i, p := range seq {
			rv[len(seq)-1-i] = p
		}
		// The reverse is a valid traversal of the same positions iff every
		// hop is an undirected edge — which it is.
		out = append(out, traversal{enter: rv[0], exit: rv[len(rv)-1], seq: rv})
	}
	if blk.contiguous {
		lo, hi := pos[0], pos[n-1]
		addZig(analyticZigzag(lo, hi, true))
		addZig(analyticZigzag(lo, hi, false))
	} else {
		// Constructive gap-aware zigzags first; a budget-bounded DFS mops
		// up shapes the construction declines.
		if seq := gapZigzagHigh(pos); seq != nil {
			addZig(seq)
		} else if n <= 4096 {
			addZig(dfsZigzag(pos, pos[n-1], pos[n-2], edge))
		}
		if seq := gapZigzagLow(pos); seq != nil {
			addZig(seq)
		} else if n <= 4096 {
			addZig(dfsZigzag(pos, pos[0], pos[1], edge))
		}
	}
	return out
}

// gapZigzagHigh covers a block that may contain internal fault gaps,
// entering at its highest position and exiting at the second-highest — the
// traversal a dead-end pocket needs when its only opening faces high. The
// construction peels the block at its topmost gap: the contiguous top
// segment N = [a..b] is covered in two passes (a parity descent b, b−2, …
// ending at a+1, and a complementary ascent ending at b−1), with the far
// part F covered recursively between the passes via two disjoint crossing
// edges a+1→top(F) and top(F)−1→a of offset gap+2. It requires every
// internal gap ≤ p−1 (offsets up to p+1 must span gap+2) — with ≤ k faults
// that is automatic except in the odd-k corner where a splitting run and a
// length-p run coexist — and returns nil for shapes it cannot realize.
func gapZigzagHigh(pos []int) []int {
	n := len(pos)
	if n < 2 || pos[n-2] != pos[n-1]-1 {
		return nil
	}
	// Topmost gap.
	gi := -1
	for i := n - 2; i >= 0; i-- {
		if pos[i+1]-pos[i] > 1 {
			gi = i
			break
		}
	}
	b := pos[n-1]
	if gi == -1 {
		return analyticZigzag(pos[0], b, false)
	}
	a := pos[gi+1] // bottom of the contiguous top segment N = [a..b]
	fTop := pos[gi]
	// Descent: b, b−2, …, ending exactly at a+1.
	var seq []int
	switch (b - a) % 2 {
	case 1: // parity reaches a+1 directly
		for x := b; x >= a+1; x -= 2 {
			seq = append(seq, x)
		}
	default: // lands on a+2; a unit step reaches a+1 (needs room for the ascent 3-jump)
		if b < a+4 {
			return nil
		}
		for x := b; x >= a+2; x -= 2 {
			seq = append(seq, x)
		}
		seq = append(seq, a+1)
	}
	// Far part F, covered recursively between the crossings.
	far := pos[:gi+1]
	var fSeq []int
	if len(far) == 1 {
		fSeq = []int{fTop}
	} else {
		fSeq = gapZigzagHigh(far)
		if fSeq == nil {
			return nil
		}
	}
	seq = append(seq, fSeq...)
	seq = append(seq, a)
	// Ascent covering the complement parity, ending at b−1.
	switch (b - a) % 2 {
	case 1:
		for x := a + 2; x <= b-1; x += 2 {
			seq = append(seq, x)
		}
	default:
		for x := a + 3; x <= b-1; x += 2 {
			seq = append(seq, x)
		}
	}
	return seq
}

// gapZigzagLow is the mirror of gapZigzagHigh: enter the lowest position,
// exit the second-lowest. Implemented by reflecting the positions.
func gapZigzagLow(pos []int) []int {
	n := len(pos)
	if n < 2 {
		return nil
	}
	pivot := pos[0] + pos[n-1]
	mirror := make([]int, n)
	for i, x := range pos {
		mirror[n-1-i] = pivot - x
	}
	seq := gapZigzagHigh(mirror)
	if seq == nil {
		return nil
	}
	for i, x := range seq {
		seq[i] = pivot - x
	}
	return seq
}

// analyticZigzag covers the contiguous interval [lo..hi] entering and
// exiting at the low end (lo → lo+1) or, when fromLow is false, at the
// high end (hi → hi-1): same-parity ascent, one unit step, other-parity
// descent. Uses only offsets 1 and 2.
func analyticZigzag(lo, hi int, fromLow bool) []int {
	var out []int
	if fromLow {
		for x := lo; x <= hi; x += 2 {
			out = append(out, x)
		}
		start := hi
		if (hi-lo)%2 == 0 {
			start = hi - 1
		}
		for x := start; x >= lo+1; x -= 2 {
			out = append(out, x)
		}
	} else {
		for x := hi; x >= lo; x -= 2 {
			out = append(out, x)
		}
		start := lo
		if (hi-lo)%2 == 0 {
			start = lo + 1
		}
		for x := start; x <= hi-1; x += 2 {
			out = append(out, x)
		}
	}
	return out
}

// dfsZigzag finds a Hamiltonian path over the block positions from start
// to end using the real ring edges, with a budget proportional to the
// block size. Returns nil when none is found within budget.
func dfsZigzag(pos []int, start, end int, edge func(x, y int) bool) []int {
	n := len(pos)
	idx := make(map[int]int, n)
	for i, p := range pos {
		idx[p] = i
	}
	si, ok1 := idx[start]
	ei, ok2 := idx[end]
	if !ok1 || !ok2 || si == ei {
		return nil
	}
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		// Ring offsets are bounded, so only nearby positions can be
		// adjacent; scanning a small window keeps this O(n).
		for j := i + 1; j < n && j <= i+12; j++ {
			if edge(pos[i], pos[j]) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	// Prefer parity-preserving ±2 steps, then longer parity-preserving
	// jumps: they are the zigzag's natural stride, so the greedy-first DFS
	// rarely backtracks.
	for i := range adj {
		a := adj[i]
		for x := 1; x < len(a); x++ {
			v := a[x]
			pri := stridePriority(pos[i], pos[v])
			y := x - 1
			for y >= 0 && stridePriority(pos[i], pos[a[y]]) > pri {
				a[y+1] = a[y]
				y--
			}
			a[y+1] = v
		}
	}
	visited := make([]bool, n)
	path := make([]int, 0, n)
	budget := 256 * n
	var dfs func(u int) bool
	dfs = func(u int) bool {
		if budget <= 0 {
			return false
		}
		budget--
		visited[u] = true
		path = append(path, pos[u])
		if len(path) == n {
			if u == ei {
				return true
			}
		} else {
			for _, v := range adj[u] {
				if visited[v] || (v == ei && len(path) != n-1) {
					continue
				}
				if dfs(v) {
					return true
				}
			}
		}
		visited[u] = false
		path = path[:len(path)-1]
		return false
	}
	if dfs(si) {
		return append([]int(nil), path...)
	}
	return nil
}

// stridePriority ranks candidate hops for dfsZigzag: parity-preserving
// hops first (shortest first), then parity-flipping ones.
func stridePriority(from, to int) int {
	d := from - to
	if d < 0 {
		d = -d
	}
	if d%2 == 0 {
		return d
	}
	return 100 + d
}

// assemblePlan stitches the full pipeline together and validates it
// against the real graph; nil on any inconsistency (caller falls back).
// ringOrder lists the C positions in visit order, starting at S[b] and
// ending at a position adjacent to S[c] (c itself excluded). The healthy I
// and O labels are the ones planAsymptotic left in the scratch.
func (s *Solver) assemblePlan(lay *construct.Layout, faults bitset.Set, b, c int, ringOrder []int) graph.Path {
	ok := func(v int) bool { return v >= 0 && (faults == nil || !faults.Contains(v)) }
	k := lay.K
	sc := &s.planScratch
	// Choose a (input pair) and the I-cover order ending at b.
	a := -1
	for j := 1; j <= k+1; j++ {
		if ok(lay.Ti[j]) && ok(lay.I[j]) && (j != b || len(sc.healthyI) == 1) {
			a = j
			break
		}
	}
	if a == -1 {
		return nil
	}
	iOrder := append(sc.iOrder[:0], a)
	for _, j := range sc.healthyI {
		if j != a && j != b {
			iOrder = append(iOrder, j)
		}
	}
	if b != a {
		iOrder = append(iOrder, b)
	}
	sc.iOrder = iOrder
	// Choose d (output pair) and O-cover order starting at c.
	d := -1
	for j := 0; j <= k; j++ {
		if ok(lay.To[j]) && ok(lay.O[j]) && (j != c || len(sc.healthyO) == 1) {
			d = j
			break
		}
	}
	if d == -1 {
		return nil
	}
	oOrder := append(sc.oOrder[:0], c)
	for _, j := range sc.healthyO {
		if j != c && j != d {
			oOrder = append(oOrder, j)
		}
	}
	if d != c {
		oOrder = append(oOrder, d)
	}
	sc.oOrder = oOrder

	out := append(sc.path[:0], lay.Ti[a])
	for _, j := range iOrder {
		out = append(out, lay.I[j])
	}
	for _, pos := range ringOrder {
		out = append(out, lay.C[pos])
	}
	out = append(out, lay.C[c])
	for _, j := range oOrder {
		out = append(out, lay.O[j])
	}
	out = append(out, lay.To[d])
	sc.path = out

	if !s.certified(faults, out) {
		return nil
	}
	return slices.Clone(out)
}

// certified is the verifier's own certificate check plus the orientation
// every plan has, input terminal first, so a planner bug falls through to
// the next tier rather than returning an invalid pipeline.
func (s *Solver) certified(faults bitset.Set, path graph.Path) bool {
	if s.chk == nil {
		s.chk = graph.NewChecker(s.g)
	}
	return s.chk.Pipeline(faults, path) == nil && s.g.Kind(path[0]) == graph.InputTerminal
}
