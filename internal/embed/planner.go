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
// while consecutive calls repeat it; a call that reuses it costs O(n).
// Plans are built into storage the Solver keeps, and the pipeline is
// returned as append(dst[:0], …), so once that storage has grown to the
// layout's size a call allocates nothing unless dst lacks the capacity.
// Every produced path is validated locally before being returned; nil
// means "no plan of this shape", and the caller falls back to the complete
// search engines.
func (s *Solver) planAsymptotic(faults bitset.Set, dst graph.Path) graph.Path {
	if s.opts.Layout == nil {
		return nil
	}
	// A plan peeling deeper than plannerItemCap/2 positions off a block end
	// splits that block alone into more items than the cap, so it declines.
	return s.planToDepth(faults, plannerItemCap/2, dst)
}

// planToDepth is planAsymptotic with the fallback plans limited to those
// that peel at most maxDepth positions off each block end; depth 0 is the
// primary plan alone.
func (s *Solver) planToDepth(faults bitset.Set, maxDepth int, dst graph.Path) graph.Path {
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
				if out := s.assemblePlan(lay, faults, b, c, positions, dst); out != nil {
					return out
				}
			}
		}
	}
	return nil
}

// plannerScratch is planAsymptotic's per-call working storage, kept on the
// Solver so that a call allocates nothing once it has grown: path is where
// a candidate pipeline is stitched and certified before it is copied into
// the caller's buffer.
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
		rs.plans[rs.built].build(g, lay, rs.faulty, rs.built, &rs.scratch)
		rs.built++
	}
	return &rs.plans[depth]
}

// ringScratch is the DP table, route scratch and block-traversal scratch
// that the plans of one Solver share.
type ringScratch struct {
	// dp[mask*n+i] holds the variants of item i that can end a route from
	// S[b] through exactly the items in mask (c's item counted as visited).
	dp     []uint8
	steps  []ringStep // route reconstruction
	mirror []int      // gapZigzagLow's reflected positions
	zz     zigzagDFS  // dfsZigzag's search state
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
// order; for S labels it is the single label. seq points into the plan's
// pos or seqs and lives as long as the plan.
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
	succ     []uint8
	orders   []ringOrder // by b*(k+2)+c
	orderPos []int       // the orders' positions, one after another

	pos  []int // healthy R positions, block after block
	seqs []int // arena of the variants' sequences that are not runs of pos
}

// ringOrder is the memoized ring order of one (b, c) pair.
type ringOrder struct {
	solved   bool
	from, to int // the order is orderPos[from:to], empty when none exists
}

// ringStep is one item of a reconstructed route and the index in vars of
// the variant it is traversed by.
type ringStep struct{ item, f int }

// build fills the plan for the faulty ring positions, peeling depth
// positions off each end of every block. Healthy R positions are split
// into blocks wherever the gap between consecutive healthy positions
// exceeds the largest offset p+1. With ≤ k faults and 2(p+1) > k there is
// at most one splitting gap, hence at most two blocks — but the DP handles
// any number of items up to the cap. Everything is rebuilt in the plan's
// own storage, so a rebuild allocates nothing once it has grown.
func (rp *ringPlan) build(g *graph.Graph, lay *construct.Layout, faulty []int, depth int, sc *ringScratch) {
	k, m, p := lay.K, lay.M, lay.P
	rp.g, rp.lay, rp.deepest = g, lay, true
	if rp.sItem == nil {
		rp.sItem = make([]int, k+2)
		rp.orders = make([]ringOrder, (k+2)*(k+2))
	}
	for i := range rp.orders {
		rp.orders[i].solved = false
	}
	rp.orderPos = rp.orderPos[:0]
	edge := func(x, y int) bool { return g.HasEdge(lay.C[x], lay.C[y]) }

	rp.vars, rp.varOff = rp.vars[:0], rp.varOff[:0]
	// The arena holds one position per S label, and per block of r
	// positions at most five sequences of r: the reverse and two zigzags
	// with their reverses. Grown to that bound once, no build reallocates
	// it.
	rp.seqs = slices.Grow(rp.seqs[:0], k+2+5*(m-k-2))
	n := 0
	addItem := func() {
		rp.varOff = append(rp.varOff, len(rp.vars))
		n++
	}
	addSingle := func(seq []int) {
		addItem()
		rp.vars = append(rp.vars, traversal{enter: seq[0], exit: seq[0], seq: seq})
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
			addSingle(blk[i : i+1])
		}
		if mid := blk[peel : len(blk)-peel]; len(mid) > 0 {
			addItem()
			rp.blockTraversals(newRingBlock(mid), edge, sc)
		}
		for i := len(blk) - peel; i < len(blk); i++ {
			addSingle(blk[i : i+1])
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
			rp.seqs = append(rp.seqs, j)
			addSingle(rp.seqs[len(rp.seqs)-1:])
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
		from := len(rp.orderPos)
		if seq := rp.sequence(b, c, rp.orderPos, sc); seq != nil {
			rp.orderPos, o.from, o.to = seq, from, len(seq)
		} else {
			o.from, o.to = from, from
		}
	}
	if o.from == o.to {
		return nil
	}
	return rp.orderPos[o.from:o.to:o.to]
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

// blockTraversals appends to rp.vars the ways through a block: straight
// in either direction, plus — when possible — zigzags that enter and exit
// at the same end (required when the block's other end is a dead end
// against a long fault run). Contiguous blocks get the analytic zigzag;
// blocks with internal jumpable gaps get one found by a budget-bounded
// DFS over the block's own positions. The sequences that are not the
// block itself are appended to rp.seqs.
func (rp *ringPlan) blockTraversals(blk ringBlock, edge func(x, y int) bool, sc *ringScratch) {
	pos := blk.positions
	n := len(pos)
	if n == 1 {
		rp.vars = append(rp.vars, traversal{enter: pos[0], exit: pos[0], seq: pos})
		return
	}
	rp.vars = append(rp.vars, traversal{enter: pos[0], exit: pos[n-1], seq: pos})
	rp.addReverse(pos)
	// addZig keeps the sequence at rp.seqs[start:] as a variant, and its
	// reverse, or drops it.
	addZig := func(start int, ok bool) {
		seq := rp.seqs[start:]
		// The constructive zigzags assume their crossing offsets exist
		// (true for internal gaps ≤ p−1); re-check every hop against the
		// real edges so a boundary shape degrades to "variant unavailable"
		// rather than an invalid plan.
		for i := 1; ok && i < len(seq); i++ {
			ok = edge(seq[i-1], seq[i])
		}
		if !ok {
			rp.seqs = rp.seqs[:start]
			return
		}
		rp.vars = append(rp.vars, traversal{enter: seq[0], exit: seq[len(seq)-1], seq: seq})
		// The reverse is a valid traversal of the same positions iff every
		// hop is an undirected edge — which it is.
		rp.addReverse(seq)
	}
	var ok bool
	if blk.contiguous {
		lo, hi := pos[0], pos[n-1]
		start := len(rp.seqs)
		rp.seqs = analyticZigzag(rp.seqs, lo, hi, true)
		addZig(start, true)
		start = len(rp.seqs)
		rp.seqs = analyticZigzag(rp.seqs, lo, hi, false)
		addZig(start, true)
	} else {
		// Constructive gap-aware zigzags first; a budget-bounded DFS mops
		// up shapes the construction declines.
		start := len(rp.seqs)
		if rp.seqs, ok = gapZigzagHigh(rp.seqs, pos); ok {
			addZig(start, true)
		} else if n <= 4096 {
			rp.seqs, ok = sc.dfsZigzag(rp.seqs, pos, n-1, n-2, edge)
			addZig(start, ok)
		}
		start = len(rp.seqs)
		if rp.seqs, ok = sc.gapZigzagLow(rp.seqs, pos); ok {
			addZig(start, true)
		} else if n <= 4096 {
			rp.seqs, ok = sc.dfsZigzag(rp.seqs, pos, 0, 1, edge)
			addZig(start, ok)
		}
	}
}

// addReverse appends the variant that runs seq backwards, its sequence in
// rp.seqs.
func (rp *ringPlan) addReverse(seq []int) {
	start := len(rp.seqs)
	for i := len(seq) - 1; i >= 0; i-- {
		rp.seqs = append(rp.seqs, seq[i])
	}
	rev := rp.seqs[start:]
	rp.vars = append(rp.vars, traversal{enter: rev[0], exit: rev[len(rev)-1], seq: rev})
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
// length-p run coexist. The sequence is appended to dst; ok is false, and
// dst unchanged, for shapes it cannot realize.
func gapZigzagHigh(dst, pos []int) (_ []int, ok bool) {
	n := len(pos)
	if n < 2 || pos[n-2] != pos[n-1]-1 {
		return dst, false
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
		return analyticZigzag(dst, pos[0], b, false), true
	}
	a := pos[gi+1] // bottom of the contiguous top segment N = [a..b]
	fTop := pos[gi]
	start := len(dst)
	// Descent: b, b−2, …, ending exactly at a+1.
	switch (b - a) % 2 {
	case 1: // parity reaches a+1 directly
		for x := b; x >= a+1; x -= 2 {
			dst = append(dst, x)
		}
	default: // lands on a+2; a unit step reaches a+1 (needs room for the ascent 3-jump)
		if b < a+4 {
			return dst, false
		}
		for x := b; x >= a+2; x -= 2 {
			dst = append(dst, x)
		}
		dst = append(dst, a+1)
	}
	// Far part F, covered recursively between the crossings.
	if far := pos[:gi+1]; len(far) == 1 {
		dst = append(dst, fTop)
	} else if dst, ok = gapZigzagHigh(dst, far); !ok {
		return dst[:start], false
	}
	dst = append(dst, a)
	// Ascent covering the complement parity, ending at b−1.
	switch (b - a) % 2 {
	case 1:
		for x := a + 2; x <= b-1; x += 2 {
			dst = append(dst, x)
		}
	default:
		for x := a + 3; x <= b-1; x += 2 {
			dst = append(dst, x)
		}
	}
	return dst, true
}

// gapZigzagLow is the mirror of gapZigzagHigh: enter the lowest position,
// exit the second-lowest. Implemented by reflecting the positions into
// sc.mirror.
func (sc *ringScratch) gapZigzagLow(dst, pos []int) (_ []int, ok bool) {
	n := len(pos)
	if n < 2 {
		return dst, false
	}
	pivot := pos[0] + pos[n-1]
	mirror := slices.Grow(sc.mirror[:0], n)[:n]
	sc.mirror = mirror
	for i, x := range pos {
		mirror[n-1-i] = pivot - x
	}
	start := len(dst)
	if dst, ok = gapZigzagHigh(dst, mirror); !ok {
		return dst, false
	}
	seq := dst[start:]
	for i, x := range seq {
		seq[i] = pivot - x
	}
	return dst, true
}

// analyticZigzag appends the cover of the contiguous interval [lo..hi]
// that enters and exits at the low end (lo → lo+1) or, when fromLow is
// false, at the high end (hi → hi-1): same-parity ascent, one unit step,
// other-parity descent. Uses only offsets 1 and 2.
func analyticZigzag(dst []int, lo, hi int, fromLow bool) []int {
	if fromLow {
		for x := lo; x <= hi; x += 2 {
			dst = append(dst, x)
		}
		start := hi
		if (hi-lo)%2 == 0 {
			start = hi - 1
		}
		for x := start; x >= lo+1; x -= 2 {
			dst = append(dst, x)
		}
	} else {
		for x := hi; x >= lo; x -= 2 {
			dst = append(dst, x)
		}
		start := lo
		if (hi-lo)%2 == 0 {
			start = lo + 1
		}
		for x := start; x <= hi-1; x += 2 {
			dst = append(dst, x)
		}
	}
	return dst
}

// zigzagWindow is how many block positions on either side dfsZigzag scans
// for a neighbour: ring offsets are bounded, so only nearby positions can
// be adjacent, and scanning a small window keeps the search O(n).
const zigzagWindow = 12

// zigzagDFS is dfsZigzag's search state, kept in the ring scratch so a
// search allocates nothing once it has grown. adj and visited are over
// block indices, and adj[i] is a window of adjBuf with room for every
// neighbour index i can have.
type zigzagDFS struct {
	pos     []int
	adj     [][]int
	adjBuf  []int
	visited []bool
	path    []int
	end     int
	budget  int
}

// dfsZigzag appends to dst a Hamiltonian path over the block positions pos
// from pos[si] to pos[ei] (si ≠ ei) using the real ring edges, with a
// budget proportional to the block size. ok is false, and dst unchanged,
// when none is found within budget.
func (sc *ringScratch) dfsZigzag(dst, pos []int, si, ei int, edge func(x, y int) bool) (_ []int, ok bool) {
	z := &sc.zz
	n := len(pos)
	const deg = 2 * zigzagWindow
	z.adj = slices.Grow(z.adj[:0], n)[:n]
	z.adjBuf = slices.Grow(z.adjBuf[:0], n*deg)[:n*deg]
	adj := z.adj
	for i := range adj {
		adj[i] = z.adjBuf[i*deg : i*deg : (i+1)*deg]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j <= i+zigzagWindow; j++ {
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
	z.pos, z.end, z.budget = pos, ei, 256*n
	z.visited = slices.Grow(z.visited[:0], n)[:n]
	clear(z.visited)
	z.path = slices.Grow(z.path[:0], n)
	found := z.dfs(si)
	z.pos = nil
	if !found {
		return dst, false
	}
	return append(dst, z.path...), true
}

// dfs extends z.path from block index u, depth first.
func (z *zigzagDFS) dfs(u int) bool {
	if z.budget <= 0 {
		return false
	}
	z.budget--
	n := len(z.pos)
	z.visited[u] = true
	z.path = append(z.path, z.pos[u])
	if len(z.path) == n {
		if u == z.end {
			return true
		}
	} else {
		for _, v := range z.adj[u] {
			if z.visited[v] || (v == z.end && len(z.path) != n-1) {
				continue
			}
			if z.dfs(v) {
				return true
			}
		}
	}
	z.visited[u] = false
	z.path = z.path[:len(z.path)-1]
	return false
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
// and O labels are the ones planAsymptotic left in the scratch. The path
// is stitched in the scratch and, once certified, copied into dst.
func (s *Solver) assemblePlan(lay *construct.Layout, faults bitset.Set, b, c int, ringOrder []int, dst graph.Path) graph.Path {
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
	return append(dst[:0], out...)
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
