package verify

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"gdpn/internal/autom"
	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/store"
)

// Store-cache instrumentation. Counter.Add is a single atomic load while
// the default registry is disabled, so resolving these at package init is
// free for uninstrumented runs.
var (
	storeReplayFailC   = obs.Default().Counter("store_replay_fail_total")
	storeNegConfirmedC = obs.Default().Counter("store_negative_recheck_total", obs.L("result", "confirmed"))
	storeNegAcceptedC  = obs.Default().Counter("store_negative_recheck_total", obs.L("result", "accepted"))
)

// attachStore registers g with the configured verdict store, under a span
// so sweep traces show the content-address resolution (canonical labeling
// plus slot match) as an explicit phase.
func attachStore(g *graph.Graph, opts Options) *store.GraphRef {
	if opts.Store == nil {
		return nil
	}
	sp := span.Start(nil, "store-attach")
	ref := opts.Store.Register(g)
	sp.SetInt("slot", int64(ref.Slot()))
	sp.End(span.OK)
	return ref
}

// groupFor resolves the automorphism group of a symmetry-reduced run:
// an explicit Options.Group wins, then the store's cached group (every
// generator re-certified by autom.FromGenerators before use), then a
// fresh computation whose result is written back to the store.
func groupFor(g *graph.Graph, opts Options, ref *store.GraphRef) *autom.Group {
	if !opts.ExploitSymmetry {
		return nil
	}
	if opts.Group != nil {
		return opts.Group
	}
	if ref != nil {
		if gr, ok := ref.LookupGroup(g); ok {
			return gr
		}
	}
	var seeds []autom.Perm
	if opts.Solver.Layout != nil {
		if refl, err := autom.Reflection(g, opts.Solver.Layout); err == nil {
			seeds = append(seeds, refl)
		}
	}
	group := autom.Compute(g, autom.Options{Seeds: seeds})
	if ref != nil {
		ref.PutGroup(group)
	}
	return group
}

// replaySize re-derives one size's full verdict from its proof blocks,
// with no enumeration and no solver: the block part of a replay on each
// block, then the size part on them all. Otherwise the caller enumerates
// the size cold, and the record says why: a corrupt or incomplete store
// costs work, never a wrong report.
func (s *sweep) replaySize(sig uint64, size int) (*Report, *FaultSetRecord) {
	total := combin.Binomial(len(s.universe), size)
	blks := s.ref.LookupProofs(sig, size, total)
	if len(blks) == 0 {
		return nil, replayFault(size, nil, -1, "no proof block")
	}
	n := 0
	for _, blk := range blks {
		n += blk.Len()
	}
	// Generators alone do not give the orbits' sizes, and rank bitmaps
	// far larger than the blocks are not worth building.
	if s.orbit.order == 0 || total > 64*int64(n)*int64(s.orbit.order) {
		blks[0].Miss()
		return nil, replayFault(size, nil, -1, fmt.Sprintf("cannot check that %d entries cover %d sets", n, total))
	}
	sp := span.Start(nil, "store-replay")
	sp.SetInt("size", int64(size)).SetInt("reps", int64(n))
	local, proofs := &Report{}, make([]*blockProof, len(blks))
	var bp *blockProof
	for i, blk := range blks {
		if bp = s.replayBlock(blk, size, nil); bp.fault != nil {
			break
		}
		proofs[i] = bp
		merge(local, bp.rep, s.opts.MaxRecorded)
	}
	fault := bp.fault
	if fault == nil {
		fault, _ = s.coverSize(size, proofs)
	}
	if fault != nil {
		// A failed certificate is counted as a replay failure, not a miss.
		if !bp.certFailed {
			blks[0].Miss()
		}
		sp.End(span.Errored)
		return nil, fault
	}
	for _, blk := range blks {
		blk.Hit()
	}
	sp.End(span.OK)
	return local, nil
}

// blockProof is what the block part of a replay derives from one proof
// block: the report of its range, and what the size part needs.
type blockProof struct {
	from, to int64
	// rep counts the entries as Checked and the range as Represented;
	// its failures are the negative entries.
	rep *Report
	// reps is a bitmap over [from, to) of the entries' ranks; distinct
	// counts them, and covered adds up their orbits' sizes.
	reps              []uint64
	distinct, covered int64
	// fault says why the block failed; certFailed, that a positive
	// entry's certificate did.
	fault      *FaultSetRecord
	certFailed bool
}

// replayBlock is the block part of a replay: it replays blk's entries of
// fault sets of the given size, one contiguous run of them per worker.
// Each entry must decode, and a positive must pass its certificate; a
// negative is re-screened by the cheap necessary conditions, and one they
// do not confirm must pass confirm, when it is not nil. Then the entry's
// rank must lie in the block's range, and its set must be the least of
// its orbit under the tester's certified automorphisms, which carry its
// verdict to the whole orbit. The entries need not be distinct: the size
// part checks that. A fault names the size, and the entry's set and rank
// where one is at fault.
func (s *sweep) replayBlock(blk *store.ProofBlock, size int, confirm func(bitset.Set) bool) *blockProof {
	m, n := len(s.universe), blk.Len()
	from, to := blk.Range()
	bp := &blockProof{from: from, to: to}
	if total := combin.Binomial(m, size); from < 0 || to > total || from >= to {
		bp.fault = replayFault(size, nil, -1, fmt.Sprintf("ranks [%d, %d) are not within the size's %d sets", from, to, total))
		return bp
	}
	rk := combin.NewRanker(m, size)
	type shard struct {
		fails             []FaultSetRecord
		reps              []uint64
		distinct, covered int64
		fault             *FaultSetRecord
		certFailed        bool
	}
	// A shard per worker, of at least minReplayShard entries.
	shards := make([]shard, max(1, min(s.opts.Workers, n/minReplayShard)))
	run := func(i int) {
		// The shards share cache lines: o is written only at the end.
		o, lo, hi := &shards[i], i*n/len(shards), (i+1)*n/len(shards)
		cur, ok := blk.Cursor(lo)
		reps, distinct, covered := make([]uint64, (to-from+63)/64), int64(0), int64(0)
		defer func() { o.reps, o.distinct, o.covered = reps, distinct, covered }()
		faults := bitset.New(s.g.NumNodes())
		chk := graph.NewChecker(s.g)
		var set, path []int
		sub := make([]int, size)
		img, mask := make([]uint64, len(s.orbit.perms)*s.orbit.words), make([]uint64, s.orbit.words)
		for e := lo; ok && e < hi; e++ {
			var r, orbit int64
			if set, path, ok = cur.Next(set, path); ok {
				r, orbit, ok = s.orbit.entry(rk, set, sub, img, mask)
			}
			if !ok {
				break
			}
			for _, x := range set {
				faults.Add(x)
			}
			if len(path) == 0 {
				if !recheckNegative(s.g, faults) && confirm != nil && !confirm(faults) {
					o.fault = replayFault(size, nodesOf(s.universe, sub), r, "a pipeline exists")
					return
				}
				o.fails = append(o.fails, FaultSetRecord{Nodes: nodesOf(s.universe, sub), Err: "no pipeline"})
			} else if err := chk.Pipeline(faults, graph.Path(path)); err != nil {
				storeReplayFailC.Add(1)
				o.fault, o.certFailed = replayFault(size, nodesOf(s.universe, sub), r, err.Error()), true
				return
			}
			for _, x := range set {
				faults.Remove(x)
			}
			switch bit := r - from; {
			case r < from || r >= to:
				o.fault = replayFault(size, nodesOf(s.universe, sub), r, fmt.Sprintf("outside the block's ranks [%d, %d)", from, to))
				return
			case orbit == 0:
				o.fault = replayFault(size, nodesOf(s.universe, sub), r, "not the least set of its orbit")
				return
			case reps[bit>>6]&(1<<(bit&63)) == 0:
				reps[bit>>6] |= 1 << (bit & 63)
				distinct++
				covered += orbit
			}
		}
		if !ok || hi == n && !cur.Done() {
			o.fault = replayFault(size, nil, -1, "entries do not decode")
		}
	}
	// The calling goroutine replays the first shard.
	var wg sync.WaitGroup
	for i := 1; i < len(shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	run(0)
	wg.Wait()

	bp.rep = &Report{Checked: int64(n), Represented: to - from}
	bp.reps = shards[0].reps
	for _, o := range shards {
		if bp.fault == nil {
			bp.fault, bp.certFailed = o.fault, o.certFailed
		}
		// Keep the canonically smallest failures, exactly as a cold
		// sweep's merged shard reports do, whatever the block's order.
		bp.rep.FailureCount += int64(len(o.fails))
		bp.rep.Failures = mergeRecords(bp.rep.Failures, o.fails, s.opts.MaxRecorded)
		bp.covered += o.covered
		for j := range o.reps {
			bp.reps[j] |= o.reps[j]
		}
	}
	for _, w := range bp.reps {
		bp.distinct += int64(bits.OnesCount64(w))
	}
	return bp
}

// coverSize is the size part of a replay, on the block parts of a size's
// blocks sorted by range: their ranges must tile [0, total), and their
// entries must be distinct least sets of orbits whose sizes add up to
// total, which makes them every orbit of the size. On a miss it names the
// first set in no entry's orbit, and returns its rank, else -1.
func (s *sweep) coverSize(size int, blocks []*blockProof) (*FaultSetRecord, int64) {
	m := len(s.universe)
	total := combin.Binomial(m, size)
	next, n, distinct, covered := int64(0), int64(0), int64(0), int64(0)
	for _, b := range blocks {
		switch {
		case b.from < next:
			return replayFault(size, nil, -1, fmt.Sprintf("blocks overlap at rank %d", b.from)), -1
		case b.from > next:
			return replayFault(size, nil, -1, fmt.Sprintf("ranks [%d, %d) are in no block", next, b.from)), -1
		}
		next = b.to
		n, distinct, covered = n+b.rep.Checked, distinct+b.distinct, covered+b.covered
	}
	if next != total {
		return replayFault(size, nil, -1, fmt.Sprintf("ranks [%d, %d) are in no block", next, total)), -1
	}
	if distinct == n && covered == total {
		return nil, -1
	}
	// Distinct least sets lie in distinct orbits. Where they miss some,
	// name the first set in none: the first least set that is no entry.
	fault, rank := replayFault(size, nil, -1, fmt.Sprintf("%d entries, %d distinct least sets of orbits", n, distinct)), int64(-1)
	r, i, scratch := int64(0), 0, make([]int, size)
	combin.Subsets(m, size, func(sub []int) bool {
		for r >= blocks[i].to {
			i++
		}
		bit := r - blocks[i].from
		if blocks[i].reps[bit>>6]&(1<<(bit&63)) == 0 && s.orbit.isMinimal(sub, scratch) {
			fault, rank = replayFault(size, nodesOf(s.universe, sub), r, "in no entry's orbit"), r
			return false
		}
		r++
		return true
	})
	return fault, rank
}

// minReplayShard is the fewest entries replayBlock hands a goroutine of
// its own: below it, starting one costs more than it saves.
const minReplayShard = 128

// replayFault records why a size did not replay: the size, and the fault
// set and its rank among the size's sets where one is at fault (rank ≥ 0).
func replayFault(size int, nodes []int, rank int64, why string) *FaultSetRecord {
	if rank < 0 {
		return &FaultSetRecord{Err: fmt.Sprintf("size %d: %s", size, why)}
	}
	return &FaultSetRecord{Nodes: nodes, Err: fmt.Sprintf("size %d rank %d: %s", size, rank, why)}
}

// buildImages fills t.images and t.words for entry.
func (t *orbitTester) buildImages(m int) {
	t.words = (m + 63) / 64
	t.images = make([][]uint64, m)
	for x := range t.images {
		t.images[x] = make([]uint64, len(t.perms)*t.words)
		for p, q := range t.perms {
			v := int(q[x])
			t.images[x][p*t.words+v/64] = 1 << (v % 64)
		}
	}
}

// entry reads a proof-block entry's fault set, node ids in any order,
// into sub as ascending universe indices, and returns its rank and, if it
// is the least set of its orbit, the orbit's size (else 0). ok is false
// when set is not len(sub) distinct universe nodes. img and mask are
// scratches of len(t.perms)·t.words and t.words words; buildImages must
// have run.
func (t *orbitTester) entry(rk combin.Ranker, set, sub []int, img, mask []uint64) (r, orbit int64, ok bool) {
	if len(set) != len(sub) {
		return 0, 0, false
	}
	for i, v := range set {
		x := int(t.idx[v])
		if x < 0 {
			return 0, 0, false
		}
		j := i
		for ; j > 0 && sub[j-1] > x; j-- {
			sub[j] = sub[j-1]
		}
		if j > 0 && sub[j-1] == x {
			return 0, 0, false
		}
		sub[j] = x
	}
	// The orbit has order/stab sets, stab counting the elements fixing
	// it, which include those missing from perms.
	r, stab := rk.Rank(sub), t.order-len(t.perms)
	if len(sub) == 0 {
		return r, 1, true
	}
	// Every element's image of sub at once, as masks of t.words words
	// over the universe: the union of the images of sub's indices.
	copy(img, t.images[sub[0]])
	for _, x := range sub[1:] {
		for i, v := range t.images[x][:len(img)] {
			img[i] |= v
		}
	}
	clear(mask)
	for _, x := range sub {
		mask[x/64] |= 1 << (x % 64)
	}
	// Of two sets of one size, the lesser holds the least node of their
	// difference: the lowest bit of the lowest word where they differ.
	for p, n := 0, len(mask); p < len(img); p += n {
		v, w := img[p], 0
		d := v ^ mask[0]
		for d == 0 && w+1 < n {
			w++
			v = img[p+w]
			d = v ^ mask[w]
		}
		if d == 0 {
			stab++
		} else if v&d&-d != 0 {
			return r, 0, true
		}
	}
	return r, int64(t.order / stab), true
}

// recheckNegative screens a stored negative verdict with the cheap
// necessary conditions, counts the outcome and reports whether they
// confirm it. A negative that violates a necessary condition is
// independently confirmed; one that passes them all is accepted on the
// same trust level as a cold solver's "not found" (negatives carry no
// certificate in either case).
func recheckNegative(g *graph.Graph, faults bitset.Set) bool {
	if cheapNoPipeline(g, faults) {
		storeNegConfirmedC.Add(1)
		return true
	}
	storeNegAcceptedC.Add(1)
	return false
}

// cheapNoPipeline reports whether a violated necessary condition already
// proves that g \ faults has no pipeline, in O(V + E):
//
//   - a healthy input terminal and a healthy output terminal must exist,
//     each adjacent to a healthy processor (or to a healthy opposite
//     terminal only through processors — the pipeline interior is all
//     processors, so terminal-terminal hops never occur);
//   - at least one healthy processor must exist;
//   - the healthy-processor induced subgraph must be connected (the
//     pipeline interior is a Hamiltonian path of it);
//   - that subgraph can have at most two vertices of induced degree ≤ 1
//     (a Hamiltonian path has only two endpoints).
//
// false means "no condition violated": a pipeline may or may not exist.
func cheapNoPipeline(g *graph.Graph, faults bitset.Set) bool {
	n := g.NumNodes()
	procs := 0
	healthyIn, healthyOut := false, false
	for v := 0; v < n; v++ {
		if faults.Contains(v) {
			continue
		}
		switch g.Kind(v) {
		case graph.Processor:
			procs++
		case graph.InputTerminal, graph.OutputTerminal:
			ok := false
			for _, u := range g.Neighbors(v) {
				if !faults.Contains(int(u)) && g.Kind(int(u)) == graph.Processor {
					ok = true
					break
				}
			}
			if ok {
				if g.Kind(v) == graph.InputTerminal {
					healthyIn = true
				} else {
					healthyOut = true
				}
			}
		}
	}
	if !healthyIn || !healthyOut || procs == 0 {
		return true
	}
	excl := bitset.New(n)
	for v := 0; v < n; v++ {
		if faults.Contains(v) || g.Kind(v) != graph.Processor {
			excl.Add(v)
		}
	}
	if !g.ConnectedIgnoring(excl) {
		return true
	}
	if procs >= 2 {
		low := 0
		for v := 0; v < n; v++ {
			if excl.Contains(v) {
				continue
			}
			deg := 0
			for _, u := range g.Neighbors(v) {
				if !excl.Contains(int(u)) {
					deg++
				}
			}
			if deg <= 1 {
				low++
			}
		}
		if low > 2 {
			return true
		}
	}
	return false
}

// replaySizes replays every size's proof blocks into rep, for Exhaustive
// and Replay. It returns the sizes replayed, and a report of the rest:
// their sets counted as unknowns, each size's with a record of why.
func (s *sweep) replaySizes(rep *Report) (map[int]bool, *Report) {
	replayed, rest := map[int]bool{}, &Report{}
	sig := s.sig()
	for size := 0; size <= s.k && size <= len(s.universe); size++ {
		if local, fault := s.replaySize(sig, size); fault != nil {
			rest.UnknownCount += combin.Binomial(len(s.universe), size)
			rest.Unknowns = append(rest.Unknowns, *fault)
		} else {
			merge(rep, local, s.opts.MaxRecorded)
			replayed[size] = true
		}
	}
	return replayed, rest
}

// Replay proves GD(G, k) from the proof blocks in opts.Store alone, as a
// warm Exhaustive does, and builds no solver: a clean Report trusts only
// the pipeline check and the certified automorphisms, and has the
// VerdictSummary of the cold sweep that wrote the blocks. Options are
// read as by Exhaustive, with FailFast ignored: ExploitSymmetry must be
// the cold sweep's, whose blocks are filed under its group. A size whose
// blocks do not replay is left unknown, with a record of why. Replay
// appends to the store at most g and its group.
func Replay(g *graph.Graph, k int, opts Options) *Report {
	start := time.Now()
	s := newSweep(g, k, opts)
	defer s.release()
	rep := &Report{GraphName: g.Name(), K: k}
	rest := &Report{UnknownCount: combin.CountUpTo(len(s.universe), k), Unknowns: []FaultSetRecord{{Err: "no verdict store"}}}
	if s.ref != nil {
		_, rest = s.replaySizes(rep)
	}
	merge(rep, rest, s.opts.MaxRecorded)
	rep.Duration = time.Since(start)
	return rep
}
