package verify

import (
	"sort"
	"sync"
	"sync/atomic"

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

// replayProof attempts the warm path for one fault-set size: re-derive the
// size's full verdict from its proof block in the store, without
// enumerating or solving anything. The block's entries are split into
// one contiguous range per worker, each walked front to back. It
// succeeds only when every entry decodes and survives its re-check:
// positive verdicts must replay their pipeline certificate through the
// pipeline check, negative verdicts are re-screened by the cheap
// necessary-condition filter (and counted accepted/confirmed). Any
// undecodable entry, replay failure or stray byte abandons the size
// entirely (the caller falls back to cold enumeration), so a corrupt
// store degrades to extra work, never to a wrong report. total is the
// size's full subset count, credited to Represented exactly as a cold
// enumeration would.
func replayProof(g *graph.Graph, ref *store.GraphRef, sig uint64, size int, total int64, opts Options) (*Report, bool) {
	blk, ok := ref.LookupProof(sig, size)
	if !ok {
		return nil, false
	}
	n := blk.Len()
	if int64(n) > total {
		// More representatives than sets: no sweep wrote this block.
		blk.Miss()
		return nil, false
	}
	sp := span.Start(nil, "store-replay")
	sp.SetInt("size", int64(size)).SetInt("reps", int64(n))

	shards := min(opts.Workers, n)
	var bad, malformed atomic.Bool
	fails := make([][]FaultSetRecord, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from, to := s*n/shards, (s+1)*n/shards
			cur, ok := blk.Cursor(from)
			if !ok {
				malformed.Store(true)
				return
			}
			faults := bitset.New(g.NumNodes())
			chk := graph.NewChecker(g)
			var set, path []int
			for i := from; i < to; i++ {
				if i%64 == 0 && (bad.Load() || malformed.Load()) {
					return // another worker failed: the size is abandoned
				}
				if set, path, ok = cur.Next(set, path); !ok {
					malformed.Store(true)
					return
				}
				for _, x := range set {
					faults.Add(x)
				}
				if len(path) > 0 {
					if chk.Pipeline(faults, graph.Path(path)) != nil {
						storeReplayFailC.Add(1)
						bad.Store(true)
					}
				} else {
					recheckNegative(g, faults)
					nodes := append([]int(nil), set...)
					sort.Ints(nodes) // fault sets are sorted ascending everywhere
					fails[s] = append(fails[s], FaultSetRecord{Nodes: nodes, Err: "no pipeline"})
				}
				for _, x := range set {
					faults.Remove(x)
				}
			}
			if s == shards-1 && !cur.Done() {
				malformed.Store(true)
			}
		}(s)
	}
	wg.Wait()
	if malformed.Load() {
		blk.Miss()
	}
	if bad.Load() || malformed.Load() {
		sp.End(span.Errored)
		return nil, false
	}
	blk.Hit()

	// Keep the canonically smallest failures, exactly as a cold sweep's
	// merged shard reports do, whatever order the block lists them in.
	local := &Report{Checked: int64(n), Represented: total}
	for _, f := range fails {
		local.FailureCount += int64(len(f))
		local.Failures = mergeRecords(local.Failures, f, opts.MaxRecorded)
	}
	sp.End(span.OK)
	return local, true
}

// recheckNegative screens a stored negative verdict with the cheap
// necessary conditions and counts the outcome. A negative that violates a
// necessary condition is independently confirmed; one that passes them all
// is accepted on the same trust level as a cold solver's "not found"
// (negatives carry no certificate in either case).
func recheckNegative(g *graph.Graph, faults bitset.Set) {
	if cheapNoPipeline(g, faults) {
		storeNegConfirmedC.Add(1)
	} else {
		storeNegAcceptedC.Add(1)
	}
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

// applyCached consumes a stored verdict for the worker's current fault set
// (w.cur, already built from sub). It deliberately leaves w.prev, w.faults
// and the solver untouched — they must keep describing the last set the
// solver actually saw, so the next cold solve still gets a correct
// FindDelta warm-start delta. Returns false when the cached entry failed
// its re-check and the caller must fall through to the solver.
func (w *worker) applyCached(sub []int, v store.Verdict) bool {
	if w.cacheBits == nil {
		w.cacheBits = bitset.New(w.g.NumNodes())
	}
	for _, x := range w.cur {
		w.cacheBits.Add(x)
	}
	defer func() {
		for _, x := range w.cur {
			w.cacheBits.Remove(x)
		}
	}()
	if v.Found {
		if err := w.chk.Pipeline(w.cacheBits, graph.Path(v.Path)); err != nil {
			storeReplayFailC.Add(1)
			return false
		}
		w.local.Checked++
		return true
	}
	recheckNegative(w.g, w.cacheBits)
	w.local.Checked++
	w.local.FailureCount++
	record(&w.local.Failures, w.universe, sub, "no pipeline", w.maxRec)
	if w.failFast {
		w.stop.Cancel()
	}
	return true
}

// replayedSizes computes the warm-path replays for Exhaustive: for every
// size whose proof block replays cleanly, the merged partial report; the
// returned set marks sizes the sweep must NOT enumerate. FailFast runs
// never replay (a cold FailFast sweep stops at the first counterexample
// with prefix-only counters; replaying full sizes would change the
// verdict's coverage shape).
func replayedSizes(g *graph.Graph, ref *store.GraphRef, sig uint64, k int, universe []int, opts Options, rep *Report) map[int]bool {
	replayed := make(map[int]bool)
	if opts.FailFast {
		return replayed
	}
	for size := 0; size <= k && size <= len(universe); size++ {
		total := combin.Binomial(len(universe), size)
		if local, ok := replayProof(g, ref, sig, size, total, opts); ok {
			merge(rep, local, opts.MaxRecorded)
			replayed[size] = true
		}
	}
	return replayed
}
