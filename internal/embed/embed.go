// Package embed finds pipelines in faulty solution graphs: given a graph G
// and a fault set F, it searches for a path in G \ F that starts at a
// healthy input terminal, ends at a healthy output terminal, and visits
// every healthy processor (the paper's definition of "G tolerates F", §2).
//
// Three engines are provided:
//
//   - a constructive planner for the §3.4 asymptotic family (planner.go):
//     O(n) for fixed k, search-free, it builds the paper's reconfiguration
//     (Theorem 3.17) and resolves ≥99.8% of random fault sets (experiment
//     P3);
//   - an exact Held–Karp dynamic program (exact.go), complete for up to
//     MaxDPProcessors healthy processors; used where nonexistence must be
//     decided (the search module, uniqueness proofs);
//   - a pruned backtracking search (backtrack.go), complete when given an
//     unlimited budget, with Warnsdorff ordering, forced-move and
//     degree/connectivity pruning.
//
// The Auto method runs them as one ladder, cheapest first: the planner
// (when a Layout is supplied), the DP for at most 18 healthy processors,
// a budget-capped backtracking probe, the DP up to MaxDPProcessors, and
// finally the full-budget backtracker.
//
// Every engine returns either a full pipeline (which callers re-validate
// with verify.CheckPipeline) or "not found"; the search engines can also
// report "unknown" when an explicit node budget is exhausted.
package embed

import (
	"encoding/binary"
	"fmt"
	"time"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
)

// MaxDPProcessors is the largest healthy-processor count the exact DP
// accepts (2^n masks are materialized).
const MaxDPProcessors = 22

// Method selects a solver engine.
type Method int

const (
	// Auto runs the staged ladder: the planner when a layout is supplied,
	// then DP for small instances, then Backtracking.
	Auto Method = iota
	// DP forces the exact Held–Karp dynamic program.
	DP
	// Backtracking forces the pruned DFS.
	Backtracking
)

// String returns the engine name.
func (m Method) String() string {
	switch m {
	case Auto:
		return "auto"
	case DP:
		return "dp"
	case Backtracking:
		return "backtracking"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Options configures a Solver.
type Options struct {
	// Method selects the engine (default Auto).
	Method Method
	// Layout enables the constructive planner (Auto's first tier) for
	// graphs built by construct.Asymptotic.
	Layout *construct.Layout
	// Budget bounds the number of DFS node expansions in the backtracking
	// engine; 0 means DefaultBudget. When the budget is exhausted the
	// result is Unknown = true rather than Found = false.
	Budget int64
	// Res is the ambient cancellation/budget token shared by every Find /
	// FindDelta call of this solver: cancel it and the search engines
	// return Unknown at their next expansion. nil = never stops. A
	// wall-clock bound is a token with a deadline, e.g. Scoped(nil, d).
	// The O(n) planner tier is not bounded — it finishes far below any
	// useful deadline.
	Res *Resources
	// Memo retains solved results across calls, keyed by the exact fault
	// set: a repeated fault set (chaos churn revisiting nearby
	// configurations, fault/repair cycles) returns the cached verdict and
	// a copy of the cached path without dispatching an engine. Definitive
	// results only — Unknown (budget/deadline) outcomes are never cached.
	// The cache survives remaps by design; call InvalidateCache when the
	// graph changes underneath the solver. Off by default.
	Memo bool
}

// memoCap bounds the number of results Options.Memo retains; reaching it
// clears the cache rather than evicting piecemeal.
const memoCap = 4096

// DefaultBudget is the backtracking node-expansion budget used when
// Options.Budget is 0. It is far above what any instance in the test and
// experiment suites requires; exhaustion indicates an adversarial instance
// and is reported as Unknown, never as refutation.
const DefaultBudget = 50_000_000

// Result reports the outcome of a pipeline search.
type Result struct {
	// Pipeline is the full terminal-to-terminal path when Found.
	Pipeline graph.Path
	// Found reports that a pipeline exists (and Pipeline holds one).
	Found bool
	// Unknown reports that the backtracking budget was exhausted before
	// the search space was covered; Found is false but nonexistence has
	// NOT been established.
	Unknown bool
	// Expansions counts DFS node expansions (backtracking) or DP
	// transitions (exact).
	Expansions int64
}

// TierStats counts which engine tier resolved each Find call — the
// ladder's division of labour, reported by the P1/P3 ablation
// experiments. Tiers are mutually exclusive per call.
type TierStats struct {
	// Planner counts calls solved by the constructive asymptotic planner.
	Planner int64 `json:"planner"`
	// Compressed is always zero: the run-compression tier it counted is
	// gone. The field stays because the benchmark's sweep report still
	// reads it.
	Compressed int64 `json:"compressed"`
	// Probe counts calls resolved by the cheap first-pass backtracking.
	Probe int64 `json:"probe"`
	// DP counts calls resolved by the exact Held–Karp engine.
	DP int64 `json:"dp"`
	// Full counts calls that needed the full-budget backtracking pass.
	Full int64 `json:"full"`
	// Trivial counts calls resolved before any engine ran (no healthy
	// terminals, single processor, …).
	Trivial int64 `json:"trivial"`
}

// Total returns the number of Find calls accounted for.
func (t TierStats) Total() int64 {
	return t.Planner + t.Probe + t.DP + t.Full + t.Trivial
}

// Add accumulates other into t (merging per-worker solver stats).
func (t *TierStats) Add(other TierStats) {
	t.Planner += other.Planner
	t.Probe += other.Probe
	t.DP += other.DP
	t.Full += other.Full
	t.Trivial += other.Trivial
}

// Sub returns t minus other, field by field. It turns two cumulative
// Solver.Stats snapshots into the per-interval delta — how a shard or
// chunk of work was resolved — without resetting the solver.
func (t TierStats) Sub(other TierStats) TierStats {
	return TierStats{
		Planner: t.Planner - other.Planner,
		Probe:   t.Probe - other.Probe,
		DP:      t.DP - other.DP,
		Full:    t.Full - other.Full,
		Trivial: t.Trivial - other.Trivial,
	}
}

// Solver finds pipelines in a fixed graph under varying fault sets. It
// reuses scratch buffers across calls; a Solver is NOT safe for concurrent
// use — create one per goroutine (they are cheap).
type Solver struct {
	g     *graph.Graph
	opts  Options
	stats TierStats

	// Scratch reused across calls.
	procs   []int // processor node ids
	procIdx []int // node id -> processor index, -1 otherwise
	healthy []int // healthy processor node ids, ascending
	dpTable []uint32
	bt      *backtracker
	chk     *graph.Checker // certifies the planner's paths; built on first use

	// Warm endpoint state for FindDelta: the healthy list and the
	// start/end candidate sets left behind by the previous call, valid for
	// exactly the fault set that call solved. FindDelta patches it from the
	// caller-supplied delta instead of rescanning every node.
	warmValid            bool
	warmStart, warmEnd   bitset.Set
	warmHits, warmMisses int64

	// Result memo (Options.Memo): definitive results keyed by the encoded
	// fault set. memoIDs/memoKey are reusable key-building scratch.
	memo                 map[string]memoEntry
	memoIDs              []int
	memoKey              []byte
	memoHits, memoMisses int64

	// Planner state (planner.go): the ring plans built for the last faulty
	// ring positions seen, and per-call scratch.
	rings       ringPlans
	planScratch plannerScratch

	// run is the token governing the current Find call (Options.Res).
	run *Resources

	// spanParent is the causal parent for per-call solve spans (SetSpan).
	spanParent *span.S

	reg        *obs.Registry
	findTime   *obs.Histogram  // wall time per Find call
	expansions *obs.Counter    // DFS node expansions / DP transitions
	tiers      [5]*obs.Counter // per-tier resolutions, same order as tierDeltas
	warmHit    *obs.Counter
	warmMiss   *obs.Counter
	memoHit    *obs.Counter
	memoMiss   *obs.Counter
	cancels    *obs.Counter // calls abandoned because the token stopped
}

// NewSolver returns a Solver for g.
func NewSolver(g *graph.Graph, opts Options) *Solver {
	s := &Solver{g: g, opts: opts}
	s.procs = g.Processors()
	s.procIdx = make([]int, g.NumNodes())
	for i := range s.procIdx {
		s.procIdx[i] = -1
	}
	for i, p := range s.procs {
		s.procIdx[p] = i
	}
	if s.opts.Budget == 0 {
		s.opts.Budget = DefaultBudget
	}
	s.warmStart = bitset.New(g.NumNodes())
	s.warmEnd = bitset.New(g.NumNodes())
	s.reg = obs.Default()
	s.findTime = s.reg.Histogram("embed_find_ns")
	s.expansions = s.reg.Counter("embed_expansions_total")
	for i, name := range tierNames {
		s.tiers[i] = s.reg.Counter("embed_tier_total", obs.L("tier", name))
	}
	s.warmHit = s.reg.Counter("embed_warm_total", obs.L("result", "hit"))
	s.warmMiss = s.reg.Counter("embed_warm_total", obs.L("result", "miss"))
	s.memoHit = s.reg.Counter("embed_memo_hit_total")
	s.memoMiss = s.reg.Counter("embed_memo_miss_total")
	s.cancels = s.reg.Counter("embed_cancel_total")
	return s
}

var tierNames = [5]string{"planner", "probe", "dp", "full", "trivial"}

// tierDeltas flattens a TierStats in the tierNames order.
func tierDeltas(t TierStats) [5]int64 {
	return [5]int64{t.Planner, t.Probe, t.DP, t.Full, t.Trivial}
}

// Stats returns cumulative per-tier resolution counts for this solver.
func (s *Solver) Stats() TierStats { return s.stats }

// Find searches for a pipeline in g \ faults. faults may be nil (no
// faults). The returned Result.Pipeline is freshly allocated. Find rebuilds
// the endpoint state from scratch (and leaves it warm for a subsequent
// FindDelta).
func (s *Solver) Find(faults bitset.Set) Result {
	return s.timed(faults, nil, nil, false)
}

// FindDelta is Find for a fault set that differs from the previous call's
// by a known delta: removed lists the node ids that left the fault set and
// added the ids that entered it, and faults must already reflect both. When
// the previous call left warm endpoint state (any Find or FindDelta does),
// only the changed nodes and their neighborhoods are rescanned — the win
// over Find on the exhaustive verifier's lexicographic walk, where
// consecutive fault sets share almost all members. With no warm state (the
// first call of a chunk) it falls back to the full rebuild.
//
// Passing a delta that does not match the previous fault set corrupts the
// endpoint state; callers own that invariant.
func (s *Solver) FindDelta(faults bitset.Set, removed, added []int) Result {
	return s.timed(faults, removed, added, true)
}

// Warm returns how many FindDelta calls reused warm endpoint state versus
// rebuilt it from scratch.
func (s *Solver) Warm() (hits, misses int64) { return s.warmHits, s.warmMisses }

// Memo returns how many calls were answered from the result memo versus
// solved (always (0, 0) unless Options.Memo is set).
func (s *Solver) Memo() (hits, misses int64) { return s.memoHits, s.memoMisses }

// InvalidateCache drops every piece of state derived from past solves:
// the FindDelta warm endpoint state, the planner's ring plans and
// certificate checker, and the Options.Memo result cache.
// Call it whenever the graph changes underneath the solver — cached
// verdicts and warm endpoint sets are only sound for the topology they
// were computed on.
func (s *Solver) InvalidateCache() {
	s.warmValid = false
	s.rings.built = 0
	s.chk = nil
	if s.memo != nil {
		clear(s.memo)
	}
}

// memoEntry is one cached definitive result. path is the solver-owned
// copy; hits hand out fresh copies (Result.Pipeline is documented as
// freshly allocated).
type memoEntry struct {
	found bool
	path  graph.Path
}

// memoKeyFor encodes the fault set into s.memoKey (reused scratch) as
// delta-encoded varints of the sorted node ids.
func (s *Solver) memoKeyFor(faults bitset.Set) []byte {
	s.memoIDs = faults.AppendTo(s.memoIDs[:0])
	key := s.memoKey[:0]
	prev := 0
	for _, id := range s.memoIDs {
		key = binary.AppendUvarint(key, uint64(id-prev))
		prev = id
	}
	s.memoKey = key
	return key
}

// memoLookup consults the result memo; on a hit the cached path is
// copied out. The built key stays in s.memoKey for a following memoStore.
func (s *Solver) memoLookup(faults bitset.Set) (Result, bool) {
	key := s.memoKeyFor(faults)
	e, hit := s.memo[string(key)] // no allocation: map lookup special case
	if !hit {
		s.memoMisses++
		s.memoMiss.Inc()
		return Result{}, false
	}
	s.memoHits++
	s.memoHit.Inc()
	res := Result{Found: e.found}
	if e.found {
		res.Pipeline = make(graph.Path, len(e.path))
		copy(res.Pipeline, e.path)
	}
	return res, true
}

// memoStore caches a definitive result under the key memoLookup built.
func (s *Solver) memoStore(res Result) {
	if s.memo == nil {
		s.memo = make(map[string]memoEntry)
	} else if len(s.memo) >= memoCap {
		clear(s.memo)
	}
	e := memoEntry{found: res.Found}
	if res.Found {
		e.path = make(graph.Path, len(res.Pipeline))
		copy(e.path, res.Pipeline)
	}
	s.memo[string(s.memoKey)] = e
}

// SetResources replaces the ambient cancellation/budget token for
// subsequent Find / FindDelta calls (see Options.Res). nil detaches.
func (s *Solver) SetResources(r *Resources) { s.opts.Res = r }

// Resources returns the ambient token (nil when unset).
func (s *Solver) Resources() *Resources { return s.opts.Res }

// SetSpan attaches the causal parent for subsequent Find / FindDelta
// calls: each call then records a "solve" child span carrying the
// resolving tier, warm-start reuse and expansions. nil detaches (solve
// spans become roots, or disappear entirely while the tracer is disabled).
func (s *Solver) SetSpan(sp *span.S) { s.spanParent = sp }

func (s *Solver) timed(faults bitset.Set, removed, added []int, delta bool) Result {
	observing := s.reg.Enabled()
	sp := span.Start(s.spanParent, "solve")
	if !observing && sp == nil {
		return s.find(faults, removed, added, delta)
	}
	start := time.Now()
	before := tierDeltas(s.stats)
	warmBefore := s.warmHits
	res := s.find(faults, removed, added, delta)
	if observing {
		s.findTime.ObserveSince(start)
		s.expansions.Add(res.Expansions)
	}
	tier := ""
	for i, after := range tierDeltas(s.stats) {
		if d := after - before[i]; d > 0 {
			if observing {
				s.tiers[i].Add(d)
			}
			tier = tierNames[i]
		}
	}
	if sp != nil {
		s.endSolveSpan(sp, res, tier, s.warmHits > warmBefore)
	}
	if slo := span.DefaultSLO(); slo.Enabled() {
		slo.Observe("solve", time.Since(start))
	}
	return res
}

// endSolveSpan finishes one per-call solve span with the tier, warm-start
// and cancellation-reason attributes.
func (s *Solver) endSolveSpan(sp *span.S, res Result, tier string, warm bool) {
	if tier != "" {
		sp.SetStr("tier", tier)
	}
	sp.SetInt("expansions", res.Expansions)
	if warm {
		sp.SetStr("warm", "hit")
	}
	status := span.OK
	switch {
	case res.Found:
		sp.SetStr("outcome", "found")
	case res.Unknown:
		sp.SetStr("outcome", "unknown")
		if stopped(s.run) {
			reason := s.run.Reason()
			sp.SetStr("cancel_reason", reason.String())
			if reason == StopDeadline {
				status = span.Deadline
			} else {
				status = span.Canceled
			}
		}
	default:
		sp.SetStr("outcome", "not_found")
	}
	sp.End(status)
}

func (s *Solver) find(faults bitset.Set, removed, added []int, delta bool) Result {
	s.run = s.opts.Res
	var ends endpoints
	var ok bool
	if delta && s.warmValid {
		s.warmHits++
		s.warmHit.Add(1)
		ends, ok = s.deltaEndpoints(faults, removed, added)
	} else {
		if delta {
			s.warmMisses++
			s.warmMiss.Add(1)
		}
		ends, ok = s.endpoints(faults)
	}
	s.warmValid = true
	// Consulted only after the endpoint state is patched: a memo hit must
	// leave the warm state exactly as a solved call would, so the next
	// FindDelta's delta still applies to it.
	if s.opts.Memo {
		if r, hit := s.memoLookup(faults); hit {
			return r
		}
	}
	res := s.solvePrepared(faults, ends, ok)
	if s.opts.Memo && !res.Unknown {
		s.memoStore(res)
	}
	return res
}

// solvePrepared runs the trivial cases and engine dispatch for a call
// whose endpoint state is already prepared (ok=false: no viable
// endpoints survive the fault set).
func (s *Solver) solvePrepared(faults bitset.Set, ends endpoints, ok bool) Result {
	if !ok {
		s.stats.Trivial++
		return Result{Found: false}
	}

	// Single-processor special case: the pipeline is i — p — o.
	if len(ends.healthyProcs) == 1 {
		s.stats.Trivial++
		p := ends.healthyProcs[0]
		ti, to := -1, -1
		for _, u := range s.g.Neighbors(p) {
			if faults != nil && faults.Contains(int(u)) {
				continue
			}
			switch s.g.Kind(int(u)) {
			case graph.InputTerminal:
				ti = int(u)
			case graph.OutputTerminal:
				to = int(u)
			}
		}
		if ti >= 0 && to >= 0 {
			return Result{Pipeline: graph.Path{ti, p, to}, Found: true}
		}
		return Result{Found: false}
	}

	res := s.dispatch(faults, ends)
	if res.Unknown && stopped(s.run) {
		// The call was abandoned by the token (cancel, deadline, or
		// budget), not by a genuine search-space exhaustion.
		s.cancels.Inc()
	}
	return res
}

// dispatch routes one prepared call to the selected engine.
func (s *Solver) dispatch(faults bitset.Set, ends endpoints) Result {
	switch s.opts.Method {
	case DP:
		return s.findDP(ends, s.run)
	case Backtracking:
		return s.findBacktrack(ends, s.opts.Budget, s.run)
	default: // Auto: the staged ladder, cheapest engine first.
		return s.ladder(faults, ends)
	}
}

// probeBudget is the cheap first-pass backtracking budget in the ladder;
// typical instances resolve within a few hundred expansions, so anything
// that exhausts it is handed to the exact DP when it fits, otherwise to a
// full-budget backtracking pass.
const probeBudget = 50_000

// ladder runs the engines in increasing-cost order. Its result is exact
// unless the final full-budget pass itself reports Unknown.
func (s *Solver) ladder(faults bitset.Set, e endpoints) Result {
	// The constructive planner is the cheapest applicable tier on the
	// asymptotic family: O(n), no search, and it covers almost every fault
	// set (experiment P3 measures the hit rate).
	if s.opts.Layout != nil {
		if planned := s.planAsymptotic(faults); planned != nil {
			s.stats.Planner++
			return Result{Pipeline: planned, Found: true}
		}
	}
	np := len(e.healthyProcs)
	if np <= 18 {
		s.stats.DP++
		return s.findDP(e, s.run)
	}
	pb := int64(probeBudget)
	if s.opts.Budget < pb {
		pb = s.opts.Budget
	}
	res := s.findBacktrack(e, pb, s.run)
	if !res.Unknown {
		s.stats.Probe++
		return res
	}
	if np <= MaxDPProcessors {
		s.stats.DP++
		return s.findDP(e, s.run)
	}
	s.stats.Full++
	return s.findBacktrack(e, s.opts.Budget, s.run)
}

// FindPipeline is the convenience form: it builds a throwaway solver with
// default options and returns the pipeline and whether one was found.
func FindPipeline(g *graph.Graph, faults bitset.Set) (graph.Path, bool) {
	r := NewSolver(g, Options{}).Find(faults)
	return r.Pipeline, r.Found
}

// endpoints holds the per-fault-set problem statement: the healthy
// processors and the processor-side endpoint candidates.
type endpoints struct {
	faults       bitset.Set
	healthyProcs []int      // node ids of healthy processors
	start, end   bitset.Set // over processor node ids: candidates adjacent to healthy terminals
}

// endpoints rebuilds the healthy-processor list and endpoint candidate sets
// from scratch into the solver's warm storage. It returns ok=false when no
// pipeline can exist for trivial reasons (no healthy input or output
// terminal connection) — but always populates the state fully first, so a
// later FindDelta can patch it regardless of how this call exited.
func (s *Solver) endpoints(faults bitset.Set) (endpoints, bool) {
	s.healthy = s.healthy[:0]
	s.warmStart.Clear()
	s.warmEnd.Clear()
	for _, p := range s.procs {
		if faults == nil || !faults.Contains(p) {
			s.healthy = append(s.healthy, p)
			s.refreshProc(p, faults)
		}
	}
	e := s.warmEndpoints(faults)
	return e, s.viable(e)
}

// deltaEndpoints patches the warm endpoint state: removed nodes left the
// fault set (became healthy), added nodes entered it. Only the changed
// nodes and, for terminals, their processor neighborhoods are rescanned.
func (s *Solver) deltaEndpoints(faults bitset.Set, removed, added []int) (endpoints, bool) {
	for _, v := range added {
		if s.procIdx[v] >= 0 {
			s.healthyRemove(v)
			s.warmStart.Remove(v)
			s.warmEnd.Remove(v)
		} else {
			s.refreshTerminalNeighbors(v, faults)
		}
	}
	for _, v := range removed {
		if s.procIdx[v] >= 0 {
			s.healthyInsert(v)
			s.refreshProc(v, faults)
		} else {
			s.refreshTerminalNeighbors(v, faults)
		}
	}
	e := s.warmEndpoints(faults)
	return e, s.viable(e)
}

func (s *Solver) warmEndpoints(faults bitset.Set) endpoints {
	return endpoints{faults: faults, healthyProcs: s.healthy, start: s.warmStart, end: s.warmEnd}
}

func (s *Solver) viable(e endpoints) bool {
	return len(e.healthyProcs) > 0 && !e.start.Empty() && !e.end.Empty()
}

// refreshProc recomputes the endpoint-candidate membership of the healthy
// processor p from its current terminal neighborhood.
func (s *Solver) refreshProc(p int, faults bitset.Set) {
	hasIn, hasOut := false, false
	for _, u := range s.g.Neighbors(p) {
		if faults != nil && faults.Contains(int(u)) {
			continue
		}
		switch s.g.Kind(int(u)) {
		case graph.InputTerminal:
			hasIn = true
		case graph.OutputTerminal:
			hasOut = true
		}
	}
	setMembership(s.warmStart, p, hasIn)
	setMembership(s.warmEnd, p, hasOut)
}

// refreshTerminalNeighbors recomputes membership for every healthy
// processor adjacent to the terminal t whose health just changed.
func (s *Solver) refreshTerminalNeighbors(t int, faults bitset.Set) {
	for _, u := range s.g.Neighbors(t) {
		p := int(u)
		if s.procIdx[p] >= 0 && (faults == nil || !faults.Contains(p)) {
			s.refreshProc(p, faults)
		}
	}
}

func setMembership(set bitset.Set, i int, in bool) {
	if in {
		set.Add(i)
	} else {
		set.Remove(i)
	}
}

// healthyInsert adds p to the ascending healthy-processor list.
func (s *Solver) healthyInsert(p int) {
	i := len(s.healthy)
	for i > 0 && s.healthy[i-1] > p {
		i--
	}
	if i < len(s.healthy) && s.healthy[i] == p {
		return
	}
	s.healthy = append(s.healthy, 0)
	copy(s.healthy[i+1:], s.healthy[i:])
	s.healthy[i] = p
}

// healthyRemove deletes p from the healthy-processor list.
func (s *Solver) healthyRemove(p int) {
	for i, v := range s.healthy {
		if v == p {
			s.healthy = append(s.healthy[:i], s.healthy[i+1:]...)
			return
		}
	}
}

// assemble wraps a processor path with a healthy input terminal at the
// front and a healthy output terminal at the back.
func (s *Solver) assemble(e endpoints, procPath []int) graph.Path {
	ti := s.healthyTerminal(procPath[0], graph.InputTerminal, e.faults)
	to := s.healthyTerminal(procPath[len(procPath)-1], graph.OutputTerminal, e.faults)
	out := make(graph.Path, 0, len(procPath)+2)
	out = append(out, ti)
	out = append(out, procPath...)
	out = append(out, to)
	return out
}

func (s *Solver) healthyTerminal(p int, kind graph.Kind, faults bitset.Set) int {
	for _, u := range s.g.Neighbors(p) {
		if s.g.Kind(int(u)) == kind && (faults == nil || !faults.Contains(int(u))) {
			return int(u)
		}
	}
	panic("embed: endpoint candidate lost its terminal")
}
