// Package verify decides whether a graph is k-gracefully-degradable and
// checks the paper's optimality conditions.
//
// The central entry points are:
//
//   - CheckPipeline — an O(|path|) certificate check that a returned path
//     really is a pipeline for the given fault set; every solver result in
//     the repository is re-validated through it, so solver bugs can cause
//     false "not degradable" reports but never false "degradable" ones;
//   - Exhaustive — enumerates every fault set of size ≤ k (in parallel,
//     with fine-grained rank chunks balanced by work stealing) and searches
//     each; a clean report is a machine proof of GD(G, k) for that
//     instance. With Options.ExploitSymmetry only one representative per
//     automorphism orbit is solved — fault sets related by a certified
//     automorphism are tolerated or not together, so the reduced run is
//     still a machine proof, and the Report carries both the solver-call
//     count (Checked) and the covered total (Represented);
//   - Random — samples fault sets uniformly for instances whose fault-set
//     space is too large to enumerate;
//   - the optimality checkers in optimality.go, which encode the paper's
//     lower bounds (Lemmas 3.1, 3.4, 3.5, 3.11, 3.14, Corollary 3.10).
package verify

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"gdpn/internal/autom"
	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/store"
)

// FaultUniverse selects which nodes may fail.
type FaultUniverse int

const (
	// AllNodes is the paper's primary model: processors AND terminals fail.
	AllNodes FaultUniverse = iota
	// ProcessorsOnly is the merged-terminal model of §3, where the single
	// input and output nodes are assumed fault-free.
	ProcessorsOnly
)

// Options configures a verification run.
type Options struct {
	// Workers is the number of goroutines (default GOMAXPROCS).
	Workers int
	// Solver configures the per-worker embedding solver.
	Solver embed.Options
	// Universe selects the fault model (default AllNodes).
	Universe FaultUniverse
	// MaxRecorded caps how many failing fault sets are kept (default 16).
	MaxRecorded int
	// ExploitSymmetry makes Exhaustive solve only the lexicographically-
	// minimal representative of each automorphism orbit of fault sets. The
	// verdict is provably identical to the unreduced run; Checked then
	// counts solver calls and Represented the fault sets they cover.
	ExploitSymmetry bool
	// Group optionally supplies a precomputed automorphism group for
	// ExploitSymmetry. When nil, Exhaustive computes one (seeded with the
	// closed-form circulant reflection when Solver.Layout is set). Every
	// permutation used for pruning has passed autom's certificate check.
	Group *autom.Group
	// Context cancels the run: workers observe it through a shared
	// embed.Resources token (one atomic load between fault sets and per
	// solver expansion) and stop mid-chunk, including abandoning an
	// in-flight solve. The partial Report is returned with Interrupted set.
	// nil means the run cannot be canceled externally. When Solver.Res is
	// set it is used as the token parent instead and Context is ignored.
	Context context.Context
	// FailFast cancels the sweep at the first counterexample: every worker
	// abandons its remaining chunks (and its in-flight solve) as soon as one
	// failure is recorded. The report is then a disproof of GD(G, k) — with
	// possibly-incomplete coverage counters — rather than a full census.
	// Off by default: existing callers rely on complete enumeration.
	FailFast bool
	// Throttle inserts an artificial delay before each enumerated fault
	// set of Exhaustive and ShardRunner; it exists so fleet CI gauntlets
	// can pace a sweep slowly enough to kill workers and restart
	// coordinators mid-run. Zero (the default) means full speed.
	Throttle time.Duration
	// Store attaches the persistent content-addressed proof store to
	// Exhaustive, Replay and ShardChecker (ShardRunner and Random ignore
	// it). Exhaustive first replays each size from its proof blocks
	// (positive entries replay their pipeline certificate, negative ones
	// are re-screened by cheap necessary conditions, and the blocks must
	// cover their size — see storecache.go); it solves the other sizes and
	// files one block for each size whose every set it decided. Without
	// ExploitSymmetry the blocks are filed under the identity group. The
	// caller owns the store's lifecycle (Flush/Close). nil disables the
	// store.
	Store *store.Store
}

// FaultSetRecord describes one fault set with an abnormal outcome.
type FaultSetRecord struct {
	Nodes []int  `json:"nodes"`
	Err   string `json:"err"`
}

// Report aggregates a verification run.
type Report struct {
	GraphName string `json:"graph_name"`
	K         int    `json:"k"`
	// Checked counts fault sets the solver actually ran on. Without
	// symmetry reduction it equals Represented.
	Checked int64 `json:"checked"`
	// Represented counts fault sets covered by the run: every enumerated
	// set, including those skipped as non-minimal in their orbit. A clean
	// report proves toleration of all of them.
	Represented int64 `json:"represented"`
	// Steals counts work-stealing events: chunks a worker took from
	// another worker's deque after draining its own.
	Steals int64 `json:"steals,omitempty"`
	// Failures are fault sets with NO pipeline: counterexamples to GD(G,k).
	Failures []FaultSetRecord `json:"failures,omitempty"`
	// FailureCount counts all failures, including unrecorded ones.
	FailureCount int64 `json:"failure_count"`
	// Unknowns are fault sets on which the solver exhausted its budget.
	Unknowns     []FaultSetRecord `json:"unknowns,omitempty"`
	UnknownCount int64            `json:"unknown_count"`
	// SolverBugs are fault sets where a solver returned an invalid
	// pipeline (should be impossible; recorded rather than trusted).
	SolverBugs []FaultSetRecord `json:"solver_bugs,omitempty"`
	Duration   time.Duration    `json:"duration_ns"`
	// Interrupted reports that the run was stopped by external cancellation
	// (Options.Context or the caller's Resources token) before the sweep
	// finished; the counters cover only the prefix that completed. A
	// FailFast short-circuit does NOT set it — that run ended with a
	// definitive disproof, not an interruption.
	Interrupted bool `json:"interrupted,omitempty"`
	// Tiers aggregates the per-worker solver tier statistics: which engine
	// resolved how many of the Checked fault sets.
	Tiers embed.TierStats `json:"tiers"`
}

// OK reports whether the run proves (exhaustive) or is consistent with
// (random) k-graceful degradability: no failures, no unknowns, no bugs —
// and, for an interrupted run, never: a clean prefix proves nothing.
func (r *Report) OK() bool {
	return !r.Interrupted && r.FailureCount == 0 && r.UnknownCount == 0 && len(r.SolverBugs) == 0
}

// String formats a one-line summary.
func (r *Report) String() string {
	status := "OK"
	if r.Interrupted {
		status = fmt.Sprintf("INTERRUPTED (%d failures, %d unknowns so far)",
			r.FailureCount, r.UnknownCount)
	} else if !r.OK() {
		status = fmt.Sprintf("FAILED (%d failures, %d unknowns, %d solver bugs)",
			r.FailureCount, r.UnknownCount, len(r.SolverBugs))
	}
	sym := ""
	if r.Represented > r.Checked {
		sym = fmt.Sprintf(" (representing %d, %.1f× orbit reduction)",
			r.Represented, float64(r.Represented)/float64(r.Checked))
	}
	return fmt.Sprintf("%s k=%d: %d fault sets%s in %v: %s",
		r.GraphName, r.K, r.Checked, sym, r.Duration.Round(time.Millisecond), status)
}

// VerdictSummary renders the canonical verdict of a run: every field that
// the verification decides (counts, status, recorded counterexamples) and
// none that scheduling decides (duration, steals, tier split). Two runs of
// the same instance — single-process, work-stealing, or sharded across a
// fleet with workers dying mid-sweep — produce byte-identical summaries,
// which is what the CI fleet gauntlet diffs.
func (r *Report) VerdictSummary() string {
	status := "OK"
	switch {
	case r.Interrupted:
		status = "INTERRUPTED"
	case !r.OK():
		status = "FAILED"
	}
	s := fmt.Sprintf("%s k=%d checked=%d represented=%d failures=%d unknowns=%d solver_bugs=%d %s",
		r.GraphName, r.K, r.Checked, r.Represented, r.FailureCount, r.UnknownCount, len(r.SolverBugs), status)
	for _, f := range r.Failures {
		s += fmt.Sprintf("\ncounterexample %v: %s", f.Nodes, f.Err)
	}
	return s
}

// CheckPipeline verifies that path is a pipeline in g \ faults per the
// paper's definition (§2): a path whose endpoints are a healthy input
// terminal and a healthy output terminal (in either order) and whose
// interior is exactly the set of ALL healthy processors. A nil error is a
// complete certificate. It is graph.Checker.Pipeline for one check; a
// loop that checks many paths keeps its own graph.Checker instead.
func CheckPipeline(g *graph.Graph, faults bitset.Set, path graph.Path) error {
	return graph.CheckPipeline(g, faults, path)
}

// Tolerates reports whether g tolerates the specific fault set: a pipeline
// exists in g \ faults. The returned pipeline (if any) is certificate-checked.
func Tolerates(g *graph.Graph, faults bitset.Set, opts embed.Options) (graph.Path, bool, error) {
	r := embed.NewSolver(g, opts).Find(faults)
	if r.Unknown {
		return nil, false, fmt.Errorf("solver budget exhausted")
	}
	if !r.Found {
		return nil, false, nil
	}
	if err := CheckPipeline(g, faults, r.Pipeline); err != nil {
		return nil, false, fmt.Errorf("solver returned invalid pipeline: %w", err)
	}
	return r.Pipeline, true, nil
}

// chunksPerWorker sets the chunking granularity of the rank space: each
// worker's deque starts with about this many chunks per subset size, small
// enough that non-uniform solve cost (fault sets near the degradability
// boundary are far slower than easy ones) is rebalanced by stealing.
const chunksPerWorker = 16

// Exhaustive checks every fault set of size ≤ k over the configured fault
// universe. A Report with OK() == true is a machine proof of GD(G, k) —
// with Options.ExploitSymmetry the proof covers all Represented sets while
// running the solver only on Checked orbit representatives.
func Exhaustive(g *graph.Graph, k int, opts Options) *Report {
	start := time.Now()
	s := newSweep(g, k, opts)
	defer s.release()
	opts = s.opts
	universe := s.universe
	rep := &Report{GraphName: g.Name(), K: k}

	// Warm path: replay whole size classes from the store's proof blocks
	// (a block records orbit representatives decided under a specific
	// group signature; never under FailFast).
	replayed := map[int]bool{}
	if s.ref != nil && !opts.FailFast {
		replayed, _ = s.replaySizes(rep)
	}

	// Fine-grained shards, dealt round-robin onto per-worker deques. The
	// owner pops from the tail (staying on its lexicographic walk, so
	// consecutive sets share their faulty ring positions and the planner
	// reuses its ring plans); idle workers steal from the head of a
	// victim's deque. shards counts each size's shards.
	deques := make([]*stealQueue, opts.Workers)
	for i := range deques {
		deques[i] = &stealQueue{}
	}
	shards := make([]int, k+1)
	next := 0
	for size := 0; size <= k && size <= len(universe); size++ {
		if replayed[size] {
			continue
		}
		total := combin.Binomial(len(universe), size)
		per := total/int64(opts.Workers*chunksPerWorker) + 1
		for from := int64(0); from < total; from += per {
			deques[next%opts.Workers].push(Shard{size, from, min(from+per, total)})
			shards[size]++
			next++
		}
	}
	// Only blocks that replayProof can check are worth collecting.
	collect := s.ref != nil && !opts.FailFast && s.orbit.order > 0

	// No more runners than shards: a warm proof that replayed every size
	// builds no solver. Runners steal from the deques without one.
	workers := min(opts.Workers, next)
	runners := make([]*ShardRunner, workers)
	partials := make([]*Report, workers)
	// clean[w][size] counts the shards of size worker w ran to their end
	// with no unknown and no solver bug.
	clean := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range runners {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r, part, done := s.runner(w), &Report{}, make([]int, k+1)
			if collect {
				// Each worker encodes the proof-block entries of the
				// representatives it decides, by size.
				r.collect()
			}
			// A stopped sweep (ctx cancel or another worker's FailFast hit)
			// abandons the remaining shards, including any stolen ones.
			for !r.Stopped() {
				sh, ok := deques[w].popTail()
				if !ok {
					if sh, ok = stealFrom(deques, w); !ok {
						break
					}
					part.Steals++
				}
				srep := r.Run(sh)
				if !srep.Interrupted && srep.UnknownCount == 0 && len(srep.SolverBugs) == 0 {
					done[sh.Size]++
				}
				merge(part, srep, opts.MaxRecorded)
			}
			runners[w], partials[w], clean[w] = r, part, done
		}(w)
	}
	wg.Wait()
	for _, p := range partials {
		merge(rep, p, opts.MaxRecorded)
	}
	// A FailFast stop marks its shard's partial interrupted, but the run
	// ended in a disproof: only an external stop is an interruption.
	rep.Interrupted = s.root.Stopped()
	rep.Duration = time.Since(start)

	// A size whose every shard ran to its end with no unknown and no
	// solver bug files its proof block: the workers' entries are then
	// exactly the size's orbit representatives, each decided. This holds
	// even when the sweep was interrupted or another size was not clean.
	if collect {
		sig := s.sig()
		for size, n := range shards {
			ran := 0
			for _, done := range clean {
				ran += done[size]
			}
			if n == 0 || ran != n {
				continue
			}
			parts := make([]store.ProofEntries, len(runners))
			for i, r := range runners {
				parts[i] = r.wk.blocks[size]
			}
			s.ref.PutProof(sig, size, 0, combin.Binomial(len(universe), size), parts)
		}
	}

	if reg := obs.Default(); reg.Enabled() {
		if opts.ExploitSymmetry {
			reg.Counter("verify_orbit_total", obs.L("result", "rep")).Add(rep.Checked)
			reg.Counter("verify_orbit_total", obs.L("result", "pruned")).Add(rep.Represented - rep.Checked)
		}
		reg.Counter("verify_steals_total").Add(rep.Steals)
	}
	return rep
}

// runTokens builds the two-level token pair governing a verification run.
// The root is a child of the caller's Solver.Res when one is supplied
// (Context is then ignored — the caller's token already carries it),
// otherwise a fresh root watching Options.Context. The sweep token is what
// workers actually hold: FailFast cancels only the sweep, so an external
// stop is distinguishable as root.Stopped().
func runTokens(opts Options) (root, sweep *embed.Resources) {
	if opts.Solver.Res != nil {
		root = opts.Solver.Res.Child()
	} else {
		root = embed.NewResources(opts.Context, 0, 0)
	}
	return root, root.Child()
}

// stealQueue is one worker's deque of shards. The owner pops from the
// tail; thieves steal from the head, taking the shard farthest from where
// the owner is working.
type stealQueue struct {
	mu     sync.Mutex
	shards []Shard
}

func (q *stealQueue) push(sh Shard) {
	q.shards = append(q.shards, sh)
}

func (q *stealQueue) popTail() (Shard, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.shards)
	if n == 0 {
		return Shard{}, false
	}
	sh := q.shards[n-1]
	q.shards = q.shards[:n-1]
	return sh, true
}

func (q *stealQueue) stealHead() (Shard, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.shards) == 0 {
		return Shard{}, false
	}
	sh := q.shards[0]
	q.shards = q.shards[1:]
	return sh, true
}

// stealFrom scans the other deques once, starting after self. Shards never
// spawn more shards, so a full empty scan means the run is complete.
func stealFrom(deques []*stealQueue, self int) (Shard, bool) {
	for i := 1; i <= len(deques); i++ {
		if sh, ok := deques[(self+i)%len(deques)].stealHead(); ok {
			return sh, true
		}
	}
	return Shard{}, false
}

// orbitTester holds the automorphism permutations projected onto
// universe-index space, for the min-in-orbit representative test. It is
// immutable after construction and shared by all workers.
type orbitTester struct {
	perms [][]int32
	// idx maps a node id to its universe index, -1 outside the universe.
	idx []int32
	// order is the order of the group keeping the universe when perms are
	// all its elements that move a universe node, 0 if only generators.
	order int
	// images[x] holds, for each of perms in turn, its image of universe
	// index x as a mask of words words; built only for a store's replay.
	images [][]uint64
	words  int
}

// maxOrbitPerms caps how many permutations isMinimal applies per fault set.
// When the materialized group is larger, the generator set plus inverses is
// used instead — a sound over-approximation that accepts extra
// representatives (never skips an orbit) at lower per-set cost.
const maxOrbitPerms = 1024

// newOrbitTester builds the tester of group, or of the identity group
// (no perms, order 1) when group is nil.
func newOrbitTester(group *autom.Group, universe []int, n int) *orbitTester {
	var perms []autom.Perm
	t := &orbitTester{}
	if group == nil {
		t.order = 1
	} else if elems, ok := group.Elements(); ok && len(elems) <= maxOrbitPerms {
		perms, t.order = elems, 1
	} else {
		for _, p := range group.Generators() {
			perms = append(perms, p, p.Inverse())
		}
	}
	idxOf := make([]int32, n)
	for i := range idxOf {
		idxOf[i] = -1
	}
	for i, v := range universe {
		idxOf[v] = int32(i)
	}
	t.idx = idxOf
	for _, p := range perms {
		q := make([]int32, len(universe))
		usable, ident := true, true
		for i, v := range universe {
			u := idxOf[p.Map[v]]
			if u < 0 {
				// The permutation moves a universe node outside the
				// universe; it cannot be used for pruning (dropping it is
				// sound — orbits just split finer).
				usable = false
				break
			}
			q[i] = u
			if int(u) != i {
				ident = false
			}
		}
		if usable && t.order > 0 {
			t.order++
		}
		if usable && !ident {
			t.perms = append(t.perms, q)
		}
	}
	return t
}

// isMinimal reports whether sub (ascending universe indices) is the
// lexicographically smallest element of its orbit under the tester's
// permutations. The true orbit minimum is never rejected — every applied
// permutation maps it to an equal-or-larger set — so accepting exactly the
// minimal sets covers every orbit. scratch must have capacity ≥ len(sub).
func (t *orbitTester) isMinimal(sub, scratch []int) bool {
	if len(sub) == 0 {
		return true
	}
	for _, q := range t.perms {
		if imageCmp(q, sub, scratch) < 0 {
			return false
		}
	}
	return true
}

// imageCmp maps sub through q, sorts the image (insertion into scratch),
// and compares it lexicographically with sub: -1, 0 or +1 as the image is
// smaller, equal or larger.
func imageCmp(q []int32, sub, scratch []int) int {
	img := scratch[:0]
	for _, x := range sub {
		v := int(q[x])
		i := len(img)
		img = append(img, 0)
		for i > 0 && img[i-1] > v {
			img[i] = img[i-1]
			i--
		}
		img[i] = v
	}
	for i := range sub {
		if img[i] != sub[i] {
			if img[i] < sub[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Random samples `trials` fault sets with sizes uniform in [0, k] and
// membership uniform among the universe. Deterministic per seed.
func Random(g *graph.Graph, k, trials int, seed int64, opts Options) *Report {
	fillDefaults(&opts)
	universe := universeNodes(g, opts.Universe)
	rep := &Report{GraphName: g.Name(), K: k}
	start := time.Now()

	root, sweep := runTokens(opts)
	defer root.Release()
	defer sweep.Release()
	opts.Solver.Res = sweep

	var wg sync.WaitGroup
	results := make(chan *Report, opts.Workers)
	per := (trials + opts.Workers - 1) / opts.Workers
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := newWorker(g, opts, universe)
			rng := rand.New(rand.NewSource(seed + int64(w)*1_000_003))
			buf := make([]int, 0, k)
			// Worker w owns trials [w·per, min((w+1)·per, trials)): the
			// partition is exact for any trials/workers combination.
			n := per
			if rem := trials - w*per; rem < n {
				n = rem
			}
			for t := 0; t < n; t++ {
				size := min(rng.Intn(k+1), len(universe))
				buf = combin.RandomSubset(rng, len(universe), size, buf)
				if !wk.step(buf, nil, nil) {
					break
				}
			}
			wk.local.Tiers = wk.solver.Stats()
			results <- wk.local
		}(w)
	}
	wg.Wait()
	close(results)
	for local := range results {
		merge(rep, local, opts.MaxRecorded)
	}
	rep.Interrupted = root.Stopped()
	rep.Duration = time.Since(start)
	return rep
}

// worker is the per-goroutine verification state: a solver, the current
// fault bitset, and the node ids of the fault set it holds. Moving to the
// next fault set clears the previous set's ids from the bitset and adds
// the current set's, so a chunk jump, a steal or an orbit-pruning gap
// costs what a lexicographic step does. The solver is handed the bitset
// alone: its answer does not depend on the sets it solved before.
type worker struct {
	g        *graph.Graph
	solver   *embed.Solver
	chk      *graph.Checker // certifies every pipeline the solver hands back
	faults   bitset.Set
	universe []int
	local    *Report
	maxRec   int
	stop     *embed.Resources // the sweep token
	failFast bool

	cur  []int      // node ids of the current fault set, ascending
	path graph.Path // the solver builds each pipeline here

	// blocks, when non-nil, accumulates by size the proof-block entries
	// of the representatives this worker decides.
	blocks []store.ProofEntries
}

func newWorker(g *graph.Graph, opts Options, universe []int) *worker {
	return &worker{
		g:        g,
		solver:   embed.NewSolver(g, opts.Solver),
		chk:      graph.NewChecker(g),
		faults:   bitset.New(g.NumNodes()),
		universe: universe,
		local:    &Report{},
		maxRec:   opts.MaxRecorded,
		stop:     opts.Solver.Res,
		failFast: opts.FailFast,
	}
}

// step decides one enumerated fault set (ascending universe indices) into
// w.local: it is counted as represented, skipped when orbit rejects it as
// non-minimal, and solved otherwise. It returns false when the sweep token
// stopped before or during the set, which then stays uncounted; the caller
// must stop iterating. orbit may be nil (no symmetry reduction).
func (w *worker) step(sub, scratch []int, orbit *orbitTester) bool {
	if w.stop.Stopped() {
		return false
	}
	w.local.Represented++
	if orbit != nil && !orbit.isMinimal(sub, scratch) {
		return true
	}
	if !w.check(sub) {
		w.local.Represented--
		return false
	}
	return true
}

// check runs the solver on the fault set given by sub (ascending universe
// indices) and records the outcome. It returns false when the solve was
// abandoned because the stop token latched mid-call — the set reached no
// verdict and is uncounted; the caller must stop iterating.
func (w *worker) check(sub []int) bool {
	for _, v := range w.cur {
		w.faults.Remove(v)
	}
	w.cur = w.cur[:0]
	for _, idx := range sub {
		v := w.universe[idx]
		w.cur = append(w.cur, v)
		w.faults.Add(v)
	}

	w.local.Checked++
	res := w.solver.FindInto(w.faults, w.path)
	if res.Found {
		// Keep the buffer, grown if the solver had to: the pipeline is
		// certified and encoded below and not retained past this set.
		w.path = res.Pipeline
	}
	if res.Unknown && w.stop.Stopped() {
		// Canceled mid-solve: Unknown here means "abandoned", not "budget
		// exhausted" — the set is uncounted rather than misreported.
		w.local.Checked--
		return false
	}
	switch {
	case res.Unknown:
		w.local.UnknownCount++
		record(&w.local.Unknowns, w.universe, sub, "budget exhausted", w.maxRec)
		span.Trip(span.AnomalyBudget, fmt.Sprintf("verify: faults=%v budget exhausted", w.cur))
	case !res.Found:
		w.local.FailureCount++
		record(&w.local.Failures, w.universe, sub, "no pipeline", w.maxRec)
		if w.blocks != nil {
			w.blocks[len(sub)].Add(w.cur, nil)
		}
		if w.failFast {
			// First counterexample ends the sweep: every worker observes the
			// stopped token at its next fault set (or mid-solve expansion).
			w.stop.Cancel()
		}
	default:
		if err := w.chk.Pipeline(w.faults, res.Pipeline); err != nil {
			record(&w.local.SolverBugs, w.universe, sub, err.Error(), w.maxRec)
			span.Trip(span.AnomalySolverBug, fmt.Sprintf("verify: faults=%v: %v", w.cur, err))
		} else if w.blocks != nil {
			// Only certificate-checked pipelines enter a block: a stored
			// positive is always replayable.
			w.blocks[len(sub)].Add(w.cur, res.Pipeline)
		}
	}
	return true
}

func record(dst *[]FaultSetRecord, universe, sub []int, msg string, maxRec int) {
	if len(*dst) >= maxRec {
		return
	}
	*dst = append(*dst, FaultSetRecord{Nodes: nodesOf(universe, sub), Err: msg})
}

// nodesOf returns the node ids of the universe indices sub.
func nodesOf(universe, sub []int) []int {
	nodes := make([]int, len(sub))
	for i, idx := range sub {
		nodes[i] = universe[idx]
	}
	return nodes
}

// merge accumulates local into rep. It is commutative and associative:
// the counters are sums, Interrupted is an OR, and each record list keeps
// the canonically-smallest maxRec entries of the union — so partial
// reports arriving from remote workers in any order merge to the same
// final report. Duration is
// left to the caller: it is wall-clock, not a sum of partials.
func merge(rep, local *Report, maxRec int) {
	rep.Checked += local.Checked
	rep.Represented += local.Represented
	rep.Steals += local.Steals
	rep.FailureCount += local.FailureCount
	rep.UnknownCount += local.UnknownCount
	rep.Interrupted = rep.Interrupted || local.Interrupted
	rep.Tiers.Add(local.Tiers)
	rep.Failures = mergeRecords(rep.Failures, local.Failures, maxRec)
	rep.Unknowns = mergeRecords(rep.Unknowns, local.Unknowns, maxRec)
	rep.SolverBugs = mergeRecords(rep.SolverBugs, local.SolverBugs, maxRec)
}

// MergeReports accumulates src into dst exactly as a multi-worker run
// merges its per-worker partials. maxRec caps each record list (0 means
// the package default); the counters are never capped. The operation is
// commutative and associative, which is what lets the verification fleet
// merge out-of-order remote partials into a deterministic final report.
func MergeReports(dst, src *Report, maxRec int) {
	if maxRec <= 0 {
		maxRec = 16
	}
	merge(dst, src, maxRec)
}

// mergeRecords returns the canonically-smallest maxRec records of
// dst ∪ src. Keeping the minimum of the union (rather than the first
// maxRec seen) makes the cap order-independent.
func mergeRecords(dst, src []FaultSetRecord, maxRec int) []FaultSetRecord {
	if len(src) == 0 {
		return dst
	}
	dst = append(dst, src...)
	sort.SliceStable(dst, func(i, j int) bool { return recordLess(dst[i], dst[j]) })
	if len(dst) > maxRec {
		dst = dst[:maxRec]
	}
	return dst
}

// recordLess orders fault-set records canonically: by node sequence, then
// by length (a proper prefix sorts first), then by message.
func recordLess(a, b FaultSetRecord) bool {
	for i := 0; i < len(a.Nodes) && i < len(b.Nodes); i++ {
		if a.Nodes[i] != b.Nodes[i] {
			return a.Nodes[i] < b.Nodes[i]
		}
	}
	if len(a.Nodes) != len(b.Nodes) {
		return len(a.Nodes) < len(b.Nodes)
	}
	return a.Err < b.Err
}

func universeNodes(g *graph.Graph, u FaultUniverse) []int {
	if u == ProcessorsOnly {
		return g.Processors()
	}
	nodes := make([]int, g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

func fillDefaults(opts *Options) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxRecorded <= 0 {
		opts.MaxRecorded = 16
	}
}
