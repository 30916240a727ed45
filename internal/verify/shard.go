package verify

import (
	"time"

	"gdpn/internal/autom"
	"gdpn/internal/combin"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/obs/span"
	"gdpn/internal/store"
)

// Shard is one contiguous range [From, To) of lexicographic subset ranks
// at a single fault-set size — the unit of work the verification fleet
// distributes. Shards are pure coordinates: any process that agrees on
// the instance (graph, k, fault universe) can verify any shard, and the
// union of all shards of an instance is exactly the ≤k enumeration that
// Exhaustive walks.
type Shard struct {
	Size int   `json:"size"`
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// Ranks returns the number of subset ranks the shard covers.
func (s Shard) Ranks() int64 { return s.To - s.From }

// DefaultShardRanks is the Shards chunking granularity used when the
// caller passes ranksPer ≤ 0.
const DefaultShardRanks = 2048

// Shards partitions the full size-≤k enumeration over g's fault universe
// into shards of at most ranksPer ranks each, in canonical order (by
// size, then by rank). The partition is exact: every fault set of size
// ≤ k appears in exactly one shard.
func Shards(g *graph.Graph, k int, universe FaultUniverse, ranksPer int64) []Shard {
	if ranksPer <= 0 {
		ranksPer = DefaultShardRanks
	}
	nodes := universeNodes(g, universe)
	var out []Shard
	for size := 0; size <= k && size <= len(nodes); size++ {
		total := combin.Binomial(len(nodes), size)
		for from := int64(0); from < total; from += ranksPer {
			to := from + ranksPer
			if to > total {
				to = total
			}
			out = append(out, Shard{Size: size, From: from, To: to})
		}
	}
	return out
}

// sweep is the instance state shared by every ShardRunner of one run: the
// fault universe, the automorphism group and its orbit tester, the store
// reference, and the two-level stop token. Building it once per run keeps
// the group computation (and the store attach) out of the per-worker path.
type sweep struct {
	g        *graph.Graph
	k        int
	opts     Options // defaults filled; Solver.Res is the sweep token
	universe []int
	group    *autom.Group
	orbit    *orbitTester // nil with neither symmetry nor a store
	ref      *store.GraphRef
	// root latches external cancellation; its child tok (also
	// opts.Solver.Res) additionally latches FailFast, so root.Stopped()
	// alone means Interrupted.
	root, tok *embed.Resources
}

func newSweep(g *graph.Graph, k int, opts Options) *sweep {
	fillDefaults(&opts)
	root, tok := runTokens(opts)
	opts.Solver.Res = tok
	ref := attachStore(g, opts)
	s := &sweep{
		g:        g,
		k:        k,
		opts:     opts,
		universe: universeNodes(g, opts.Universe),
		group:    groupFor(g, opts, ref),
		ref:      ref,
		root:     root,
		tok:      tok,
	}
	// A store without symmetry files and replays blocks under the
	// identity group.
	if s.group != nil || ref != nil {
		s.orbit = newOrbitTester(s.group, s.universe, g.NumNodes())
	}
	if ref != nil {
		s.orbit.buildImages(len(s.universe))
	}
	return s
}

func (s *sweep) release() {
	s.tok.Release()
	s.root.Release()
}

// runner returns a new ShardRunner on s; id labels its sweep-chunk spans.
func (s *sweep) runner(id int) *ShardRunner {
	return &ShardRunner{
		s:       s,
		id:      id,
		wk:      newWorker(s.g, s.opts, s.universe, s.ref),
		sub:     make([]int, s.k),
		scratch: make([]int, s.k),
	}
}

// ShardRunner verifies successive Shards of one instance in one
// goroutine, reusing one worker so the solver's ring plans and
// Options.Memo cache, and the worker's path buffer, survive across shards. It is the one sweep loop:
// Exhaustive runs one per worker over work-stealing deques of shards, and
// a fleet worker runs one over leased shards. Not safe for concurrent
// use: create one runner per goroutine.
type ShardRunner struct {
	s       *sweep
	id      int
	wk      *worker
	prev    embed.TierStats
	sub     []int
	scratch []int
}

// NewShardRunner builds a runner for Design instance g at tolerance k.
// Options are interpreted exactly as by Exhaustive, but for Store, which
// a runner does not use; Options.Context (or Solver.Res) cancels
// in-flight shards, whose reports come back marked Interrupted. Call
// Close when done to release the cancellation tokens.
func NewShardRunner(g *graph.Graph, k int, opts Options) *ShardRunner {
	opts.Store = nil
	return newSweep(g, k, opts).runner(0)
}

// Run verifies one shard and returns its partial report. A report with
// Interrupted set means the run's token latched mid-shard: the shard
// reached no complete verdict and must be re-verified (its counters cover
// only a prefix). Partial reports from disjoint shards merge with
// MergeReports into exactly the report a single-process run produces.
func (r *ShardRunner) Run(sh Shard) *Report {
	s := r.s
	rep := &Report{GraphName: s.g.Name(), K: s.k}
	r.wk.local = rep
	start := time.Now()

	// One span per shard (coarse enough to trace full sweeps); per-set
	// solve spans nest under it when enabled.
	csp := span.Start(nil, "sweep-chunk")
	csp.SetInt("worker", int64(r.id)).SetInt("size", int64(sh.Size)).
		SetInt("from", sh.From).SetInt("ranks", sh.Ranks())
	r.wk.solver.SetSpan(csp)
	status := span.OK

	sub := r.sub[:sh.Size]
	if sh.Size > 0 {
		combin.Unrank(len(s.universe), sh.Size, sh.From, sub)
	}
	for rank := sh.From; rank < sh.To; rank++ {
		if rank > sh.From {
			combin.NextSubset(len(s.universe), sub)
		}
		if s.opts.Throttle > 0 {
			time.Sleep(s.opts.Throttle)
		}
		if !r.wk.step(sub, r.scratch, s.orbit) {
			rep.Interrupted = true
			status = span.Canceled
			break
		}
	}
	csp.End(status)
	r.wk.solver.SetSpan(nil)

	stats := r.wk.solver.Stats()
	rep.Tiers = stats.Sub(r.prev)
	r.prev = stats
	rep.Duration = time.Since(start)
	return rep
}

// Stopped reports whether the runner's cancellation token has latched;
// subsequent Run calls would return immediately-interrupted reports.
func (r *ShardRunner) Stopped() bool { return r.s.tok.Stopped() }

// Close releases the runner's cancellation tokens. The runner must not be
// used afterwards.
func (r *ShardRunner) Close() { r.s.release() }
