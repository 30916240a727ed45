package verify

import (
	"fmt"
	"time"

	"gdpn/internal/autom"
	"gdpn/internal/bitset"
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

// sig is the sweep signature the store files s's proof blocks under.
func (s *sweep) sig() uint64 {
	return s.ref.SweepSig(s.universe, s.k, s.ref.GroupSig(s.group))
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
		wk:      newWorker(s.g, s.opts, s.universe),
		sub:     make([]int, s.k),
		scratch: make([]int, s.k),
	}
}

// ShardRunner verifies successive Shards of one instance in one
// goroutine, reusing one worker so the solver's ring plans and
// Options.Memo cache, and the worker's path buffer, survive across
// shards. It is the one sweep loop: Exhaustive runs one per worker over
// work-stealing deques of shards, and a fleet worker runs one over leased
// shards and uploads each shard's proof-block entries. Not safe for
// concurrent use: create one runner per goroutine.
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
// in-flight shards, whose reports come back marked Interrupted. The
// runner keeps the proof-block entries of the sets it decides for
// TakeEntries. Call Close when done to release the cancellation tokens.
func NewShardRunner(g *graph.Graph, k int, opts Options) *ShardRunner {
	opts.Store = nil
	r := newSweep(g, k, opts).runner(0)
	r.collect()
	return r
}

// collect makes the runner keep the proof-block entries of the sets it
// decides, by size.
func (r *ShardRunner) collect() {
	r.wk.blocks = make([]store.ProofEntries, r.s.k+1)
	for i := range r.wk.blocks {
		r.wk.blocks[i] = store.NewProofEntries(r.s.g.NumNodes())
	}
}

// TakeEntries returns the proof-block entries, in the graph's own node
// ids, of the sets of the given size decided since the last call, and
// forgets them: after a Run of one shard with no unknown and no solver
// bug, the entries of that shard's block (store.ParseProofEntries).
func (r *ShardRunner) TakeEntries(size int) []byte {
	b := r.wk.blocks[size].Bytes()
	r.wk.blocks[size] = store.NewProofEntries(r.s.g.NumNodes())
	return b
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

// ShardProof is the proof block of one shard that passed the block part
// of a replay, with the report the replay derives from it.
type ShardProof struct {
	Shard  Shard
	Report *Report
	block  *blockProof
}

// ShardChecker checks proof blocks of one instance's shards, as a fleet
// coordinator needs: the block part of a replay on each shard's block,
// filing the blocks that pass in the store, and the size part once every
// shard of a size is proven. It runs the replay code of Replay and of a
// warm Exhaustive. Safe for concurrent use.
type ShardChecker struct {
	s   *sweep
	sig uint64
}

// NewShardChecker builds the checker of Design instance g at tolerance
// k, with options read as by Exhaustive: Store, when set, is where proofs
// are filed and found. It fails when the instance's orbits cannot be
// checked: a group with too many elements to list.
func NewShardChecker(g *graph.Graph, k int, opts Options) (*ShardChecker, error) {
	opts.Workers = 1 // a check runs on its caller's goroutine
	s := newSweep(g, k, opts)
	if s.orbit == nil {
		s.orbit = newOrbitTester(nil, s.universe, g.NumNodes())
	}
	if s.orbit.images == nil {
		s.orbit.buildImages(len(s.universe))
	}
	if s.orbit.order == 0 {
		s.release()
		return nil, fmt.Errorf("verify: %s: the group has more than %d elements, so proof blocks cannot be checked under it; sweep without symmetry", g.Name(), maxOrbitPerms)
	}
	c := &ShardChecker{s: s}
	if s.ref != nil {
		c.sig = s.sig()
	}
	return c, nil
}

// Check replays the proof-block entries a worker uploaded for sh
// (ShardRunner.TakeEntries) through the block part of a replay, and files
// the block in the store when it passes; the caller flushes. Each
// negative entry that the cheap necessary conditions do not confirm is
// solved again: a pipeline there rejects the block. Its entries must also
// be distinct. A rejected block gets a record of why.
func (c *ShardChecker) Check(sh Shard, entries []byte) (*ShardProof, *FaultSetRecord) {
	s := c.s
	e, ok := store.ParseProofEntries(entries, s.g.NumNodes(), sh.Size)
	if !ok {
		return nil, replayFault(sh.Size, nil, -1, "entries do not decode")
	}
	var solver *embed.Solver
	confirm := func(faults bitset.Set) bool {
		if solver == nil {
			solver = embed.NewSolver(s.g, s.opts.Solver)
		}
		res := solver.Find(faults)
		return !res.Found || CheckPipeline(s.g, faults, res.Pipeline) != nil
	}
	p, fault := c.proof(sh, e.Block(sh.Size, sh.From, sh.To), confirm)
	if p != nil && s.ref != nil {
		s.ref.PutProof(c.sig, sh.Size, sh.From, sh.To, []store.ProofEntries{e})
	}
	return p, fault
}

// proof runs the block part of a replay on blk, the block of sh, and
// checks that its entries are distinct.
func (c *ShardChecker) proof(sh Shard, blk *store.ProofBlock, confirm func(bitset.Set) bool) (*ShardProof, *FaultSetRecord) {
	bp := c.s.replayBlock(blk, sh.Size, confirm)
	if bp.fault == nil && bp.distinct != bp.rep.Checked {
		bp.fault = replayFault(sh.Size, nil, -1, fmt.Sprintf("%d entries, %d distinct", bp.rep.Checked, bp.distinct))
	}
	if bp.fault != nil {
		return nil, bp.fault
	}
	return &ShardProof{Shard: sh, Report: bp.rep, block: bp}, nil
}

// Stored replays, for each shard, the stored proof block whose range is
// exactly the shard's through the block part of a replay. A shard without
// one, or whose block fails, gets nil.
func (c *ShardChecker) Stored(shards []Shard) []*ShardProof {
	out := make([]*ShardProof, len(shards))
	if c.s.ref == nil {
		return out
	}
	type rng struct{ from, to int64 }
	bySize := map[int]map[rng]*store.ProofBlock{}
	for i, sh := range shards {
		blocks, ok := bySize[sh.Size]
		if !ok {
			blocks = map[rng]*store.ProofBlock{}
			total := combin.Binomial(len(c.s.universe), sh.Size)
			for _, blk := range c.s.ref.LookupProofs(c.sig, sh.Size, total) {
				from, to := blk.Range()
				blocks[rng{from, to}] = blk
			}
			bySize[sh.Size] = blocks
		}
		if blk := blocks[rng{sh.From, sh.To}]; blk != nil {
			out[i], _ = c.proof(sh, blk, nil)
		}
	}
	return out
}

// Cover runs the size part of a replay on the proofs of every shard of
// one size, sorted by range. It returns nil when they prove the size,
// else a record of why and the rank of the first set in no entry's
// orbit, or -1 when it names none.
func (c *ShardChecker) Cover(proofs []*ShardProof) (*FaultSetRecord, int64) {
	blocks := make([]*blockProof, len(proofs))
	for i, p := range proofs {
		blocks[i] = p.block
	}
	return c.s.coverSize(proofs[0].Shard.Size, blocks)
}
