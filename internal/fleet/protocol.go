// Package fleet shards exhaustive GD(G, k) verification across many
// worker processes behind an HTTP coordinator, with heartbeat-driven
// lease recovery, and the proof store as its one record of progress.
//
// A worker verifies a leased chunk, one rank range of one fault-set
// size, and uploads its report with the chunk's proof-block entries:
// each orbit representative it decided, with its witness pipeline. The
// coordinator checks the block with the replay code of gdpverify -replay
// (verify.ShardChecker): every witness must pass its certificate, every
// negative must be confirmed by the cheap necessary conditions or by the
// coordinator's own solver, and every set must be the least of its orbit
// and lie in the chunk's range. A block that passes is filed in the
// store, and the report the replay derives from it is merged; one that
// fails is rejected and its chunk re-leased. Once every chunk of a size
// is filed, the size part of the replay checks that their blocks cover
// every orbit of the size. So no chunk is solved twice, and a finished
// fleet leaves a store that gdpverify -replay proves from with no solver.
//
// Soundness never depends on worker liveness: a dead or straggling
// worker's lease expires and its chunk re-leases, and the final report
// merges exactly one checked report per chunk, so worker death,
// duplicate completion and out-of-order arrival all leave the verdict
// byte-identical to a single-process run. A chunk whose report holds
// unknowns or solver bugs files no block and is merged from its report:
// it can leave the verdict unproven, never wrong. A restarted coordinator
// replays each chunk's block from the store and leases only the rest.
//
// Protocol (bodies JSON, but for the entries /v1/complete appends):
//
//	GET  /v1/job        → JobResponse   the instance workers must build
//	POST /v1/lease      → LeaseResponse a chunk lease (or wait/done)
//	POST /v1/complete   → CompleteResponse submit one chunk's report and block entries
//	POST /v1/heartbeat  → HeartbeatResponse renew this worker's leases
//	GET  /v1/status     → Status        live sweep accounting
package fleet

import (
	"fmt"

	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/verify"
)

// JobSpec pins the verification instance every participant must agree
// on. The coordinator serves it at /v1/job; workers rebuild the graph
// from it (Design is deterministic) rather than shipping the graph over
// the wire.
type JobSpec struct {
	// N and K are the construct.Design arguments.
	N int `json:"n"`
	K int `json:"k"`
	// Merge selects the merged-terminal model (processor faults only),
	// mirroring gdpverify -merge.
	Merge bool `json:"merge,omitempty"`
	// Symmetry enables orbit-reduced enumeration. The orbit test is
	// deterministic, so every worker prunes the same representatives.
	Symmetry bool `json:"symmetry,omitempty"`
	// ChunkRanks bounds the ranks per chunk (0 = verify.DefaultShardRanks).
	ChunkRanks int64 `json:"chunk_ranks"`
}

func (s JobSpec) withDefaults() JobSpec {
	if s.ChunkRanks <= 0 {
		s.ChunkRanks = verify.DefaultShardRanks
	}
	return s
}

// Build constructs the instance the spec describes: the graph to verify
// and the verify.Options a worker (or the coordinator, for shard
// enumeration) derives from it. The result is deterministic in the spec.
func (s JobSpec) Build() (*Instance, error) {
	sol, err := construct.Design(s.N, s.K)
	if err != nil {
		return nil, fmt.Errorf("fleet: build instance: %w", err)
	}
	g := sol.Graph
	opts := verify.Options{
		Solver:          embed.Options{Layout: sol.Layout},
		ExploitSymmetry: s.Symmetry,
	}
	if s.Merge {
		g = construct.Merge(g)
		opts.Universe = verify.ProcessorsOnly
		opts.Solver = embed.Options{}
	}
	return &Instance{Graph: g, Opts: opts}, nil
}

// Instance is a built JobSpec: the graph plus the verification options
// every participant uses, so fleet verdicts are comparable to
// single-process gdpverify runs of the same flags.
type Instance struct {
	Graph *graph.Graph
	Opts  verify.Options
}

// JobResponse is the /v1/job payload.
type JobResponse struct {
	Spec JobSpec `json:"spec"`
	// LeaseTTLMS is the coordinator's lease duration; workers heartbeat
	// at a third of it.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// LeaseRequest asks for one chunk lease.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseResponse grants a chunk, asks the worker to poll again, or ends
// the worker's run.
type LeaseResponse struct {
	// Done: the sweep is complete (or aborted); the worker should exit.
	Done bool `json:"done,omitempty"`
	// Wait: nothing leasable right now (all remaining chunks are leased);
	// poll again shortly.
	Wait bool `json:"wait,omitempty"`
	// ChunkID identifies the granted chunk in Complete calls.
	ChunkID int `json:"chunk_id"`
	// Shard is the rank range to verify.
	Shard verify.Shard `json:"shard"`
}

// CompleteRequest submits one chunk's partial report and, unless the
// report holds unknowns or solver bugs, the proof-block entries of the
// chunk (verify.ShardRunner.TakeEntries) as one byte string. Its body is
// the request as one line of JSON, then the entries, raw: a G(26,5), k=5
// sweep uploads ~19 MB of them, which JSON would carry as base64 and scan
// byte by byte.
type CompleteRequest struct {
	WorkerID string         `json:"worker_id"`
	ChunkID  int            `json:"chunk_id"`
	Report   *verify.Report `json:"report"`
	Entries  []byte         `json:"-"`
}

// CompleteResponse acknowledges a submission. Accepted is false when the
// report arrived too late (the chunk is already done), was interrupted,
// or its block failed the coordinator's check — either way the worker
// just moves on.
type CompleteResponse struct {
	Accepted bool `json:"accepted"`
}

// HeartbeatRequest renews the worker's leases on the listed chunks.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	ChunkIDs []int  `json:"chunk_ids,omitempty"`
}

// HeartbeatResponse lists chunks the worker believed it held but the
// coordinator no longer credits to it (lease expired and re-leased, or
// the chunk is done). Purely informational: a stale worker's eventual
// Complete is simply not Accepted.
type HeartbeatResponse struct {
	Lost []int `json:"lost,omitempty"`
}

// Status is the live sweep accounting served at /v1/status and embedded
// in gdpfleet's final JSON output.
type Status struct {
	Done            bool `json:"done"`
	Resumed         bool `json:"resumed"`
	ChunksTotal     int  `json:"chunks_total"`
	ChunksCompleted int  `json:"chunks_completed"`
	// ChunksFromStore counts chunks proven by a proof block in the store
	// at startup — done without any lease.
	ChunksFromStore int   `json:"chunks_from_store,omitempty"`
	ChunksLeased    int   `json:"chunks_leased"`
	Leases          int64 `json:"leases"`
	// Releases counts leases reclaimed from dead or straggling workers
	// and made available again.
	Releases int64 `json:"releases"`
	// ChunksRejected counts chunk results that failed the coordinator's
	// check, each then re-leased.
	ChunksRejected int64 `json:"chunks_rejected"`
	WorkersLive    int   `json:"workers_live"`
	WorkersSeen    int   `json:"workers_seen"`
}

// Result is the finished sweep: the merged report plus the fleet-level
// accounting the CI gauntlets assert on.
type Result struct {
	Report *verify.Report `json:"report"`
	// Resumed: the coordinator found chunks proven in its store at
	// startup rather than starting a fresh enumeration.
	Resumed         bool  `json:"resumed"`
	ChunksTotal     int   `json:"chunks_total"`
	ChunksCompleted int   `json:"chunks_completed"`
	ChunksFromStore int   `json:"chunks_from_store,omitempty"`
	Leases          int64 `json:"leases"`
	Releases        int64 `json:"releases"`
	ChunksRejected  int64 `json:"chunks_rejected"`
	// Rejected says why chunk results were rejected, the first ones up
	// to the report's record cap. They are not in Report: a rejected
	// chunk was re-leased and proven again.
	Rejected    []verify.FaultSetRecord `json:"rejected,omitempty"`
	WorkersSeen int                     `json:"workers_seen"`
}
