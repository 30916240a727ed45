package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/store"
	"gdpn/internal/verify"
)

// DefaultLeaseTTL is the chunk lease duration used when Config.LeaseTTL
// is zero. A worker that has not completed or heartbeat-renewed a chunk
// within the TTL is presumed dead or straggling and the chunk re-leases.
const DefaultLeaseTTL = 10 * time.Second

// Config configures a Coordinator.
type Config struct {
	// Spec is the verification instance to shard.
	Spec JobSpec
	// LeaseTTL is the chunk lease duration (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxRecorded caps the merged report's record lists (0 = 16, the
	// verify default — keep it equal to the single-process run's cap so
	// verdict summaries stay byte-identical).
	MaxRecorded int
	// Store is where the coordinator files each chunk's checked proof
	// block, flushing after each, and the one record it resumes from: a
	// restarted coordinator replays the block of each chunk and leases
	// only the chunks without one that passes. The caller owns the
	// store's lifecycle. nil keeps no record.
	Store *store.Store
}

// Coordinator owns the shard ledger of one sweep: it leases chunks to
// workers over HTTP, reclaims leases from dead workers, checks and files
// each chunk's proof block, and merges the chunk reports into the final
// verdict. All state transitions happen under one mutex, and a block is
// checked outside it; the handlers are safe for concurrent use.
type Coordinator struct {
	cfg  Config
	spec JobSpec
	g    *graph.Graph
	chk  *verify.ShardChecker

	leasedC   *obs.Counter
	doneC     *obs.Counter
	releasedC *obs.Counter
	rejectedC *obs.Counter
	liveG     *obs.Gauge

	mu         sync.Mutex
	chunks     []*chunk
	remaining  int
	workers    map[string]*workerState
	leases     int64
	releases   int64
	rejections int64
	rejected   []verify.FaultSetRecord
	resumed    bool
	fromStore  int
	start      time.Time
	result     *Result
	done       chan struct{}
}

// chunk is the coordinator-side state of one shard.
type chunk struct {
	id     int
	shard  verify.Shard
	holder string // the worker holding the lease, "" for none
	expiry time.Time
	done   bool
	// rep is the report merged once done: the one derived by the replay
	// of proof, or the worker's own when it holds unknowns or solver
	// bugs, and proof is then nil.
	rep       *verify.Report
	proof     *verify.ShardProof
	fromStore bool
	sp        *span.S // chunk lifecycle span, started at first lease
}

type workerState struct {
	lastSeen time.Time
}

// NewCoordinator builds the shard ledger for cfg.Spec, marking done each
// chunk whose block in cfg.Store replays, but serves nothing until its
// Handler is mounted.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg.Spec = cfg.Spec.withDefaults()
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxRecorded <= 0 {
		cfg.MaxRecorded = 16
	}
	inst, err := cfg.Spec.Build()
	if err != nil {
		return nil, err
	}
	opts := inst.Opts
	opts.MaxRecorded, opts.Store = cfg.MaxRecorded, cfg.Store
	chk, err := verify.NewShardChecker(inst.Graph, cfg.Spec.K, opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	shards := verify.Shards(inst.Graph, cfg.Spec.K, inst.Opts.Universe, cfg.Spec.ChunkRanks)
	reg := obs.Default()
	c := &Coordinator{
		cfg:       cfg,
		spec:      cfg.Spec,
		g:         inst.Graph,
		chk:       chk,
		leasedC:   reg.Counter("fleet_chunks_leased_total"),
		doneC:     reg.Counter("fleet_chunks_completed_total"),
		releasedC: reg.Counter("fleet_chunks_released_total"),
		rejectedC: reg.Counter("fleet_chunks_rejected_total"),
		liveG:     reg.Gauge("fleet_workers_live"),
		workers:   map[string]*workerState{},
		start:     time.Now(),
		done:      make(chan struct{}),
	}
	for i, sh := range shards {
		c.chunks = append(c.chunks, &chunk{id: i, shard: sh})
	}
	c.remaining = len(c.chunks)
	for i, p := range chk.Stored(shards) {
		if ch := c.chunks[i]; p != nil {
			ch.done, ch.rep, ch.proof, ch.fromStore = true, p.Report, p, true
			c.remaining--
			c.fromStore++
		}
	}
	c.resumed = c.fromStore > 0
	for size := 0; size <= cfg.Spec.K; size++ {
		c.coverLocked(size)
	}
	if c.remaining == 0 {
		// Every chunk proven by the store: finalize immediately so Final
		// (and late-joining workers) see a done sweep.
		c.finalizeLocked()
	}
	return c, nil
}

// Handler returns the coordinator's HTTP API under /v1/.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/job", c.handleJob)
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.HandleFunc("/v1/complete", c.handleComplete)
	mux.HandleFunc("/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/status", c.handleStatus)
	return mux
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, JobResponse{Spec: c.spec, LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds()})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if _, ok := readJSON(w, r, &req); !ok {
		return
	}
	writeJSON(w, c.lease(req.WorkerID))
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	dec, ok := readJSON(w, r, &req)
	if !ok {
		return
	}
	// The entries follow the JSON line, raw.
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), r.Body))
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	req.Entries = bytes.TrimPrefix(rest, []byte("\n"))
	writeJSON(w, CompleteResponse{Accepted: c.complete(req)})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if _, ok := readJSON(w, r, &req); !ok {
		return
	}
	writeJSON(w, c.heartbeat(req))
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.Status())
}

// lease grants the requesting worker the first chunk that is neither
// done nor leased.
func (c *Coordinator) lease(workerID string) LeaseResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(workerID, now)
	c.expireLeases(now)
	if c.remaining == 0 {
		return LeaseResponse{Done: true}
	}
	for _, ch := range c.chunks {
		if ch.done || ch.holder != "" {
			continue
		}
		ch.holder, ch.expiry = workerID, now.Add(c.cfg.LeaseTTL)
		c.leases++
		c.leasedC.Inc()
		if ch.sp == nil {
			ch.sp = span.Start(nil, "fleet-chunk")
			ch.sp.SetInt("chunk", int64(ch.id)).SetInt("size", int64(ch.shard.Size)).
				SetInt("from", ch.shard.From).SetInt("ranks", ch.shard.Ranks())
		}
		ch.sp.Eventf("lease", "worker=%s", workerID)
		return LeaseResponse{ChunkID: ch.id, Shard: ch.shard}
	}
	return LeaseResponse{Wait: true}
}

// complete accepts one chunk result. Late results (the chunk is already
// done) and interrupted partials are not accepted — the worker just moves
// on. A clean report's block is checked and filed outside the lock, and
// flushed, and the report the check derives is merged; a block that
// fails is rejected and its chunk re-leased. A report with unknowns or
// solver bugs is merged as it is and files no block.
func (c *Coordinator) complete(req CompleteRequest) bool {
	if req.Report == nil || req.ChunkID < 0 || req.ChunkID >= len(c.chunks) {
		return false
	}
	ch := c.chunks[req.ChunkID]
	// The worker keeps its lease while its block is checked, so the
	// chunk is not leased again meanwhile.
	c.mu.Lock()
	c.touch(req.WorkerID, time.Now())
	late := ch.done || req.Report.Interrupted
	if late && ch.holder == req.WorkerID {
		ch.holder = ""
	}
	c.mu.Unlock()
	if late {
		return false
	}
	rep := req.Report
	var proof *verify.ShardProof
	if rep.UnknownCount == 0 && len(rep.SolverBugs) == 0 {
		var fault *verify.FaultSetRecord
		if proof, fault = c.chk.Check(ch.shard, req.Entries); fault != nil {
			c.mu.Lock()
			defer c.mu.Unlock()
			if ch.holder == req.WorkerID {
				ch.holder = ""
			}
			c.rejectLocked(ch, req.WorkerID, fault)
			return false
		}
		if c.cfg.Store != nil {
			// A failed flush costs a restart this chunk, never soundness.
			c.cfg.Store.Flush()
		}
		rep = proof.Report
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch.done {
		return false
	}
	ch.done, ch.rep, ch.proof, ch.holder = true, rep, proof, ""
	c.remaining--
	c.doneC.Inc()
	if ch.sp != nil {
		ch.sp.Eventf("complete", "worker=%s", req.WorkerID)
		ch.sp.End(span.OK)
		ch.sp = nil
	}
	c.coverLocked(ch.shard.Size)
	if c.remaining == 0 {
		c.finalizeLocked()
	}
	return true
}

// rejectLocked records the rejection of a chunk result from worker: a
// count, a record and a solver-bug trip. The chunk stays (or becomes)
// leasable.
func (c *Coordinator) rejectLocked(ch *chunk, worker string, fault *verify.FaultSetRecord) {
	c.rejections++
	c.rejectedC.Inc()
	rec := verify.FaultSetRecord{Nodes: fault.Nodes,
		Err: fmt.Sprintf("fleet: chunk %d (size=%d ranks=[%d,%d)) from %s rejected: %s",
			ch.id, ch.shard.Size, ch.shard.From, ch.shard.To, worker, fault.Err)}
	if len(c.rejected) < c.cfg.MaxRecorded {
		c.rejected = append(c.rejected, rec)
	}
	span.Trip(span.AnomalySolverBug, rec.Err)
	if ch.sp != nil {
		ch.sp.Eventf("reject", "worker=%s", worker)
	}
}

// coverLocked runs the size part of the replay once every chunk of size
// has a checked block. When the blocks miss a set, the chunk holding its
// rank is rejected and re-leased: every chunk of the size when the miss
// names no set.
func (c *Coordinator) coverLocked(size int) {
	var chunks []*chunk
	var proofs []*verify.ShardProof
	for _, ch := range c.chunks {
		if ch.shard.Size != size {
			continue
		}
		if ch.proof == nil {
			return
		}
		chunks, proofs = append(chunks, ch), append(proofs, ch.proof)
	}
	if len(proofs) == 0 {
		return
	}
	fault, rank := c.chk.Cover(proofs)
	if fault == nil {
		return
	}
	for _, ch := range chunks {
		if rank >= 0 && (rank < ch.shard.From || rank >= ch.shard.To) {
			continue
		}
		worker := "a worker"
		if ch.fromStore {
			worker = "the store"
			c.fromStore--
		}
		c.rejectLocked(ch, worker, fault)
		ch.done, ch.rep, ch.proof, ch.fromStore = false, nil, nil, false
		c.remaining++
	}
}

func (c *Coordinator) heartbeat(req HeartbeatRequest) HeartbeatResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(req.WorkerID, now)
	c.expireLeases(now)
	var resp HeartbeatResponse
	for _, id := range req.ChunkIDs {
		if id < 0 || id >= len(c.chunks) {
			continue
		}
		ch := c.chunks[id]
		if ch.holder == req.WorkerID && !ch.done {
			ch.expiry = now.Add(c.cfg.LeaseTTL)
		} else {
			resp.Lost = append(resp.Lost, id)
		}
	}
	return resp
}

// expireLeases reclaims leases whose holders went quiet: the chunk
// becomes leasable again immediately. Called under mu from every request
// path, so a dead worker's chunks re-lease as soon as any live worker
// next asks for work — no background reaper thread to die with the
// coordinator.
func (c *Coordinator) expireLeases(now time.Time) {
	for _, ch := range c.chunks {
		if ch.done || ch.holder == "" || !now.After(ch.expiry) {
			continue
		}
		if ch.sp != nil {
			ch.sp.Eventf("release", "worker=%s lease expired", ch.holder)
		}
		ch.holder = ""
		c.releases++
		c.releasedC.Inc()
	}
}

func (c *Coordinator) touch(workerID string, now time.Time) {
	ws := c.workers[workerID]
	if ws == nil {
		ws = &workerState{}
		c.workers[workerID] = ws
	}
	ws.lastSeen = now
}

// finalizeLocked merges every chunk's report (commutative, so the
// completion order that actually happened is irrelevant) and publishes
// the result.
func (c *Coordinator) finalizeLocked() {
	rep := &verify.Report{GraphName: c.g.Name(), K: c.spec.K}
	for _, ch := range c.chunks {
		verify.MergeReports(rep, ch.rep, c.cfg.MaxRecorded)
	}
	rep.Duration = time.Since(c.start)
	c.result = &Result{
		Report:          rep,
		Resumed:         c.resumed,
		ChunksTotal:     len(c.chunks),
		ChunksCompleted: len(c.chunks) - c.remaining,
		ChunksFromStore: c.fromStore,
		Leases:          c.leases,
		Releases:        c.releases,
		ChunksRejected:  c.rejections,
		Rejected:        c.rejected,
		WorkersSeen:     len(c.workers),
	}
	close(c.done)
}

// Status snapshots the live sweep accounting and refreshes the liveness
// gauge.
func (c *Coordinator) Status() Status {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLeases(now)
	st := Status{
		Done:            c.remaining == 0,
		Resumed:         c.resumed,
		ChunksTotal:     len(c.chunks),
		ChunksCompleted: len(c.chunks) - c.remaining,
		ChunksFromStore: c.fromStore,
		Leases:          c.leases,
		Releases:        c.releases,
		ChunksRejected:  c.rejections,
		WorkersSeen:     len(c.workers),
	}
	for _, ch := range c.chunks {
		if !ch.done && ch.holder != "" {
			st.ChunksLeased++
		}
	}
	for _, ws := range c.workers {
		if now.Sub(ws.lastSeen) <= c.cfg.LeaseTTL {
			st.WorkersLive++
		}
	}
	c.liveG.Set(int64(st.WorkersLive))
	return st
}

// Resumed reports whether the coordinator found chunks proven in its
// store at startup.
func (c *Coordinator) Resumed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumed
}

// Done returns a channel closed when every chunk has completed.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Final blocks until the sweep completes and returns the merged result.
func (c *Coordinator) Final() *Result {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// readJSON decodes the JSON value a POST body starts with into v, and
// returns the decoder, which may hold bytes past it.
func readJSON(w http.ResponseWriter, r *http.Request, v any) (*json.Decoder, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return nil, false
	}
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return dec, true
}
