package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gdpn/internal/store"
	"gdpn/internal/verify"
)

func startFleet(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

func runWorkers(t *testing.T, srv *httptest.Server, n int) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := WorkerConfig{
			Coordinator: srv.URL,
			ID:          "w" + string(rune('0'+i)),
			Retry:       2 * time.Second,
			Client:      srv.Client(),
			Memo:        true,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(ctx, cfg); err != nil {
				t.Errorf("worker %s: %v", cfg.ID, err)
			}
		}()
	}
	wg.Wait()
}

// A three-worker fleet over real HTTP must produce the exact verdict
// summary of a single-process Exhaustive run of the same instance — the
// parity property the CI fleet-smoke gauntlet asserts at binary level.
func TestFleetMatchesExhaustive(t *testing.T) {
	spec := JobSpec{N: 3, K: 3, Symmetry: true, ChunkRanks: 100}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := verify.Exhaustive(inst.Graph, spec.K, inst.Opts)

	c, err := NewCoordinator(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator counts the workers it has seen when the last chunk
	// completes, and on a small host one worker can finish the whole
	// sweep before the others lease. So every completion waits for the
	// event that all three workers have asked for a lease.
	allLeased := make(chan struct{})
	var once sync.Once
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/complete" {
			select {
			case <-allLeased:
			case <-time.After(30 * time.Second):
			}
		}
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/lease" && c.Status().WorkersSeen == 3 {
			once.Do(func() { close(allLeased) })
		}
	}))
	t.Cleanup(srv.Close)
	runWorkers(t, srv, 3)

	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("sweep did not finish: %+v", c.Status())
	}
	res := c.Final()
	if got := res.Report.VerdictSummary(); got != want.VerdictSummary() {
		t.Errorf("fleet verdict\n%q\nwant\n%q", got, want.VerdictSummary())
	}
	if res.ChunksCompleted != res.ChunksTotal || res.ChunksTotal == 0 {
		t.Errorf("chunks %d/%d", res.ChunksCompleted, res.ChunksTotal)
	}
	if res.WorkersSeen != 3 {
		t.Errorf("WorkersSeen = %d, want 3", res.WorkersSeen)
	}
	if res.Resumed {
		t.Error("fresh sweep reported Resumed")
	}
}

// A worker that leases a chunk and dies must not stall the sweep: its
// lease expires and the chunk re-leases to a live worker, with the
// reclamation counted in Releases and the verdict unchanged.
func TestDeadWorkerChunkReleased(t *testing.T) {
	spec := JobSpec{N: 3, K: 2, ChunkRanks: 16}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := verify.Exhaustive(inst.Graph, spec.K, inst.Opts)

	c, srv := startFleet(t, Config{Spec: spec, LeaseTTL: 50 * time.Millisecond})

	// The "dead" worker takes a chunk and is never heard from again.
	lease := c.lease("dead-worker")
	if lease.Done || lease.Wait {
		t.Fatalf("dead worker got no lease: %+v", lease)
	}
	time.Sleep(60 * time.Millisecond) // let the lease expire

	runWorkers(t, srv, 1)
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("sweep stalled on the dead worker's chunk: %+v", c.Status())
	}
	res := c.Final()
	if res.Releases < 1 {
		t.Errorf("Releases = %d, want ≥ 1 (dead worker's lease reclaimed)", res.Releases)
	}
	if got := res.Report.VerdictSummary(); got != want.VerdictSummary() {
		t.Errorf("verdict after re-lease\n%q\nwant\n%q", got, want.VerdictSummary())
	}
}

// Killing the coordinator mid-sweep and restarting it from the
// checkpoint must resume — not restart — the sweep: completed chunks are
// not re-verified, Resumed is reported, and the final verdict is
// byte-identical to the single-process run.
func TestResumeFromCheckpoint(t *testing.T) {
	spec := JobSpec{N: 3, K: 2, ChunkRanks: 16}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := verify.Exhaustive(inst.Graph, spec.K, inst.Opts)
	ckpt := filepath.Join(t.TempDir(), "sweep.json")

	// First incarnation: complete two chunks, then "crash" (abandon it).
	first, err := NewCoordinator(Config{Spec: spec, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if first.Resumed() {
		t.Fatal("fresh coordinator reported Resumed")
	}
	runner := verify.NewShardRunner(inst.Graph, spec.K, inst.Opts)
	defer runner.Close()
	for i := 0; i < 2; i++ {
		lease := first.lease("w0")
		if lease.Done || lease.Wait {
			t.Fatalf("lease %d: %+v", i, lease)
		}
		if !first.complete(CompleteRequest{WorkerID: "w0", ChunkID: lease.ChunkID, Report: runner.Run(lease.Shard)}) {
			t.Fatalf("complete %d not accepted", i)
		}
	}

	// Second incarnation restores the two completed chunks.
	second, srv := startFleet(t, Config{Spec: spec, CheckpointPath: ckpt})
	if !second.Resumed() {
		t.Fatal("restarted coordinator did not resume from checkpoint")
	}
	if st := second.Status(); st.ChunksCompleted != 2 {
		t.Fatalf("resumed with %d completed chunks, want 2", st.ChunksCompleted)
	}
	runWorkers(t, srv, 2)
	select {
	case <-second.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("resumed sweep did not finish: %+v", second.Status())
	}
	res := second.Final()
	if !res.Resumed {
		t.Error("final result lost the Resumed flag")
	}
	if res.ChunksCompleted != res.ChunksTotal {
		t.Errorf("chunks %d/%d after resume", res.ChunksCompleted, res.ChunksTotal)
	}
	if got := res.Report.VerdictSummary(); got != want.VerdictSummary() {
		t.Errorf("resumed verdict\n%q\nwant\n%q", got, want.VerdictSummary())
	}

	// A checkpoint for a different instance must be refused, not merged.
	bad := spec
	bad.K = 1
	if _, err := NewCoordinator(Config{Spec: bad, CheckpointPath: ckpt}); err == nil {
		t.Error("coordinator accepted a checkpoint for a different instance")
	}
}

// A restarted coordinator with a warm verdict store — and NO checkpoint
// file — must resume from the store alone: every chunk whose verdict blob
// survived is marked done without a single lease, Resumed is reported,
// and the final verdict is byte-identical to the single-process run.
func TestResumeFromStore(t *testing.T) {
	spec := JobSpec{N: 3, K: 2, ChunkRanks: 16}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := verify.Exhaustive(inst.Graph, spec.K, inst.Opts)
	storePath := filepath.Join(t.TempDir(), "verdicts.gdps")

	// First incarnation: full sweep against a cold store, then "crash"
	// without Close — the per-completion Flush must have persisted every
	// chunk blob already.
	s1, err := store.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	first, srv := startFleet(t, Config{Spec: spec, Store: s1})
	runWorkers(t, srv, 2)
	select {
	case <-first.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("cold sweep did not finish: %+v", first.Status())
	}
	if res := first.Final(); res.Resumed || res.ChunksFromStore != 0 {
		t.Fatalf("cold sweep claimed a resume: %+v", res)
	}

	// Second incarnation: same instance, fresh coordinator, no checkpoint.
	s2, err := store.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	second, err := NewCoordinator(Config{Spec: spec, Store: s2})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Resumed() {
		t.Fatal("warm-store coordinator did not report resumed")
	}
	select {
	case <-second.Done():
	default:
		t.Fatalf("warm-store sweep not complete at startup: %+v", second.Status())
	}
	res := second.Final()
	if res.Leases != 0 {
		t.Errorf("warm-store resume leased %d chunks, want 0", res.Leases)
	}
	if res.ChunksFromStore != res.ChunksTotal || res.ChunksTotal == 0 {
		t.Errorf("chunks from store %d/%d", res.ChunksFromStore, res.ChunksTotal)
	}
	if got := res.Report.VerdictSummary(); got != want.VerdictSummary() {
		t.Errorf("store-resumed verdict\n%q\nwant\n%q", got, want.VerdictSummary())
	}

	// A different sweep (k=1) over the same graph shares the slot but not
	// the chunk keys: nothing resumes, nothing is misattributed.
	other, err := NewCoordinator(Config{Spec: JobSpec{N: 3, K: 1, ChunkRanks: 16}, Store: s2})
	if err != nil {
		t.Fatal(err)
	}
	if other.Resumed() {
		t.Error("k=1 sweep resumed from k=2 chunk blobs")
	}
}

// With redundancy 2, disagreeing duplicate verdicts for a chunk must be
// flagged as a solver bug: counted in Mismatches and failing the merged
// report — never silently trusting either copy.
func TestRedundancyMismatchFlagged(t *testing.T) {
	spec := JobSpec{N: 3, K: 2, Redundancy: 2, ChunkRanks: 1 << 20}
	c, err := NewCoordinator(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	// Two workers lease the same chunk (redundancy 2) and return
	// fabricated, disagreeing verdicts.
	la, lb := c.lease("wa"), c.lease("wb")
	if la.ChunkID != lb.ChunkID {
		t.Fatalf("redundant copies went to different chunks: %d vs %d", la.ChunkID, lb.ChunkID)
	}
	repA := &verify.Report{Checked: 10, Represented: 10}
	repB := &verify.Report{Checked: 10, Represented: 10, FailureCount: 1,
		Failures: []verify.FaultSetRecord{{Nodes: []int{3}, Err: "no pipeline"}}}
	if !c.complete(CompleteRequest{WorkerID: "wa", ChunkID: la.ChunkID, Report: repA}) {
		t.Fatal("first copy rejected")
	}
	if !c.complete(CompleteRequest{WorkerID: "wb", ChunkID: lb.ChunkID, Report: repB}) {
		t.Fatal("second copy rejected")
	}
	if st := c.Status(); st.Mismatches != 1 {
		t.Fatalf("Mismatches = %d, want 1", st.Mismatches)
	}

	// Drive the remaining chunks to completion with agreeing (fabricated)
	// copies so the sweep finalizes.
	for {
		l := c.lease("wc")
		if l.Done {
			break
		}
		if l.Wait {
			t.Fatalf("unexpected wait: %+v", c.Status())
		}
		rep := &verify.Report{Checked: l.Shard.Ranks(), Represented: l.Shard.Ranks()}
		c.complete(CompleteRequest{WorkerID: "wc", ChunkID: l.ChunkID, Report: rep})
		c.complete(CompleteRequest{WorkerID: "wd", ChunkID: l.ChunkID, Report: rep})
	}
	res := c.Final()
	if res.Mismatches != 1 {
		t.Errorf("final Mismatches = %d, want 1", res.Mismatches)
	}
	if len(res.Report.SolverBugs) == 0 {
		t.Error("mismatch left no SolverBugs record")
	}
	if res.Report.OK() {
		t.Error("report with a verdict mismatch must not be OK")
	}
}

// Interrupted partials must be rejected at /v1/complete: a worker that
// was cancelled mid-shard reports a partial chunk, and accepting it
// would silently under-verify that rank range.
func TestInterruptedPartialRejected(t *testing.T) {
	spec := JobSpec{N: 3, K: 2, ChunkRanks: 1 << 20}
	c, err := NewCoordinator(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	l := c.lease("w0")
	if c.complete(CompleteRequest{WorkerID: "w0", ChunkID: l.ChunkID,
		Report: &verify.Report{Checked: 1, Interrupted: true}}) {
		t.Error("interrupted partial was accepted")
	}
	if st := c.Status(); st.ChunksCompleted != 0 {
		t.Errorf("interrupted partial completed a chunk: %+v", st)
	}
}

// Heartbeats renew leases; silence loses them. The Lost list tells a
// straggler its chunk was re-leased.
func TestHeartbeatRenewsLease(t *testing.T) {
	spec := JobSpec{N: 3, K: 2, ChunkRanks: 1 << 20}
	c, err := NewCoordinator(Config{Spec: spec, LeaseTTL: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l := c.lease("w0")
	// Three renewal rounds straddling the TTL keep the lease alive.
	for i := 0; i < 3; i++ {
		time.Sleep(30 * time.Millisecond)
		hb := c.heartbeat(HeartbeatRequest{WorkerID: "w0", ChunkIDs: []int{l.ChunkID}})
		if len(hb.Lost) != 0 {
			t.Fatalf("renewal round %d lost the lease: %v", i, hb.Lost)
		}
	}
	// Silence past the TTL loses it.
	time.Sleep(80 * time.Millisecond)
	hb := c.heartbeat(HeartbeatRequest{WorkerID: "w0", ChunkIDs: []int{l.ChunkID}})
	if len(hb.Lost) != 1 || hb.Lost[0] != l.ChunkID {
		t.Fatalf("expired lease not reported lost: %v", hb.Lost)
	}
	if st := c.Status(); st.Releases < 1 {
		t.Errorf("Releases = %d, want ≥ 1", st.Releases)
	}
}
