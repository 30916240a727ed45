package fleet

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
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

// openStore opens the store at path and fails the test on error.
func openStore(t *testing.T, path string) *store.Store {
	t.Helper()
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitDone waits for the sweep to finish and returns its result.
func waitDone(t *testing.T, c *Coordinator) *Result {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("sweep did not finish: %+v", c.Status())
	}
	return c.Final()
}

// The proof store is the coordinator's checkpoint. Killing the
// coordinator mid-sweep and restarting it on its store must resume — not
// restart — the sweep: the chunks whose blocks were filed are done
// without a lease, Resumed is reported, and the final verdict is
// byte-identical to the single-process run. A different sweep of the same
// graph shares the slot but none of the blocks.
func TestResumeFromCheckpoint(t *testing.T) {
	spec := JobSpec{N: 3, K: 2, ChunkRanks: 16}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := verify.Exhaustive(inst.Graph, spec.K, inst.Opts)
	path := filepath.Join(t.TempDir(), "sweep.gdps")

	// First incarnation: complete two chunks, then "crash" without
	// Close — the flush after each completion must have persisted them.
	first, err := NewCoordinator(Config{Spec: spec, Store: openStore(t, path)})
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
		rep := runner.Run(lease.Shard)
		if !first.complete(CompleteRequest{WorkerID: "w0", ChunkID: lease.ChunkID, Report: rep,
			Entries: runner.TakeEntries(lease.Shard.Size)}) {
			t.Fatalf("complete %d not accepted", i)
		}
	}

	// A different sweep (k=1) over the same graph shares the slot but not
	// the sweep signature: nothing resumes, nothing is misattributed.
	s2 := openStore(t, path)
	defer s2.Close()
	other, err := NewCoordinator(Config{Spec: JobSpec{N: 3, K: 1, ChunkRanks: 16}, Store: s2})
	if err != nil {
		t.Fatal(err)
	}
	if other.Resumed() {
		t.Error("k=1 sweep resumed from k=2 chunk blocks")
	}

	// Second incarnation restores the two completed chunks and finishes.
	second, srv := startFleet(t, Config{Spec: spec, Store: s2})
	if st := second.Status(); !st.Resumed || st.ChunksCompleted != 2 || st.ChunksFromStore != 2 {
		t.Fatalf("restarted coordinator: %+v; want resumed with 2 chunks from the store", st)
	}
	runWorkers(t, srv, 2)
	res := waitDone(t, second)
	if !res.Resumed || res.ChunksCompleted != res.ChunksTotal {
		t.Errorf("resumed sweep: resumed=%v, chunks %d/%d", res.Resumed, res.ChunksCompleted, res.ChunksTotal)
	}
	if got := res.Report.VerdictSummary(); got != want.VerdictSummary() {
		t.Errorf("resumed verdict\n%q\nwant\n%q", got, want.VerdictSummary())
	}
}

// A restart on a store that holds every block of the sweep leases
// nothing and reaches the single-process verdict; one whose block of a
// chunk is damaged in the file leases that chunk alone.
func TestResumeFromStore(t *testing.T) {
	spec := JobSpec{N: 3, K: 2, ChunkRanks: 16}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := verify.Exhaustive(inst.Graph, spec.K, inst.Opts)
	path := filepath.Join(t.TempDir(), "sweep.gdps")

	// First incarnation: a whole sweep, every chunk filed in the store.
	s1 := openStore(t, path)
	first, srv := startFleet(t, Config{Spec: spec, Store: s1})
	runWorkers(t, srv, 2)
	if res := waitDone(t, first); res.ChunksCompleted != res.ChunksTotal {
		t.Fatalf("first sweep: chunks %d/%d", res.ChunksCompleted, res.ChunksTotal)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: every chunk proven by the store, none leased.
	s2 := openStore(t, path)
	second, err := NewCoordinator(Config{Spec: spec, Store: s2})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-second.Done():
	default:
		t.Fatalf("warm-store sweep not complete at startup: %+v", second.Status())
	}
	res := second.Final()
	if !res.Resumed || res.Leases != 0 || res.ChunksFromStore != res.ChunksTotal || res.ChunksTotal == 0 {
		t.Errorf("warm-store resume: resumed=%v, %d leases, %d/%d chunks from the store",
			res.Resumed, res.Leases, res.ChunksFromStore, res.ChunksTotal)
	}
	if got := res.Report.VerdictSummary(); got != want.VerdictSummary() {
		t.Errorf("store-resumed verdict\n%q\nwant\n%q", got, want.VerdictSummary())
	}
	s2.Close()

	// A chunk's block damaged in the file, CRC intact: that chunk alone
	// is leased again, and the verdict is unchanged.
	damageLastBlock(t, path)
	s3 := openStore(t, path)
	defer s3.Close()
	third, srv3 := startFleet(t, Config{Spec: spec, Store: s3})
	if st := third.Status(); st.ChunksFromStore != st.ChunksTotal-1 {
		t.Fatalf("after damaging one block: %d/%d chunks from the store", st.ChunksFromStore, st.ChunksTotal)
	}
	runWorkers(t, srv3, 1)
	res = waitDone(t, third)
	if res.Leases != 1 {
		t.Errorf("after damaging one block: %d leases, want 1", res.Leases)
	}
	if got := res.Report.VerdictSummary(); got != want.VerdictSummary() {
		t.Errorf("verdict after re-leasing the damaged chunk\n%q\nwant\n%q", got, want.VerdictSummary())
	}
}

// damageLastBlock rewrites the last proof block of the store file at path
// with its last byte changed, and its CRC recomputed, as a foreign writer
// might.
func damageLastBlock(t *testing.T, path string) {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for off := 6; off < len(img); off += 10 + int(binary.LittleEndian.Uint32(img[off+2:])) {
		if img[off+1] == 7 {
			last = off
		}
	}
	if last < 0 {
		t.Fatal("no proof block in the store")
	}
	end := last + 6 + int(binary.LittleEndian.Uint32(img[last+2:]))
	img[end-1] ^= 0x01
	binary.LittleEndian.PutUint32(img[end:], crc32.ChecksumIEEE(img[last:end]))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFleetFilesAProof runs fleets with a store on three instances —
// orbit-reduced, without symmetry, and the merged model — and replays
// each store with no solver: the replay must reach the verdict of a
// single-process run.
func TestFleetFilesAProof(t *testing.T) {
	for _, spec := range []JobSpec{
		{N: 3, K: 3, Symmetry: true, ChunkRanks: 64},
		{N: 10, K: 2, ChunkRanks: 64},
		{N: 5, K: 2, Merge: true, Symmetry: true, ChunkRanks: 16},
	} {
		inst, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := verify.Exhaustive(inst.Graph, spec.K, inst.Opts).VerdictSummary()
		s := openStore(t, filepath.Join(t.TempDir(), "sweep.gdps"))
		c, srv := startFleet(t, Config{Spec: spec, Store: s})
		runWorkers(t, srv, 2)
		if got := waitDone(t, c).Report.VerdictSummary(); got != want {
			t.Errorf("%+v: fleet verdict\n%q\nwant\n%q", spec, got, want)
		}
		opts := inst.Opts
		opts.Store = s
		if got := verify.Replay(inst.Graph, spec.K, opts).VerdictSummary(); got != want {
			t.Errorf("%+v: replay of the fleet's store\n%q\nwant\n%q", spec, got, want)
		}
		s.Close()
	}
}

// entries splits width-1 proof-block entries of fault sets of the given
// size into one slice each.
func entries(b []byte, size int) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		n := size + 1 + int(b[size])
		out = append(out, b[:n:n])
		b = b[n:]
	}
	return out
}

// poisonedSweep drives a sweep of G(3,3), k=3 with orbit reduction and a
// store, by direct lease and complete calls. The first upload of the
// first chunk of size 2 holds its honest entries passed through poison,
// which also gets the next chunk's; every other upload, that chunk's
// again included, is honest. The evil upload must be rejected, at once
// or when its size is checked, and its chunk leased again; the final
// verdict and the store's replay must equal the single-process run's.
// accepted is whether the evil upload is accepted at first.
func poisonedSweep(t *testing.T, name string, accepted bool, poison func(e, next [][]byte) [][]byte) {
	t.Helper()
	spec := JobSpec{N: 3, K: 3, Symmetry: true, ChunkRanks: 16}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := verify.Exhaustive(inst.Graph, spec.K, inst.Opts).VerdictSummary()
	s := openStore(t, filepath.Join(t.TempDir(), "sweep.gdps"))
	defer s.Close()
	c, err := NewCoordinator(Config{Spec: spec, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	runner := verify.NewShardRunner(inst.Graph, spec.K, inst.Opts)
	defer runner.Close()
	target, leases := -1, 0
	for {
		l := c.lease("w")
		if l.Done {
			break
		}
		if l.Wait || leases > 1000 {
			t.Fatalf("%s: unexpected wait or endless sweep: %+v", name, c.Status())
		}
		leases++
		rep := runner.Run(l.Shard)
		req := CompleteRequest{WorkerID: "w", ChunkID: l.ChunkID, Report: rep, Entries: runner.TakeEntries(l.Shard.Size)}
		if target < 0 && l.Shard.Size == 2 {
			target = l.ChunkID
			runner.Run(verify.Shard{Size: 2, From: l.Shard.To, To: l.Shard.To + spec.ChunkRanks})
			var b []byte
			for _, e := range poison(entries(req.Entries, 2), entries(runner.TakeEntries(2), 2)) {
				b = append(b, e...)
			}
			req.Entries = b
			if got := c.complete(req); got != accepted {
				t.Errorf("%s: poisoned upload accepted=%v, want %v", name, got, accepted)
			}
			continue
		}
		if !c.complete(req) {
			t.Errorf("%s: honest upload of chunk %d rejected: %+v", name, l.ChunkID, c.Status())
		}
	}
	res := c.Final()
	for _, r := range res.Rejected {
		t.Logf("%s: %s", name, r.Err)
	}
	if res.ChunksRejected != 1 || len(res.Rejected) != 1 || res.Leases != int64(res.ChunksTotal)+1 {
		t.Errorf("%s: %d rejections %+v, %d leases for %d chunks; want 1 rejection and the chunk leased again",
			name, res.ChunksRejected, res.Rejected, res.Leases, res.ChunksTotal)
	}
	if got := res.Report.VerdictSummary(); got != want {
		t.Errorf("%s: verdict\n%q\nwant\n%q", name, got, want)
	}
	opts := inst.Opts
	opts.Store = s
	if got := verify.Replay(inst.Graph, spec.K, opts).VerdictSummary(); got != want {
		t.Errorf("%s: replay of the store\n%q\nwant\n%q", name, got, want)
	}
}

// TestPoisonedChunksRejected uploads a chunk with a path that is not a
// pipeline, a chunk missing one orbit-least set, a chunk with an entry
// outside its range, and a chunk with a false negative. Each is rejected
// and leased again, and the sweep still reaches the single-process
// verdict.
func TestPoisonedChunksRejected(t *testing.T) {
	positive := func(e [][]byte) int {
		for i, x := range e {
			if x[2] != 0 {
				return i
			}
		}
		t.Fatal("no positive entry in the chunk")
		return 0
	}
	poisonedSweep(t, "path that is not a pipeline", false, func(e, _ [][]byte) [][]byte {
		i := positive(e)
		x := append([]byte(nil), e[i]...)
		x[4], x[5] = x[5], x[4] // two interior nodes swapped
		e[i] = x
		return e
	})
	poisonedSweep(t, "missing orbit-least set", true, func(e, _ [][]byte) [][]byte {
		return e[1:]
	})
	poisonedSweep(t, "entry outside the chunk's range", false, func(e, next [][]byte) [][]byte {
		if len(next) == 0 {
			t.Fatal("test premise: the next chunk holds an entry")
		}
		return append(e, next[0])
	})
	poisonedSweep(t, "false negative", false, func(e, _ [][]byte) [][]byte {
		i := positive(e)
		e[i] = append(append([]byte(nil), e[i][:2]...), 0)
		return e
	})
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
