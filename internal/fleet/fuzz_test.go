package fleet

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"gdpn/internal/verify"
)

// fuzzSpec is the instance FuzzFleetComplete sweeps: G(3,2), k=2 with
// orbit reduction, in chunks of 8 ranks.
var fuzzSpec = JobSpec{N: 3, K: 2, Symmetry: true, ChunkRanks: 8}

// honestUploads returns, for each chunk of spec, the upload of an honest
// worker "w".
func honestUploads(t testing.TB, spec JobSpec) []CompleteRequest {
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	runner := verify.NewShardRunner(inst.Graph, spec.K, inst.Opts)
	defer runner.Close()
	var out []CompleteRequest
	for i, sh := range verify.Shards(inst.Graph, spec.K, inst.Opts.Universe, spec.ChunkRanks) {
		rep := runner.Run(sh)
		out = append(out, CompleteRequest{WorkerID: "w", ChunkID: i, Report: rep, Entries: runner.TakeEntries(sh.Size)})
	}
	return out
}

// fuzzTarget is the chunk a fuzzed upload is expected for: the first one
// of size 2, which the harness leases to "w" and leaves open.
func fuzzTarget(uploads []CompleteRequest, c *Coordinator) int {
	for i, ch := range c.chunks {
		if ch.shard.Size == 2 {
			return i
		}
	}
	return len(uploads) - 1
}

// FuzzFleetComplete posts a fuzzed /v1/complete body to a coordinator
// whose sweep is done but for one chunk, which worker "w" holds. The
// body is any JSON: truncated, naming a stale or unknown chunk, or
// carrying entries cut short, naming nodes outside the graph or sets
// outside the chunk, or with forged paths. The handler must not panic;
// every chunk done after the post must have a block that passed its
// replay, or a report with unknowns or solver bugs, which files none; and
// once honest uploads finish the sweep, the verdict must be
// verify.Exhaustive's — or, after such a report, not a proof.
func FuzzFleetComplete(f *testing.F) {
	inst, err := fuzzSpec.Build()
	if err != nil {
		f.Fatal(err)
	}
	want := verify.Exhaustive(inst.Graph, fuzzSpec.K, inst.Opts).VerdictSummary()
	uploads := honestUploads(f, fuzzSpec)
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := NewCoordinator(Config{Spec: fuzzSpec})
		if err != nil {
			t.Fatal(err)
		}
		target := fuzzTarget(uploads, c)
		for l := c.lease("w"); !l.Wait && !l.Done; l = c.lease("w") {
			if l.ChunkID != target && !c.complete(uploads[l.ChunkID]) {
				t.Fatalf("honest upload of chunk %d rejected", l.ChunkID)
			}
		}
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/complete", bytes.NewReader(body)))

		unproven := false
		c.mu.Lock()
		for _, ch := range c.chunks {
			switch {
			case !ch.done:
			case ch.proof != nil && ch.rep == ch.proof.Report:
			case ch.proof == nil && (ch.rep.UnknownCount > 0 || len(ch.rep.SolverBugs) > 0):
				unproven = true
			default:
				t.Fatalf("chunk %d done with no replayed block: %+v", ch.id, ch.rep)
			}
		}
		c.mu.Unlock()

		c.complete(uploads[target])
		for i := 0; ; i++ {
			l := c.lease("w")
			if l.Done {
				break
			}
			if l.Wait || i > 10*len(uploads) {
				t.Fatalf("honest sweep stalled: %+v", c.Status())
			}
			c.complete(uploads[l.ChunkID])
		}
		res := c.Final()
		if got := res.Report.VerdictSummary(); unproven && res.Report.OK() || !unproven && got != want {
			t.Fatalf("verdict after the fuzzed upload (unproven=%v)\n%q\nwant\n%q", unproven, got, want)
		}
	})
}
