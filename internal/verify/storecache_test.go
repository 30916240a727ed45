package verify_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gdpn/internal/autom"
	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/store"
	"gdpn/internal/verify"
)

// openStore opens a store at path and fails the test on error.
func openStore(t *testing.T, path string) *store.Store {
	t.Helper()
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// warmCold runs Exhaustive three times — without a store, with a cold
// store, and with the warmed store reopened from disk — and asserts all
// three VerdictSummary lines are byte-identical. Workers is pinned to 1
// only to keep the three runs to one goroutine each; the summary does not
// depend on the worker count (TestVerdictSummaryIndependentOfSchedule).
func warmCold(t *testing.T, g *graph.Graph, k int, opts verify.Options) (cold, warm *verify.Report) {
	t.Helper()
	opts.Workers = 1
	base := verify.Exhaustive(g, k, opts)

	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	coldOpts := opts
	coldOpts.Store = s
	cold = verify.Exhaustive(g, k, coldOpts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, path)
	defer s2.Close()
	warmOpts := opts
	warmOpts.Store = s2
	warm = verify.Exhaustive(g, k, warmOpts)

	if got, want := cold.VerdictSummary(), base.VerdictSummary(); got != want {
		t.Errorf("cold store run changed the verdict:\n got %q\nwant %q", got, want)
	}
	if got, want := warm.VerdictSummary(), base.VerdictSummary(); got != want {
		t.Errorf("warm store run changed the verdict:\n got %q\nwant %q", got, want)
	}
	return cold, warm
}

func TestStoreWarmMatchesColdClean(t *testing.T) {
	warmCold(t, construct.G2(2), 2, verify.Options{})
	warmCold(t, construct.G2(2), 2, verify.Options{ExploitSymmetry: true})
	// A 68-node fault universe: the coverage check's masks span it.
	sol, err := construct.Design(60, 2)
	if err != nil {
		t.Fatal(err)
	}
	warmCold(t, sol.Graph, 2, verify.Options{ExploitSymmetry: true, Solver: embed.Options{Layout: sol.Layout}})
}

func TestStoreWarmMatchesColdFailing(t *testing.T) {
	// G3(2) is not 3-degradable: the warm run must reproduce the exact
	// counterexample records, not just the counts.
	cold, warm := warmCold(t, construct.G3(2), 3, verify.Options{})
	if cold.FailureCount == 0 || warm.FailureCount == 0 {
		t.Fatalf("test premise: instance must fail (cold=%d warm=%d)",
			cold.FailureCount, warm.FailureCount)
	}
	warmCold(t, construct.G3(2), 3, verify.Options{ExploitSymmetry: true})
}

func TestStoreWarmManifestSkipsSolving(t *testing.T) {
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)

	g := construct.G2(2)
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	opts := verify.Options{ExploitSymmetry: true, Store: s}
	cold := verify.Exhaustive(g, 2, opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reg.Reset()
	s2 := openStore(t, path)
	defer s2.Close()
	opts.Store = s2
	warm := verify.Exhaustive(g, 2, opts)

	if warm.Checked != cold.Checked || warm.Represented != cold.Represented {
		t.Errorf("warm coverage differs: checked %d/%d represented %d/%d",
			warm.Checked, cold.Checked, warm.Represented, cold.Represented)
	}
	// Every size class (0, 1, 2) must replay from its manifest, and every
	// representative's verdict must come from the store.
	if got := reg.Counter("store_hit_total", obs.L("kind", "manifest")).Value(); got != 3 {
		t.Errorf("manifest hits = %d, want 3", got)
	}
	if got := reg.Counter("store_hit_total", obs.L("kind", "verdict")).Value(); got != cold.Checked {
		t.Errorf("verdict hits = %d, want %d", got, cold.Checked)
	}
	if got := reg.Counter("store_replay_fail_total").Value(); got != 0 {
		t.Errorf("store_replay_fail_total = %d, want 0", got)
	}
	if warm.Tiers.Total() != 0 {
		t.Errorf("warm run made %d solver calls, want 0", warm.Tiers.Total())
	}
}

// poisonWitness runs a cold sweep of g into a store file and, in one
// positive entry of its size-1 proof block, turns the witness's second
// node into the entry's faulty node, as a foreign writer might. It
// returns the file's path.
func poisonWitness(t *testing.T, g *graph.Graph, k int, opts verify.Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	opts.Store = s
	verify.Exhaustive(g, k, opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := editProofs(t, path, 1, func(e [][]byte) [][]byte {
		i := positiveEntry(t, e)
		e[i][3] = e[i][0]
		return e
	}); n != 1 {
		t.Fatalf("poisoned %d size-1 blocks, want 1", n)
	}
	return path
}

// TestStorePoisonedVerdictFallsBackToSolver poisons a witness in a block
// filed without symmetry: the warm sweep must count the replay failure,
// solve that size again and reach the verdict of a sweep without a store.
func TestStorePoisonedVerdictFallsBackToSolver(t *testing.T) {
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)

	g := construct.G2(2)
	opts := verify.Options{Workers: 1}
	base := verify.Exhaustive(g, 2, opts)
	path := poisonWitness(t, g, 2, opts)

	reg.Reset()
	s := openStore(t, path)
	defer s.Close()
	opts.Store = s
	rep := verify.Exhaustive(g, 2, opts)
	if got, want := rep.VerdictSummary(), base.VerdictSummary(); got != want {
		t.Errorf("poisoned block changed the verdict:\n got %q\nwant %q", got, want)
	}
	if got := reg.Counter("store_replay_fail_total").Value(); got == 0 {
		t.Error("replay failure not counted")
	}
	if rep.Tiers.Total() == 0 {
		t.Error("the poisoned size was not solved again")
	}
}

// TestStorePoisonedBlockIsRefiled poisons a witness in a block, with and
// without symmetry. The first warm sweep solves that size again and files
// its block over the poisoned one, so the warm sweeps after it replay
// every size, make no solver call and write nothing.
func TestStorePoisonedBlockIsRefiled(t *testing.T) {
	g := construct.G2(2)
	for _, symm := range []bool{false, true} {
		opts := verify.Options{Workers: 1, ExploitSymmetry: symm}
		base := verify.Exhaustive(g, 2, opts)
		path := poisonWitness(t, g, 2, opts)
		var size int64
		for run := 1; run <= 3; run++ {
			s := openStore(t, path)
			o := opts
			o.Store = s
			rep := verify.Exhaustive(g, 2, o)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := rep.VerdictSummary(), base.VerdictSummary(); got != want {
				t.Errorf("symm=%v run %d: verdict %q, want %q", symm, run, got, want)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			switch calls := rep.Tiers.Total(); {
			case run == 1 && calls == 0:
				t.Errorf("symm=%v: the first warm sweep did not solve the poisoned size again", symm)
			case run > 1 && calls != 0:
				t.Errorf("symm=%v run %d: %d solver calls, want 0: the re-solved block was not filed", symm, run, calls)
			case run > 2 && fi.Size() != size:
				t.Errorf("symm=%v run %d: the store went from %d to %d bytes, want no write", symm, run, size, fi.Size())
			}
			size = fi.Size()
		}
	}
}

// TestStorePoisonedManifestAbandonsWarmPath poisons a witness in a block
// of a symmetry-reduced proof: the warm proof must abandon that size,
// count the replay failure and enumerate it cold.
func TestStorePoisonedManifestAbandonsWarmPath(t *testing.T) {
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)

	g := construct.G2(2)
	opts := verify.Options{Workers: 1, ExploitSymmetry: true}
	base := verify.Exhaustive(g, 2, opts)
	path := poisonWitness(t, g, 2, opts)

	reg.Reset()
	s := openStore(t, path)
	defer s.Close()
	opts.Store = s
	warm := verify.Exhaustive(g, 2, opts)
	if got, want := warm.VerdictSummary(), base.VerdictSummary(); got != want {
		t.Errorf("poisoned block changed the verdict:\n got %q\nwant %q", got, want)
	}
	if got := reg.Counter("store_replay_fail_total").Value(); got == 0 {
		t.Error("replay failure not counted")
	}
	if hits := reg.Counter("store_hit_total", obs.L("kind", "manifest")).Value(); hits != 2 {
		t.Errorf("%d sizes replayed, want the 2 unpoisoned ones", hits)
	}
}

func TestStoreSharedAcrossRelabeledInstances(t *testing.T) {
	// Two isomorphic relabelings of one instance share all stored work:
	// verifying the second against the first's store must make zero solver
	// calls, replaying the blocks filed under the identity group (no
	// symmetry, to keep the id mapping exercise maximal).
	g := construct.G2(2)
	h := relabeledCopy(g)

	s := openStore(t, filepath.Join(t.TempDir(), "v.gdps"))
	defer s.Close()
	repG := verify.Exhaustive(g, 2, verify.Options{Workers: 1, Store: s})
	repH := verify.Exhaustive(h, 2, verify.Options{Workers: 1, Store: s})
	if repH.Checked != repG.Checked {
		t.Errorf("relabeled coverage differs: %d vs %d", repH.Checked, repG.Checked)
	}
	if repH.Tiers.Total() != 0 {
		t.Errorf("relabeled instance made %d solver calls, want 0 (all cached)", repH.Tiers.Total())
	}
	if repG.OK() != repH.OK() {
		t.Errorf("verdict differs across relabeling: %v vs %v", repG.OK(), repH.OK())
	}
}

// relabeledCopy reverses g's node ids — an isomorphic graph with a
// different adjacency layout and byte-equal canonical form.
func relabeledCopy(g *graph.Graph) *graph.Graph {
	n := g.NumNodes()
	out := graph.New(g.Name())
	for v := n - 1; v >= 0; v-- {
		out.AddNode(g.Kind(v), g.Label(v))
	}
	perm := func(v int) int { return n - 1 - v }
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if v < int(u) {
				out.AddEdge(perm(v), perm(int(u)))
			}
		}
	}
	return out
}

// recordKinds counts the records of the store file at path by kind.
func recordKinds(t *testing.T, path string) map[byte]int {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]int{}
	for b := img[6:]; len(b) > 0; b = b[10+int(binary.LittleEndian.Uint32(b[2:6])):] {
		kinds[b[1]]++
	}
	return kinds
}

// TestStoreFileFromEarlierReleaseReplays opens, unchanged, a store file
// written by an earlier release: per-set verdicts and orbit manifests of a
// cold and a warm symmetry-reduced sweep of G2(2), k=2 and of G3(2), k=3,
// with their groups. Those records are dead: the first proof of each
// instance solves again, reaches the verdict of a sweep without a store
// and files its proof blocks; the second replays them with no solver
// call. Closing the store drops the dead records.
func TestStoreFileFromEarlierReleaseReplays(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "store-v1.gdps"))
	if err != nil {
		t.Fatal(err)
	}
	if kinds := recordKinds(t, filepath.Join("testdata", "store-v1.gdps")); kinds[kindVerdict] == 0 || kinds[kindManifest] == 0 {
		t.Fatalf("test premise: the file holds verdicts and manifests, has %v", kinds)
	}
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	for _, workers := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "v.gdps")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			g *graph.Graph
			k int
		}{{construct.G2(2), 2}, {construct.G3(2), 3}} {
			base := verify.Exhaustive(tc.g, tc.k, verify.Options{Workers: workers, ExploitSymmetry: true})
			for round := 0; round < 2; round++ {
				reg.Reset()
				s := openStore(t, path)
				rep := verify.Exhaustive(tc.g, tc.k, verify.Options{Workers: workers, ExploitSymmetry: true, Store: s})
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if got, want := rep.VerdictSummary(), base.VerdictSummary(); got != want {
					t.Errorf("%s workers=%d round %d: verdict differs:\n got %q\nwant %q", tc.g.Name(), workers, round, got, want)
				}
				hits := reg.Counter("store_hit_total", obs.L("kind", "manifest")).Value()
				if calls := rep.Tiers.Total(); round == 0 && (calls == 0 || hits != 0) || round == 1 && (calls != 0 || hits != int64(tc.k+1)) {
					t.Errorf("%s workers=%d round %d: %d solver calls, %d sizes replayed", tc.g.Name(), workers, round, calls, hits)
				}
			}
		}
		if kinds := recordKinds(t, path); kinds[kindVerdict] != 0 || kinds[kindManifest] != 0 {
			t.Errorf("workers=%d: dead records survived Close: %v", workers, kinds)
		}
	}
}

// TestStoreFileOfPreviousReleaseReplays opens, unchanged, a store file
// written by the release before ranged proof blocks: a cold
// symmetry-reduced proof of G(3,3), k=3, whose blocks cover whole sizes,
// and a fleet sweep of it, whose chunk reports are blobs. The blocks read
// as covering their sizes: Replay and a warm sweep prove from them with no
// solver call and write nothing. Compact drops the blobs, which are dead
// records now, and keeps the blocks.
func TestStoreFileOfPreviousReleaseReplays(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "store-v2.gdps"))
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	sol, err := construct.Design(3, k)
	if err != nil {
		t.Fatal(err)
	}
	opts := verify.Options{Workers: 2, ExploitSymmetry: true, Solver: embed.Options{Layout: sol.Layout}}
	base := verify.Exhaustive(sol.Graph, k, opts)
	path := filepath.Join(t.TempDir(), "v.gdps")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if kinds := recordKinds(t, path); kinds[kindBlob] == 0 || kinds[kindWholeProof] != k+1 || kinds[kindProof] != 0 {
		t.Fatalf("test premise: the file holds blobs and %d whole-size blocks, has %v", k+1, kinds)
	}
	s := openStore(t, path)
	opts.Store = s
	for _, rep := range []*verify.Report{verify.Replay(sol.Graph, k, opts), verify.Exhaustive(sol.Graph, k, opts)} {
		if got, want := rep.VerdictSummary(), base.VerdictSummary(); got != want || rep.Tiers.Total() != 0 {
			t.Errorf("proof from the previous release's store: %q with %d solver calls; want %q and none", got, rep.Tiers.Total(), want)
		}
	}
	if st := s.Stats(); st.Dirty != 0 {
		t.Errorf("the proofs wrote %d records", st.Dirty)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got, want := fmt.Sprint(recordKinds(t, path)), fmt.Sprint(map[byte]int{kindGraph: 1, kindGroup: 1, kindWholeProof: k + 1}); got != want {
		t.Errorf("records by kind after Compact %s, want %s", got, want)
	}
}

// TestReplayWithoutSymmetry proves G(10,2), k=2 without symmetry into a
// store. Replay without symmetry must reach the cold verdict from the
// blocks filed under the identity group with no solver call; Replay with
// symmetry finds no block of its sweep.
func TestReplayWithoutSymmetry(t *testing.T) {
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	s := openStore(t, filepath.Join(t.TempDir(), "v.gdps"))
	defer s.Close()
	opts := verify.Options{Workers: 2, Solver: embed.Options{Layout: sol.Layout}, Store: s}
	cold := verify.Exhaustive(sol.Graph, k, opts)
	rep := verify.Replay(sol.Graph, k, opts)
	if got, want := rep.VerdictSummary(), cold.VerdictSummary(); got != want || !rep.OK() || rep.Tiers.Total() != 0 {
		t.Errorf("replay without symmetry: %q, %d solver calls; want %q and none", got, rep.Tiers.Total(), want)
	}
	opts.ExploitSymmetry = true
	if rep := verify.Replay(sol.Graph, k, opts); rep.OK() || len(rep.Unknowns) != k+1 || rep.Unknowns[0].Err != "size 0: no proof block" {
		t.Errorf("replay with symmetry of a store without: %s, unknowns %+v", rep.VerdictSummary(), rep.Unknowns)
	}
}

// canonicalNode returns the node of g whose canonical id is c.
func canonicalNode(g *graph.Graph, c int) int {
	for v, l := range g.Canonical().Labeling {
		if int(l) == c {
			return v
		}
	}
	panic("canonical id outside the graph")
}

// poisonedStore writes a store file whose slot 0 is g, followed by records
// of the given kinds and payloads, each with a valid CRC, as a foreign
// writer might, and opens it.
func poisonedStore(t *testing.T, g *graph.Graph, recs ...[]byte) (*store.Store, *store.GraphRef) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	s.Register(g)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		start := len(img)
		img = append(img, 1, r[0])
		img = binary.LittleEndian.AppendUint32(img, uint32(len(r)-1))
		img = append(img, r[1:]...)
		img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img[start:]))
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, path)
	ref := s.Register(g)
	if ref.Slot() != 0 {
		t.Fatalf("graph registered as slot %d, want 0", ref.Slot())
	}
	return s, ref
}

// Record kinds of the store file format, and uvarints for payloads.
// Verdicts, manifests and blobs are the dead kinds of earlier releases,
// whose whole-size proof blocks are still live.
const (
	kindGraph      = 1
	kindVerdict    = 2
	kindGroup      = 3
	kindManifest   = 4
	kindBlob       = 5
	kindWholeProof = 6
	kindProof      = 7
)

func uv(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestStoreOutOfRangeVerdictIDFallsBackToSolver gives a positive entry
// of a block filed without symmetry a witness node with canonical id 200,
// far outside the graph: its replay must fail once, and the warm sweep
// must reach the verdict of a sweep without a store.
func TestStoreOutOfRangeVerdictIDFallsBackToSolver(t *testing.T) {
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)

	g := construct.G2(2)
	opts := verify.Options{Workers: 1}
	base := verify.Exhaustive(g, 2, opts)
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	opts.Store = s
	verify.Exhaustive(g, 2, opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	editProofs(t, path, 1, func(e [][]byte) [][]byte {
		e[positiveEntry(t, e)][3] = 200
		return e
	})
	reg.Reset()
	s = openStore(t, path)
	defer s.Close()
	opts.Store = s
	rep := verify.Exhaustive(g, 2, opts)
	if got, want := rep.VerdictSummary(), base.VerdictSummary(); got != want {
		t.Errorf("out-of-range witness id changed the verdict:\n got %q\nwant %q", got, want)
	}
	if got := reg.Counter("store_replay_fail_total").Value(); got != 1 {
		t.Errorf("store_replay_fail_total = %d, want 1", got)
	}
}

// TestStoreOutOfRangeManifestAndGroupIDsMiss files, under the sweep's
// signature, a size-1 block whose one set has canonical id 200, and a
// group whose one generator maps a node to id 200: both must miss, with
// or without an explicit group, and leave the verdict unchanged.
func TestStoreOutOfRangeManifestAndGroupIDsMiss(t *testing.T) {
	g := construct.G2(2)
	n := g.NumNodes()
	gr := autom.Compute(g, autom.Options{})
	base := verify.Exhaustive(g, 2, verify.Options{Workers: 1, ExploitSymmetry: true})

	_, ref := poisonedStore(t, g)
	universe := make([]int, n)
	for i := range universe {
		universe[i] = i
	}
	sig := ref.SweepSig(universe, 2, ref.GroupSig(gr))
	block := binary.LittleEndian.AppendUint64(uv([]byte{kindWholeProof}, 0), sig)
	block = append(uv(block, 1, 1), 1, 200, 0)
	group := uv([]byte{kindGroup}, 0, 1, 1, 0, uint64(n))
	for c := 0; c < n-1; c++ {
		group = uv(group, uint64(c))
	}
	group = uv(group, 200)
	for _, opts := range []verify.Options{
		{Workers: 1, ExploitSymmetry: true, Group: gr},
		{Workers: 1, ExploitSymmetry: true},
	} {
		s, _ := poisonedStore(t, g, block, group)
		opts.Store = s
		rep := verify.Exhaustive(g, 2, opts)
		if got, want := rep.VerdictSummary(), base.VerdictSummary(); got != want {
			t.Errorf("out-of-range block or group id changed the verdict:\n got %q\nwant %q", got, want)
		}
		s.Close()
	}
}

// rewriteRecords rewrites every record of the store file at path through
// edit, which gets the record's kind and payload and returns the new
// payload; the record's length and CRC are recomputed, as a foreign
// writer would.
func rewriteRecords(t *testing.T, path string, edit func(kind byte, payload []byte) []byte) {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), img[:6]...)
	for b := img[6:]; len(b) > 0; {
		plen := int(binary.LittleEndian.Uint32(b[2:6]))
		out = appendRecord(out, b[1], edit(b[1], b[6:6+plen]))
		b = b[10+plen:]
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// editProofs rewrites, in the store file at path, every proof block of
// the given set size through edit, which gets the block's entries one
// slice each and returns the new entries. The header's range is kept, and
// its count becomes the new number of entries. It returns how many blocks
// it rewrote.
func editProofs(t *testing.T, path string, size int, edit func(entries [][]byte) [][]byte) int {
	t.Helper()
	return splitProofs(t, path, size, func(b rangedBlock) []rangedBlock {
		b.entries = edit(b.entries)
		return []rangedBlock{b}
	})
}

// rangedBlock is a proof block as splitProofs sees it: its range and its
// entries, one slice each.
type rangedBlock struct {
	from, to uint64
	entries  [][]byte
}

// splitProofs rewrites, in the store file at path, every proof block of
// the given set size as the blocks split returns for it, in order, each
// with its count the number of its entries. The entries must be width 1,
// as in any graph of at most 255 nodes. It returns how many blocks it
// rewrote.
func splitProofs(t *testing.T, path string, size int, split func(b rangedBlock) []rangedBlock) int {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out, edited := append([]byte(nil), img[:6]...), 0
	for b := img[6:]; len(b) > 0; {
		plen := int(binary.LittleEndian.Uint32(b[2:6]))
		kind, payload := b[1], b[6:6+plen]
		b = b[10+plen:]
		p := payload
		slot, n := binary.Uvarint(p)
		sig := binary.LittleEndian.Uint64(p[n:])
		p = p[n+8:]
		var hdr [4]uint64 // size, from, to, count
		for i := range hdr {
			hdr[i], n = binary.Uvarint(p)
			p = p[n:]
		}
		if kind != kindProof || int(hdr[0]) != size {
			out = appendRecord(out, kind, payload)
			continue
		}
		if p[0] != 1 {
			t.Fatalf("proof block of width %d, want 1", p[0])
		}
		blk := rangedBlock{from: hdr[1], to: hdr[2]}
		for e, i := p[1:], uint64(0); i < hdr[3]; i++ {
			n := size + 1 + int(e[size])
			blk.entries = append(blk.entries, append([]byte(nil), e[:n]...))
			e = e[n:]
		}
		for _, nb := range split(blk) {
			payload := binary.LittleEndian.AppendUint64(uv(nil, slot), sig)
			payload = append(uv(payload, hdr[0], nb.from, nb.to, uint64(len(nb.entries))), 1)
			for _, e := range nb.entries {
				payload = append(payload, e...)
			}
			out = appendRecord(out, kind, payload)
		}
		edited++
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return edited
}

// appendRecord appends a store record of the given kind and payload to
// img, its length and CRC computed.
func appendRecord(img []byte, kind byte, payload []byte) []byte {
	start := len(img)
	img = append(img, 1, kind)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
	img = append(img, payload...)
	return binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img[start:]))
}

// proofBlockFixture is a cold symmetry-reduced sweep of G3(5), k=2 written
// to a store file, with the report of the same sweep without a store.
type proofBlockFixture struct {
	g     *graph.Graph
	k     int
	opts  verify.Options
	base  *verify.Report
	clean string
}

func newProofBlockFixture(t *testing.T) proofBlockFixture {
	t.Helper()
	f := proofBlockFixture{g: construct.G3(5), k: 2, opts: verify.Options{Workers: 2, ExploitSymmetry: true}}
	f.base = verify.Exhaustive(f.g, f.k, f.opts)
	f.clean = filepath.Join(t.TempDir(), "clean.gdps")
	s := openStore(t, f.clean)
	opts := f.opts
	opts.Store = s
	verify.Exhaustive(f.g, f.k, opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return f
}

// proofBlockDamage is one way a foreign writer could damage the size-1
// proof block. An entry is its set id, its path length and its path ids;
// edit returns the new entries and, where it names a set, that set's
// canonical id, else -1. replayFail and miss are the warm sweep's expected
// replay failures and manifest misses.
type proofBlockDamage struct {
	name             string
	edit             func(e [][]byte) ([][]byte, int)
	replayFail, miss int64
}

// positiveEntry returns the index of the first entry with a witness path.
func positiveEntry(t *testing.T, e [][]byte) int {
	t.Helper()
	for i, x := range e {
		if x[1] != 0 {
			return i
		}
	}
	t.Fatal("no positive entry in the size-1 block")
	return 0
}

// splicePath removes the path node at index j of the entry.
func splicePath(x []byte, j int) []byte {
	x[1]--
	return append(x[:2+j], x[3+j:]...)
}

// check runs a Replay and then a warm sweep on a copy of the clean store
// with each damage applied to its size-1 proof block. Replay must leave
// size 1 unproved and say why; where an entry or an uncovered set is at
// fault it names that set and its rank, which for a size-1 set of G3(5)'s
// fault universe (every node) is its node id. Every warm verdict must
// equal the sweep's without a store, with size 1 falling back to
// enumeration: a certificate that no longer checks counts a replay
// failure, and a block that does not decode or does not cover every set of
// its size (an entry dropped, repeated, or added past the orbits) counts a
// manifest miss. The header's count always matches the entries, so only
// the replay's own checks can catch the damage. The warm sweep files a
// new size-1 block over the damaged one, so a second warm sweep replays
// every size.
func (f proofBlockFixture) check(t *testing.T, damages []proofBlockDamage) {
	t.Helper()
	for _, tc := range damages {
		f.checkDamage(t, tc, func(path string) (named int) {
			if n := editProofs(t, path, 1, func(e [][]byte) [][]byte {
				e, named = tc.edit(e)
				return e
			}); n != 1 {
				t.Fatalf("%s: edited %d size-1 blocks, want 1", tc.name, n)
			}
			return named
		})
	}
}

// checkDamage is check for one damage, which damage applies to the store
// file at path; it returns the canonical id of the set it names, or -1.
func (f proofBlockFixture) checkDamage(t *testing.T, tc proofBlockDamage, damage func(path string) int) {
	t.Helper()
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	raw, err := os.ReadFile(f.clean)
	if err != nil {
		t.Fatal(err)
	}
	g, k := f.g, f.k
	path := filepath.Join(t.TempDir(), "v.gdps")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	named := damage(path)
	s := openStore(t, path)
	rep := verify.Replay(g, k, verify.Options{Workers: 2, ExploitSymmetry: true, Store: s})
	s.Close()
	want := verify.FaultSetRecord{Err: "size 1: "}
	if named >= 0 {
		v := canonicalNode(g, named)
		want = verify.FaultSetRecord{Nodes: []int{v}, Err: fmt.Sprintf("size 1 rank %d: ", v)}
	}
	if rep.OK() || rep.UnknownCount != int64(g.NumNodes()) || len(rep.Unknowns) != 1 ||
		!slices.Equal(rep.Unknowns[0].Nodes, want.Nodes) || !strings.HasPrefix(rep.Unknowns[0].Err, want.Err) {
		t.Errorf("%s: Replay reported %d unknowns %+v; want the %d sets of size 1 unproved, for %v %q…",
			tc.name, rep.UnknownCount, rep.Unknowns, g.NumNodes(), want.Nodes, want.Err)
	}

	reg.Reset()
	s = openStore(t, path)
	opts := f.opts
	opts.Store = s
	warm := verify.Exhaustive(g, k, opts)
	s.Close()
	if got, want := warm.VerdictSummary(), f.base.VerdictSummary(); got != want {
		t.Errorf("%s: verdict changed:\n got %q\nwant %q", tc.name, got, want)
	}
	fails := reg.Counter("store_replay_fail_total").Value()
	misses := reg.Counter("store_miss_total", obs.L("kind", "manifest")).Value()
	hits := reg.Counter("store_hit_total", obs.L("kind", "manifest")).Value()
	if fails != tc.replayFail || misses != tc.miss || hits != int64(k) {
		t.Errorf("%s: replay failures %d, manifest misses %d, manifest hits %d; want %d, %d, %d",
			tc.name, fails, misses, hits, tc.replayFail, tc.miss, k)
	}
	// Size 1 was solved again, and every entry of the other sizes'
	// blocks replayed.
	if vh, calls := reg.Counter("store_hit_total", obs.L("kind", "verdict")).Value(), warm.Tiers.Total(); calls == 0 || vh+calls != warm.Checked {
		t.Errorf("%s: %d verdict hits and %d solver calls for %d checked sets", tc.name, vh, calls, warm.Checked)
	}

	s = openStore(t, path)
	opts.Store = s
	again := verify.Exhaustive(g, k, opts)
	s.Close()
	if again.VerdictSummary() != f.base.VerdictSummary() || again.Tiers.Total() != 0 {
		t.Errorf("%s: second warm sweep %q made %d solver calls; want %q and none",
			tc.name, again.VerdictSummary(), again.Tiers.Total(), f.base.VerdictSummary())
	}
}

// TestStoreProofBlockTrustBoundary damages the size-1 proof block's
// encoding and one witness in ways no other test covers; see
// proofBlockFixture.check for what each damaged store must do.
func TestStoreProofBlockTrustBoundary(t *testing.T) {
	newProofBlockFixture(t).check(t, []proofBlockDamage{
		{"path id flipped to a faulty node", func(e [][]byte) ([][]byte, int) {
			i := positiveEntry(t, e)
			e[i][3] = e[i][0] // the second path node becomes the set's faulty node
			return e, int(e[i][0])
		}, 1, 0},
		{"truncated entry", func(e [][]byte) ([][]byte, int) {
			e[len(e)-1] = e[len(e)-1][:len(e[len(e)-1])-1]
			return e, -1
		}, 0, 1},
		{"stray byte", func(e [][]byte) ([][]byte, int) {
			e[len(e)-1] = append(e[len(e)-1], 0)
			return e, -1
		}, 0, 1},
	})
}

// TestCertifyAndReplay proves G3(5), k=2 into a store and replays the
// undamaged store: Replay must reach the sweep's verdict with no solver
// call and write nothing.
func TestCertifyAndReplay(t *testing.T) {
	f := newProofBlockFixture(t)
	s := openStore(t, f.clean)
	defer s.Close()
	rep := verify.Replay(f.g, f.k, verify.Options{Workers: 2, ExploitSymmetry: true, Store: s})
	if got, want := rep.VerdictSummary(), f.base.VerdictSummary(); got != want || !rep.OK() {
		t.Errorf("replay of the clean store:\n got %q\nwant %q", got, want)
	}
	if rep.Tiers.Total() != 0 {
		t.Errorf("Replay made %d solver calls", rep.Tiers.Total())
	}
	if st := s.Stats(); st.Dirty != 0 {
		t.Errorf("Replay wrote %d records", st.Dirty)
	}
}

// TestCertifyFailsOnNonSolution proves, into a store, a graph that is not
// 1-GD: a bare line. Replay of that store must not prove it, and must
// report the cold sweep's counterexamples.
func TestCertifyFailsOnNonSolution(t *testing.T) {
	g := construct.G1(1).Clone()
	g.RemoveEdge(0, 1) // break the processor clique edge
	const k = 1
	s := openStore(t, filepath.Join(t.TempDir(), "v.gdps"))
	defer s.Close()
	opts := verify.Options{Workers: 2, ExploitSymmetry: true, Store: s}
	cold := verify.Exhaustive(g, k, opts)
	if cold.FailureCount == 0 {
		t.Fatal("test premise: the line must fail at k=1")
	}
	rep := verify.Replay(g, k, opts)
	if got, want := rep.VerdictSummary(), cold.VerdictSummary(); rep.OK() || got != want {
		t.Errorf("replay of a non-solution's store:\n got %q\nwant %q", got, want)
	}
}

// TestReplayRejectsTampering drops, duplicates and corrupts entries of the
// size-1 proof block, and replays the undamaged store against another
// graph.
func TestReplayRejectsTampering(t *testing.T) {
	f := newProofBlockFixture(t)
	f.check(t, []proofBlockDamage{
		{"witness nodes swapped", func(e [][]byte) ([][]byte, int) {
			i := positiveEntry(t, e)
			e[i][3], e[i][4] = e[i][4], e[i][3]
			return e, int(e[i][0])
		}, 1, 0},
		{"entry dropped", func(e [][]byte) ([][]byte, int) {
			// A representative is its orbit's least set, so it is the
			// first set the block leaves uncovered.
			return e[1:], int(e[0][0])
		}, 0, 1},
		{"entry duplicated over another", func(e [][]byte) ([][]byte, int) {
			lost := int(e[1][0])
			e[1] = e[0]
			return e, lost
		}, 0, 1},
	})
	s := openStore(t, f.clean)
	defer s.Close()
	if rep := verify.Replay(construct.G3(4), f.k, verify.Options{Workers: 2, ExploitSymmetry: true, Store: s}); rep.OK() ||
		len(rep.Unknowns) != f.k+1 || rep.Unknowns[0].Err != "size 0: no proof block" {
		t.Errorf("replay of another graph: %s, unknowns %+v", rep.VerdictSummary(), rep.Unknowns)
	}
}

// TestReplayRejectsBadFaultLists gives the size-1 proof block a set id
// outside the graph, and more entries than its size has sets.
func TestReplayRejectsBadFaultLists(t *testing.T) {
	f := newProofBlockFixture(t)
	f.check(t, []proofBlockDamage{
		{"set id outside the graph", func(e [][]byte) ([][]byte, int) {
			e[0][0] = 200
			return e, -1
		}, 0, 1},
		{"too many entries", func(e [][]byte) ([][]byte, int) {
			for len(e) <= f.g.NumNodes() {
				e = append(e, e[0])
			}
			return e, -1
		}, 0, 1},
	})
}

// TestReplayRejectsBadRanges splits the size-1 proof block into blocks
// with a gap between them, or overlapping ones, of which the later drops
// the earlier, and stretches its range past the size's sets.
func TestReplayRejectsBadRanges(t *testing.T) {
	f := newProofBlockFixture(t)
	// rank is an entry's rank: for a set of one node of G3(5)'s universe,
	// every node, the node's id.
	rank := func(e []byte) uint64 { return uint64(canonicalNode(f.g, int(e[0]))) }
	// hole is the least rank of no entry: a set that is not the least of
	// its orbit.
	hole := func(b rangedBlock) uint64 {
		for r := uint64(0); ; r++ {
			if !slices.ContainsFunc(b.entries, func(e []byte) bool { return rank(e) == r }) {
				return r
			}
		}
	}
	// cut splits b's entries by rank, below r and from r on.
	cut := func(b rangedBlock, r uint64) (lo, hi [][]byte) {
		for _, e := range b.entries {
			if rank(e) < r {
				lo = append(lo, e)
			} else {
				hi = append(hi, e)
			}
		}
		return lo, hi
	}
	for name, split := range map[string]func(b rangedBlock) []rangedBlock{
		"gap between blocks": func(b rangedBlock) []rangedBlock {
			r := hole(b)
			lo, hi := cut(b, r)
			return []rangedBlock{{b.from, r, lo}, {r + 1, b.to, hi}}
		},
		"overlapping blocks": func(b rangedBlock) []rangedBlock {
			r := hole(b)
			lo, hi := cut(b, r)
			return []rangedBlock{{b.from, r + 1, lo}, {r, b.to, hi}}
		},
		"range past the size's sets": func(b rangedBlock) []rangedBlock {
			b.to++
			return []rangedBlock{b}
		},
	} {
		f.checkDamage(t, proofBlockDamage{name: name, miss: 1}, func(path string) int {
			if n := splitProofs(t, path, 1, split); n != 1 {
				t.Fatalf("%s: split %d size-1 blocks, want 1", name, n)
			}
			return -1
		})
	}
}

// TestReplayErrorsLocateTheCertificate breaks one witness of the size-1
// proof block in specific ways; Replay's record must name the size, the
// entry's fault set and its rank, so the entry can be found again.
func TestReplayErrorsLocateTheCertificate(t *testing.T) {
	newProofBlockFixture(t).check(t, []proofBlockDamage{
		{"truncated path", func(e [][]byte) ([][]byte, int) {
			i := positiveEntry(t, e)
			e[i] = splicePath(e[i], int(e[i][1])-1)
			return e, int(e[i][0])
		}, 1, 0},
		{"wrong endpoint", func(e [][]byte) ([][]byte, int) {
			i := positiveEntry(t, e)
			e[i] = splicePath(e[i], 0) // the path then starts at a processor
			return e, int(e[i][0])
		}, 1, 0},
		{"skipped processor", func(e [][]byte) ([][]byte, int) {
			i := positiveEntry(t, e)
			e[i] = splicePath(e[i], int(e[i][1])/2)
			return e, int(e[i][0])
		}, 1, 0},
		{"faulty node on path", func(e [][]byte) ([][]byte, int) {
			i := positiveEntry(t, e)
			e[i][0] = e[i][3] // the set becomes the path's second node
			return e, int(e[i][0])
		}, 1, 0},
	})
}

// TestStoreProofBlockMustCoverItsSize files, for G3(2), k=3, proof
// blocks that list only the positive orbit representatives of each size,
// counts and CRCs intact, as an edited store might. Replayed without a
// coverage check, they turned the cold disproof into a clean proof.
// Replay must fail, naming the first uncovered set (the least negative
// one) and its rank, and the warm sweep must reach the cold verdict.
func TestStoreProofBlockMustCoverItsSize(t *testing.T) {
	g := construct.G3(2)
	const k = 3
	n := g.NumNodes()
	gr := autom.Compute(g, autom.Options{})
	elems, ok := gr.Elements()
	if !ok {
		t.Fatal("test premise: G3(2)'s group must materialize")
	}
	opts := verify.Options{Workers: 2, ExploitSymmetry: true, Group: gr}
	cold := verify.Exhaustive(g, k, opts)
	if cold.FailureCount == 0 {
		t.Fatal("test premise: G3(2) must fail at k=3")
	}

	s := openStore(t, filepath.Join(t.TempDir(), "v.gdps"))
	defer s.Close()
	ref := s.Register(g)
	universe := make([]int, n)
	for i := range universe {
		universe[i] = i
	}
	sig := ref.SweepSig(universe, k, ref.GroupSig(gr))
	minimal := func(sub []int) bool {
		img := make([]int, len(sub))
		for _, p := range elems {
			for i, v := range sub {
				img[i] = int(p.Map[v])
			}
			slices.Sort(img)
			if slices.Compare(img, sub) < 0 {
				return false
			}
		}
		return true
	}
	var gap []int
	var gapSize int
	for size := 0; size <= k; size++ {
		reps := store.NewProofEntries(n)
		combin.Subsets(n, size, func(sub []int) bool {
			faults := bitset.New(n)
			for _, v := range sub {
				faults.Add(v)
			}
			path, found, err := verify.Tolerates(g, faults, embed.Options{})
			switch {
			case err != nil:
				t.Fatalf("%v: %v", sub, err)
			case !found && gap == nil:
				gap, gapSize = slices.Clone(sub), size
			case found && minimal(sub):
				reps.Add(sub, path)
			}
			return true
		})
		ref.PutProof(sig, size, 0, combin.Binomial(n, size), []store.ProofEntries{reps})
	}

	// Replay first: the warm sweep files complete blocks over the
	// positive-only ones.
	opts.Store = s
	rep := verify.Replay(g, k, opts)
	want := fmt.Sprintf("size %d rank %d: ", gapSize, combin.NewRanker(n, gapSize).Rank(gap))
	found := false
	for _, u := range rep.Unknowns {
		found = found || slices.Equal(u.Nodes, gap) && strings.HasPrefix(u.Err, want)
	}
	if rep.OK() || !found {
		t.Errorf("Replay of positive-only blocks: %s, unknowns %+v; want one naming %v %q…",
			rep.VerdictSummary(), rep.Unknowns, gap, want)
	}
	if got, want := verify.Exhaustive(g, k, opts).VerdictSummary(), cold.VerdictSummary(); got != want {
		t.Errorf("warm verdict from positive-only blocks:\n got %q\nwant %q", got, want)
	}
}

// TestStoreWarmProofReplaysNegatives checks that a warm symmetry-reduced
// proof of a failing instance, and a Replay, replay every size from its
// proof block, re-screening each negative entry, and record the cold
// run's counterexamples.
func TestStoreWarmProofReplaysNegatives(t *testing.T) {
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	g := construct.G3(2)
	const k = 3
	opts := verify.Options{Workers: 2, ExploitSymmetry: true}
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	opts.Store = s
	cold := verify.Exhaustive(g, k, opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if cold.FailureCount == 0 {
		t.Fatal("test premise: G3(2) must fail at k=3")
	}
	reg.Reset()
	s = openStore(t, path)
	defer s.Close()
	opts.Store = s
	warm := verify.Exhaustive(g, k, opts)
	if got, want := warm.VerdictSummary(), cold.VerdictSummary(); got != want {
		t.Errorf("warm verdict differs:\n got %q\nwant %q", got, want)
	}
	rechecked := reg.Counter("store_negative_recheck_total", obs.L("result", "confirmed")).Value() +
		reg.Counter("store_negative_recheck_total", obs.L("result", "accepted")).Value()
	if warm.Tiers.Total() != 0 || rechecked != cold.FailureCount {
		t.Errorf("warm run: %d solver calls, %d negatives re-screened; want 0 and %d", warm.Tiers.Total(), rechecked, cold.FailureCount)
	}
	// Replay, with no solver, reaches the same disproof.
	if got, want := verify.Replay(g, k, opts).VerdictSummary(), cold.VerdictSummary(); got != want {
		t.Errorf("replayed verdict differs:\n got %q\nwant %q", got, want)
	}
}

// TestStoreFirstWarmProofWritesNothing runs a cold symmetry-reduced proof
// of G(22,4), k=4 with the circulant reflection as the group's seed, as
// gdpverify does, then one warm proof: the warm proof must load the group
// under the cold proof's signature, replay every size from its proof
// block and write nothing.
func TestStoreFirstWarmProofWritesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("cold G(22,4) proof")
	}
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	sol, err := construct.Design(22, 4)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	opts := verify.Options{Workers: 2, ExploitSymmetry: true, Solver: embed.Options{Layout: sol.Layout}}
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	opts.Store = s
	cold := verify.Exhaustive(sol.Graph, k, opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reg.Reset()
	s = openStore(t, path)
	defer s.Close()
	opts.Store = s
	warm := verify.Exhaustive(sol.Graph, k, opts)
	if got, want := warm.VerdictSummary(), cold.VerdictSummary(); got != want {
		t.Errorf("warm verdict differs:\n got %q\nwant %q", got, want)
	}
	if hits := reg.Counter("store_hit_total", obs.L("kind", "manifest")).Value(); hits != k+1 || warm.Tiers.Total() != 0 {
		t.Errorf("warm proof: %d of %d sizes replayed, %d solver calls", hits, k+1, warm.Tiers.Total())
	}
	if st := s.Stats(); st.Dirty != 0 {
		t.Errorf("the first warm proof wrote %d records", st.Dirty)
	}
}

// TestStoreColdProofFilesOnlyBlocks checks that a cold symmetry-reduced
// proof of G(12,3), k=3 files no per-set record: the store holds the
// graph, its group and one proof block per size.
func TestStoreColdProofFilesOnlyBlocks(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	rep := verify.Exhaustive(sol.Graph, k, verify.Options{Workers: 2, ExploitSymmetry: true, Store: s, Solver: embed.Options{Layout: sol.Layout}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("test premise: G(12,3) proves: %s", rep.VerdictSummary())
	}
	if got, want := fmt.Sprint(recordKinds(t, path)), fmt.Sprint(map[byte]int{kindGraph: 1, kindGroup: 1, kindProof: k + 1}); got != want {
		t.Errorf("records by kind %s, want %s", got, want)
	}
}

// TestStoreWarmProofOver64Nodes checks that a warm symmetry-reduced proof
// of G(60,2), k=2, whose fault universe has 68 nodes, replays every size
// from its proof block with no solver call.
func TestStoreWarmProofOver64Nodes(t *testing.T) {
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	sol, err := construct.Design(60, 2)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	if n := sol.Graph.NumNodes(); n <= 64 {
		t.Fatalf("test premise: more than 64 nodes, have %d", n)
	}
	opts := verify.Options{Workers: 2, ExploitSymmetry: true, Solver: embed.Options{Layout: sol.Layout}}
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	opts.Store = s
	cold := verify.Exhaustive(sol.Graph, k, opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reg.Reset()
	s = openStore(t, path)
	defer s.Close()
	opts.Store = s
	warm := verify.Exhaustive(sol.Graph, k, opts)
	if got, want := warm.VerdictSummary(), cold.VerdictSummary(); got != want {
		t.Errorf("warm verdict differs:\n got %q\nwant %q", got, want)
	}
	if hits := reg.Counter("store_hit_total", obs.L("kind", "manifest")).Value(); hits != k+1 || warm.Tiers.Total() != 0 {
		t.Errorf("warm proof: %d of %d sizes replayed, %d solver calls", hits, k+1, warm.Tiers.Total())
	}
}

// TestStoreFilesEachCleanSize gives the backtracking solver so small a
// budget that G2(4), k=2 leaves unknowns at size 2 only. The cold sweep
// must still file the blocks of sizes 0 and 1, which a warm sweep
// replays, solving size 2 alone.
func TestStoreFilesEachCleanSize(t *testing.T) {
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	g := construct.G2(4)
	const k = 2
	opts := verify.Options{Workers: 1, ExploitSymmetry: true, Solver: embed.Options{Method: embed.Backtracking, Budget: 5}}
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	opts.Store = s
	cold := verify.Exhaustive(g, k, opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, u := range cold.Unknowns {
		if len(u.Nodes) != k {
			t.Fatalf("test premise: unknowns at size %d only, have %+v", k, cold.Unknowns)
		}
	}
	if cold.UnknownCount == 0 {
		t.Fatal("test premise: the budget leaves unknowns")
	}
	reg.Reset()
	s = openStore(t, path)
	defer s.Close()
	opts.Store = s
	warm := verify.Exhaustive(g, k, opts)
	hits := reg.Counter("store_hit_total", obs.L("kind", "manifest")).Value()
	replayed := reg.Counter("store_hit_total", obs.L("kind", "verdict")).Value()
	// Size k's sets are all solved again, its unknowns among them.
	if solved := warm.Checked - replayed; hits != k || warm.Checked != cold.Checked || solved < cold.UnknownCount || solved == cold.Checked {
		t.Errorf("warm sweep: %d of %d clean sizes replayed (%d entries), %d sets solved, of %d checked; %d unknowns",
			hits, k, replayed, solved, cold.Checked, cold.UnknownCount)
	}
}

// TestStoreWrongGraphLabelingFallsBack rewrites the labeling that the
// graph record of a cold proof's store keeps, CRC intact, into one that is
// no isomorphism onto the canonical graph. The warm proof must not use
// it: it registers through the canonical form, replays every size with no
// solver call, reaches the cold verdict and writes nothing.
func TestStoreWrongGraphLabelingFallsBack(t *testing.T) {
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	g := construct.G3(3)
	const k = 3
	opts := verify.Options{Workers: 2, ExploitSymmetry: true}
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	opts.Store = s
	cold := verify.Exhaustive(g, k, opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cf := g.Canonical()
	rewrote := false
	rewriteRecords(t, path, func(kind byte, payload []byte) []byte {
		if kind != kindGraph {
			return payload
		}
		// The labeling follows the slot, fingerprint, exact flag and the
		// canonical bytes; swap two of its entries so it breaks.
		head := len(payload) - len(uv(nil, uint64(len(cf.Labeling)))) - len(cf.Labeling)
		lab := slices.Clone(cf.Labeling)
		for i := 1; i < len(lab) && !rewrote; i++ {
			lab[0], lab[i] = lab[i], lab[0]
			if enc, _ := g.EncodeUnder(lab); string(enc) != string(cf.Bytes) {
				rewrote = true
				break
			}
			lab[0], lab[i] = lab[i], lab[0]
		}
		out := slices.Clone(payload[:head])
		out = uv(out, uint64(len(lab)))
		for _, c := range lab {
			out = uv(out, uint64(c))
		}
		return out
	})
	if !rewrote {
		t.Fatal("test premise: a swap of two labels breaks the labeling")
	}
	reg.Reset()
	s = openStore(t, path)
	defer s.Close()
	opts.Store = s
	warm := verify.Exhaustive(g, k, opts)
	if got, want := warm.VerdictSummary(), cold.VerdictSummary(); got != want {
		t.Errorf("warm verdict differs:\n got %q\nwant %q", got, want)
	}
	if hits := reg.Counter("store_hit_total", obs.L("kind", "manifest")).Value(); hits != k+1 || warm.Tiers.Total() != 0 {
		t.Errorf("warm proof: %d of %d sizes replayed, %d solver calls", hits, k+1, warm.Tiers.Total())
	}
	if st := s.Stats(); st.Dirty != 0 {
		t.Errorf("the warm proof wrote %d records", st.Dirty)
	}
}
