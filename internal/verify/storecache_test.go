package verify_test

import (
	"path/filepath"
	"testing"

	"gdpn/internal/construct"
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

func TestStorePoisonedVerdictFallsBackToSolver(t *testing.T) {
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	reg.Reset()

	g := construct.G2(2)
	base := verify.Exhaustive(g, 2, verify.Options{Workers: 1})

	// Poison the store: a positive verdict whose certificate cannot replay.
	// First-write-wins means the bogus entry survives the later sweep.
	s := openStore(t, filepath.Join(t.TempDir(), "v.gdps"))
	defer s.Close()
	ref := s.Register(g)
	ref.PutVerdict([]int{0}, store.Verdict{Found: true, Path: []int{0, 1, 2}})

	rep := verify.Exhaustive(g, 2, verify.Options{Workers: 1, Store: s})
	if got, want := rep.VerdictSummary(), base.VerdictSummary(); got != want {
		t.Errorf("poisoned cache changed the verdict:\n got %q\nwant %q", got, want)
	}
	if got := reg.Counter("store_replay_fail_total").Value(); got == 0 {
		t.Error("replay failure not counted")
	}
}

func TestStorePoisonedManifestAbandonsWarmPath(t *testing.T) {
	reg := obs.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	reg.Reset()

	g := construct.G2(2)
	base := verify.Exhaustive(g, 2, verify.Options{Workers: 1, ExploitSymmetry: true})

	// Cold symmetry-reduced sweep records manifests — but one of its cached
	// verdicts was poisoned beforehand, so the next warm run's manifest
	// replay must abandon that size class and re-enumerate it cold.
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	ref := s.Register(g)
	ref.PutVerdict([]int{0}, store.Verdict{Found: true, Path: []int{0, 1, 2}})
	verify.Exhaustive(g, 2, verify.Options{Workers: 1, ExploitSymmetry: true, Store: s})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, path)
	defer s2.Close()
	warm := verify.Exhaustive(g, 2, verify.Options{Workers: 1, ExploitSymmetry: true, Store: s2})
	if got, want := warm.VerdictSummary(), base.VerdictSummary(); got != want {
		t.Errorf("poisoned manifest changed the verdict:\n got %q\nwant %q", got, want)
	}
	if got := reg.Counter("store_replay_fail_total").Value(); got == 0 {
		t.Error("replay failure not counted")
	}
}

func TestStoreSharedAcrossRelabeledInstances(t *testing.T) {
	// Two isomorphic relabelings of one instance share all cached work:
	// verifying the second against the first's store must make zero solver
	// calls on the per-verdict path (no symmetry, to keep the id mapping
	// exercise maximal).
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

func TestShardRunnerUsesStore(t *testing.T) {
	g := construct.G2(2)
	path := filepath.Join(t.TempDir(), "v.gdps")
	s := openStore(t, path)
	base := verify.Exhaustive(g, 2, verify.Options{Workers: 1, Store: s})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, path)
	defer s2.Close()
	r := verify.NewShardRunner(g, 2, verify.Options{Store: s2})
	defer r.Close()
	rep := &verify.Report{GraphName: g.Name(), K: 2}
	for _, sh := range verify.Shards(g, 2, verify.AllNodes, 0) {
		verify.MergeReports(rep, r.Run(sh), 0)
	}
	if got, want := rep.VerdictSummary(), base.VerdictSummary(); got != want {
		t.Errorf("sharded warm verdict differs:\n got %q\nwant %q", got, want)
	}
	if rep.Tiers.Total() != 0 {
		t.Errorf("warm sharded run made %d solver calls, want 0", rep.Tiers.Total())
	}
}
