package verify_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"gdpn/internal/combin"
	"gdpn/internal/construct"
	"gdpn/internal/verify"
)

// Shards must partition the enumeration exactly: every fault set of size
// ≤ k in exactly one shard, in canonical order, regardless of chunking
// granularity.
func TestShardsPartitionEnumeration(t *testing.T) {
	g := construct.G3(3)
	for _, per := range []int64{1, 7, 64, 1 << 20} {
		shards := verify.Shards(g, 3, verify.AllNodes, per)
		var ranks int64
		for i, sh := range shards {
			if sh.Ranks() <= 0 || sh.Ranks() > per {
				t.Fatalf("per=%d: shard %d covers %d ranks", per, i, sh.Ranks())
			}
			if i > 0 {
				prev := shards[i-1]
				sameSize := prev.Size == sh.Size && prev.To == sh.From
				nextSize := prev.Size < sh.Size && sh.From == 0
				if !sameSize && !nextSize {
					t.Fatalf("per=%d: shard %d (%+v) does not follow %+v", per, i, sh, prev)
				}
			}
			ranks += sh.Ranks()
		}
		if want := combin.CountUpTo(g.NumNodes(), 3); ranks != want {
			t.Errorf("per=%d: shards cover %d ranks, want %d", per, ranks, want)
		}
	}
}

// A ShardRunner walking every shard — in any order — must merge to the
// verdict summary of the single-process Exhaustive run, with and without
// symmetry reduction. This is the parity property the fleet's CI
// gauntlet re-checks at the binary level.
func TestShardRunnerMatchesExhaustive(t *testing.T) {
	sol, err := construct.Design(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := sol.Graph
	for _, symm := range []bool{false, true} {
		opts := verify.Options{ExploitSymmetry: symm}
		want := verify.Exhaustive(g, 3, opts)

		shards := verify.Shards(g, 3, verify.AllNodes, 100)
		rand.New(rand.NewSource(2)).Shuffle(len(shards), func(i, j int) {
			shards[i], shards[j] = shards[j], shards[i]
		})
		runner := verify.NewShardRunner(g, 3, opts)
		got := &verify.Report{GraphName: g.Name(), K: 3}
		var tiersTotal int64
		for _, sh := range shards {
			rep := runner.Run(sh)
			if rep.Interrupted {
				t.Fatalf("symm=%v: shard %+v interrupted without cancellation", symm, sh)
			}
			tiersTotal += rep.Tiers.Total()
			verify.MergeReports(got, rep, 0)
		}
		runner.Close()

		if got.VerdictSummary() != want.VerdictSummary() {
			t.Errorf("symm=%v: sharded verdict\n%q\nwant\n%q", symm, got.VerdictSummary(), want.VerdictSummary())
		}
		if tiersTotal != got.Checked {
			t.Errorf("symm=%v: per-shard tier stats total %d, checked %d", symm, tiersTotal, got.Checked)
		}
	}
}

// An out-of-order merge of the same partials must produce the same
// report: the fleet depends on merge being commutative, including the
// record-list caps and the Interrupted flag.
func TestShardReportsMergeOrderIndependent(t *testing.T) {
	g := construct.G3(2)
	opts := verify.Options{}
	shards := verify.Shards(g, 2, verify.AllNodes, 9)
	runner := verify.NewShardRunner(g, 2, opts)
	var parts []*verify.Report
	for _, sh := range shards {
		parts = append(parts, runner.Run(sh))
	}
	runner.Close()

	mergeAll := func(order []int) *verify.Report {
		rep := &verify.Report{GraphName: g.Name(), K: 2}
		for _, i := range order {
			verify.MergeReports(rep, parts[i], 0)
		}
		return rep
	}
	fwd := make([]int, len(parts))
	rev := make([]int, len(parts))
	for i := range parts {
		fwd[i] = i
		rev[len(parts)-1-i] = i
	}
	if a, b := mergeAll(fwd), mergeAll(rev); a.VerdictSummary() != b.VerdictSummary() ||
		a.Checked != b.Checked || a.Represented != b.Represented {
		t.Errorf("merge order changed the report:\n%v\nvs\n%v", a, b)
	}
}

// The verdict summary — including which counterexamples the record cap
// keeps — must not depend on scheduling: not on the worker count, the
// steal order, the shard order, or whether a store replays the sweep.
// G3(2) at k=3 has more failures than the default cap of 16, so a cap
// filled in walk order instead of canonical order shows here.
func TestVerdictSummaryIndependentOfSchedule(t *testing.T) {
	g := construct.G3(2)
	const k = 3
	for _, symm := range []bool{false, true} {
		opts := verify.Options{ExploitSymmetry: symm}
		summaries := map[string][]string{}
		note := func(how string, rep *verify.Report) {
			summaries[rep.VerdictSummary()] = append(summaries[rep.VerdictSummary()], how)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for i := 0; i < 5; i++ {
				o := opts
				o.Workers = workers
				note(fmt.Sprintf("workers=%d", workers), verify.Exhaustive(g, k, o))
			}
		}

		shards := verify.Shards(g, k, verify.AllNodes, 7)
		rand.New(rand.NewSource(3)).Shuffle(len(shards), func(i, j int) {
			shards[i], shards[j] = shards[j], shards[i]
		})
		runner := verify.NewShardRunner(g, k, opts)
		sharded := &verify.Report{GraphName: g.Name(), K: k}
		for _, sh := range shards {
			verify.MergeReports(sharded, runner.Run(sh), 0)
		}
		runner.Close()
		note("shuffled shards", sharded)

		path := filepath.Join(t.TempDir(), "v.gdps")
		for _, phase := range []struct {
			name    string
			workers int
		}{{"cold store", 3}, {"warm store", 2}, {"warm store", 8}} {
			s := openStore(t, path)
			o := opts
			o.Workers, o.Store = phase.workers, s
			note(fmt.Sprintf("%s workers=%d", phase.name, phase.workers), verify.Exhaustive(g, k, o))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}

		if len(summaries) != 1 {
			for sum, runs := range summaries {
				t.Errorf("symm=%v: %v printed\n%s", symm, runs, sum)
			}
			continue
		}
		for sum := range summaries {
			if !strings.Contains(sum, "FAILED") {
				t.Fatalf("symm=%v: G3(2) k=%d should fail: %s", symm, k, sum)
			}
		}
	}
}
