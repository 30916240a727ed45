package verify_test

import (
	"runtime"
	"testing"

	"gdpn/internal/autom"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/verify"
)

// TestSweepAllocsPerCheckedSet runs one ShardRunner over a shard of the
// size-5 fault sets of G(26,5), symmetry-reduced and with the layout, as
// the sweep benchmark's proof does, and bounds the heap allocations of
// the whole run, the first growth of the runner's buffers included, at
// 0.01 per checked set. Each set is one warm planner call into the
// worker's own path buffer, which allocates nothing, so what is left is
// the shard's own bookkeeping.
func TestSweepAllocsPerCheckedSet(t *testing.T) {
	sol, err := construct.Design(26, 5)
	if err != nil {
		t.Fatal(err)
	}
	refl, err := autom.Reflection(sol.Graph, sol.Layout)
	if err != nil {
		t.Fatal(err)
	}
	group := autom.Compute(sol.Graph, autom.Options{Seeds: []autom.Perm{refl}})
	runner := verify.NewShardRunner(sol.Graph, 5, verify.Options{
		Solver:          embed.Options{Layout: sol.Layout},
		ExploitSymmetry: true,
		Group:           group,
	})
	defer runner.Close()
	shard := verify.Shard{Size: 5, From: 100_000, To: 150_000}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := runner.Run(shard)
	runtime.ReadMemStats(&after)
	if rep.Interrupted || rep.FailureCount != 0 || rep.Checked < shard.Ranks()/3 {
		t.Fatalf("shard report %+v: want every set checked or pruned, no failure", rep)
	}
	if rep.Tiers.Planner < rep.Checked*99/100 {
		t.Fatalf("the planner resolved %d of %d checked sets", rep.Tiers.Planner, rep.Checked)
	}
	allocs := after.Mallocs - before.Mallocs
	per := float64(allocs) / float64(rep.Checked)
	t.Logf("%d allocations for %d checked sets (%d represented): %.4f per checked set",
		allocs, rep.Checked, rep.Represented, per)
	if per > 0.01 {
		t.Errorf("%.4f allocations per checked set, want ≤ 0.01", per)
	}
}
