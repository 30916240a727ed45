package verify_test

import (
	"testing"

	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/verify"
)

// TestPlannerTierSplitG22K4 pins which tier resolves each orbit
// representative of the symmetry-reduced G(22,4), k=4 proof. A planner
// that silently declines sets stays correct — the probe tier picks them
// up — but gets slow, so the counts are held exactly: 33,440 sets by the
// planner and 2 by the probe backtracker. The two are the orbits of the
// four G(22,4) fault sets that no fallback ring plan resolves (see
// embed's TestPlannerDeclinesByClass).
func TestPlannerTierSplitG22K4(t *testing.T) {
	sol, err := construct.Design(22, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.Exhaustive(sol.Graph, 4, verify.Options{
		Workers:         1,
		Solver:          embed.Options{Layout: sol.Layout},
		ExploitSymmetry: true,
	})
	if !rep.OK() {
		t.Fatalf("proof failed: %s", rep.VerdictSummary())
	}
	want := embed.TierStats{Planner: 33440, Probe: 2}
	if rep.Tiers != want {
		t.Fatalf("tiers %+v, want %+v", rep.Tiers, want)
	}
}

// TestRandomTierSplitG22K40 pins the whole tier split of random fault sets
// of up to 40 faults on G(22,4), far past its budget of 4, where the
// trivial tier and the planner meet: a set with one healthy processor or
// no viable endpoints must reach the trivial tier, whichever order the
// solver tries the planner and the endpoint checks in. With the memo on,
// every repeated set is a memo hit and resolves no tier.
func TestRandomTierSplitG22K40(t *testing.T) {
	sol, err := construct.Design(22, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		memo bool
		want embed.TierStats
	}{
		{false, embed.TierStats{Planner: 135, Probe: 2, DP: 63, Trivial: 200}},
		{true, embed.TierStats{Planner: 117, Probe: 2, DP: 63, Trivial: 149}},
	} {
		rep := verify.Random(sol.Graph, 40, 400, 7, verify.Options{
			Workers: 1,
			Solver:  embed.Options{Layout: sol.Layout, Memo: tc.memo},
		})
		if rep.Tiers != tc.want {
			t.Errorf("memo=%v: tiers %+v, want %+v", tc.memo, rep.Tiers, tc.want)
		}
	}
}
