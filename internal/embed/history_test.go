package embed

import (
	"math/rand"
	"slices"
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/construct"
	"gdpn/internal/graph"
)

// historyCase is one design a long-lived Solver walks, with the ring
// layout the planner tier needs, or nil to run the ladder without it.
type historyCase struct {
	g   *graph.Graph
	lay *construct.Layout
}

func historyCases(t *testing.T) []historyCase {
	t.Helper()
	g14, lay14, err := construct.Asymptotic(14, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []historyCase{
		{construct.G1(2), nil},
		{construct.G2(2), nil},
		{construct.G3(3), nil},
		{construct.G3(4), nil},
		{g14, lay14},
	}
}

// walkHistory drives one long-lived Solver per case, with the Options.Memo
// cache off and on, through the fault sets walk yields, solving each through
// FindInto into one reused buffer. Every answer must equal a fresh Solver's
// on the same set: found, unknown, the pipeline and the resolving tier; a
// memo hit resolves no tier.
func walkHistory(t *testing.T, how string, walk func(n int, check func(set []int))) {
	t.Helper()
	for _, c := range historyCases(t) {
		for _, memo := range []bool{false, true} {
			opts := Options{Layout: c.lay, Memo: memo}
			n := c.g.NumNodes()
			long := NewSolver(c.g, opts)
			faults := bitset.New(n)
			var buf graph.Path
			calls := 0
			walk(n, func(set []int) {
				t.Helper()
				faults.Clear()
				for _, v := range set {
					faults.Add(v)
				}
				before := long.Stats()
				hitsBefore, _ := long.Memo()
				got := long.FindInto(faults, buf)
				if got.Found {
					buf = got.Pipeline
				}
				fresh := NewSolver(c.g, opts)
				want := fresh.Find(bitset.FromSlice(n, set))
				if got.Found != want.Found || got.Unknown != want.Unknown || !slices.Equal(got.Pipeline, want.Pipeline) {
					t.Fatalf("%s layout=%v memo=%v %s faults=%v: found=%v unknown=%v %v, a fresh solver found=%v unknown=%v %v",
						c.g.Name(), c.lay != nil, memo, how, set, got.Found, got.Unknown, got.Pipeline, want.Found, want.Unknown, want.Pipeline)
				}
				calls++
				tiers, wantTiers := long.Stats().Sub(before), fresh.Stats()
				if hits, _ := long.Memo(); hits > hitsBefore {
					wantTiers = TierStats{} // answered from the memo
				}
				if tiers != wantTiers {
					t.Fatalf("%s layout=%v memo=%v %s faults=%v: tiers %+v, a fresh solver %+v",
						c.g.Name(), c.lay != nil, memo, how, set, tiers, wantTiers)
				}
			})
			if hits, misses := long.Memo(); memo && hits+misses != int64(calls) {
				t.Fatalf("%s memo: %d hits + %d misses, want %d calls", c.g.Name(), hits, misses, calls)
			}
		}
	}
}

// The two tests below keep the names they had when the walk went through
// the incremental FindDelta call; FindInto replaced it, and a Solver's
// answers must not depend on the sets it solved before.

// TestFindDeltaMatchesColdFind walks every fault set of size ≤ 3 in
// lexicographic order, where consecutive sets differ in one or two members.
func TestFindDeltaMatchesColdFind(t *testing.T) {
	walkHistory(t, "lexicographic", func(n int, check func([]int)) {
		combin.SubsetsUpTo(n, 3, func(sub []int) bool {
			check(sub)
			return true
		})
	})
}

// TestFindDeltaRandomJumps walks random fault sets of size < 6, where
// consecutive sets share few or no members.
func TestFindDeltaRandomJumps(t *testing.T) {
	walkHistory(t, "jump", func(n int, check func([]int)) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 300; trial++ {
			check(combin.RandomSubset(rng, n, rng.Intn(6), nil))
		}
	})
}
