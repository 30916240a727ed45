package embed

import (
	"math/rand"
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/construct"
	"gdpn/internal/graph"
)

// diffSorted merge-diffs two sorted node-id slices into (removed, added):
// ids only in prev, ids only in cur. Mirrors the delta the verifier derives
// from consecutive lexicographic fault sets.
func diffSorted(prev, cur []int) (removed, added []int) {
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch {
		case prev[i] == cur[j]:
			i++
			j++
		case prev[i] < cur[j]:
			removed = append(removed, prev[i])
			i++
		default:
			added = append(added, cur[j])
			j++
		}
	}
	removed = append(removed, prev[i:]...)
	added = append(added, cur[j:]...)
	return removed, added
}

// FindDelta walked along the full lexicographic enumeration must agree with
// a cold Find at every fault set — found/unknown verdicts and endpoint
// viability alike.
func TestFindDeltaMatchesColdFind(t *testing.T) {
	graphs := []*graph.Graph{construct.G1(2), construct.G2(2), construct.G3(3)}
	for _, g := range graphs {
		warm := NewSolver(g, Options{})
		cold := NewSolver(g, Options{})
		n := g.NumNodes()
		faults := bitset.New(n)
		coldFaults := bitset.New(n)
		var prev []int
		combin.SubsetsUpTo(n, 3, func(sub []int) bool {
			removed, added := diffSorted(prev, sub)
			for _, v := range removed {
				faults.Remove(v)
			}
			for _, v := range added {
				faults.Add(v)
			}
			wr := warm.FindDelta(faults, removed, added, nil)

			coldFaults.Clear()
			for _, v := range sub {
				coldFaults.Add(v)
			}
			cr := cold.Find(coldFaults)

			if wr.Found != cr.Found || wr.Unknown != cr.Unknown {
				t.Fatalf("%s faults=%v: delta (found=%v unknown=%v) != cold (found=%v unknown=%v)",
					g.Name(), sub, wr.Found, wr.Unknown, cr.Found, cr.Unknown)
			}
			prev = append(prev[:0], sub...)
			return true
		})
		hits, misses := warm.Warm()
		if hits == 0 {
			t.Errorf("%s: no warm hits recorded", g.Name())
		}
		if misses != 1 {
			t.Errorf("%s: %d warm misses, want exactly 1 (the first call)", g.Name(), misses)
		}
	}
}

// Random jumps — deltas that change many members at once, as when a worker
// steals a chunk far from its previous position — must also stay exact.
func TestFindDeltaRandomJumps(t *testing.T) {
	g := construct.G3(4)
	n := g.NumNodes()
	warm := NewSolver(g, Options{})
	cold := NewSolver(g, Options{})
	rng := rand.New(rand.NewSource(42))
	faults := bitset.New(n)
	var prev []int
	for trial := 0; trial < 300; trial++ {
		k := rng.Intn(5)
		cur := combin.RandomSubset(rng, n, k, nil)
		removed, added := diffSorted(prev, cur)
		for _, v := range removed {
			faults.Remove(v)
		}
		for _, v := range added {
			faults.Add(v)
		}
		wr := warm.FindDelta(faults, removed, added, nil)
		cr := cold.Find(bitset.FromSlice(n, cur))
		if wr.Found != cr.Found || wr.Unknown != cr.Unknown {
			t.Fatalf("trial %d faults=%v: delta found=%v, cold found=%v", trial, cur, wr.Found, cr.Found)
		}
		prev = cur
	}
}

// A Find interleaved into a delta chain re-warms the state; the chain must
// continue correctly from it.
func TestFindRewarmsState(t *testing.T) {
	g := construct.G2(3)
	n := g.NumNodes()
	s := NewSolver(g, Options{})
	cold := NewSolver(g, Options{})

	f1 := bitset.FromSlice(n, []int{1})
	s.Find(f1)
	// Delta from {1} to {1, 2}.
	f1.Add(2)
	got := s.FindDelta(f1, nil, []int{2}, nil)
	want := cold.Find(bitset.FromSlice(n, []int{1, 2}))
	if got.Found != want.Found {
		t.Fatalf("delta after re-warm: found=%v, cold found=%v", got.Found, want.Found)
	}
	if hits, _ := s.Warm(); hits != 1 {
		t.Fatalf("warm hits = %d, want 1", hits)
	}
}
