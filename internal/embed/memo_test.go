package embed

import (
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/construct"
)

// TestMemoMatchesSolvedResults checks that a memoized solver returns
// verdicts identical to an unmemoized one across the exhaustive fault
// enumeration, and that every revisited fault set is answered from the
// cache.
func TestMemoMatchesSolvedResults(t *testing.T) {
	g := construct.G3(3)
	memo := NewSolver(g, Options{Memo: true})
	plain := NewSolver(g, Options{})
	n := g.NumNodes()
	faults := bitset.New(n)
	calls := 0
	combin.SubsetsUpTo(n, 2, func(sub []int) bool {
		faults.Clear()
		for _, v := range sub {
			faults.Add(v)
		}
		first := memo.Find(faults)
		second := memo.Find(faults) // must be served by the memo
		want := plain.Find(faults)
		if first.Found != want.Found || second.Found != want.Found {
			t.Fatalf("faults %v: found %v/%v, want %v", sub, first.Found, second.Found, want.Found)
		}
		if second.Found {
			// The hit hands out a fresh copy of a path valid for the set.
			if len(second.Pipeline) == 0 {
				t.Fatalf("faults %v: memo hit returned empty pipeline", sub)
			}
			if &first.Pipeline[0] == &second.Pipeline[0] {
				t.Fatalf("faults %v: memo hit aliased the previous result", sub)
			}
		}
		calls++
		return true
	})
	hits, misses := memo.Memo()
	if misses != int64(calls) || hits != int64(calls) {
		t.Fatalf("memo hits/misses = %d/%d, want %d/%d (one miss then one hit per set)",
			hits, misses, calls, calls)
	}
	if h, m := plain.Memo(); h != 0 || m != 0 {
		t.Fatalf("unmemoized solver counted memo traffic: %d/%d", h, m)
	}
}

// TestMemoAndWarmSurviveRemaps drives the fault/repair churn of a soak —
// FindInto calls cycling through a small set of fault configurations —
// and asserts (a) revisited configurations are memo hits, and (b)
// InvalidateCache (the topology-change hook) really drops the memo.
func TestMemoAndWarmSurviveRemaps(t *testing.T) {
	g := construct.G3(3)
	s := NewSolver(g, Options{Memo: true})
	procs := g.Processors()
	p1, p2 := procs[1], procs[3]
	faults := bitset.New(g.NumNodes())

	// Seed warm state and the memo with the fault-free solve.
	if res := s.Find(faults); !res.Found {
		t.Fatal("fault-free Find failed")
	}

	// N remaps: {} -> {p1} -> {p1,p2} -> {p1} -> {} -> ... Every set after
	// the first lap is a revisit.
	type step struct {
		add, remove int
	}
	lap := []step{{add: p1}, {add: p2}, {remove: p2}, {remove: p1}}
	const laps = 5
	calls := 0
	for i := 0; i < laps; i++ {
		for _, st := range lap {
			if st.add != 0 {
				faults.Add(st.add)
			} else {
				faults.Remove(st.remove)
			}
			if res := s.FindInto(faults, nil); !res.Found {
				t.Fatalf("lap %d: FindInto(%v) not found", i, faults)
			}
			calls++
		}
	}
	memoHits, memoMisses := s.Memo()
	// Distinct sets: {}, {p1}, {p1,p2} — the first lap misses {p1} and
	// {p1,p2} ({} was seeded), everything after hits.
	wantMisses := int64(3)
	if memoMisses != wantMisses || memoHits != int64(calls+1)-wantMisses {
		t.Fatalf("memo hits/misses = %d/%d, want %d/%d",
			memoHits, memoMisses, int64(calls+1)-wantMisses, wantMisses)
	}

	// Topology change: the memo must drop, so the next solve misses it.
	s.InvalidateCache()
	faults.Add(p1)
	if res := s.FindInto(faults, nil); !res.Found {
		t.Fatal("post-invalidate FindInto not found")
	}
	if _, m := s.Memo(); m != wantMisses+1 {
		t.Fatalf("memo misses after InvalidateCache = %d, want %d", m, wantMisses+1)
	}
}
