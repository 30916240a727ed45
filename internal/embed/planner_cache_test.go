package embed_test

import (
	"math/rand"
	"slices"
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/verify"
)

// plannerRig is one asymptotic design the planner tests run on.
type plannerRig struct {
	g   *graph.Graph
	lay *construct.Layout
}

func newPlannerRig(tb testing.TB, n, k int) plannerRig {
	tb.Helper()
	g, lay, err := construct.Asymptotic(n, k)
	if err != nil {
		tb.Fatal(err)
	}
	return plannerRig{g: g, lay: lay}
}

// plan runs the planner tier on a fresh Solver: the cold reference that a
// long-lived Solver's cached ring plan must reproduce.
func (r plannerRig) plan(faults bitset.Set) graph.Path {
	return embed.NewSolver(r.g, embed.Options{Layout: r.lay}).PlanAsymptotic(faults)
}

// decodeFaultSets turns fuzz bytes into a sequence of fault sets on lay.
// Each set starts with a header byte: bit 0 keeps the previous set's
// faulty ring positions (so consecutive sets share a ring plan, as in the
// verifier's lexicographic walk), the rest counts the entries that follow.
// An entry byte's low three bits pick the shape and the high five bits
// its position:
//
//	0 Ti   1 To   2 I   3 O   4 S   5 R
//	6 a run of p+1 R faults (long enough to split R into two blocks)
//	7 R faults two apart (a block with an internal gap)
func decodeFaultSets(lay *construct.Layout, nodes int, data []byte, fn func(faults bitset.Set)) {
	k, p := lay.K, lay.P
	nR := lay.M - (k + 2)
	prev := bitset.New(nodes)
	for sets := 0; len(data) > 0 && sets < 32; sets++ {
		h := data[0]
		data = data[1:]
		faults := bitset.New(nodes)
		if h&1 != 0 {
			for _, v := range lay.C {
				if prev.Contains(v) {
					faults.Add(v)
				}
			}
		}
		addR := func(r int) { faults.Add(lay.C[k+2+r%nR]) }
		for count := int(h>>1) % (k + 3); count > 0 && len(data) > 0; count-- {
			e := int(data[0])
			data = data[1:]
			idx := e >> 3
			switch e & 7 {
			case 0:
				faults.Add(lay.Ti[1+idx%(k+1)])
			case 1:
				faults.Add(lay.To[idx%(k+1)])
			case 2:
				faults.Add(lay.I[1+idx%(k+1)])
			case 3:
				faults.Add(lay.O[idx%(k+1)])
			case 4:
				faults.Add(lay.C[idx%(k+2)])
			case 5:
				addR(idx)
			case 6:
				for j := 0; j <= p; j++ {
					addR(idx + j)
				}
			case 7:
				addR(idx)
				addR(idx + 2)
			}
		}
		fn(faults)
		prev = faults
	}
}

// FuzzPlannerWarmMatchesCold feeds one long-lived Solver a fuzz-chosen
// sequence of fault sets and checks each planner result against a fresh
// Solver's: both nil or the same path node for node, and a non-nil result
// must pass verify.CheckPipeline. The long-lived Solver reuses its ring
// plan whenever the faulty ring positions repeat, so any state leaking
// from one fault set into the next shows up as a mismatch. The seed
// corpus is in testdata/fuzz/FuzzPlannerWarmMatchesCold.
func FuzzPlannerWarmMatchesCold(f *testing.F) {
	rigs := []plannerRig{newPlannerRig(f, 22, 4), newPlannerRig(f, 26, 5)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rig := rigs[int(data[0])%len(rigs)]
		warm := embed.NewSolver(rig.g, embed.Options{Layout: rig.lay})
		decodeFaultSets(rig.lay, rig.g.NumNodes(), data[1:], func(faults bitset.Set) {
			got, want := warm.PlanAsymptotic(faults), rig.plan(faults)
			if !slices.Equal(got, want) {
				t.Fatalf("%s faults %v: long-lived solver planned %v, fresh solver %v",
					rig.g.Name(), faults.Slice(), got, want)
			}
			if got != nil {
				if err := verify.CheckPipeline(rig.g, faults, got); err != nil {
					t.Fatalf("%s faults %v: planned pipeline invalid: %v", rig.g.Name(), faults.Slice(), err)
				}
			}
		})
	})
}

// TestPlannerCacheMatchesFreshSolver runs every fault set of size ≤ 3 of
// G(22,4) through one Solver, first in lexicographic order (consecutive
// sets mostly share their faulty ring positions, so the cached ring plan
// is reused) and then in a seeded shuffle (they rarely do, so it is
// rebuilt), and requires every result to equal a fresh Solver's.
func TestPlannerCacheMatchesFreshSolver(t *testing.T) {
	rig := newPlannerRig(t, 22, 4)
	n := rig.g.NumNodes()
	var sets []bitset.Set
	combin.SubsetsUpTo(n, 3, func(sub []int) bool {
		sets = append(sets, bitset.FromSlice(n, sub))
		return true
	})
	want := make([]graph.Path, len(sets))
	planned := 0
	for i, faults := range sets {
		if want[i] = rig.plan(faults); want[i] != nil {
			planned++
		}
	}
	if planned < len(sets)*9/10 {
		t.Fatalf("fresh solvers planned only %d of %d fault sets", planned, len(sets))
	}
	run := func(order string, idx []int) {
		s := embed.NewSolver(rig.g, embed.Options{Layout: rig.lay})
		for _, i := range idx {
			if got := s.PlanAsymptotic(sets[i]); !slices.Equal(got, want[i]) {
				t.Fatalf("%s order, faults %v: long-lived solver planned %v, fresh solver %v",
					order, sets[i].Slice(), got, want[i])
			}
		}
	}
	lex := make([]int, len(sets))
	for i := range lex {
		lex[i] = i
	}
	run("lexicographic", lex)
	run("shuffled", rand.New(rand.NewSource(15)).Perm(len(sets)))
}

var plannedSink graph.Path

// TestPlannerCacheHitAllocs pins the planner's allocation on a cache hit:
// with the faulty ring positions unchanged from the previous call, the
// returned path is the only allocation.
func TestPlannerCacheHitAllocs(t *testing.T) {
	rig := newPlannerRig(t, 26, 5)
	lay := rig.lay
	n := rig.g.NumNodes()
	// One set of faulty ring positions (S[3] and R position 10); the sets
	// differ only off the ring.
	var sets []bitset.Set
	for _, extra := range [][]int{nil, {lay.I[2]}, {lay.O[0], lay.To[4]}, {lay.Ti[1], lay.I[1], lay.O[5]}} {
		sets = append(sets, bitset.FromSlice(n, append([]int{lay.C[3], lay.C[10]}, extra...)))
	}
	s := embed.NewSolver(rig.g, embed.Options{Layout: lay})
	for _, faults := range sets {
		if s.PlanAsymptotic(faults) == nil {
			t.Fatalf("planner declined %v", faults.Slice())
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		plannedSink = s.PlanAsymptotic(sets[i%len(sets)])
		i++
	})
	t.Logf("allocations per planner call on a cache hit: %.2f", allocs)
	if allocs > 1 {
		t.Errorf("planner allocated %.2f times per cache-hit call, want ≤ 1 (the returned path)", allocs)
	}
}

// BenchmarkPlannerLexOrder walks the 5-fault sets of G(26,5) in the
// exhaustive verifier's lexicographic order, one planner call per op, so
// consecutive calls share faulty ring positions the way the sweep's do.
// The walk starts over after its last set; -benchtime=501942x covers it
// exactly once (C(38,5) sets).
func BenchmarkPlannerLexOrder(b *testing.B) {
	rig := newPlannerRig(b, 26, 5)
	n := rig.g.NumNodes()
	s := embed.NewSolver(rig.g, embed.Options{Layout: rig.lay})
	sub := []int{0, 1, 2, 3, 4}
	faults := bitset.New(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faults.Clear()
		for _, v := range sub {
			faults.Add(v)
		}
		plannedSink = s.PlanAsymptotic(faults)
		if !combin.NextSubset(n, sub) {
			for j := range sub {
				sub[j] = j
			}
		}
	}
}
