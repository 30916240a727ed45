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
//
// An S entry whose position has its top bit set (a byte ≥ 0x80) is two
// faulty S labels instead, one apart when the position's low bit is clear
// and two apart when it is set: the shape only fallback ring plans
// resolve.
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
				if idx < 16 {
					faults.Add(lay.C[idx%(k+2)])
					break
				}
				gap := 1 + idx&1
				j := ((idx - 16) >> 1) % (k + 2 - gap)
				faults.Add(lay.C[j])
				faults.Add(lay.C[j+gap])
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

// deltaWalk cycles one Solver through a list of fault sets the way a
// sweep worker does: each call moves the walk's bitset from the previous
// set to the next by a delta and is a FindInto handed the walk's own path
// buffer.
type deltaWalk struct {
	s              *embed.Solver
	faults         bitset.Set
	removed, added [][]int // from the set before set i to set i
	buf            graph.Path
	i              int
}

func newDeltaWalk(s *embed.Solver, sets []bitset.Set) *deltaWalk {
	w := &deltaWalk{s: s, faults: sets[len(sets)-1].Clone()}
	for i, cur := range sets {
		prev := sets[(i+len(sets)-1)%len(sets)]
		var rem, add []int
		for v := 0; v < cur.Len(); v++ {
			switch {
			case prev.Contains(v) && !cur.Contains(v):
				rem = append(rem, v)
			case cur.Contains(v) && !prev.Contains(v):
				add = append(add, v)
			}
		}
		w.removed, w.added = append(w.removed, rem), append(w.added, add)
	}
	return w
}

// step solves the next set into the walk's buffer.
func (w *deltaWalk) step() embed.Result {
	i := w.i % len(w.removed)
	w.i++
	for _, v := range w.removed[i] {
		w.faults.Remove(v)
	}
	for _, v := range w.added[i] {
		w.faults.Add(v)
	}
	res := w.s.FindInto(w.faults, w.buf)
	if res.Found {
		w.buf = res.Pipeline
	}
	return res
}

// TestPlannerCacheHitAllocs pins a warm planner call at zero allocations:
// a FindInto that hands the Solver the caller's path buffer allocates
// nothing once the Solver's storage has grown. That holds on a ring-plan
// hit, with the faulty ring positions unchanged from the previous call,
// for the primary ring plan and for the fallback plans, which a call
// reaches only after every endpoint pair of the primary plan has failed.
// It holds as well when every call changes the faulty ring positions, so
// that the plans are rebuilt on each call: a rebuild reuses the plans'
// arenas and the ring scratch.
func TestPlannerCacheHitAllocs(t *testing.T) {
	rig := newPlannerRig(t, 26, 5)
	lay := rig.lay
	n := rig.g.NumNodes()
	extras := [][]int{nil, {lay.I[2]}, {lay.O[0], lay.To[4]}, {lay.Ti[1], lay.I[1], lay.O[5]}}
	primaryRing, fallbackRing := []int{3, 10}, []int{2, 3}
	setOf := func(ring, extra []int) bitset.Set {
		faults := bitset.FromSlice(n, extra)
		for _, j := range ring {
			faults.Add(lay.C[j])
		}
		return faults
	}
	var primary, fallback, alternating []bitset.Set
	for _, extra := range extras {
		primary = append(primary, setOf(primaryRing, extra))
		fallback = append(fallback, setOf(fallbackRing, extra))
		alternating = append(alternating, setOf(primaryRing, extra), setOf(fallbackRing, extra))
	}
	check := embed.NewSolver(rig.g, embed.Options{Layout: lay})
	for _, faults := range primary {
		if check.PlanPrimary(faults) == nil {
			t.Fatalf("primary ring plan declines %v", faults.Slice())
		}
	}
	for _, faults := range fallback {
		if check.PlanPrimary(faults) != nil || check.PlanAsymptotic(faults) == nil {
			t.Fatalf("%v: want a set only a fallback ring plan resolves", faults.Slice())
		}
	}
	for _, tc := range []struct {
		name string
		sets []bitset.Set
	}{
		{"primary", primary},
		{"fallback", fallback},
		{"rebuild", alternating}, // consecutive sets never share their faulty ring positions
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := embed.NewSolver(rig.g, embed.Options{Layout: lay})
			w := newDeltaWalk(s, tc.sets)
			// One warm-up pass grows the Solver's storage and the buffer.
			for range tc.sets {
				before := s.Stats().Planner
				res := w.step()
				if !res.Found || s.Stats().Planner != before+1 {
					t.Fatalf("set %d: found=%v, not resolved by the planner", w.i-1, res.Found)
				}
				if want := check.PlanAsymptotic(w.faults); !slices.Equal(res.Pipeline, want) {
					t.Fatalf("set %d: FindInto planned %v, the planner alone %v", w.i-1, res.Pipeline, want)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if res := w.step(); &res.Pipeline[0] != &w.buf[0] {
					t.Fatal("the pipeline is not in the caller's buffer")
				}
			})
			t.Logf("allocations per warm planner call: %.2f", allocs)
			if allocs != 0 {
				t.Errorf("a warm planner call allocated %.2f times, want 0", allocs)
			}
		})
	}
}

// TestPlannerCacheDroppedByInvalidate plans a G(26,5) fault set that only a
// fallback ring plan resolves, removes one ring hop of the planned route
// from the graph, calls InvalidateCache and plans again. The Solver must
// not reuse a plan or a certificate check built on the old topology: its
// answer must equal a fresh Solver's on the mutated graph and be a valid
// pipeline of it. Every ring hop of the route is tried in turn, each on
// its own copy of the graph.
func TestPlannerCacheDroppedByInvalidate(t *testing.T) {
	rig := newPlannerRig(t, 26, 5)
	lay := rig.lay
	faults := bitset.FromSlice(rig.g.NumNodes(), []int{lay.C[2], lay.C[3]})
	s := embed.NewSolver(rig.g, embed.Options{Layout: lay})
	if s.PlanPrimary(faults) != nil {
		t.Fatalf("primary ring plan resolves %v; want a set only a fallback plan resolves", faults.Slice())
	}
	route := s.PlanAsymptotic(faults)
	if route == nil {
		t.Fatalf("planner declined %v", faults.Slice())
	}
	onRing := make(map[int]bool, len(lay.C))
	for _, v := range lay.C {
		onRing[v] = true
	}
	hops, replanned := 0, 0
	for i := 1; i < len(route); i++ {
		u, v := route[i-1], route[i]
		if !onRing[u] || !onRing[v] {
			continue
		}
		hops++
		rig := newPlannerRig(t, 26, 5)
		warm := embed.NewSolver(rig.g, embed.Options{Layout: rig.lay})
		if got := warm.PlanAsymptotic(faults); !slices.Equal(got, route) {
			t.Fatalf("planner is not deterministic: %v, then %v", route, got)
		}
		rig.g.RemoveEdge(u, v)
		warm.InvalidateCache()
		got, want := warm.PlanAsymptotic(faults), rig.plan(faults)
		if !slices.Equal(got, want) {
			t.Fatalf("without ring hop %d–%d: invalidated solver planned %v, fresh solver %v", u, v, got, want)
		}
		if got == nil {
			continue
		}
		replanned++
		if err := graph.CheckPipeline(rig.g, faults, got); err != nil {
			t.Fatalf("without ring hop %d–%d: planned %v, not a pipeline: %v", u, v, got, err)
		}
	}
	t.Logf("%d ring hops removed one at a time; the planner rerouted around %d", hops, replanned)
	if replanned == 0 {
		t.Fatalf("the planner rerouted around none of the %d ring hops", hops)
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
