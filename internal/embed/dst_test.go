package embed_test

import (
	"slices"
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
)

// TestPipelineStorageContract pins who owns a returned pipeline. Find's
// path is freshly allocated, so two successive results on one Solver
// never share storage (callers keep them: the benchmark's certificate
// check holds hundreds). FindInto with dst = nil returns a fresh path as
// well; with a buffer it writes the path into the buffer, also when the
// result comes from the Options.Memo cache.
func TestPipelineStorageContract(t *testing.T) {
	rig := newPlannerRig(t, 26, 5)
	lay := rig.lay
	n := rig.g.NumNodes()
	one := bitset.FromSlice(n, []int{lay.C[3]})
	two := bitset.FromSlice(n, []int{lay.C[3], lay.I[2]})
	same := func(a, b graph.Path) bool { return &a[0] == &b[0] }

	for _, memo := range []bool{false, true} {
		s := embed.NewSolver(rig.g, embed.Options{Layout: lay, Memo: memo})
		var kept []graph.Path
		var want []graph.Path
		keep := func(how string, res embed.Result) graph.Path {
			t.Helper()
			if !res.Found {
				t.Fatalf("memo=%v %s: no pipeline", memo, how)
			}
			for _, k := range kept {
				if same(k, res.Pipeline) {
					t.Fatalf("memo=%v %s: the pipeline shares storage with an earlier result", memo, how)
				}
			}
			kept, want = append(kept, res.Pipeline), append(want, slices.Clone(res.Pipeline))
			return res.Pipeline
		}
		keep("Find", s.Find(one))
		keep("second Find", s.Find(two))
		keep("FindInto(nil)", s.FindInto(one, nil))

		buf := make(graph.Path, 0, 2*n)
		for i, faults := range []bitset.Set{two, one} {
			memoHits, _ := s.Memo()
			res := s.FindInto(faults, buf)
			if !res.Found || !same(res.Pipeline, buf[:1]) {
				t.Fatalf("memo=%v FindInto(buf) %d: found=%v, pipeline not in the buffer", memo, i, res.Found)
			}
			if hits, _ := s.Memo(); memo && hits != memoHits+1 {
				t.Fatalf("memo=%v FindInto(buf) %d: not a memo hit", memo, i)
			}
			if fresh := s.Find(faults); !slices.Equal(res.Pipeline, fresh.Pipeline) {
				t.Fatalf("memo=%v FindInto(buf) %d: %v, Find %v", memo, i, res.Pipeline, fresh.Pipeline)
			}
		}
		for i := range kept {
			if !slices.Equal(kept[i], want[i]) {
				t.Fatalf("memo=%v: result %d changed from %v to %v after later calls", memo, i, want[i], kept[i])
			}
		}
	}
}
