package embed

import (
	"math/rand"
	"slices"
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/graph"
)

// planOrNil runs just the constructive planner on a designed network.
func planOrNil(t *testing.T, n, k int, faultNodes []int) (*Solver, bitset.Set, []int) {
	t.Helper()
	g, lay, err := construct.Asymptotic(n, k)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(g, Options{Layout: lay})
	faults := bitset.FromSlice(g.NumNodes(), faultNodes)
	return s, faults, planOrNilWith(s, faults)
}

func planOrNilWith(s *Solver, faults bitset.Set) []int {
	return s.planAsymptotic(faults, nil)
}

// planOK is the planner's own acceptance of a path, re-checked on a fresh
// checker: a pipeline of g \ faults that starts at its input terminal.
func planOK(s *Solver, faults bitset.Set, path graph.Path) bool {
	return graph.CheckPipeline(s.g, faults, path) == nil && s.g.Kind(path[0]) == graph.InputTerminal
}

func TestPlannerFaultFree(t *testing.T) {
	s, faults, path := planOrNil(t, 40, 4, nil)
	if path == nil {
		t.Fatal("planner declined a fault-free instance")
	}
	if !planOK(s, faults, path) {
		t.Fatal("planner emitted an invalid path")
	}
}

func TestPlannerValidatesEverything(t *testing.T) {
	// Random ≤k fault sets across several (n, k): every non-nil plan must
	// be internally valid (the checker runs inside planAsymptotic, so a
	// non-nil result IS the assertion; here we re-check independently).
	cases := []struct{ n, k int }{{22, 4}, {40, 4}, {26, 5}, {27, 5}, {80, 6}, {81, 7}}
	for _, c := range cases {
		g, lay, err := construct.Asymptotic(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSolver(g, Options{Layout: lay})
		rng := rand.New(rand.NewSource(int64(c.n*100 + c.k)))
		planned, declined := 0, 0
		for trial := 0; trial < 400; trial++ {
			faults := bitset.New(g.NumNodes())
			for faults.Count() < rng.Intn(c.k+1) {
				faults.Add(rng.Intn(g.NumNodes()))
			}
			path := s.planAsymptotic(faults, nil)
			if path == nil {
				declined++
				continue
			}
			planned++
			if !planOK(s, faults, path) {
				t.Fatalf("n=%d k=%d faults=%v: invalid plan", c.n, c.k, faults.Slice())
			}
		}
		// The planner must carry the overwhelming share of random faults.
		if planned < 350 {
			t.Errorf("n=%d k=%d: planner solved only %d/400 (declined %d)", c.n, c.k, planned, declined)
		}
	}
}

// TestPlannerCertifiesLikeVerifier corrupts the planner's own plans and
// requires its acceptance to be the verifier's check with the input
// terminal pinned first: a reversed plan is a pipeline but not a plan.
func TestPlannerCertifiesLikeVerifier(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rejected := 0
	for _, c := range []struct{ n, k int }{{22, 4}, {26, 5}} {
		g, lay, err := construct.Asymptotic(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSolver(g, Options{Layout: lay})
		for trial := 0; trial < 100; trial++ {
			faults := bitset.New(g.NumNodes())
			for faults.Count() < rng.Intn(c.k+1) {
				faults.Add(rng.Intn(g.NumNodes()))
			}
			path := s.planAsymptotic(faults, nil)
			if path == nil {
				continue
			}
			i, j := 1+rng.Intn(len(path)-2), 1+rng.Intn(len(path)-2)
			reversed := slices.Clone(path)
			swapped := slices.Clone(path)
			swapped[i], swapped[j] = swapped[j], swapped[i]
			repeated := slices.Clone(path)
			repeated[i] = repeated[j]
			outside := slices.Clone(path)
			outside[i] = g.NumNodes()
			cases := []graph.Path{path, graph.Path(reversed).Reverse(), swapped, repeated,
				slices.Delete(slices.Clone(path), i, i+1), outside, path[:2]}
			for _, q := range cases {
				want := planOK(s, faults, q)
				if got := s.certified(faults, q); got != want {
					t.Fatalf("n=%d k=%d faults=%v path %v: certified %v, verifier with pinned input %v",
						c.n, c.k, faults.Slice(), q, got, want)
				}
				if !want {
					rejected++
				}
			}
			f := faults.Clone()
			f.Add(path[i])
			if s.certified(f, path) || planOK(s, f, path) {
				t.Fatalf("n=%d k=%d: plan accepted with faulty node %d on it", c.n, c.k, path[i])
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no corrupted plan was rejected")
	}
}

func TestPlannerHandlesTerminalFaults(t *testing.T) {
	g, lay, err := construct.Asymptotic(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(g, Options{Layout: lay})
	// Kill k input terminals: exactly one Ti—I pair remains.
	faults := bitset.New(g.NumNodes())
	for j := 1; j <= 4; j++ {
		faults.Add(lay.Ti[j])
	}
	path := s.planAsymptotic(faults, nil)
	if path == nil {
		t.Fatal("planner declined with only terminal faults")
	}
	if !planOK(s, faults, path) {
		t.Fatal("invalid plan")
	}
}

func TestPlannerClusteredRingFaults(t *testing.T) {
	// Clustered faults up to length p are sweep-jumpable; longer runs make
	// the planner decline (and the fallback engines take over) — both
	// outcomes must be sound.
	g, lay, err := construct.Asymptotic(60, 6) // p = 3
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(g, Options{Layout: lay})
	for runLen := 1; runLen <= 6; runLen++ {
		faults := bitset.New(g.NumNodes())
		start := lay.K + 10 // inside R
		for i := 0; i < runLen; i++ {
			faults.Add(lay.C[start+i])
		}
		path := s.planAsymptotic(faults, nil)
		if runLen <= lay.P && path == nil {
			t.Errorf("run of %d ≤ p=%d declined", runLen, lay.P)
		}
		if path != nil && !planOK(s, faults, path) {
			t.Errorf("run of %d: invalid plan", runLen)
		}
		// Whatever the planner does, the full Auto ladder must succeed.
		res := s.Find(faults)
		if !res.Found {
			t.Errorf("run of %d: no pipeline found at all", runLen)
		}
	}
}

func TestPlannerDeclinesWithoutLayout(t *testing.T) {
	g, _, err := construct.Asymptotic(22, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(g, Options{})
	if s.planAsymptotic(nil, nil) != nil {
		t.Fatal("planner worked without a layout")
	}
}

// checkTraversal validates that tr.seq is a permutation of pos with
// matching endpoints and legal hops.
func checkTraversal(t *testing.T, pos []int, tr traversal, edge func(x, y int) bool) {
	t.Helper()
	if len(tr.seq) != len(pos) {
		t.Fatalf("traversal covers %d of %d positions: %v", len(tr.seq), len(pos), tr.seq)
	}
	want := map[int]bool{}
	for _, p := range pos {
		want[p] = true
	}
	seen := map[int]bool{}
	for _, p := range tr.seq {
		if !want[p] || seen[p] {
			t.Fatalf("bad traversal %v over %v", tr.seq, pos)
		}
		seen[p] = true
	}
	if tr.seq[0] != tr.enter || tr.seq[len(tr.seq)-1] != tr.exit {
		t.Fatalf("endpoints %d..%d do not match enter/exit %d/%d", tr.seq[0], tr.seq[len(tr.seq)-1], tr.enter, tr.exit)
	}
	for i := 1; i < len(tr.seq); i++ {
		if !edge(tr.seq[i-1], tr.seq[i]) {
			t.Fatalf("illegal hop %d→%d in %v", tr.seq[i-1], tr.seq[i], tr.seq)
		}
	}
}

// traversalsOf returns the variants blockTraversals gives a block, built
// into an empty plan.
func traversalsOf(blk ringBlock, edge func(x, y int) bool) []traversal {
	var rp ringPlan
	rp.blockTraversals(blk, edge, &ringScratch{})
	return rp.vars
}

func TestBlockTraversalsContiguous(t *testing.T) {
	// Offsets 1..4 (k=6, p=3) over plain integer positions.
	edge := func(x, y int) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		return d >= 1 && d <= 4
	}
	for _, pos := range [][]int{
		{8, 9, 10, 11, 12, 13, 14, 15},
		{8, 9, 10, 11, 12}, // odd length
		{8, 9},             // minimal
	} {
		blk := newRingBlock(pos)
		if !blk.contiguous {
			t.Fatal("contiguous flag")
		}
		vs := traversalsOf(blk, edge)
		// 2 straight + 4 zigzags.
		if len(vs) != 6 {
			t.Fatalf("got %d variants, want 6 (%v)", len(vs), pos)
		}
		ends := map[[2]int]bool{}
		for _, tr := range vs {
			checkTraversal(t, pos, tr, edge)
			ends[[2]int{tr.enter, tr.exit}] = true
		}
		lo, hi := pos[0], pos[len(pos)-1]
		for _, want := range [][2]int{{lo, hi}, {hi, lo}, {lo, lo + 1}, {lo + 1, lo}, {hi, hi - 1}, {hi - 1, hi}} {
			if !ends[want] {
				t.Fatalf("missing variant %v for %v", want, pos)
			}
		}
	}
}

func TestBlockTraversalsSingleton(t *testing.T) {
	edge := func(x, y int) bool { return true }
	vs := traversalsOf(newRingBlock([]int{42}), edge)
	if len(vs) != 1 || vs[0].enter != 42 || vs[0].exit != 42 {
		t.Fatalf("singleton variants = %+v", vs)
	}
}

func TestBlockTraversalsGappyZigzag(t *testing.T) {
	// A block with an internal jumpable gap (fault at 62 missing): the
	// DFS-based zigzag must still cover it end-in/end-out.
	var pos []int
	for x := 42; x <= 71; x++ {
		if x != 62 {
			pos = append(pos, x)
		}
	}
	edge := func(x, y int) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		return d >= 1 && d <= 4
	}
	blk := newRingBlock(pos)
	if blk.contiguous {
		t.Fatal("should not be contiguous")
	}
	vs := traversalsOf(blk, edge)
	wantEnds := [][2]int{{71, 70}, {70, 71}, {42, 43}, {43, 42}}
	for _, w := range wantEnds {
		found := false
		for _, tr := range vs {
			if tr.enter == w[0] && tr.exit == w[1] {
				checkTraversal(t, pos, tr, edge)
				found = true
			}
		}
		if !found {
			t.Errorf("missing gappy zigzag variant %v", w)
		}
	}
}

func TestAnalyticZigzag(t *testing.T) {
	for lo := 3; lo <= 4; lo++ {
		for hi := lo + 1; hi <= lo+6; hi++ {
			for _, fromLow := range []bool{true, false} {
				seq := analyticZigzag(nil, lo, hi, fromLow)
				if len(seq) != hi-lo+1 {
					t.Fatalf("[%d..%d] fromLow=%v: covered %d", lo, hi, fromLow, len(seq))
				}
				seen := map[int]bool{}
				for _, x := range seq {
					if x < lo || x > hi || seen[x] {
						t.Fatalf("bad zigzag %v", seq)
					}
					seen[x] = true
				}
				for i := 1; i < len(seq); i++ {
					d := seq[i] - seq[i-1]
					if d < 0 {
						d = -d
					}
					if d > 2 {
						t.Fatalf("zigzag jump %d in %v", d, seq)
					}
				}
			}
		}
	}
}

func TestPlannerAgreesWithDPOnSmallest(t *testing.T) {
	// Cross-engine agreement on the smallest constructible instance, every
	// single-fault set: planner path (when produced) must be valid, and
	// existence must match the complete engine.
	g, lay, err := construct.Asymptotic(construct.MinAsymptoticN(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(g, Options{Layout: lay})
	complete := NewSolver(g, Options{Method: Backtracking})
	for v := 0; v < g.NumNodes(); v++ {
		faults := bitset.FromSlice(g.NumNodes(), []int{v})
		planPath := s.planAsymptotic(faults, nil)
		ref := complete.Find(faults)
		if ref.Unknown {
			t.Fatalf("reference unknown on single fault %d", v)
		}
		if planPath != nil && !ref.Found {
			t.Fatalf("planner found a pipeline the complete engine refutes (fault %d)", v)
		}
		if planPath != nil && !planOK(s, faults, planPath) {
			t.Fatalf("invalid plan for fault %d", v)
		}
	}
}

func TestTierStatsAccounting(t *testing.T) {
	g, lay, err := construct.Asymptotic(40, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(g, Options{Layout: lay})
	rng := rand.New(rand.NewSource(17))
	const calls = 100
	for i := 0; i < calls; i++ {
		faults := bitset.New(g.NumNodes())
		for faults.Count() < rng.Intn(5) {
			faults.Add(rng.Intn(g.NumNodes()))
		}
		s.Find(faults)
	}
	st := s.Stats()
	if st.Total() != calls {
		t.Fatalf("tier stats account for %d of %d calls: %+v", st.Total(), calls, st)
	}
	if st.Planner == 0 {
		t.Fatalf("planner never credited: %+v", st)
	}
}

func TestGapZigzagMultiGap(t *testing.T) {
	// Offsets 1..4 (p=3): internal gaps ≤ 2 are constructively zigzaggable,
	// including several at once (recursive peeling).
	edge := func(x, y int) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		return d >= 1 && d <= 4
	}
	var pos []int
	for x := 10; x <= 60; x++ {
		if x != 25 && x != 26 && x != 40 { // gap of 2 and gap of 1
			pos = append(pos, x)
		}
	}
	for _, dir := range []string{"high", "low"} {
		var seq []int
		if dir == "high" {
			seq, _ = gapZigzagHigh(nil, pos)
		} else {
			seq, _ = new(ringScratch).gapZigzagLow(nil, pos)
		}
		if seq == nil {
			t.Fatalf("%s: constructive zigzag declined", dir)
		}
		tr := traversal{enter: seq[0], exit: seq[len(seq)-1], seq: seq}
		checkTraversal(t, pos, tr, edge)
		if dir == "high" && (tr.enter != 60 || tr.exit != 59) {
			t.Fatalf("high ends %d/%d", tr.enter, tr.exit)
		}
		if dir == "low" && (tr.enter != 10 || tr.exit != 11) {
			t.Fatalf("low ends %d/%d", tr.enter, tr.exit)
		}
	}
}

func TestGapZigzagParityBranches(t *testing.T) {
	// Both parities of the top segment must be handled: gap position
	// chosen so N = [a..b] has b−a odd in one case and even in the other.
	edge := func(x, y int) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		return d >= 1 && d <= 3 // p = 2: crossings need gap ≤ 1
	}
	for _, gapAt := range []int{20, 21} {
		var pos []int
		for x := 10; x <= 30; x++ {
			if x != gapAt {
				pos = append(pos, x)
			}
		}
		seq, _ := gapZigzagHigh(nil, pos)
		if seq == nil {
			t.Fatalf("gap at %d: declined", gapAt)
		}
		checkTraversal(t, pos, traversal{enter: seq[0], exit: seq[len(seq)-1], seq: seq}, edge)
	}
}

func TestGapZigzagDeclinesGapTooWide(t *testing.T) {
	// Internal gap of exactly p needs a crossing of offset p+2, which the
	// circulant lacks: the validated variant set must omit the zigzags
	// rather than emit an illegal hop.
	edge := func(x, y int) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		return d >= 1 && d <= 3 // p = 2
	}
	var pos []int
	for x := 10; x <= 30; x++ {
		if x != 20 && x != 21 { // gap of 2 = p
			pos = append(pos, x)
		}
	}
	blk := newRingBlock(pos)
	for _, tr := range traversalsOf(blk, edge) {
		checkTraversal(t, pos, tr, edge) // every offered variant must be legal
	}
}

func TestRegressionN100K4FaultSet(t *testing.T) {
	// The fault set that exhausted every engine before the gap-aware
	// zigzag existed: a splitting run {27,28,29} plus an internal fault 75.
	g, lay, err := construct.Asymptotic(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(g, Options{Layout: lay})
	faults := bitset.FromSlice(g.NumNodes(), []int{lay.C[27], lay.C[28], lay.C[29], lay.C[75]})
	path := s.planAsymptotic(faults, nil)
	if path == nil {
		t.Fatal("planner declined the regression fault set")
	}
	if !planOK(s, faults, path) {
		t.Fatal("invalid plan")
	}
}
