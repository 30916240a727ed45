package autom

import (
	"testing"

	"gdpn/internal/construct"
	"gdpn/internal/graph"
)

func computeOrder(t *testing.T, g *graph.Graph, opts Options) int {
	t.Helper()
	gr := Compute(g, opts)
	if !gr.Complete() {
		t.Fatalf("%s: generator search did not complete", g.Name())
	}
	order, ok := gr.Order()
	if !ok {
		t.Fatalf("%s: closure not materialized", g.Name())
	}
	return order
}

// G1(k) is K_{k+1} with one input and one output terminal per processor:
// any processor permutation is an automorphism, and the global I/O swap
// fixes the processors, so |Aut| = 2·(k+1)!.
func TestGroupOrderG1(t *testing.T) {
	for k, want := range map[int]int{1: 4, 2: 12, 3: 48} {
		g := construct.G1(k)
		if got := computeOrder(t, g, Options{}); got != want {
			t.Errorf("G1(%d): order = %d, want %d", k, got, want)
		}
	}
}

// G2(k) is K_{k+2} with distinguished end processors a (input only) and b
// (output only): the k middle processors permute freely and the I/O swap
// exchanges a and b, so |Aut| = 2·k!.
func TestGroupOrderG2(t *testing.T) {
	for k, want := range map[int]int{1: 2, 2: 4, 3: 12} {
		g := construct.G2(k)
		if got := computeOrder(t, g, Options{}); got != want {
			t.Errorf("G2(%d): order = %d, want %d", k, got, want)
		}
	}
}

// G3(5) has 8 processors paired by the deleted matching: the two
// both-terminal pairs (p0,p1),(p2,p3) flip internally and exchange, the two
// mixed pairs (p4,p5),(p6,p7) exchange, and the I/O swap doubles it all:
// 2·2·2·2·2 = 32. G3(4)'s asymmetric terminal profile leaves only the I/O
// swap itself.
func TestGroupOrderG3(t *testing.T) {
	for k, want := range map[int]int{4: 2, 5: 32} {
		g := construct.G3(k)
		if got := computeOrder(t, g, Options{}); got != want {
			t.Errorf("G3(%d): order = %d, want %d", k, got, want)
		}
	}
}

// For large enough rings the asymptotic family's only non-trivial symmetry
// is the ring reflection composed with the I/O swap — rotations do not
// respect the S/R split. On the smallest instances (m ≤ 9 ring nodes, where
// the circulant is nearly complete and non-edge constraints are weak) the
// generic search finds one extra strict reflection beyond the closed-form
// generator; that only increases pruning and is asserted here too.
func TestGroupOrderAsymptotic(t *testing.T) {
	for _, c := range []struct{ n, k, want int }{
		{14, 4, 4}, // m=8: extra strict symmetry of the dense ring
		{16, 4, 2}, // m=10: reflection only
		{15, 5, 2},
	} {
		g, lay, err := construct.Asymptotic(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		refl, err := Reflection(g, lay)
		if err != nil {
			t.Fatalf("Reflection(%d,%d): %v", c.n, c.k, err)
		}
		if !refl.IOSwap {
			t.Error("reflection should be an IO-swap automorphism")
		}
		if got := computeOrder(t, g, Options{Seeds: []Perm{refl}}); got != c.want {
			t.Errorf("Asymptotic(%d,%d): order = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// The reflection must also hold (and certificate-check) on an instance with
// the odd-k bisector offset.
func TestReflectionOddK(t *testing.T) {
	g, lay, err := construct.Asymptotic(construct.MinAsymptoticN(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reflection(g, lay); err != nil {
		t.Fatalf("Reflection on k=5: %v", err)
	}
}

func TestCheckAutomorphismRejects(t *testing.T) {
	g := construct.G1(2)
	n := g.NumNodes()

	id := identityPerm(n)
	if err := CheckAutomorphism(g, id); err != nil {
		t.Fatalf("identity rejected: %v", err)
	}

	// Swapping a processor with a terminal breaks the kind condition.
	bad := identityPerm(n)
	p := g.Processors()[0]
	it := g.InputTerminals()[0]
	bad.Map[p], bad.Map[it] = int32(it), int32(p)
	if err := CheckAutomorphism(g, bad); err == nil {
		t.Error("kind-violating permutation accepted")
	}

	// A non-bijection.
	bad = identityPerm(n)
	bad.Map[0] = 1
	if err := CheckAutomorphism(g, bad); err == nil {
		t.Error("non-bijection accepted")
	}

	// Swapping two input terminals attached to different processors maps an
	// edge to a non-edge.
	its := g.InputTerminals()
	bad = identityPerm(n)
	bad.Map[its[0]], bad.Map[its[1]] = int32(its[1]), int32(its[0])
	if err := CheckAutomorphism(g, bad); err == nil {
		t.Error("edge-violating permutation accepted")
	}

	// Wrong length.
	if err := CheckAutomorphism(g, Perm{Map: make([]int32, n-1)}); err == nil {
		t.Error("short permutation accepted")
	}
}

// Compute must silently drop invalid seeds rather than trust them.
func TestComputeDropsInvalidSeeds(t *testing.T) {
	g := construct.G2(2)
	n := g.NumNodes()
	bad := identityPerm(n)
	bad.Map[0], bad.Map[1] = 1, 0
	bad.Map[2] = 2 // arbitrary; likely breaks edges/kinds
	gr := Compute(g, Options{Seeds: []Perm{bad, identityPerm(n)}})
	for _, gen := range gr.Generators() {
		if err := CheckAutomorphism(g, gen); err != nil {
			t.Fatalf("uncertified generator in group: %v", err)
		}
	}
	if got := computeOrder(t, g, Options{}); got != 4 {
		t.Errorf("G2(2) order = %d, want 4", got)
	}
}

// Every materialized element must itself be a certified automorphism, and
// orbits under the closure must be consistent: applying any element to a
// node set and sorting yields a set tolerated iff the original is (checked
// structurally here via kinds/degrees only).
func TestElementsAreAutomorphisms(t *testing.T) {
	g := construct.G3(5)
	gr := Compute(g, Options{})
	elems, ok := gr.Elements()
	if !ok {
		t.Fatal("closure not materialized")
	}
	for i, e := range elems {
		if err := CheckAutomorphism(g, e); err != nil {
			t.Fatalf("element %d invalid: %v", i, err)
		}
	}
}

// With a tiny MaxElements the closure must be dropped (nil, false), while
// generators survive.
func TestMaterializeCap(t *testing.T) {
	g := construct.G1(3) // order 48 > cap 4
	gr := Compute(g, Options{MaxElements: 4})
	if _, ok := gr.Elements(); ok {
		t.Error("closure materialized despite cap")
	}
	if _, ok := gr.Order(); ok {
		t.Error("order known despite cap")
	}
	if gr.Trivial() {
		t.Error("generators lost under cap")
	}
}

// Exhausting the budget must yield Complete() == false, never a wrong group.
func TestBudgetExhaustion(t *testing.T) {
	g := construct.G1(3)
	gr := Compute(g, Options{Budget: 5})
	if gr.Complete() {
		t.Error("search claimed completeness with a 5-step budget")
	}
	for _, gen := range gr.Generators() {
		if err := CheckAutomorphism(g, gen); err != nil {
			t.Fatalf("invalid generator under budget pressure: %v", err)
		}
	}
}

// Perm algebra sanity: inverse and composition round-trip.
func TestPermAlgebra(t *testing.T) {
	g := construct.G2(3)
	gr := Compute(g, Options{})
	for _, p := range gr.Generators() {
		inv := p.Inverse()
		if inv.IOSwap != p.IOSwap {
			t.Error("inverse changed IOSwap")
		}
		if !compose(p, inv).identity() || !compose(inv, p).identity() {
			t.Error("p∘p⁻¹ is not the identity")
		}
		if p.IOSwap && compose(p, p).IOSwap {
			t.Error("two IO-swaps composed to an IO-swap")
		}
	}
}

// The IO-swap search re-finds the circulant reflection when it is seeded;
// Compute must keep it once, or the computed group's generator list (and
// with it the store's group signature) differs from the same group
// reloaded through FromGenerators.
func TestComputeKeepsEachGeneratorOnce(t *testing.T) {
	for _, c := range []struct{ n, k int }{{22, 4}, {26, 5}} {
		sol, err := construct.Design(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		refl, err := Reflection(sol.Graph, sol.Layout)
		if err != nil {
			t.Fatalf("Reflection(%d,%d): %v", c.n, c.k, err)
		}
		gens := Compute(sol.Graph, Options{Seeds: []Perm{refl}}).Generators()
		for i := range gens {
			for j := i + 1; j < len(gens); j++ {
				if permEqual(gens[i], gens[j]) {
					t.Errorf("G(%d,%d): generators %d and %d are equal", c.n, c.k, i, j)
				}
			}
		}
		if len(gens) == 0 || !permEqual(gens[0], refl) {
			t.Errorf("G(%d,%d): the reflection seed is not the first generator", c.n, c.k)
		}
		re, err := FromGenerators(sol.Graph, gens, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(re.Generators()) != len(gens) {
			t.Errorf("G(%d,%d): %d computed generators reload as %d", c.n, c.k, len(gens), len(re.Generators()))
		}
	}
}
