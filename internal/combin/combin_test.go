package combin

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {5, 3, 10},
		{10, 4, 210}, {36, 4, 58905}, {52, 5, 2598960},
		{5, -1, 0}, {5, 6, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	for n := 1; n < 40; n++ {
		for k := 1; k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at (%d,%d)", n, k)
			}
		}
	}
}

func TestCountUpTo(t *testing.T) {
	// G22,4 fault-set count from DESIGN.md: nodes = 22+3*4+2 = 36, k = 4.
	if got := CountUpTo(36, 4); got != 1+36+630+7140+58905 {
		t.Fatalf("CountUpTo(36,4) = %d", got)
	}
	if got := CountUpTo(5, 10); got != 32 {
		t.Fatalf("CountUpTo(5,10) = %d, want 32 (all subsets)", got)
	}
}

func TestSubsetsExactOrderAndCount(t *testing.T) {
	var got [][]int
	n := Subsets(4, 2, func(sub []int) bool {
		cp := append([]int(nil), sub...)
		got = append(got, cp)
		return true
	})
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if n != 6 || len(got) != 6 {
		t.Fatalf("visited %d subsets, want 6", n)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("subset %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSubsetsEdgeCases(t *testing.T) {
	if n := Subsets(3, 0, func(sub []int) bool { return true }); n != 1 {
		t.Fatalf("Subsets(3,0) visited %d, want 1 (empty set)", n)
	}
	if n := Subsets(3, 4, func(sub []int) bool { return true }); n != 0 {
		t.Fatalf("Subsets(3,4) visited %d, want 0", n)
	}
	if n := Subsets(3, -1, func(sub []int) bool { return true }); n != 0 {
		t.Fatalf("Subsets(3,-1) visited %d, want 0", n)
	}
}

func TestSubsetsEarlyStop(t *testing.T) {
	count := 0
	n := Subsets(10, 3, func(sub []int) bool {
		count++
		return count < 5
	})
	if n != 5 || count != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestSubsetsUpToMatchesCount(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for k := 0; k <= 5; k++ {
			var visited int64
			SubsetsUpTo(n, k, func(sub []int) bool {
				visited++
				return true
			})
			if visited != CountUpTo(n, k) {
				t.Fatalf("SubsetsUpTo(%d,%d) visited %d, want %d", n, k, visited, CountUpTo(n, k))
			}
		}
	}
}

func TestSubsetsUpToEarlyStop(t *testing.T) {
	var visited int64
	got := SubsetsUpTo(10, 3, func(sub []int) bool {
		visited++
		return visited < 7
	})
	if got != 7 {
		t.Fatalf("early stop returned %d, want 7", got)
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	const n, k = 12, 4
	total := Binomial(n, k)
	dst := make([]int, k)
	var r int64
	Subsets(n, k, func(sub []int) bool {
		if got := NewRanker(n, k).Rank(sub); got != r {
			t.Fatalf("Rank(%v) = %d, want %d", sub, got, r)
		}
		Unrank(n, k, r, dst)
		for i := range dst {
			if dst[i] != sub[i] {
				t.Fatalf("Unrank(%d) = %v, want %v", r, dst, sub)
			}
		}
		r++
		return true
	})
	if r != total {
		t.Fatalf("visited %d, want %d", r, total)
	}
}

// TestNextSubsetAgreesWithUnrank is the property the chunked exhaustive
// verifier depends on: unranking rank r and advancing with NextSubset must
// land exactly on the unranking of rank r+1, at every rank — including the
// boundaries where workers hand off chunks (first, last, chunk edges).
func TestNextSubsetAgreesWithUnrank(t *testing.T) {
	for _, c := range []struct{ n, k int }{
		{5, 1}, {5, 3}, {10, 2}, {12, 4}, {23, 3}, {9, 5},
	} {
		total := Binomial(c.n, c.k)
		// Boundary ranks: first, second, last two, and synthetic chunk edges
		// at total/7 strides (both sides of each edge).
		ranks := map[int64]bool{0: true}
		if total > 1 {
			ranks[1], ranks[total-2], ranks[total-1] = true, true, true
		}
		if per := total / 7; per > 0 {
			for from := per; from < total; from += per {
				ranks[from-1] = true
				ranks[from] = true
			}
		}
		cur := make([]int, c.k)
		next := make([]int, c.k)
		for r := range ranks {
			if r+1 >= total {
				continue
			}
			Unrank(c.n, c.k, r, cur)
			if !NextSubset(c.n, cur) {
				t.Fatalf("n=%d k=%d: NextSubset claimed rank %d is last of %d", c.n, c.k, r, total)
			}
			Unrank(c.n, c.k, r+1, next)
			for i := range cur {
				if cur[i] != next[i] {
					t.Fatalf("n=%d k=%d rank %d: advance = %v, Unrank(r+1) = %v", c.n, c.k, r, cur, next)
				}
			}
		}
		// The last subset must refuse to advance and stay unchanged.
		Unrank(c.n, c.k, total-1, cur)
		copy(next, cur)
		if NextSubset(c.n, cur) {
			t.Fatalf("n=%d k=%d: last subset advanced", c.n, c.k)
		}
		for i := range cur {
			if cur[i] != next[i] {
				t.Fatalf("n=%d k=%d: failed NextSubset mutated sub: %v -> %v", c.n, c.k, next, cur)
			}
		}
	}
}

// Exhaustive version of the same property on a small instance: every single
// rank transition agrees, not just boundaries.
func TestNextSubsetAgreesWithUnrankExhaustive(t *testing.T) {
	const n, k = 11, 4
	total := Binomial(n, k)
	cur := Unrank(n, k, 0, make([]int, k))
	next := make([]int, k)
	for r := int64(1); r < total; r++ {
		if !NextSubset(n, cur) {
			t.Fatalf("NextSubset stopped at rank %d of %d", r-1, total)
		}
		Unrank(n, k, r, next)
		for i := range cur {
			if cur[i] != next[i] {
				t.Fatalf("rank %d: advance = %v, unrank = %v", r, cur, next)
			}
		}
	}
	if NextSubset(n, cur) {
		t.Fatal("NextSubset advanced past the last subset")
	}
}

func TestUnrankDstMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dst mismatch")
		}
	}()
	Unrank(5, 2, 0, make([]int, 3))
}

// Property: Rank/Unrank round-trip for random parameters.
func TestQuickRankUnrank(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		k := 1 + rng.Intn(n)
		r := rng.Int63n(Binomial(n, k))
		sub := Unrank(n, k, r, make([]int, k))
		for i := 1; i < k; i++ {
			if sub[i] <= sub[i-1] {
				return false // must be strictly increasing
			}
		}
		if sub[k-1] >= n || sub[0] < 0 {
			return false
		}
		return NewRanker(n, k).Rank(sub) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSubsetUniformCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k, trials = 10, 3, 30000
	counts := make([]int, n)
	buf := make([]int, 0, k)
	for i := 0; i < trials; i++ {
		buf = RandomSubset(rng, n, k, buf)
		if len(buf) != k {
			t.Fatalf("len = %d, want %d", len(buf), k)
		}
		for j := 1; j < k; j++ {
			if buf[j] <= buf[j-1] {
				t.Fatalf("not sorted/distinct: %v", buf)
			}
		}
		for _, v := range buf {
			counts[v]++
		}
	}
	// Each element appears with probability k/n = 0.3; expect ~9000 each.
	for v, c := range counts {
		if c < 8300 || c > 9700 {
			t.Fatalf("element %d appeared %d times; far from expected 9000", v, c)
		}
	}
}

func TestRandomSubsetFullSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := RandomSubset(rng, 5, 5, nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("RandomSubset(n,n) = %v, want identity", got)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("k > n did not panic")
			}
		}()
		RandomSubset(rng, 3, 4, nil)
	}()
}

func TestPermutationsCountAndDistinct(t *testing.T) {
	seen := map[[4]int]bool{}
	Permutations(4, func(p []int) bool {
		var key [4]int
		copy(key[:], p)
		if seen[key] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[key] = true
		return true
	})
	if len(seen) != 24 {
		t.Fatalf("got %d permutations, want 24", len(seen))
	}
}

func TestPermutationsEarlyStopAndZero(t *testing.T) {
	count := 0
	Permutations(5, func(p []int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d, want 10", count)
	}
	Permutations(0, func(p []int) bool {
		t.Fatal("Permutations(0) should not call fn")
		return false
	})
}

func BenchmarkSubsetsUpTo36_4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sink int64
		SubsetsUpTo(36, 4, func(sub []int) bool {
			sink += int64(len(sub))
			return true
		})
		_ = sink
	}
}
