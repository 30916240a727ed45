// Package combin provides the combinatorial enumeration primitives used by
// the exhaustive verifier and the solution-graph search: k-subset iteration
// in lexicographic order, subset ranking for work partitioning across
// goroutines, binomial coefficients, and reproducible random subsets.
package combin

import (
	"math/rand"
)

// Binomial returns C(n, k). It returns 0 for k < 0 or k > n and panics on
// overflow of int64 arithmetic, which does not occur for the graph sizes
// handled by this repository (n ≤ a few thousand, k ≤ ~8).
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var r int64 = 1
	for i := 0; i < k; i++ {
		num := int64(n - i)
		r *= num
		if r < 0 {
			panic("combin: binomial overflow")
		}
		r /= int64(i + 1)
	}
	return r
}

// CountUpTo returns Σ_{i=0..k} C(n, i): the number of subsets of an n-set
// with at most k elements. This is the number of fault sets an exhaustive
// verification must examine.
func CountUpTo(n, k int) int64 {
	var total int64
	for i := 0; i <= k; i++ {
		total += Binomial(n, i)
	}
	return total
}

// Subsets calls fn once for every subset of {0..n-1} of size exactly k, in
// lexicographic order. The slice passed to fn is reused between calls; fn
// must copy it if it retains it. Iteration stops early if fn returns false.
// Subsets returns the number of subsets visited.
func Subsets(n, k int, fn func(sub []int) bool) int64 {
	if k < 0 || k > n {
		return 0
	}
	sub := make([]int, k)
	for i := range sub {
		sub[i] = i
	}
	var visited int64
	for {
		visited++
		if !fn(sub) {
			return visited
		}
		if !NextSubset(n, sub) {
			return visited
		}
	}
}

// NextSubset advances sub — a strictly increasing k-subset of {0..n-1} — to
// its lexicographic successor in place. It returns false (leaving sub
// unchanged) when sub is already the last subset, {n-k..n-1}. The exhaustive
// verifier iterates rank ranges with NextSubset instead of calling Unrank
// per rank: advancing is O(k) and touches only a suffix of sub, so
// consecutive ranks share most of their members.
func NextSubset(n int, sub []int) bool {
	k := len(sub)
	i := k - 1
	for i >= 0 && sub[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	sub[i]++
	for j := i + 1; j < k; j++ {
		sub[j] = sub[j-1] + 1
	}
	return true
}

// SubsetsUpTo calls fn for every subset of {0..n-1} of size at most k
// (including the empty set), grouped by increasing size and lexicographic
// within each size. Iteration stops early if fn returns false. It returns
// the number of subsets visited.
func SubsetsUpTo(n, k int, fn func(sub []int) bool) int64 {
	var visited int64
	stop := false
	for size := 0; size <= k && size <= n && !stop; size++ {
		visited += Subsets(n, size, func(sub []int) bool {
			if !fn(sub) {
				stop = true
				return false
			}
			return true
		})
	}
	return visited
}

// Unrank writes into dst the k-subset of {0..n-1} with lexicographic rank r
// (0-based) and returns dst. dst must have length k. Unrank is the inverse
// of Ranker.Rank and is used to split an exhaustive verification run into
// independent contiguous chunks for worker goroutines.
func Unrank(n, k int, r int64, dst []int) []int {
	if len(dst) != k {
		panic("combin: Unrank dst length mismatch")
	}
	x := 0
	for i := 0; i < k; i++ {
		for {
			c := Binomial(n-x-1, k-i-1)
			if r < c {
				break
			}
			r -= c
			x++
		}
		dst[i] = x
		x++
	}
	return dst
}

// Ranker gives the 0-based lexicographic rank of a k-subset {v_0 < v_1 < …}
// of {0..n-1} in O(k) from a table: C(n, k) - 1 - Σ_i C(n-1-v_i, k-i).
type Ranker struct {
	n    int
	last int64   // C(n, k) - 1
	t    []int64 // t[i*n+v] = C(n-1-v, k-i)
}

// NewRanker builds the table for the k-subsets of {0..n-1}.
func NewRanker(n, k int) Ranker {
	r := Ranker{n: n, last: Binomial(n, k) - 1, t: make([]int64, k*n)}
	for i := range r.t {
		r.t[i] = Binomial(n-1-i%n, k-i/n)
	}
	return r
}

// Rank returns the rank of sub, which must be strictly increasing.
func (r Ranker) Rank(sub []int) int64 {
	rank := r.last
	for i, v := range sub {
		rank -= r.t[i*r.n+v]
	}
	return rank
}

// RandomSubset writes a uniformly random size-k subset of {0..n-1} into dst
// in increasing order and returns dst. It uses Floyd's algorithm, so it
// performs k map operations regardless of n.
func RandomSubset(rng *rand.Rand, n, k int, dst []int) []int {
	if k > n {
		panic("combin: RandomSubset k > n")
	}
	dst = dst[:0]
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
	}
	for v := range chosen {
		dst = append(dst, v)
	}
	insertionSort(dst)
	return dst
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Permutations calls fn for each permutation of {0..n-1} using Heap's
// algorithm. The slice passed to fn is reused. Iteration stops early if fn
// returns false. Only used for tiny n in the search module.
func Permutations(n int, fn func(perm []int) bool) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == 1 {
			return fn(perm)
		}
		for i := 0; i < k; i++ {
			if !rec(k - 1) {
				return false
			}
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
		return true
	}
	if n > 0 {
		rec(n)
	}
}
