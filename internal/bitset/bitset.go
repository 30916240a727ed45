// Package bitset provides dense bit sets over small integer universes.
//
// The package is the workhorse for fault sets, visited-node sets during
// Hamiltonian-path search, and adjacency rows: all of the hot loops in the
// embedding solver and the exhaustive verifier operate on values of type
// Set. Sets are plain slices of uint64 words, so they can be copied with
// Clone, reused across iterations, and compared cheaply.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set. The zero value is an empty set of capacity 0;
// use New to create a set able to hold values in [0, n).
type Set []uint64

// New returns a Set able to hold values in [0, n).
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return make(Set, (n+wordBits-1)/wordBits)
}

// FromSlice returns a set of capacity n containing the given elements.
func FromSlice(n int, elems []int) Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Len returns the capacity of the set in bits (a multiple of 64).
func (s Set) Len() int { return len(s) * wordBits }

// Add inserts i into the set.
func (s Set) Add(i int) { s[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Remove deletes i from the set.
func (s Set) Remove(i int) { s[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Flip toggles membership of i.
func (s Set) Flip(i int) { s[i/wordBits] ^= 1 << (uint(i) % wordBits) }

// Contains reports whether i is in the set.
func (s Set) Contains(i int) bool {
	w := uint(i) / wordBits // a negative i wraps past every word
	if w >= uint(len(s)) {
		return false
	}
	return s[w]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s Set) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, keeping capacity.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// CopyFrom overwrites s with the contents of o. The sets must have the
// same capacity.
func (s Set) CopyFrom(o Set) {
	if len(s) != len(o) {
		panic("bitset: CopyFrom capacity mismatch")
	}
	copy(s, o)
}

// UnionWith adds every element of o to s.
func (s Set) UnionWith(o Set) {
	for i, w := range o {
		s[i] |= w
	}
}

// IntersectWith removes from s every element not in o.
func (s Set) IntersectWith(o Set) {
	for i := range s {
		if i < len(o) {
			s[i] &= o[i]
		} else {
			s[i] = 0
		}
	}
}

// DifferenceWith removes every element of o from s.
func (s Set) DifferenceWith(o Set) {
	for i := range o {
		if i < len(s) {
			s[i] &^= o[i]
		}
	}
}

// Intersects reports whether s and o share at least one element.
func (s Set) Intersects(o Set) bool {
	n := len(s)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ o|.
func (s Set) IntersectionCount(o Set) int {
	n := len(s)
	if len(o) < n {
		n = len(o)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s[i] & o[i])
	}
	return c
}

// SubsetOf reports whether every element of s is in o.
func (s Set) SubsetOf(o Set) bool {
	for i, w := range s {
		ow := uint64(0)
		if i < len(o) {
			ow = o[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain exactly the same elements.
func (s Set) Equal(o Set) bool {
	n := len(s)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s) {
			a = s[i]
		}
		if i < len(o) {
			b = o[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Min returns the smallest element, or -1 if the set is empty.
func (s Set) Min() int {
	for i, w := range s {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextAfter returns the smallest element strictly greater than i,
// or -1 if none exists.
func (s Set) NextAfter(i int) int {
	i++
	if i < 0 {
		i = 0
	}
	w := i / wordBits
	if w >= len(s) {
		return -1
	}
	cur := s[w] >> (uint(i) % wordBits)
	if cur != 0 {
		return i + bits.TrailingZeros64(cur)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}

// ForEach calls fn for every element in ascending order. If fn returns
// false, iteration stops.
func (s Set) ForEach(fn func(i int) bool) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the elements of the set in ascending order.
func (s Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// AppendTo appends the elements of the set in ascending order to dst and
// returns the extended slice. It allows callers to reuse buffers across
// hot-loop iterations.
func (s Set) AppendTo(dst []int) []int {
	s.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// String renders the set as "{a, b, c}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
