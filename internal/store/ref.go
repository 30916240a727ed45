package store

import (
	"fmt"
	"hash/fnv"
	"sort"

	"gdpn/internal/autom"
	"gdpn/internal/graph"
)

// GraphRef is a registered graph's handle into the store: it owns the
// slot id plus the labeling that translates between the graph's node ids
// and the slot's canonical ids. Safe for concurrent use.
type GraphRef struct {
	s    *Store
	slot int
	lab  []int32 // original id -> canonical id
	inv  []int32 // canonical id -> original id
}

// Register returns g's store handle, creating its slot on first sight.
// Isomorphic graphs with byte-equal canonical forms share one slot (and
// therefore all stored entries) even when their concrete node ids differ.
// A slot in g's fingerprint bucket whose stored labeling encodes g to the
// slot's canonical bytes is taken as it is; otherwise Register computes
// g's canonical form.
func (s *Store) Register(g *graph.Graph) *GraphRef {
	if r := s.registered(g); r != nil {
		return r
	}
	cf := g.Canonical()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newRef(s.registerLocked(g, cf), cf.Labeling)
}

// registered returns the handle of a slot whose stored labeling maps g
// onto its canonical bytes, or nil. Of two slots with those bytes, the
// handle is the first's, as registerLocked would find it.
func (s *Store) registered(g *graph.Graph) *GraphRef {
	h := g.Fingerprint()
	s.mu.RLock()
	defer s.mu.RUnlock()
	bucket := s.byHash[h]
	for _, id := range bucket {
		sl := s.slots[id]
		if sl.lab == nil {
			continue
		}
		if enc, ok := g.EncodeUnder(sl.lab); ok && string(enc) == string(sl.bytes) {
			for _, first := range bucket {
				if string(s.slots[first].bytes) == string(sl.bytes) {
					return s.newRef(first, sl.lab)
				}
			}
		}
	}
	return nil
}

// newRef returns the handle of slot id for a graph labeled by lab.
func (s *Store) newRef(id int, lab []int32) *GraphRef {
	inv := make([]int32, len(lab))
	for v, c := range lab {
		inv[c] = int32(v)
	}
	return &GraphRef{s: s, slot: id, lab: lab, inv: inv}
}

// canonSet appends the canonical ids of the nodes orig to dst and sorts
// the appended ids. Fault sets are small (≤ k elements), so insertion
// sort — no closure, no interface boxing — keeps the per-entry cost down
// on the sweep's hot path.
func (r *GraphRef) canonSet(dst []int32, orig []int) []int32 {
	start := len(dst)
	for _, v := range orig {
		dst = append(dst, r.lab[v])
	}
	for i := start + 1; i < len(dst); i++ {
		for j := i; j > start && dst[j] < dst[j-1]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// origID maps a stored canonical id to the graph's node id; ok is false
// for an id outside the graph.
func (r *GraphRef) origID(c int32) (v int32, ok bool) {
	if uint32(c) >= uint32(len(r.inv)) {
		return -1, false
	}
	return r.inv[c], true
}

// LookupGroup rebuilds the cached automorphism group through
// autom.FromGenerators, which certificate-checks every generator against
// g before trusting it. A failing generator (corrupt entry, or an
// isomorphic-but-relabeled graph whose canonical labeling translated a
// generator imperfectly — impossible for byte-equal forms, but cheap to
// defend against) turns the hit into a miss.
func (r *GraphRef) LookupGroup(g *graph.Graph) (*autom.Group, bool) {
	r.s.mu.RLock()
	gv, ok := r.s.groups[r.slot]
	r.s.mu.RUnlock()
	if !ok {
		r.s.miss("group")
		return nil, false
	}
	if gens, ok := r.origGens(gv.gens); ok {
		if gr, err := autom.FromGenerators(g, gens, gv.complete, 0); err == nil {
			r.s.hit("group")
			return gr, true
		}
	}
	r.s.miss("group")
	return nil, false
}

// origGens translates stored generators to the graph's node ids; ok is
// false when one is not a permutation map of the graph's length or maps
// to an id outside the graph.
func (r *GraphRef) origGens(recs []permRec) (gens []autom.Perm, ok bool) {
	gens = make([]autom.Perm, len(recs))
	for i, pr := range recs {
		if len(pr.m) != len(r.inv) {
			return nil, false
		}
		m := make([]int32, len(pr.m))
		for c, tc := range pr.m {
			// canonical perm q: q[c] = tc; original perm p = inv ∘ q ∘ lab.
			v, ok := r.origID(tc)
			if !ok {
				return nil, false
			}
			m[r.inv[c]] = v
		}
		gens[i] = autom.Perm{Map: m, IOSwap: pr.ioswap}
	}
	return gens, true
}

// PutGroup caches the group's generators (translated to canonical ids).
// Idempotent per slot: the first stored group wins.
func (r *GraphRef) PutGroup(gr *autom.Group) {
	gens := gr.Generators()
	recs := make([]permRec, len(gens))
	for i, p := range gens {
		m := make([]int32, len(p.Map))
		for v, tv := range p.Map {
			m[r.lab[v]] = r.lab[tv]
		}
		recs[i] = permRec{m: m, ioswap: p.IOSwap}
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if _, ok := r.s.groups[r.slot]; ok {
		return
	}
	gv := groupVal{gens: recs, complete: gr.Complete()}
	r.s.groups[r.slot] = gv
	r.s.appendLocked(kindGroup, encodeGroup(r.slot, gv))
}

// GroupSig returns a labeling-invariant signature of the group as used by
// proof blocks, 0 for no group (the identity): the FNV hash of the sorted
// canonical-id generator encodings plus the completeness flag. Two runs
// over byte-equal canonical forms that use the same group (computed or
// cache-loaded) produce the same signature; any group difference
// invalidates proof blocks rather than risking a different orbit
// partition.
func (r *GraphRef) GroupSig(gr *autom.Group) uint64 {
	if gr == nil {
		return 0
	}
	gens := gr.Generators()
	encs := make([]string, len(gens))
	for i, p := range gens {
		buf := make([]byte, 0, 1+4*len(p.Map))
		buf = append(buf, boolByte(p.IOSwap))
		m := make([]int32, len(p.Map))
		for v, tv := range p.Map {
			m[r.lab[v]] = r.lab[tv]
		}
		for _, tv := range m {
			buf = appendU32(buf, uint32(tv))
		}
		encs[i] = string(buf)
	}
	sort.Strings(encs)
	h := fnv.New64a()
	h.Write([]byte{boolByte(gr.Complete())})
	for _, e := range encs {
		h.Write([]byte(e))
	}
	return h.Sum64()
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// SweepSig identifies a sweep configuration for proof-block lookups: the
// fault universe (canonical ids), the fault budget k, and the group
// signature under which orbit minimality was decided.
func (r *GraphRef) SweepSig(universe []int, k int, groupSig uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(k))
	put(groupSig)
	for _, c := range r.canonSet(nil, universe) {
		put(uint64(c))
	}
	return h.Sum64()
}

// Slot exposes the slot id (stable within one store file) for diagnostics.
func (r *GraphRef) Slot() int { return r.slot }

// Store returns the backing store.
func (r *GraphRef) Store() *Store { return r.s }

// String implements fmt.Stringer for log lines.
func (r *GraphRef) String() string {
	return fmt.Sprintf("store-slot %d", r.slot)
}
