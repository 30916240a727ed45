package store

import (
	"encoding/binary"
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

// Register computes g's canonical form and returns its store handle,
// creating the slot on first sight. Isomorphic graphs with byte-equal
// canonical forms share one slot (and therefore all cached entries) even
// when their concrete node ids differ.
func (s *Store) Register(g *graph.Graph) *GraphRef {
	cf := g.Canonical()
	n := g.NumNodes()
	inv := make([]int32, n)
	for v, c := range cf.Labeling {
		inv[c] = int32(v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return &GraphRef{s: s, slot: s.registerLocked(g, cf), lab: cf.Labeling, inv: inv}
}

// canonSet appends the canonical ids of the nodes orig to dst and sorts
// the appended ids. Fault sets are small (≤ k elements), so insertion
// sort — no closure, no interface boxing — keeps the per-lookup cost down
// on the replay hot path.
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

// verdictKey appends the fault set's verdict key to dst: the first bytes
// of its verdict payload (see verdictIndex).
func (r *GraphRef) verdictKey(dst []byte, faults []int) []byte {
	var ids [16]int32
	dst = binary.AppendUvarint(dst, uint64(r.slot))
	return appendIDs(dst, r.canonSet(ids[:0], faults))
}

// origID maps a stored canonical id to the graph's node id; ok is false
// for an id outside the graph.
func (r *GraphRef) origID(c int32) (v int32, ok bool) {
	if uint32(c) >= uint32(len(r.inv)) {
		return -1, false
	}
	return r.inv[c], true
}

// Verdict is one cached per-fault-set answer in original node ids. Path
// is empty for negative verdicts. The caller MUST re-verify before
// trusting it: replay Path via verify.CheckPipeline for positives,
// re-screen negatives with cheap necessary conditions.
type Verdict struct {
	Found bool
	Path  []int
}

// LookupVerdict returns the cached verdict for the fault set (original
// node ids), if any. The verdict's Path is path[:0] extended by the
// stored certificate, so a caller that hands each Path back as the next
// buffer looks verdicts up without allocating. A stored id outside the
// graph reads as -1, which no certificate check accepts.
func (r *GraphRef) LookupVerdict(faults, path []int) (Verdict, bool) {
	var kb [64]byte
	key := r.verdictKey(kb[:0], faults)
	path = path[:0]
	r.s.ensureIndex()
	r.s.mu.RLock()
	_, off := r.s.verdicts.find(r.s.buf, key)
	found := false
	if off != 0 {
		// Open or PutVerdict decoded this payload already: it parses.
		p := payloadReader{b: r.s.buf[off+len(key):]}
		if found = p.byte() != 0; found {
			for n := p.count(1); n > 0; n-- {
				v, _ := r.origID(id32(p.uvarint()))
				path = append(path, int(v))
			}
		}
	}
	r.s.mu.RUnlock()
	if off == 0 {
		r.s.miss("verdict")
		return Verdict{Path: path}, false
	}
	r.s.hit("verdict")
	return Verdict{Found: found, Path: path}, true
}

// PutVerdict records a verdict for the fault set. Re-recording an
// existing key is a no-op (idempotent warm runs do not grow the file):
// the first write wins.
func (r *GraphRef) PutVerdict(faults []int, v Verdict) {
	payload := r.verdictKey(nil, faults)
	klen := len(payload)
	payload = append(payload, boolByte(v.Found))
	if v.Found {
		payload = binary.AppendUvarint(payload, uint64(len(v.Path)))
		for _, x := range v.Path {
			payload = binary.AppendUvarint(payload, uint64(r.lab[x]))
		}
	}
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.indexLocked()
	h, off := s.verdicts.find(s.buf, payload[:klen])
	if off != 0 {
		return
	}
	s.verdicts.insert(h, len(s.buf)+payloadOff)
	s.appendLocked(kindVerdict, payload)
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
// proof blocks and manifests: the FNV hash of the sorted canonical-id
// generator encodings plus the completeness flag. Two runs over byte-equal
// canonical forms that use the same group (computed or cache-loaded)
// produce the same signature; any group difference invalidates proof
// blocks rather than risking a different orbit partition.
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

// Blob returns the named opaque payload attached to this graph's slot.
// Blob contents are caller-defined (the fleet stores chunk reports, the
// CLIs store certificate-set JSON); the store only guarantees integrity
// (CRC) and atomic persistence, not semantic validity — callers apply
// their own re-checks per the package trust model.
func (r *GraphRef) Blob(name string) ([]byte, bool) {
	r.s.mu.RLock()
	v, ok := r.s.blobs[blobKey{r.slot, name}]
	r.s.mu.RUnlock()
	if !ok {
		r.s.miss("blob")
		return nil, false
	}
	r.s.hit("blob")
	return append([]byte(nil), v.data...), true
}

// PutBlob stores (or supersedes) the named payload. Writing identical
// bytes is a no-op.
func (r *GraphRef) PutBlob(name string, data []byte) {
	key := blobKey{r.slot, name}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if old, ok := r.s.blobs[key]; ok {
		if string(old.data) == string(data) {
			return
		}
		r.s.garbage += old.sz
	}
	start := len(r.s.buf)
	r.s.appendLocked(kindBlob, encodeBlob(key, data))
	r.s.blobs[key] = blobVal{data: r.s.lastPayloadTail(len(data)), sz: len(r.s.buf) - start}
}

// Slot exposes the slot id (stable within one store file) for diagnostics.
func (r *GraphRef) Slot() int { return r.slot }

// Store returns the backing store.
func (r *GraphRef) Store() *Store { return r.s }

// String implements fmt.Stringer for log lines.
func (r *GraphRef) String() string {
	return fmt.Sprintf("store-slot %d", r.slot)
}
