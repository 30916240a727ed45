package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
)

// A proof block holds the orbit representatives of one rank range
// [from, to) of one size class of a sweep (every set of the range when
// the sweep has no symmetry), in the order the sweep's workers decided
// them, each with its witness. Its payload is the slot, the sweep
// signature (u64), the set size, from, to and the entry count as
// uvarints, then one width byte: 1 when the slot's graph has at most 255
// nodes, else 2. Then come the entries, every number in them width bytes
// wide (little-endian): the size canonical ids of the fault set, the path
// length, and the path's canonical ids. A path length of 0 is a negative
// verdict; a pipeline has at least three nodes. A block of an earlier
// release (kindWholeProof) has no from and to: it covers its whole size.
//
// Filing a block drops every block under the same slot, signature and
// size whose range overlaps its own: the latest wins.
//
// A replay walks a block front to back, with no hash, no index probe and
// no lock, and decodes each entry into the caller's buffers. Open checks
// only a block's header, and drops a block whose header does not parse; a
// block whose entries do not parse, or name a fault-set node outside the
// graph, is a miss when replayed. Nothing here trusts a block to list
// every orbit of its range, or a size's blocks to tile it: the caller
// checks that (verify's replayBlock and coverSize).

// maxProofNodes is the largest graph a width-2 block can name every node
// of; a larger graph gets no proof blocks.
const maxProofNodes = 1<<16 - 1

// idWidth is the byte width of the ids in a proof block of an n-node
// graph, or 0 when n is too large for one.
func idWidth(n int) int {
	switch {
	case n <= 255:
		return 1
	case n <= maxProofNodes:
		return 2
	}
	return 0
}

func appendFixed(b []byte, v, width int) []byte {
	if width == 1 {
		return append(b, byte(v))
	}
	return binary.LittleEndian.AppendUint16(b, uint16(v))
}

func fixed(b []byte, width int) int {
	if width == 1 {
		return int(b[0])
	}
	return int(binary.LittleEndian.Uint16(b))
}

// putFixed writes v as the i-th number of b, width bytes wide.
func putFixed(b []byte, i, v, width int) {
	if width == 1 {
		b[i] = byte(v)
	} else {
		binary.LittleEndian.PutUint16(b[2*i:], uint16(v))
	}
}

// ProofEntries holds encoded proof-block entries in a graph's own node
// ids, as a sweep worker decides them: the layout of a block's entries,
// which PutProof relabels into the slot's canonical ids when it files
// them. Its bytes travel as they are, so a process without a store (a
// fleet worker) encodes the entries its coordinator files.
type ProofEntries struct {
	b     []byte
	n     int
	nodes int
}

// NewProofEntries returns an empty entry list for a graph of the given
// node count. The list of a graph too large for proof blocks stays empty.
func NewProofEntries(nodes int) ProofEntries { return ProofEntries{nodes: nodes} }

// ParseProofEntries reads b as the entries of fault sets of the given
// size in a graph of the given node count, as Bytes returns them. ok is
// false unless b is whole entries only; their ids are checked by the
// replay.
func ParseProofEntries(b []byte, nodes, size int) (e ProofEntries, ok bool) {
	e = ProofEntries{b: b, nodes: nodes}
	width := idWidth(nodes)
	if width == 0 || size < 0 {
		return e, false
	}
	c := ProofCursor{rest: b, size: size, width: width}
	for len(c.rest) > 0 {
		if !c.skip() {
			return e, false
		}
		e.n++
	}
	return e, true
}

// Add adds the entry of one decided fault set: path is its
// certificate-checked witness, or empty for a negative verdict.
func (e *ProofEntries) Add(set, path []int) {
	width := idWidth(e.nodes)
	if width == 0 {
		return
	}
	for _, v := range set {
		e.b = appendFixed(e.b, v, width)
	}
	e.b = appendFixed(e.b, len(path), width)
	for _, v := range path {
		e.b = appendFixed(e.b, v, width)
	}
	e.n++
}

// Bytes returns the encoded entries.
func (e ProofEntries) Bytes() []byte { return e.b }

// Block returns the entries as the proof block of the ranks [from, to)
// of one set size, read in the graph's own ids. It counts nothing in a
// store: call Hit and Miss only on a block LookupProofs returned.
func (e ProofEntries) Block(size int, from, to int64) *ProofBlock {
	inv := make([]int32, e.nodes)
	for v := range inv {
		inv[v] = int32(v)
	}
	return &ProofBlock{inv: inv, entries: e.b, from: from, to: to, count: e.n, size: size, width: idWidth(e.nodes)}
}

// relabel writes the entries src, of fault sets of the given size, to
// dst, of the same length, in the slot's canonical ids, each set sorted.
// The entries must be whole and name nodes of the graph.
func (r *GraphRef) relabel(dst, src []byte, size, width int) {
	for len(src) > 0 {
		// Insertion-sort the set's canonical ids into place.
		for i := 0; i < size; i++ {
			c, j := int(r.lab[fixed(src[i*width:], width)]), i
			for ; j > 0 && fixed(dst[(j-1)*width:], width) > c; j-- {
				putFixed(dst, j, fixed(dst[(j-1)*width:], width), width)
			}
			putFixed(dst, j, c, width)
		}
		n := fixed(src[size*width:], width)
		putFixed(dst, size, n, width)
		for i := size + 1; i <= size+n; i++ {
			putFixed(dst, i, int(r.lab[fixed(src[i*width:], width)]), width)
		}
		end := (size + 1 + n) * width
		src, dst = src[end:], dst[end:]
	}
}

// PutProof files the proof block of the ranks [from, to) of one size
// class of a sweep from the entries of parts, in order. Only call once
// every set of the range is decided (no interruption, no unknown, no
// solver bug, no fail-fast stop): a partial block costs the size a miss
// on replay. It drops the blocks under the same key whose ranges overlap
// [from, to), so a sweep that re-solves a size whose block failed its
// replay replaces that block; re-putting a block already stored writes
// nothing.
func (r *GraphRef) PutProof(sig uint64, size int, from, to int64, parts []ProofEntries) {
	width, n, count := idWidth(len(r.inv)), 0, 0
	for _, e := range parts {
		n, count = n+len(e.b), count+e.n
	}
	if width == 0 || from < 0 || from >= to {
		return
	}
	key := proofKey{r.slot, sig, size}
	payload := make([]byte, 0, 48+n)
	payload = binary.AppendUvarint(payload, uint64(r.slot))
	payload = binary.LittleEndian.AppendUint64(payload, sig)
	for _, v := range []uint64{uint64(size), uint64(from), uint64(to), uint64(count)} {
		payload = binary.AppendUvarint(payload, v)
	}
	payload = append(payload, byte(width))
	hdr := len(payload)
	for _, e := range parts {
		at := len(payload)
		payload = payload[:at+len(e.b)]
		r.relabel(payload[at:], e.b, size, width)
	}

	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, old := range s.proofs[key] {
		if old.from == from && old.to == to && !old.whole && bytes.Equal(old.payload, payload) {
			return
		}
	}
	s.appendLocked(kindProof, payload)
	tail := s.lastPayloadTail(len(payload))
	s.insertProofLocked(key, proofVal{payload: tail, entries: tail[hdr:], from: from, to: to, count: count, width: width, ok: true})
}

// insertProofLocked enters pv under k, dropping, as garbage, the blocks
// under k whose ranges overlap its own. The blocks under a key stay
// sorted by range.
func (s *Store) insertProofLocked(k proofKey, pv proofVal) {
	list := slices.DeleteFunc(s.proofs[k], func(o proofVal) bool {
		if o.from < pv.end() && pv.from < o.end() {
			s.garbage += recordOverhead + len(o.payload)
			return true
		}
		return false
	})
	i, _ := slices.BinarySearchFunc(list, pv.from, func(o proofVal, from int64) int { return cmp.Compare(o.from, from) })
	s.proofs[k] = slices.Insert(list, i, pv)
}

// end is the end of pv's range: past every rank for a whole-size block.
func (pv proofVal) end() int64 {
	if pv.whole {
		return math.MaxInt64
	}
	return pv.to
}

// ProofBlock is one proof block, ready to replay through the GraphRef
// that looked it up, or one of uploaded entries (ProofEntries.Block).
type ProofBlock struct {
	s        *Store
	inv      []int32
	entries  []byte
	from, to int64
	count    int
	size     int
	width    int
}

// LookupProofs returns the proof blocks of one size class of a sweep that
// can be replayed, sorted by range; total is the size's set count, the
// range of a whole-size block of an earlier release. It counts a
// manifest miss when there is none.
func (r *GraphRef) LookupProofs(sig uint64, size int, total int64) []*ProofBlock {
	s := r.s
	s.mu.RLock()
	var out []*ProofBlock
	for _, pv := range s.proofs[proofKey{r.slot, sig, size}] {
		if !pv.ok {
			continue
		}
		b := &ProofBlock{s: s, inv: r.inv, entries: pv.entries, from: pv.from, to: pv.to, count: pv.count, size: size, width: pv.width}
		if pv.whole {
			b.to = total
		}
		out = append(out, b)
	}
	s.mu.RUnlock()
	if len(out) == 0 {
		s.miss("manifest")
	}
	return out
}

// Range returns the ranks [from, to) the block claims to cover.
func (b *ProofBlock) Range() (from, to int64) { return b.from, b.to }

// Len returns the block's entry count.
func (b *ProofBlock) Len() int { return b.count }

// Hit credits a replayed block to the store's counters: one manifest hit,
// and one verdict hit per entry.
func (b *ProofBlock) Hit() {
	b.s.hit("manifest")
	b.s.hitC["verdict"].Add(int64(b.count))
}

// Miss counts a size whose blocks cannot be replayed, because an entry
// does not decode or they do not cover the size, as a manifest miss.
func (b *ProofBlock) Miss() { b.s.miss("manifest") }

// Cursor returns a cursor at entry i, past the i entries before it; ok is
// false when the block ends first.
func (b *ProofBlock) Cursor(i int) (c ProofCursor, ok bool) {
	c = ProofCursor{inv: b.inv, rest: b.entries, size: b.size, width: b.width}
	for ; i > 0; i-- {
		if !c.skip() {
			return c, false
		}
	}
	return c, true
}

// ProofCursor walks a proof block's entries front to back.
type ProofCursor struct {
	inv         []int32
	rest        []byte
	size, width int
}

// skip steps past one entry using its path length.
func (c *ProofCursor) skip() bool {
	head := (c.size + 1) * c.width // the set's ids and the path length
	if len(c.rest) < head {
		return false
	}
	end := head + fixed(c.rest[head-c.width:], c.width)*c.width
	if len(c.rest) < end {
		return false
	}
	c.rest = c.rest[end:]
	return true
}

// Next decodes the next entry in original node ids: the fault set into
// set[:0] and the witness into path[:0], which stays empty for a negative
// verdict. A path node outside the graph reads as -1, which no certificate
// check accepts. ok is false when the entry is cut short or its fault set
// names a node outside the graph: the block is then a miss.
func (c *ProofCursor) Next(set, path []int) (_, _ []int, ok bool) {
	w, b := c.width, c.rest
	head := (c.size + 1) * w
	if len(b) < head {
		return set[:0], path[:0], false
	}
	set = c.orig(set[:0], b[:head-w])
	for _, v := range set {
		if v < 0 {
			return set, path[:0], false
		}
	}
	end := head + fixed(b[head-w:], w)*w
	if len(b) < end {
		return set, path[:0], false
	}
	path = c.orig(path[:0], b[head:end])
	c.rest = b[end:]
	return set, path, true
}

// orig appends the original ids of the canonical ids in b to dst: -1 for
// an id outside the graph.
func (c *ProofCursor) orig(dst []int, b []byte) []int {
	inv := c.inv
	if c.width == 1 {
		for _, v := range b {
			o := -1
			if int(v) < len(inv) {
				o = int(inv[v])
			}
			dst = append(dst, o)
		}
		return dst
	}
	for ; len(b) >= 2; b = b[2:] {
		v, o := int(binary.LittleEndian.Uint16(b)), -1
		if v < len(inv) {
			o = int(inv[v])
		}
		dst = append(dst, o)
	}
	return dst
}

// Done reports whether the cursor has consumed every byte of the block.
func (c *ProofCursor) Done() bool { return len(c.rest) == 0 }
