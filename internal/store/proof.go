package store

import "encoding/binary"

// A proof block holds one size class of a clean symmetry-reduced sweep:
// its orbit representatives, in the order the sweep decided them, each
// with its stored witness. Its payload is the slot, the sweep signature
// (u64), the set size and the entry count as uvarints, then one width
// byte: 1 when the slot's graph has at most 255 nodes, else 2. Then come
// the entries, every number in them width bytes wide (little-endian):
// the size canonical ids of the fault set, the path length, and the
// path's canonical ids. A path length of 0 is a negative verdict; a
// pipeline has at least three nodes.
//
// A replay walks a block front to back, with no hash, no index probe and
// no lock, and decodes each entry into the caller's buffers. Open checks
// only a block's header, and drops a block whose header does not parse; a
// block whose entries do not parse, or name a fault-set node outside the
// graph, is a miss when replayed. Nothing here trusts a block to list
// every orbit of its size: the caller checks that (verify's replayProof).

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

// PutProof records the proof block of one size class of a sweep: sets,
// the class's orbit representatives, with the witnesses stored for them.
// Only call after a clean, complete sweep of that size (no interruption,
// no fail-fast stop): a partial block would silently shrink later sweeps.
// When a set has no stored verdict, or one the block cannot hold (a
// positive with no path, or a longer path than the width allows), no
// block is written and the size stays cold. Idempotent per key: the
// first stored block wins.
func (r *GraphRef) PutProof(sig uint64, size int, sets [][]int) {
	width := idWidth(len(r.inv))
	if width == 0 || len(sets) == 0 {
		return
	}
	key := manifestKey{r.slot, sig, size}
	// An entry holds at most the set, a path length and every node once.
	n := len(r.inv)
	payload := make([]byte, 0, 32+len(sets)*(size+1+n)*width)
	payload = binary.AppendUvarint(payload, uint64(r.slot))
	payload = binary.LittleEndian.AppendUint64(payload, sig)
	payload = binary.AppendUvarint(payload, uint64(size))
	payload = binary.AppendUvarint(payload, uint64(len(sets)))
	payload = append(payload, byte(width))
	hdr := len(payload)

	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.proofs[key]; ok {
		return
	}
	s.indexLocked()
	var ids []int32
	var kb []byte
	for _, set := range sets {
		ids = r.canonSet(ids[:0], set)
		kb = appendIDs(binary.AppendUvarint(kb[:0], uint64(r.slot)), ids)
		var ok bool
		if payload, ok = s.appendEntry(payload, kb, ids, width, n); !ok {
			return
		}
	}
	s.appendLocked(kindProof, payload)
	tail := s.lastPayloadTail(len(payload))
	s.proofs[key] = proofVal{payload: tail, entries: tail[hdr:], count: len(sets), width: width}
}

// appendEntry appends the proof-block entry of the fault set with
// canonical ids ids and verdict key kb, read from the verdict index, to
// b. A path id outside the n-node graph is written as the largest width
// value, which is outside it too. ok is false when the set has no stored
// verdict or the block cannot hold its verdict. Under s.mu, with the
// index built.
func (s *Store) appendEntry(b, kb []byte, ids []int32, width, n int) ([]byte, bool) {
	_, off := s.verdicts.find(s.buf, kb)
	if off == 0 {
		return b, false
	}
	for _, c := range ids {
		b = appendFixed(b, int(c), width)
	}
	p := payloadReader{b: s.buf[off+len(kb):]}
	if p.byte() == 0 {
		return appendFixed(b, 0, width), true
	}
	m := p.count(1)
	if m == 0 || m >= 1<<(8*width) {
		return b, false
	}
	b = appendFixed(b, m, width)
	outside := 1<<(8*width) - 1
	for ; m > 0; m-- {
		c := id32(p.uvarint())
		if c < 0 || int(c) >= n {
			c = int32(outside)
		}
		b = appendFixed(b, int(c), width)
	}
	return b, true
}

// ProofBlock is one size class's proof block, ready to replay through
// the GraphRef that looked it up.
type ProofBlock struct {
	r       *GraphRef
	entries []byte
	count   int
	size    int
	width   int
}

// LookupProof returns the proof block of one size class of a sweep. A
// store written before proof blocks existed holds an orbit manifest
// instead, with a verdict record per set: the block is then built in
// memory from them, and is a miss when a set has no verdict or a node
// outside the graph.
func (r *GraphRef) LookupProof(sig uint64, size int) (*ProofBlock, bool) {
	key := manifestKey{r.slot, sig, size}
	s := r.s
	s.mu.RLock()
	pv, ok := s.proofs[key]
	mv, legacy := s.manifests[key]
	s.mu.RUnlock()
	if !ok && legacy {
		pv, ok = r.manifestProof(mv, size)
	}
	if !ok || pv.count == 0 {
		s.miss("manifest")
		return nil, false
	}
	return &ProofBlock{r: r, entries: pv.entries, count: pv.count, size: size, width: pv.width}, true
}

// manifestProof builds the proof block of a manifest of count sets of the
// given size from the verdict index.
func (r *GraphRef) manifestProof(mv manifestVal, size int) (proofVal, bool) {
	width := idWidth(len(r.inv))
	if width == 0 || mv.count == 0 {
		return proofVal{}, false
	}
	s := r.s
	s.ensureIndex()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b, kb []byte
	for i := 0; i < mv.count; i++ {
		ids := mv.ids[i*size : (i+1)*size]
		for _, c := range ids {
			if _, in := r.origID(c); !in {
				return proofVal{}, false
			}
		}
		kb = appendIDs(binary.AppendUvarint(kb[:0], uint64(r.slot)), ids)
		var ok bool
		if b, ok = s.appendEntry(b, kb, ids, width, len(r.inv)); !ok {
			return proofVal{}, false
		}
	}
	return proofVal{entries: b, count: mv.count, width: width}, true
}

// Len returns the block's entry count.
func (b *ProofBlock) Len() int { return b.count }

// Hit credits a replayed block to the store's counters: one manifest hit,
// and one verdict hit per entry.
func (b *ProofBlock) Hit() {
	b.r.s.hit("manifest")
	b.r.s.hitC["verdict"].Add(int64(b.count))
}

// Miss counts a block that cannot be replayed, because an entry does not
// decode or it lists more sets than its size has, as a manifest miss.
func (b *ProofBlock) Miss() { b.r.s.miss("manifest") }

// Cursor returns a cursor at entry i, past the i entries before it; ok is
// false when the block ends first.
func (b *ProofBlock) Cursor(i int) (c ProofCursor, ok bool) {
	c = ProofCursor{inv: b.r.inv, rest: b.entries, size: b.size, width: b.width}
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
