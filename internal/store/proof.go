package store

import (
	"bytes"
	"encoding/binary"
)

// A proof block holds one size class of a sweep: its orbit
// representatives (every set of the size when the sweep has no symmetry),
// in the order the sweep's workers decided them, each with its witness.
// Its payload is the slot, the sweep signature (u64), the set size and
// the entry count as uvarints, then one width byte: 1 when the slot's
// graph has at most 255 nodes, else 2. Then come the entries, every
// number in them width bytes wide (little-endian): the size canonical ids
// of the fault set, the path length, and the path's canonical ids. A path
// length of 0 is a negative verdict; a pipeline has at least three nodes.
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

// ProofEntries holds the encoded entries of part of one proof block, as
// a sweep worker adds them; PutProof files a block from them.
type ProofEntries struct {
	b []byte
	n int
}

// AddProofEntry adds the entry of one decided fault set (original node
// ids) to e: path is its certificate-checked witness, or empty for a
// negative verdict. It adds nothing for a graph too large for blocks.
func (r *GraphRef) AddProofEntry(e *ProofEntries, set, path []int) {
	width := idWidth(len(r.inv))
	if width == 0 {
		return
	}
	var ids [16]int32
	for _, c := range r.canonSet(ids[:0], set) {
		e.b = appendFixed(e.b, int(c), width)
	}
	e.b = appendFixed(e.b, len(path), width)
	for _, v := range path {
		e.b = appendFixed(e.b, int(r.lab[v]), width)
	}
	e.n++
}

// PutProof files the proof block of one size class of a sweep from the
// entries of parts, in order. Only call once every set of that size is
// decided (no interruption, no unknown, no solver bug, no fail-fast
// stop): a partial block costs the size a miss on replay. The latest
// block under a key wins, so a sweep that re-solves a size whose block
// failed its replay replaces that block; re-putting the block already
// stored under the key writes nothing.
func (r *GraphRef) PutProof(sig uint64, size int, parts []ProofEntries) {
	width, n, count := idWidth(len(r.inv)), 0, 0
	for _, e := range parts {
		n, count = n+len(e.b), count+e.n
	}
	if width == 0 || count == 0 {
		return
	}
	key := proofKey{r.slot, sig, size}
	payload := make([]byte, 0, 32+n)
	payload = binary.AppendUvarint(payload, uint64(r.slot))
	payload = binary.LittleEndian.AppendUint64(payload, sig)
	payload = binary.AppendUvarint(payload, uint64(size))
	payload = binary.AppendUvarint(payload, uint64(count))
	payload = append(payload, byte(width))
	hdr := len(payload)
	for _, e := range parts {
		payload = append(payload, e.b...)
	}

	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.proofs[key]; ok {
		if bytes.Equal(old.payload, payload) {
			return
		}
		s.garbage += recordOverhead + len(old.payload)
	}
	s.appendLocked(kindProof, payload)
	tail := s.lastPayloadTail(len(payload))
	s.proofs[key] = proofVal{payload: tail, entries: tail[hdr:], count: count, width: width}
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

// LookupProof returns the proof block of one size class of a sweep.
func (r *GraphRef) LookupProof(sig uint64, size int) (*ProofBlock, bool) {
	s := r.s
	s.mu.RLock()
	pv, ok := s.proofs[proofKey{r.slot, sig, size}]
	s.mu.RUnlock()
	if !ok || pv.count == 0 {
		s.miss("manifest")
		return nil, false
	}
	return &ProofBlock{r: r, entries: pv.entries, count: pv.count, size: size, width: pv.width}, true
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
