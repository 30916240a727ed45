package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gdpn/internal/graph"
)

// refImage is what the reference decoder keeps of a store image: the
// first graph record under a slot, and under a key the proof blocks no
// later block's range overlaps, by range.
type refImage struct {
	labs   map[uint64][]uint64     // each graph record's labeling, nil if none
	proofs map[proofKey][]refProof // blocks whose header parses
}

// refProof is one proof block as the reference decoder reads it: its
// range, [0, MaxInt64) when whole, and the entries it reads whole, in
// order. ok is false unless the header's width is 1 or 2 and exactly
// count entries of it fill the rest of the payload.
type refProof struct {
	from, to int64
	whole    bool
	entries  []refEntry
	ok       bool
}

// refEntry is one proof-block entry in canonical ids; a negative verdict
// has no path.
type refEntry struct {
	set, path []uint64
}

// refDecode is a map-based reference decoder of the graph and proof-block
// records of a store image whose records all carry valid CRCs. It shares
// no code with Open, and skips every other kind.
func refDecode(img []byte) (refImage, error) {
	out := refImage{labs: map[uint64][]uint64{}, proofs: map[proofKey][]refProof{}}
	uvarint := func(b *[]byte) (uint64, error) {
		v, n := binary.Uvarint(*b)
		if n <= 0 {
			return 0, errors.New("bad uvarint")
		}
		*b = (*b)[n:]
		return v, nil
	}
	for b := img[headerLen:]; len(b) > 0; {
		plen := int(binary.LittleEndian.Uint32(b[2:6]))
		kind, p := b[1], b[6:6+plen]
		b = b[recordOverhead+plen:]
		switch kind {
		case kindGraph:
			slot, err := uvarint(&p)
			if err != nil || len(p) < 9 {
				return out, errors.New("bad graph record")
			}
			p = p[9:] // the fingerprint and the exact flag
			n, err := uvarint(&p)
			if err != nil || n > uint64(len(p)) {
				return out, errors.New("bad canonical bytes")
			}
			p = p[n:]
			var lab []uint64
			if len(p) > 0 {
				if n, err = uvarint(&p); err != nil || n > uint64(len(p)) {
					return out, errors.New("bad labeling")
				}
				lab = make([]uint64, n)
				for i := range lab {
					if lab[i], err = uvarint(&p); err != nil {
						return out, err
					}
				}
			}
			out.labs[slot] = lab
		case kindProof, kindWholeProof:
			k, blk, parsed := refProofBlock(kind, p)
			if !parsed {
				break
			}
			var kept []refProof
			for _, o := range out.proofs[k] {
				if o.to <= blk.from || blk.to <= o.from {
					kept = append(kept, o)
				}
			}
			kept = append(kept, blk)
			sort.Slice(kept, func(i, j int) bool { return kept[i].from < kept[j].from })
			out.proofs[k] = kept
		}
	}
	return out, nil
}

// refProofBlock reads a proof-block payload of the given kind: its key,
// its range, its entries, and whether its header parses at all.
func refProofBlock(kind byte, p []byte) (proofKey, refProof, bool) {
	// slot, sig, size, from, to, count; a whole-size block has no range.
	hdr := [6]uint64{4: math.MaxInt64}
	for i := range hdr {
		switch {
		case i == 1:
			if len(p) < 8 {
				return proofKey{}, refProof{}, false
			}
			hdr[i], p = binary.LittleEndian.Uint64(p), p[8:]
			continue
		case kind == kindWholeProof && (i == 3 || i == 4):
			continue
		}
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return proofKey{}, refProof{}, false
		}
		hdr[i], p = v, p[n:]
	}
	if len(p) == 0 || hdr[3] >= hdr[4] || hdr[4] > math.MaxInt64 {
		return proofKey{}, refProof{}, false
	}
	k := proofKey{int(hdr[0]), hdr[1], int(hdr[2])}
	blk := refProof{from: int64(hdr[3]), to: int64(hdr[4]), whole: kind == kindWholeProof}
	width, p := int(p[0]), p[1:]
	if width != 1 && width != 2 {
		return k, blk, true
	}
	next := func() (uint64, bool) {
		if len(p) < width {
			return 0, false
		}
		v := uint64(p[0])
		if width == 2 {
			v |= uint64(p[1]) << 8
		}
		p = p[width:]
		return v, true
	}
	list := func(n uint64) ([]uint64, bool) {
		var vs []uint64
		for ; n > 0; n-- {
			v, ok := next()
			if !ok {
				return nil, false
			}
			vs = append(vs, v)
		}
		return vs, true
	}
	for i := uint64(0); i < hdr[5]; i++ {
		set, ok := list(hdr[2])
		if !ok {
			return k, blk, true
		}
		m, ok := next()
		if !ok {
			return k, blk, true
		}
		path, ok := list(m)
		if !ok {
			return k, blk, true
		}
		blk.entries = append(blk.entries, refEntry{set, path})
	}
	blk.ok = len(p) == 0
	return k, blk, true
}

// FuzzStoreOpen feeds Open store files whose records carry valid CRCs, so
// the payload decoder is what gets exercised. The first record registers
// an 8-node ring as slot 0; the fuzz input is read as records of one kind
// byte (mod 7, plus 1), one length byte and that many payload bytes. A
// lone byte left over damages the ring's stored labeling (see
// fuzzLabeling). Open must not panic or exhaust memory. When it succeeds,
// every lookup through the ring must not panic, Register must trust the
// stored labeling exactly when it is an isomorphism onto the slot's
// canonical bytes, and every proof-block replay must agree with the
// reference decoder: after Open, on the same store after a Compact, and
// after a reopen of the compacted file.
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := ringGraph(t, 6)
		var recs []rec
		for len(data) >= 2 {
			kind, n := 1+data[0]%7, min(int(data[1]), len(data)-2)
			recs = append(recs, rec{kind, data[2 : 2+n]})
			data = data[2+n:]
		}
		recs = append([]rec{graphRecLab(g, fuzzLabeling(g, data))}, recs...)
		path := filepath.Join(t.TempDir(), "f.gdps")
		writeImage(t, path, recs...)
		s, err := Open(path)
		if err != nil {
			return
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refDecode(img)
		if err != nil {
			t.Fatalf("Open accepted an image the reference decoder rejects: %v", err)
		}
		for round := 0; round < 2; round++ {
			ref := s.Register(g)
			if ref.Slot() != 0 {
				t.Fatalf("ring registered as slot %d, want 0", ref.Slot())
			}
			checkLabelingAgainstRef(t, g, ref, want.labs[0])
			checkProofsAgainstRef(t, ref, want)
			ref.LookupGroup(g)
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			checkProofsAgainstRef(t, ref, want)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(path); err != nil {
				t.Fatalf("reopen after Compact: %v", err)
			}
		}
		s.Close()
	})
}

// fuzzLabeling returns the labeling the ring's graph record stores: its
// canonical labeling, unless rest is one byte b, which picks by b%4 no
// labeling, two entries swapped, the last entry cut, or one entry 200.
func fuzzLabeling(g *graph.Graph, rest []byte) []int32 {
	lab := g.Canonical().Labeling
	if len(rest) != 1 {
		return lab
	}
	b, n := int(rest[0]), len(lab)
	switch b % 4 {
	case 0:
		return nil
	case 1:
		i, j := b/4%n, b/32%n
		lab[i], lab[j] = lab[j], lab[i]
	case 2:
		lab = lab[:n-1]
	case 3:
		lab[b/4%n] = 200
	}
	return lab
}

// checkLabelingAgainstRef checks that ref took the reference's labeling
// of slot 0 exactly when it encodes g to the slot's canonical bytes, and
// the canonical labeling otherwise.
func checkLabelingAgainstRef(t *testing.T, g *graph.Graph, ref *GraphRef, stored []uint64) {
	t.Helper()
	cf := g.Canonical()
	want := cf.Labeling
	if stored != nil {
		lab := toInt32(stored)
		if enc, ok := g.EncodeUnder(lab); ok && string(enc) == string(cf.Bytes) {
			want = lab
		}
	}
	if fmt.Sprint(ref.lab) != fmt.Sprint(want) {
		t.Fatalf("stored labeling %v: Register took %v, want %v", stored, ref.lab, want)
	}
}

// checkProofsAgainstRef looks up every slot-0 key's proof blocks, reading
// a whole-size block as covering wholeRange ranks. The blocks returned
// must be the reference's, by range, in order; a block may be missing
// only when the reference cannot read it whole. Each is replayed from
// its first entry and from its middle one, and each entry decoded is
// compared with the reference's. A replay must decode the reference's
// entries in order, and must fail, on an entry or at the end, for a block
// the reference cannot read whole or with a fault set that leaves the
// graph.
func checkProofsAgainstRef(t *testing.T, ref *GraphRef, want refImage) {
	t.Helper()
	for k, list := range want.proofs {
		if k.slot != 0 || k.size < 0 {
			continue
		}
		blks, j := ref.LookupProofs(k.sig, k.size, wholeRange), 0
		for _, w := range list {
			if w.whole {
				w.to = wholeRange
			}
			if j < len(blks) {
				if from, to := blks[j].Range(); from == w.from && to == w.to {
					checkBlockAgainstRef(t, ref, k, blks[j], w)
					j++
					continue
				}
			}
			if w.ok {
				t.Fatalf("block %+v [%d,%d): a miss, but the reference reads its %d entries", k, w.from, w.to, len(w.entries))
			}
		}
		if j != len(blks) {
			from, to := blks[j].Range()
			t.Fatalf("block %+v [%d,%d): not among the reference's blocks", k, from, to)
		}
	}
}

// checkBlockAgainstRef replays blk, whose reference is w, as
// checkProofsAgainstRef says.
func checkBlockAgainstRef(t *testing.T, ref *GraphRef, k proofKey, blk *ProofBlock, w refProof) {
	t.Helper()
	n := len(ref.inv)
	origOf := func(c uint64) int {
		if c < uint64(n) {
			return int(ref.inv[c])
		}
		return -1
	}
	for _, from := range []int{0, blk.Len() / 2} {
		cur, ok := blk.Cursor(from)
		var set, path []int
		i := from
		for ; ok && i < blk.Len(); i++ {
			if set, path, ok = cur.Next(set, path); !ok {
				break
			}
			if i >= len(w.entries) {
				t.Fatalf("block %+v entry %d: decoded %v:%v, but the reference cannot read it", k, i, set, path)
			}
			e := w.entries[i]
			wantSet, wantPath := make([]int, len(e.set)), make([]int, len(e.path))
			for j, c := range e.set {
				if wantSet[j] = origOf(c); wantSet[j] < 0 {
					t.Fatalf("block %+v entry %d: fault set %v names a node outside the graph but decoded", k, i, e.set)
				}
			}
			for j, c := range e.path {
				wantPath[j] = origOf(c)
			}
			if fmt.Sprint(set, path) != fmt.Sprint(wantSet, wantPath) {
				t.Fatalf("block %+v entry %d: decoded %v:%v, reference %v:%v", k, i, set, path, wantSet, wantPath)
			}
		}
		switch {
		case !ok && i < len(w.entries) && inGraph(w.entries[i].set, n) && w.ok:
			t.Fatalf("block %+v: entry %d failed to decode, but the reference reads it", k, i)
		case ok && cur.Done() != w.ok:
			t.Fatalf("block %+v: cursor done=%v after the last entry, reference reads it whole=%v", k, cur.Done(), w.ok)
		}
	}
}

func toInt32(vs []uint64) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = id32(v)
	}
	return out
}

// inGraph reports whether every canonical id of set names a node of an
// n-node graph.
func inGraph(set []uint64, n int) bool {
	for _, c := range set {
		if c >= uint64(n) {
			return false
		}
	}
	return true
}
