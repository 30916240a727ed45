package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// refVerdict is one verdict as the reference decoder reads it: the path
// in canonical ids, as stored.
type refVerdict struct {
	found bool
	path  []uint64
}

// refImage is what the reference decoder keeps of a store image. Every
// map keeps the first record under a key.
type refImage struct {
	verdicts  map[string]refVerdict      // by the payload's key bytes
	manifests map[manifestKey][][]uint64 // the sets in canonical ids
	proofs    map[manifestKey]refProof   // blocks whose header parses
}

// refProof is one proof block as the reference decoder reads it: the
// entries it reads whole, in order. ok is false unless the header's width
// is 1 or 2 and exactly count entries of it fill the rest of the payload.
type refProof struct {
	entries []refEntry
	ok      bool
}

// refEntry is one proof-block entry in canonical ids; a negative verdict
// has no path.
type refEntry struct {
	set, path []uint64
}

// refDecode is a map-based reference decoder of the verdict, manifest and
// proof-block records of a store image whose records all carry valid
// CRCs. It shares no code with Open.
func refDecode(img []byte) (refImage, error) {
	out := refImage{
		verdicts:  map[string]refVerdict{},
		manifests: map[manifestKey][][]uint64{},
		proofs:    map[manifestKey]refProof{},
	}
	uvarint := func(b *[]byte) (uint64, error) {
		v, n := binary.Uvarint(*b)
		if n <= 0 {
			return 0, errors.New("bad uvarint")
		}
		*b = (*b)[n:]
		return v, nil
	}
	list := func(b *[]byte) ([]uint64, error) {
		n, err := uvarint(b)
		if err != nil || n > uint64(len(*b)) {
			return nil, fmt.Errorf("bad list: %v", err)
		}
		vs := make([]uint64, n)
		for i := range vs {
			if vs[i], err = uvarint(b); err != nil {
				return nil, err
			}
		}
		return vs, nil
	}
	for b := img[headerLen:]; len(b) > 0; {
		plen := int(binary.LittleEndian.Uint32(b[2:6]))
		kind, p := b[1], b[6:6+plen]
		b = b[recordOverhead+plen:]
		switch kind {
		case kindVerdict:
			all := p
			if _, err := uvarint(&p); err != nil {
				return out, err
			}
			if _, err := list(&p); err != nil {
				return out, err
			}
			key := string(all[:len(all)-len(p)])
			if len(p) == 0 {
				return out, errors.New("no found byte")
			}
			v := refVerdict{found: p[0] != 0}
			p = p[1:]
			if v.found {
				var err error
				if v.path, err = list(&p); err != nil {
					return out, err
				}
			}
			if _, dup := out.verdicts[key]; !dup {
				out.verdicts[key] = v
			}
		case kindManifest:
			slot, err := uvarint(&p)
			if err != nil || len(p) < 8 {
				return out, errors.New("bad manifest")
			}
			sig := binary.LittleEndian.Uint64(p)
			p = p[8:]
			size, err := uvarint(&p)
			if err != nil {
				return out, err
			}
			count, err := uvarint(&p)
			if err != nil {
				return out, err
			}
			var sets [][]uint64
			for i := uint64(0); i < count; i++ {
				set := make([]uint64, size)
				for j := range set {
					if set[j], err = uvarint(&p); err != nil {
						return out, err
					}
				}
				sets = append(sets, set)
			}
			k := manifestKey{int(slot), sig, int(size)}
			if _, dup := out.manifests[k]; !dup {
				out.manifests[k] = sets
			}
		case kindProof:
			k, blk, parsed := refProofBlock(p)
			if _, dup := out.proofs[k]; parsed && !dup {
				out.proofs[k] = blk
			}
		}
	}
	return out, nil
}

// refProofBlock reads a proof-block payload: its key, its entries, and
// whether its header parses at all.
func refProofBlock(p []byte) (manifestKey, refProof, bool) {
	var hdr [4]uint64 // slot, sig, size, count
	for i := range hdr {
		if i == 1 {
			if len(p) < 8 {
				return manifestKey{}, refProof{}, false
			}
			hdr[i], p = binary.LittleEndian.Uint64(p), p[8:]
			continue
		}
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return manifestKey{}, refProof{}, false
		}
		hdr[i], p = v, p[n:]
	}
	if len(p) == 0 {
		return manifestKey{}, refProof{}, false
	}
	k := manifestKey{int(hdr[0]), hdr[1], int(hdr[2])}
	width, p := int(p[0]), p[1:]
	if width != 1 && width != 2 || hdr[3] == 0 {
		return k, refProof{}, true
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
	var blk refProof
	for i := uint64(0); i < hdr[3]; i++ {
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
// byte (mod 6, plus 1), one length byte and that many payload bytes. Open
// must not panic or exhaust memory. When it succeeds, every lookup
// through the ring must not panic, and every LookupVerdict and every
// proof-block replay must agree with the reference decoder: after Open,
// on the same store after a Compact, and after a reopen of the compacted
// file.
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := ringGraph(t, 6)
		recs := []rec{graphRec(g)}
		for len(data) >= 2 {
			kind, n := 1+data[0]%6, min(int(data[1]), len(data)-2)
			recs = append(recs, rec{kind, data[2 : 2+n]})
			data = data[2+n:]
		}
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
			checkAgainstRef(t, ref, want)
			checkProofsAgainstRef(t, ref, want)
			ref.LookupGroup(g)
			ref.Blob("")
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			checkAgainstRef(t, ref, want)
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

// checkAgainstRef looks up every fault set of up to three nodes of ref's
// graph and compares each answer with the reference verdicts.
func checkAgainstRef(t *testing.T, ref *GraphRef, want refImage) {
	t.Helper()
	n := len(ref.inv)
	var sets [][]int
	sets = append(sets, []int{})
	for x := 0; x < n; x++ {
		sets = append(sets, []int{x})
		for y := x + 1; y < n; y++ {
			sets = append(sets, []int{x, y})
			for z := y + 1; z < n; z++ {
				sets = append(sets, []int{x, y, z})
			}
		}
	}
	var path []int
	for _, set := range sets {
		key := binary.AppendUvarint(nil, 0)
		key = appendIDs(key, ref.canonSet(nil, set))
		w, inRef := want.verdicts[string(key)]
		v, ok := ref.LookupVerdict(set, path)
		path = v.Path
		if ok != inRef {
			t.Fatalf("set %v: hit=%v, reference has it=%v", set, ok, inRef)
		}
		if !ok {
			continue
		}
		wantPath := make([]int, len(w.path))
		for i, c := range w.path {
			wantPath[i] = -1
			if c < uint64(n) {
				wantPath[i] = int(ref.inv[c])
			}
		}
		if v.Found != w.found || fmt.Sprint(v.Path) != fmt.Sprint(wantPath) {
			t.Fatalf("set %v: got found=%v path %v, reference found=%v path %v", set, v.Found, v.Path, w.found, wantPath)
		}
	}
}

// checkProofsAgainstRef replays every slot-0 proof block, and every
// slot-0 manifest without one, from its first entry and from its middle
// one, and compares each entry decoded with the reference's. A miss is
// always allowed but for a block the reference reads whole. A replay
// must decode the reference's entries in order, and must fail, on an
// entry or at the end, for a block the reference cannot read whole or
// with a fault set that leaves the graph.
func checkProofsAgainstRef(t *testing.T, ref *GraphRef, want refImage) {
	t.Helper()
	keys := map[manifestKey]refProof{}
	for k, blk := range want.proofs {
		keys[k] = blk
	}
	for k, sets := range want.manifests {
		if _, ok := keys[k]; ok {
			continue
		}
		// The reference block of a manifest: each set with its verdict.
		// One with no verdict has no entry, so the block reads short.
		blk := refProof{ok: true}
		for _, set := range sets {
			key := appendIDs(binary.AppendUvarint(nil, uint64(k.slot)), toInt32(set))
			v, found := want.verdicts[string(key)]
			if !found {
				blk.ok = false
				break
			}
			blk.entries = append(blk.entries, refEntry{set, v.path})
		}
		keys[k] = blk
	}
	n := len(ref.inv)
	origOf := func(c uint64) int {
		if c < uint64(n) {
			return int(ref.inv[c])
		}
		return -1
	}
	for k, w := range keys {
		if k.slot != 0 || k.size < 0 {
			continue
		}
		blk, ok := ref.LookupProof(k.sig, k.size)
		if !ok {
			if _, proof := want.proofs[k]; proof && w.ok && len(w.entries) > 0 {
				t.Fatalf("block %+v: a miss, but the reference reads %d entries", k, len(w.entries))
			}
			continue
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
