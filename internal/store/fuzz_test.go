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

// refImage is what the reference decoder keeps of a store image.
type refImage struct {
	verdicts  map[string]refVerdict // by the payload's key bytes; first record wins
	manifests []manifestKey
}

// refDecode is a map-based reference decoder of the verdict and manifest
// records of a store image whose records all carry valid CRCs. It shares
// no code with Open.
func refDecode(img []byte) (refImage, error) {
	out := refImage{verdicts: map[string]refVerdict{}}
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
			out.manifests = append(out.manifests, manifestKey{int(slot), sig, int(size)})
		}
	}
	return out, nil
}

// FuzzStoreOpen feeds Open store files whose records carry valid CRCs, so
// the payload decoder is what gets exercised. The first record registers
// an 8-node ring as slot 0; the fuzz input is read as records of one kind
// byte (mod 5, plus 1), one length byte and that many payload bytes. Open
// must not panic or exhaust memory. When it succeeds, every lookup
// through the ring must not panic, and every LookupVerdict must agree with
// the reference decoder: after Open, on the same store after a Compact,
// and after a reopen of the compacted file.
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := ringGraph(t, 6)
		recs := []rec{graphRec(g)}
		for len(data) >= 2 {
			kind, n := 1+data[0]%5, min(int(data[1]), len(data)-2)
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
			ref.LookupGroup(g)
			for _, k := range want.manifests {
				if sets, ok := ref.LookupManifest(k.sig, k.size); ok && k.slot == 0 {
					for _, set := range sets {
						for _, v := range set {
							if v < 0 || v >= g.NumNodes() {
								t.Fatalf("manifest set %v holds a node outside the graph", set)
							}
						}
					}
				}
			}
			ref.Blob("")
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			checkAgainstRef(t, ref, want)
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
