package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gdpn/internal/autom"
	"gdpn/internal/construct"
	"gdpn/internal/graph"
)

// ringGraph builds a processor n-cycle with an input terminal on node 0
// and an output terminal on node n/2.
func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New("ring")
	for i := 0; i < n; i++ {
		g.AddNode(graph.Processor, graph.NoLabel)
	}
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	in := g.AddNode(graph.InputTerminal, graph.NoLabel)
	g.AddEdge(in, 0)
	out := g.AddNode(graph.OutputTerminal, graph.NoLabel)
	g.AddEdge(out, n/2)
	return g
}

// relabel returns g with node ids permuted by a fixed seeded shuffle.
func relabel(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	perm := rng.Perm(n)
	out := graph.New(g.Name())
	kinds := make([]graph.Kind, n)
	for v := 0; v < n; v++ {
		kinds[perm[v]] = g.Kind(v)
	}
	for v := 0; v < n; v++ {
		out.AddNode(kinds[v], graph.NoLabel)
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if v < int(u) {
				out.AddEdge(perm[v], perm[int(u)])
			}
		}
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := ringGraph(t, 6)
	ref := s.Register(g)
	ref.PutVerdict([]int{1, 3}, Verdict{Found: true, Path: []int{6, 0, 5, 4, 2, 7}})
	ref.PutVerdict([]int{0, 2, 4}, Verdict{Found: false})
	ref.PutVerdict([]int{0, 2}, Verdict{Found: false})
	gr := autom.Compute(g, autom.Options{})
	ref.PutGroup(gr)
	sig := ref.SweepSig([]int{0, 1, 2, 3, 4, 5}, 3, ref.GroupSig(gr))
	ref.PutProof(sig, 2, [][]int{{1, 3}, {0, 2}})
	putManifest(ref, sig+1, 2, [][]int{{1, 3}, {0, 2}})
	ref.PutBlob("chunk/0-100", []byte("report-json"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ref2 := s2.Register(g)
	if ref2.Slot() != ref.Slot() {
		t.Fatalf("slot changed across reopen: %d vs %d", ref2.Slot(), ref.Slot())
	}
	v, ok := ref2.LookupVerdict([]int{3, 1}, nil)
	if !ok || !v.Found {
		t.Fatalf("positive verdict lost: %+v ok=%v", v, ok)
	}
	if len(v.Path) != 6 || v.Path[0] != 6 || v.Path[5] != 7 {
		t.Fatalf("path mangled: %v", v.Path)
	}
	if v, ok := ref2.LookupVerdict([]int{0, 2, 4}, nil); !ok || v.Found {
		t.Fatalf("negative verdict lost: %+v ok=%v", v, ok)
	}
	if _, ok := ref2.LookupVerdict([]int{0, 1}, nil); ok {
		t.Fatal("phantom verdict")
	}
	gr2, ok := ref2.LookupGroup(g)
	if !ok {
		t.Fatal("group lost")
	}
	if got, want := len(gr2.Generators()), len(gr.Generators()); got != want {
		t.Fatalf("generator count %d, want %d", got, want)
	}
	if ref2.GroupSig(gr2) != ref.GroupSig(gr) {
		t.Fatal("group signature changed across reload")
	}
	// The proof block, and the block built from the manifest and the
	// verdicts, list the sets in the order put, with their witnesses.
	for _, sig := range []uint64{sig, sig + 1} {
		if got, want := readProof(t, ref2, sig, 2), "[1 3]:[6 0 5 4 2 7] [0 2]:[]"; got != want {
			t.Fatalf("proof block lost or mangled: %q, want %q", got, want)
		}
	}
	if b, ok := ref2.Blob("chunk/0-100"); !ok || string(b) != "report-json" {
		t.Fatalf("blob lost: %q ok=%v", b, ok)
	}
}

func TestStoreSharedSlotAcrossRelabelings(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s.gdps"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := ringGraph(t, 6)
	b := relabel(a, 7)
	ra, rb := s.Register(a), s.Register(b)
	if ra.Slot() != rb.Slot() {
		t.Fatalf("isomorphic graphs got distinct slots %d, %d", ra.Slot(), rb.Slot())
	}
	// A verdict stored through a must be visible through b under b's ids.
	// Find b's image of a's fault set {1,3} by locating the shared slot's
	// canonical translation: store through a, scan b's id space for a hit.
	ra.PutVerdict([]int{1, 3}, Verdict{Found: false})
	hits := 0
	n := b.NumNodes()
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if b.Kind(x) != graph.Processor || b.Kind(y) != graph.Processor {
				continue
			}
			if v, ok := rb.LookupVerdict([]int{x, y}, nil); ok && !v.Found {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("verdict not visible through the relabeled graph")
	}
	// The group stored through a must certificate-check through b.
	gr := autom.Compute(a, autom.Options{})
	if gr.Trivial() {
		t.Fatal("test needs a non-trivial group")
	}
	ra.PutGroup(gr)
	grb, ok := rb.LookupGroup(b)
	if !ok {
		t.Fatal("group not visible through the relabeled graph")
	}
	for _, p := range grb.Generators() {
		if err := autom.CheckAutomorphism(b, p); err != nil {
			t.Fatalf("translated generator invalid: %v", err)
		}
	}
}

func TestStoreFingerprintCollisionSeparatesSlots(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s.gdps"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c6 := graph.New("c6")
	for i := 0; i < 6; i++ {
		c6.AddNode(graph.Processor, graph.NoLabel)
	}
	for i := 0; i < 6; i++ {
		c6.AddEdge(i, (i+1)%6)
	}
	tt := graph.New("2xc3")
	for i := 0; i < 6; i++ {
		tt.AddNode(graph.Processor, graph.NoLabel)
	}
	tt.AddEdge(0, 1)
	tt.AddEdge(1, 2)
	tt.AddEdge(2, 0)
	tt.AddEdge(3, 4)
	tt.AddEdge(4, 5)
	tt.AddEdge(5, 3)
	if c6.Fingerprint() != tt.Fingerprint() {
		t.Fatal("test premise: fingerprints must collide")
	}
	r1, r2 := s.Register(c6), s.Register(tt)
	if r1.Slot() == r2.Slot() {
		t.Fatal("non-isomorphic colliding graphs merged into one slot")
	}
	r1.PutVerdict([]int{0, 1}, Verdict{Found: true, Path: []int{2, 3, 4, 5}})
	if _, ok := r2.LookupVerdict([]int{0, 1}, nil); ok {
		t.Fatal("verdict leaked across colliding slots")
	}
}

func TestStoreTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := ringGraph(t, 6)
	ref := s.Register(g)
	ref.PutVerdict([]int{1, 2}, Verdict{Found: false})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append garbage (simulating a torn foreign append) and corrupt it.
	torn := append(append([]byte(nil), raw...), 1, kindVerdict, 0xff, 0xff, 0xff)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer s2.Close()
	ref2 := s2.Register(g)
	if _, ok := ref2.LookupVerdict([]int{1, 2}, nil); !ok {
		t.Fatal("valid prefix lost with the torn tail")
	}
	// Flipping a byte inside a record's payload must drop that record and
	// everything after it, but never produce a wrong answer.
	raw[len(raw)-3] ^= 0xa5
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatalf("corrupt record must not fail open: %v", err)
	}
	defer s3.Close()
	ref3 := s3.Register(g)
	if v, ok := ref3.LookupVerdict([]int{1, 2}, nil); ok && v.Found {
		t.Fatal("corruption flipped a verdict")
	}
}

func TestStoreIdempotentPutsAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := ringGraph(t, 6)
	ref := s.Register(g)
	ref.PutVerdict([]int{1, 2}, Verdict{Found: false})
	before := s.Stats().Bytes
	// Idempotent re-puts must not grow the image.
	ref.PutVerdict([]int{2, 1}, Verdict{Found: false})
	ref.PutVerdict([]int{1, 2}, Verdict{Found: true, Path: []int{0}}) // first write wins
	if got := s.Stats().Bytes; got != before {
		t.Fatalf("idempotent puts grew the image: %d -> %d", before, got)
	}
	if v, _ := ref.LookupVerdict([]int{1, 2}, nil); v.Found {
		t.Fatal("re-put overwrote the first verdict")
	}
	// Superseding blob writes create garbage; Compact reclaims it.
	for i := 0; i < 20; i++ {
		ref.PutBlob("ck", []byte{byte(i), 0, 1, 2, 3, 4, 5, 6, 7})
	}
	grew := s.Stats().Bytes
	if grew <= before {
		t.Fatal("blob supersession should grow the image before compaction")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	shrunk := s.Stats().Bytes
	if shrunk >= grew {
		t.Fatalf("compaction did not shrink: %d -> %d", grew, shrunk)
	}
	// The live store still finds its verdicts after Compact, and re-puts
	// stay idempotent.
	if v, ok := ref.LookupVerdict([]int{2, 1}, nil); !ok || v.Found {
		t.Fatalf("verdict lost by Compact: %+v ok=%v", v, ok)
	}
	ref.PutVerdict([]int{1, 2}, Verdict{Found: true, Path: []int{0}})
	if got := s.Stats().Bytes; got != shrunk {
		t.Fatalf("re-put after Compact grew the image: %d -> %d", shrunk, got)
	}
	if v, _ := ref.LookupVerdict([]int{1, 2}, nil); v.Found {
		t.Fatal("re-put after Compact overwrote the first verdict")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ref2 := s2.Register(g)
	if b, ok := ref2.Blob("ck"); !ok || b[0] != 19 {
		t.Fatalf("latest blob lost across compaction: %v ok=%v", b, ok)
	}
	if v, ok := ref2.LookupVerdict([]int{1, 2}, nil); !ok || v.Found {
		t.Fatal("verdict lost across compaction")
	}
}

// TestStoreConcurrentAccess races lookups against writers that grow the
// image and the verdict index (from its 16-entry start) and a flusher:
// a lookup may miss a set not yet put, but every hit must return exactly
// what was put, and once the writers finish every set must hit.
func TestStoreConcurrentAccess(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s.gdps"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 16
	g := ringGraph(t, n)
	ref := s.Register(g)
	var sets [][]int
	for x := 0; x < n; x++ {
		sets = append(sets, []int{x})
		for y := x + 1; y < n; y++ {
			sets = append(sets, []int{x, y})
			for z := y + 1; z < n; z++ {
				sets = append(sets, []int{x, y, z})
			}
		}
	}
	want := func(i int) Verdict {
		if i%3 == 0 {
			return Verdict{}
		}
		return Verdict{Found: true, Path: []int{n, i % n, (i + 1) % n, i % 7, n + 1}}
	}
	check := func(i int, v Verdict) bool {
		w := want(i)
		return v.Found == w.Found && fmt.Sprint(v.Path) == fmt.Sprint(w.Path)
	}
	const writers, readers = 3, 3
	var wg sync.WaitGroup
	var writing atomic.Int32
	writing.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Add(-1)
			for i := w; i < len(sets); i += writers {
				ref.PutVerdict(sets[i], want(i))
				if i%97 == 0 {
					ref.PutBlob(fmt.Sprint("b", w), []byte(fmt.Sprint(i)))
					if err := s.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var path []int
			for writing.Load() > 0 {
				for i := r; i < len(sets); i += readers {
					v, ok := ref.LookupVerdict(sets[i], path)
					path = v.Path
					if ok && !check(i, v) {
						t.Errorf("set %v: got %+v, put %+v", sets[i], v, want(i))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for i, set := range sets {
		if v, ok := ref.LookupVerdict(set, nil); !ok || !check(i, v) {
			t.Fatalf("set %v after the writers: got %+v ok=%v, put %+v", set, v, ok, want(i))
		}
	}
}

// putManifest files an orbit manifest, the record a store written before
// proof blocks holds in their place: the sets in canonical ids, the first
// manifest under a key winning.
func putManifest(r *GraphRef, sig uint64, size int, sets [][]int) {
	key := manifestKey{r.slot, sig, size}
	mv := manifestVal{ids: make([]int32, 0, len(sets)*size), count: len(sets)}
	for _, set := range sets {
		mv.ids = r.canonSet(mv.ids, set)
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if _, ok := r.s.manifests[key]; ok {
		return
	}
	r.s.manifests[key] = mv
	r.s.appendLocked(kindManifest, encodeManifest(key, mv))
}

// readProof replays the proof block of (sig, size) through ref and
// renders its entries as "set:path", each set sorted, or "miss" when the
// lookup or a decode fails.
func readProof(t *testing.T, ref *GraphRef, sig uint64, size int) string {
	t.Helper()
	blk, ok := ref.LookupProof(sig, size)
	if !ok {
		return "miss"
	}
	cur, _ := blk.Cursor(0)
	var out []string
	var set, path []int
	for i := 0; i < blk.Len(); i++ {
		if set, path, ok = cur.Next(set, path); !ok {
			return "miss"
		}
		sorted := append([]int(nil), set...)
		sort.Ints(sorted)
		out = append(out, fmt.Sprintf("%v:%v", sorted, path))
	}
	if !cur.Done() {
		return "miss"
	}
	return strings.Join(out, " ")
}

// rec is one hand-built record of a store image.
type rec struct {
	kind    byte
	payload []byte
}

// writeImage writes a store file of the given records, CRCs included.
func writeImage(t *testing.T, path string, recs ...rec) {
	t.Helper()
	img := appendHeader(nil)
	for _, r := range recs {
		img = appendRecord(img, r.kind, r.payload)
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}

// graphRec is the slot-0 record of g's canonical form.
func graphRec(g *graph.Graph) rec {
	cf := g.Canonical()
	p := binary.AppendUvarint(nil, 0)
	p = binary.LittleEndian.AppendUint64(p, cf.Hash)
	p = append(p, boolByte(cf.Exact))
	p = binary.AppendUvarint(p, uint64(len(cf.Bytes)))
	return rec{kindGraph, append(p, cf.Bytes...)}
}

// uv concatenates uvarints.
func uv(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestStoreOversizedCountFailsOpen(t *testing.T) {
	g := ringGraph(t, 6)
	huge := uint64(1) << 40
	for _, tc := range []struct {
		name    string
		kind    byte
		payload []byte
	}{
		{"graph bytes", kindGraph, append(append(uv(1), make([]byte, 9)...), uv(huge, 1, 2)...)},
		{"verdict set", kindVerdict, append(uv(0, huge), 1, 2, 3)},
		{"verdict path", kindVerdict, append(uv(0, 1, 2), append([]byte{1}, uv(huge, 1)...)...)},
		{"group generators", kindGroup, append(uv(0), append([]byte{1}, uv(huge, 0, 1)...)...)},
		{"group generator ids", kindGroup, append(uv(0), append([]byte{1}, append(uv(1), append([]byte{0}, uv(huge, 1, 2)...)...)...)...)},
		{"manifest sets", kindManifest, append(append(uv(0), make([]byte, 8)...), uv(2, huge, 1, 2)...)},
		{"manifest set size", kindManifest, append(append(uv(0), make([]byte, 8)...), uv(huge, 1, 1, 2)...)},
		{"manifest of empty sets", kindManifest, append(append(uv(0), make([]byte, 8)...), uv(0, huge)...)},
		{"blob name", kindBlob, uv(0, huge, 1, 2)},
		{"blob data", kindBlob, append(uv(0, 1), append([]byte{'x'}, uv(huge, 1)...)...)},
	} {
		path := filepath.Join(t.TempDir(), "s.gdps")
		writeImage(t, path, graphRec(g), rec{tc.kind, tc.payload})
		s, err := Open(path)
		if err == nil {
			s.Close()
			t.Errorf("%s: a count of 2^40 in a %d-byte payload opened", tc.name, len(tc.payload))
		} else if !strings.Contains(err.Error(), "overruns") {
			t.Errorf("%s: Open failed for another reason: %v", tc.name, err)
		}
	}
}

func TestStoreFirstVerdictWinsOnReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	g := ringGraph(t, 6)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.Register(g)
	key := ref.verdictKey(nil, []int{1, 2})
	var path1 []int32
	for _, v := range []int{6, 0, 5, 4, 3, 7} {
		path1 = append(path1, ref.lab[v])
	}
	first := append(append(key[:len(key):len(key)], 1), appendIDs(nil, path1)...)
	second := append(key[:len(key):len(key)], 0)
	writeImage(t, path, graphRec(g), rec{kindVerdict, first}, rec{kindVerdict, second})
	for _, compact := range []bool{false, true} {
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ref := s.Register(g)
		v, ok := ref.LookupVerdict([]int{2, 1}, nil)
		if !ok || !v.Found || fmt.Sprint(v.Path) != "[6 0 5 4 3 7]" {
			t.Errorf("compacted=%v: got %+v ok=%v, want the first record's positive", compact, v, ok)
		}
		if compact {
			if s.Stats().Entries != 2 {
				t.Errorf("compaction kept %d records, want the graph and one verdict", s.Stats().Entries)
			}
		} else if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}

func TestStoreOutOfRangeIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	g := ringGraph(t, 6) // 8 nodes
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.Register(g)
	s.Close()
	key := ref.verdictKey(nil, []int{1})
	sig := uint64(42)
	writeImage(t, path, graphRec(g),
		rec{kindVerdict, append(key[:len(key):len(key)], append([]byte{1}, uv(3, 0, 200, 1)...)...)},
		rec{kindManifest, append(append(uv(0), binary.LittleEndian.AppendUint64(nil, sig)...), uv(1, 2, 3, 200)...)},
		rec{kindGroup, append(uv(0), append([]byte{1, 1, 0}, uv(8, 1, 0, 2, 3, 4, 5, 6, 200)...)...)},
	)
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref = s.Register(g)
	v, ok := ref.LookupVerdict([]int{1}, nil)
	if !ok || !v.Found || len(v.Path) != 3 || v.Path[1] != -1 {
		t.Errorf("verdict with canonical id 200: got %+v ok=%v, want a hit whose second node is -1", v, ok)
	}
	if _, ok := ref.LookupProof(sig, 1); ok {
		t.Error("manifest with canonical id 200 hit")
	}
	if gr, ok := ref.LookupGroup(g); ok {
		t.Errorf("group with canonical id 200 hit: %v", gr.Generators())
	}
}

func TestStoreLookupVerdictZeroAllocs(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s.gdps"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := s.Register(ringGraph(t, 6))
	ref.PutVerdict([]int{1, 3}, Verdict{Found: true, Path: []int{6, 0, 5, 4, 2, 7}})
	path := make([]int, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		v, ok := ref.LookupVerdict([]int{3, 1}, path)
		if !ok || len(v.Path) != 6 {
			t.Fatal("verdict lost")
		}
		path = v.Path
	})
	if allocs != 0 {
		t.Errorf("LookupVerdict hit with a caller buffer: %v allocs, want 0", allocs)
	}
}

// TestStoreCompactImageDigest pins the bytes Compact writes for a fixed
// store: two slots, verdicts put in shuffled order, groups, manifests and
// superseded blobs. A change to the record format or the compaction order
// moves the digest.
func TestStoreCompactImageDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*graph.Graph{ringGraph(t, 9), ringGraph(t, 6)} {
		ref := s.Register(g)
		n := g.NumNodes() - 2
		var sets [][]int
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				sets = append(sets, []int{x, y})
				for z := y + 1; z < n; z++ {
					sets = append(sets, []int{z, x, y})
				}
			}
		}
		rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		for i, f := range sets {
			if i%3 == 0 {
				ref.PutVerdict(f, Verdict{Found: false})
			} else {
				ref.PutVerdict(f, Verdict{Found: true, Path: []int{n, f[0], (f[0] + 1) % n, n + 1}})
			}
		}
		gr := autom.Compute(g, autom.Options{})
		ref.PutGroup(gr)
		sig := ref.SweepSig([]int{0, 1, 2, 3}, 2, ref.GroupSig(gr))
		putManifest(ref, sig, 0, [][]int{{}})
		putManifest(ref, sig, 2, [][]int{{1, 3}, {0, 2}, {2, 4}})
		putManifest(ref, sig+1, 1, [][]int{{3}, {1}})
		for i := 0; i < 5; i++ {
			ref.PutBlob("chunk/b", []byte{byte(i), 1, 2})
			ref.PutBlob("chunk/a", []byte{9, byte(i)})
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "a108f9cfcddeb321f32c0b80552da76a4860788e791524ff8ac9e8bc01416fd1"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want || len(raw) != 3344 {
		t.Errorf("compacted image: sha256 %s, %d bytes; want %s, 3344 bytes", got, len(raw), want)
	}
}

// TestStoreCompactImageDigestWithProofs pins the bytes Compact writes for
// a store with proof blocks: blocks put out of key order, one shadowed
// re-put, next to a manifest. The blocks follow the manifests, by key.
func TestStoreCompactImageDigestWithProofs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := ringGraph(t, 6)
	ref := s.Register(g)
	for x := 0; x < 6; x++ {
		ref.PutVerdict([]int{x}, Verdict{Found: true, Path: []int{6, x, (x + 1) % 6, 7}})
		for y := x + 1; y < 6; y++ {
			ref.PutVerdict([]int{x, y}, Verdict{Found: x%2 == 0, Path: []int{6, y, x, 7}})
		}
	}
	gr := autom.Compute(g, autom.Options{})
	ref.PutGroup(gr)
	sig := ref.SweepSig([]int{0, 1, 2, 3, 4, 5}, 2, ref.GroupSig(gr))
	ref.PutProof(sig, 2, [][]int{{1, 3}, {0, 2}, {2, 4}})
	ref.PutProof(sig, 1, [][]int{{3}, {1}})
	ref.PutProof(sig, 1, [][]int{{5}}) // the first block under a key wins
	putManifest(ref, sig+1, 1, [][]int{{2}})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "c9687456e7d401f7b3e82a795b85f40ce62afda6e5fb019ad02368140a271d52"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want || len(raw) != 565 {
		t.Errorf("compacted image: sha256 %s, %d bytes; want %s, 565 bytes", got, len(raw), want)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref = s.Register(g)
	if got, want := readProof(t, ref, sig, 1), "[3]:[6 3 4 7] [1]:[6 1 2 7]"; got != want {
		t.Errorf("size-1 block after Compact: %q, want %q", got, want)
	}
	if got, want := readProof(t, ref, sig, 2), "[1 3]:[] [0 2]:[6 2 0 7] [2 4]:[6 4 2 7]"; got != want {
		t.Errorf("size-2 block after Compact: %q, want %q", got, want)
	}
}

// TestStoreProofNeedsEveryVerdict checks that PutProof writes no block
// when a set has no stored verdict, or a positive one with no path, and
// that the size then misses.
func TestStoreProofNeedsEveryVerdict(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s.gdps"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := s.Register(ringGraph(t, 6))
	ref.PutVerdict([]int{1}, Verdict{Found: false})
	ref.PutVerdict([]int{2}, Verdict{Found: true})
	before := s.Stats().Bytes
	ref.PutProof(1, 1, [][]int{{1}, {3}})
	ref.PutProof(2, 1, [][]int{{1}, {2}})
	if got := s.Stats().Bytes; got != before {
		t.Errorf("blocks with a set the store cannot witness were written: %d -> %d bytes", before, got)
	}
	for _, sig := range []uint64{1, 2} {
		if got := readProof(t, ref, sig, 1); got != "miss" {
			t.Errorf("sig %d: %q, want a miss", sig, got)
		}
	}
}

// TestStoreProofReplayBuildsNoIndex checks that Open leaves the verdict
// index unbuilt and that replaying a proof block does not build it; the
// first verdict lookup does.
func TestStoreProofReplayBuildsNoIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := ringGraph(t, 6)
	ref := s.Register(g)
	ref.PutVerdict([]int{1, 3}, Verdict{Found: true, Path: []int{6, 0, 5, 4, 2, 7}})
	ref.PutProof(9, 2, [][]int{{1, 3}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref = s.Register(g)
	if got, want := readProof(t, ref, 9, 2), "[1 3]:[6 0 5 4 2 7]"; got != want {
		t.Fatalf("block: %q, want %q", got, want)
	}
	if s.indexed.Load() {
		t.Error("Open or a proof-block replay built the verdict index")
	}
	if _, ok := ref.LookupVerdict([]int{3, 1}, nil); !ok || !s.indexed.Load() {
		t.Errorf("first LookupVerdict: hit=%v, index built=%v", ok, s.indexed.Load())
	}
}

func TestStoreProofCursorZeroAllocs(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s.gdps"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := s.Register(ringGraph(t, 6))
	ref.PutVerdict([]int{1, 3}, Verdict{Found: true, Path: []int{6, 0, 5, 4, 2, 7}})
	ref.PutVerdict([]int{0, 2}, Verdict{Found: false})
	ref.PutProof(9, 2, [][]int{{1, 3}, {0, 2}})
	blk, ok := ref.LookupProof(9, 2)
	if !ok {
		t.Fatal("block lost")
	}
	set, path := make([]int, 0, 2), make([]int, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		cur, ok := blk.Cursor(1)
		if !ok {
			t.Fatal("cursor past the block")
		}
		if set, path, ok = cur.Next(set, path); !ok || len(set) != 2 || len(path) != 0 || !cur.Done() {
			t.Fatalf("entry 1: %v:%v ok=%v", set, path, ok)
		}
		cur, _ = blk.Cursor(0)
		if set, path, ok = cur.Next(set, path); !ok || len(path) != 6 {
			t.Fatalf("entry 0: %v:%v ok=%v", set, path, ok)
		}
	})
	if allocs != 0 {
		t.Errorf("cursor decode into caller buffers: %v allocs, want 0", allocs)
	}
}

// TestStoreLazyIndexRace reopens a store, so its verdict index is not yet
// built, and races first-time LookupVerdict callers against PutVerdict
// callers: every stored verdict must hit with its value while the index
// is built, and every put must be visible afterwards.
func TestStoreLazyIndexRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	g := ringGraph(t, n)
	ref := s.Register(g)
	var old, fresh [][]int
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if (x+y)%2 == 0 {
				old = append(old, []int{x, y})
			} else {
				fresh = append(fresh, []int{x, y})
			}
		}
	}
	want := func(set []int) Verdict {
		if set[0]%3 == 0 {
			return Verdict{}
		}
		return Verdict{Found: true, Path: []int{n, set[1], set[0], n + 1}}
	}
	same := func(a, b Verdict) bool { return a.Found == b.Found && fmt.Sprint(a.Path) == fmt.Sprint(b.Path) }
	for _, set := range old {
		ref.PutVerdict(set, want(set))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ref := s.Register(g)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if w%2 == 1 {
					for i := w / 2; i < len(fresh); i += 2 {
						ref.PutVerdict(fresh[i], want(fresh[i]))
					}
					return
				}
				var path []int
				for _, set := range old {
					v, ok := ref.LookupVerdict(set, path)
					path = v.Path
					if !ok || !same(v, want(set)) {
						t.Errorf("stored set %v: got %+v ok=%v, want %+v", set, v, ok, want(set))
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, set := range append(old, fresh...) {
			if v, ok := ref.LookupVerdict(set, nil); !ok || !same(v, want(set)) {
				t.Fatalf("set %v after the race: got %+v ok=%v, want %+v", set, v, ok, want(set))
			}
		}
		// Only the first round's puts are new; later rounds re-put them.
		if st := s.Stats(); round > 0 && st.Dirty != 0 {
			t.Errorf("round %d: re-puts wrote %d records", round, st.Dirty)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreShortVerdictMatchesDecoder checks the one-byte validation
// fast path against the full decoder on every short payload of bytes
// below 0x80 drawn from a small alphabet: the fast path may only accept
// payloads the decoder accepts.
func TestStoreShortVerdictMatchesDecoder(t *testing.T) {
	s := &Store{slots: make([]*slot, 2)}
	alphabet := []byte{0, 1, 2, 3, 0x7f}
	var payload []byte
	var walk func(n int)
	accepted := 0
	walk = func(n int) {
		if short := shortVerdict(payload, len(s.slots)); short {
			accepted++
			if err := s.checkVerdict(payload); err != nil {
				t.Fatalf("payload %v: fast path accepts, decoder rejects: %v", payload, err)
			}
		} else if s.checkVerdict(payload) == nil && len(payload) > 0 && below0x80(payload) {
			t.Fatalf("payload %v: decoder accepts, fast path does not", payload)
		}
		if n == 0 {
			return
		}
		for _, b := range alphabet {
			payload = append(payload, b)
			walk(n - 1)
			payload = payload[:len(payload)-1]
		}
	}
	walk(7)
	if accepted == 0 {
		t.Fatal("the fast path accepted no payload")
	}
}

// TestStoreGroupSigSurvivesReload checks that the group computed for the
// circulant designs, seeded with their reflection as verify does, has the
// signature of the same group reloaded from the store: a warm proof then
// finds the cold proof's blocks under the same sweep signature.
func TestStoreGroupSigSurvivesReload(t *testing.T) {
	for _, c := range []struct{ n, k int }{{22, 4}, {26, 5}} {
		sol, err := construct.Design(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		refl, err := autom.Reflection(sol.Graph, sol.Layout)
		if err != nil {
			t.Fatal(err)
		}
		gr := autom.Compute(sol.Graph, autom.Options{Seeds: []autom.Perm{refl}})
		s, err := Open(filepath.Join(t.TempDir(), "s.gdps"))
		if err != nil {
			t.Fatal(err)
		}
		ref := s.Register(sol.Graph)
		ref.PutGroup(gr)
		loaded, ok := ref.LookupGroup(sol.Graph)
		if !ok {
			t.Fatalf("G(%d,%d): group lost", c.n, c.k)
		}
		if a, b := ref.GroupSig(gr), ref.GroupSig(loaded); a != b {
			t.Errorf("G(%d,%d): computed group signature %x, reloaded %x", c.n, c.k, a, b)
		}
		s.Close()
	}
}
