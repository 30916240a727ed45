package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gdpn/internal/autom"
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
	gr := autom.Compute(g, autom.Options{})
	ref.PutGroup(gr)
	sig := ref.SweepSig([]int{0, 1, 2, 3, 4, 5}, 3, ref.GroupSig(gr))
	ref.PutManifest(sig, 2, [][]int{{1, 3}, {0, 2}})
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
	sets, ok := ref2.LookupManifest(sig, 2)
	if !ok || len(sets) != 2 || sets[0][0] != 1 || sets[0][1] != 3 {
		t.Fatalf("manifest lost or mangled: %v ok=%v", sets, ok)
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
	if sets, ok := ref.LookupManifest(sig, 1); ok {
		t.Errorf("manifest with canonical id 200 hit: %v", sets)
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
		ref.PutManifest(sig, 0, [][]int{{}})
		ref.PutManifest(sig, 2, [][]int{{1, 3}, {0, 2}, {2, 4}})
		ref.PutManifest(sig+1, 1, [][]int{{3}, {1}})
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
