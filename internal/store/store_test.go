package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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

// putBlock files the proof block of (sig, size), ranks [0, wholeRange),
// through ref from one worker's entries: each set with the path of the
// same index, a negative where there is none.
func putBlock(ref *GraphRef, sig uint64, size int, sets, paths [][]int) {
	putRange(ref, sig, size, 0, wholeRange, sets, paths)
}

// wholeRange ends the range putBlock files: past every size's sets in
// these tests.
const wholeRange = 1 << 20

// putRange files the proof block of the ranks [from, to) of (sig, size),
// as putBlock does.
func putRange(ref *GraphRef, sig uint64, size int, from, to int64, sets, paths [][]int) {
	e := NewProofEntries(len(ref.inv))
	for i, set := range sets {
		var path []int
		if i < len(paths) {
			path = paths[i]
		}
		e.Add(set, path)
	}
	ref.PutProof(sig, size, from, to, []ProofEntries{e})
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "proofs.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := ringGraph(t, 6)
	ref := s.Register(g)
	gr := autom.Compute(g, autom.Options{})
	ref.PutGroup(gr)
	sig := ref.SweepSig([]int{0, 1, 2, 3, 4, 5}, 3, ref.GroupSig(gr))
	// Two workers' entries make one block, in order.
	a, b := NewProofEntries(8), NewProofEntries(8)
	a.Add([]int{3, 1}, []int{6, 0, 5, 4, 2, 7})
	b.Add([]int{0, 2}, nil)
	ref.PutProof(sig, 2, 0, 10, []ProofEntries{a, b})
	putRange(ref, sig, 2, 10, 15, [][]int{{4, 5}}, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ref2 := s2.Register(g)
	if ref2.Slot() != ref.Slot() || !slices.Equal(ref2.lab, ref.lab) {
		t.Fatalf("slot or labeling changed across reopen: slot %d vs %d", ref2.Slot(), ref.Slot())
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
	if got, want := readProof(t, ref2, sig, 2), "[0,10) [1 3]:[6 0 5 4 2 7] [0 2]:[] [10,15) [4 5]:[]"; got != want {
		t.Fatalf("proof blocks lost or mangled: %q, want %q", got, want)
	}
	if got := readProof(t, ref2, sig+1, 2); got != "miss" {
		t.Fatalf("phantom proof block: %q", got)
	}
}

// TestStoreRangedBlocksOverlap files proof blocks of ranges of one size:
// a block drops every block under its key whose range overlaps its own,
// and keeps the others, sorted by range, across Compact and a reopen. A
// whole-size block of an earlier release reads as covering its size and
// overlaps every range.
func TestStoreRangedBlocksOverlap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	g := ringGraph(t, 6)
	writeImage(t, path, graphRec(g), wholeProofRec(9, 1, []byte{byte(g.Canonical().Labeling[0]), 0}))
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.Register(g)
	if got := readProofTotal(t, ref, 9, 1, 8); got != "[0,8) [0]:[]" {
		t.Fatalf("whole-size block of an earlier release: %q", got)
	}
	for _, step := range []struct {
		from, to int64
		set      int
		want     string
	}{
		{4, 6, 4, "[4,6) [4]:[]"}, // drops the whole-size block
		{0, 2, 0, "[0,2) [0]:[] [4,6) [4]:[]"},
		{6, 8, 6, "[0,2) [0]:[] [4,6) [4]:[] [6,8) [6]:[]"},
		{1, 5, 1, "[1,5) [1]:[] [6,8) [6]:[]"}, // overlaps [0,2) and [4,6)
		{5, 6, 5, "[1,5) [1]:[] [5,6) [5]:[] [6,8) [6]:[]"},
	} {
		putRange(ref, 9, 1, step.from, step.to, [][]int{{step.set}}, nil)
		if got := readProofTotal(t, ref, 9, 1, 8); got != step.want {
			t.Fatalf("after filing [%d,%d): %q, want %q", step.from, step.to, got, step.want)
		}
	}
	const want = "[1,5) [1]:[] [5,6) [5]:[] [6,8) [6]:[]"
	before := s.Stats().Bytes
	putRange(ref, 9, 1, 5, 6, [][]int{{5}}, nil)
	if got := s.Stats().Bytes; got != before {
		t.Fatalf("re-filing a stored block grew the image: %d -> %d", before, got)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := readProofTotal(t, ref, 9, 1, 8); got != want {
		t.Fatalf("after Compact: %q, want %q", got, want)
	}
	if st := s.Stats(); st.Entries != 4 || s.garbage != 0 {
		t.Errorf("after Compact: %d records, %d garbage bytes; want the graph and 3 blocks", st.Entries, s.garbage)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := readProofTotal(t, s.Register(g), 9, 1, 8); got != want {
		t.Fatalf("after a reopen: %q, want %q", got, want)
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
	// A block filed through a must read through b under b's ids: the set
	// b decodes is the image of a's set.
	putBlock(ra, 9, 2, [][]int{{1, 3}}, nil)
	blks := rb.LookupProofs(9, 2, wholeRange)
	if len(blks) != 1 {
		t.Fatal("block not visible through the relabeled graph")
	}
	cur, _ := blks[0].Cursor(0)
	set, path, ok := cur.Next(nil, nil)
	if !ok || len(path) != 0 || !slices.Equal(rb.canonSet(nil, set), ra.canonSet(nil, []int{1, 3})) {
		t.Fatalf("block read through b: %v:%v ok=%v", set, path, ok)
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
	putBlock(r1, 9, 2, [][]int{{0, 1}}, [][]int{{2, 3, 4, 5}})
	if blks := r2.LookupProofs(9, 2, wholeRange); len(blks) != 0 {
		t.Fatal("proof block leaked across colliding slots")
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
	putBlock(ref, 9, 2, [][]int{{1, 2}}, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append garbage (simulating a torn foreign append) and corrupt it.
	torn := append(append([]byte(nil), raw...), 1, kindProof, 0xff, 0xff, 0xff)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer s2.Close()
	if got := readProof(t, s2.Register(g), 9, 2); got != "[1 2]:[]" {
		t.Fatalf("valid prefix lost with the torn tail: %q", got)
	}
	// Flipping a byte of the last record must drop that record, the
	// block, and everything after it, but never produce a wrong answer.
	raw[len(raw)-3] ^= 0xa5
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatalf("corrupt record must not fail open: %v", err)
	}
	defer s3.Close()
	if got := readProof(t, s3.Register(g), 9, 2); got != "miss" {
		t.Fatalf("corrupt block read as %q", got)
	}
}

// TestStoreFlushAppends checks that a flush appends the records added
// since the last one when the file holds the image's prefix, and writes
// the image in full when it does not: after a torn tail that Open
// dropped, and after a foreign write to the file. Each time the file is
// the image.
func TestStoreFlushAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.Register(ringGraph(t, 6))
	image := func(step string) {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(s.buf) || s.synced != len(s.buf) {
			t.Fatalf("%s: the file holds %d bytes, the image %d (%d synced)", step, len(raw), len(s.buf), s.synced)
		}
	}
	for i := 0; i < 3; i++ {
		putRange(ref, 9, 1, int64(i), int64(i+1), [][]int{{i}}, nil)
		image(fmt.Sprint("flush ", i))
	}
	// A torn tail: Open drops it, and the next flush rewrites the file.
	s.Close()
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(raw, 1, kindProof, 9), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(path); err != nil {
		t.Fatal(err)
	}
	ref = s.Register(ringGraph(t, 6))
	putRange(ref, 9, 1, 3, 4, [][]int{{3}}, nil)
	image("flush after a torn tail")
	// A foreign write: the file is no longer the image's prefix.
	if err := os.WriteFile(path, raw[:headerLen], 0o644); err != nil {
		t.Fatal(err)
	}
	putRange(ref, 9, 1, 4, 5, [][]int{{4}}, nil)
	image("flush after a foreign write")
	s.Close()
	if s, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := readProofTotal(t, s.Register(ringGraph(t, 6)), 9, 1, 8), "[0,1) [0]:[] [1,2) [1]:[] [2,3) [2]:[] [3,4) [3]:[] [4,5) [4]:[]"; got != want {
		t.Errorf("after reopening: %q, want %q", got, want)
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
	putBlock(ref, 9, 2, [][]int{{2, 1}}, [][]int{{6, 0, 3, 4, 5, 7}})
	putBlock(ref, 9, 2, [][]int{{1, 2}}, nil)
	before := s.Stats().Bytes
	// Re-putting the stored block must not grow the image.
	putBlock(ref, 9, 2, [][]int{{1, 2}}, nil)
	if got := s.Stats().Bytes; got != before {
		t.Fatalf("idempotent puts grew the image: %d -> %d", before, got)
	}
	// A different block under the key supersedes the stored one.
	if got := readProof(t, ref, 9, 2); got != "[1 2]:[]" {
		t.Fatalf("the latest block under the key does not win: %q", got)
	}
	// Superseding blocks create garbage; Compact reclaims it.
	for i := 0; i < 20; i++ {
		putBlock(ref, 10, 1, [][]int{{i % 6}}, nil)
	}
	grew := s.Stats().Bytes
	if grew <= before {
		t.Fatal("block supersession should grow the image before compaction")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	shrunk := s.Stats().Bytes
	if shrunk >= grew {
		t.Fatalf("compaction did not shrink: %d -> %d", grew, shrunk)
	}
	// The live store still reads its block after Compact, and re-puts
	// stay idempotent.
	if got := readProof(t, ref, 9, 2); got != "[1 2]:[]" {
		t.Fatalf("block lost by Compact: %q", got)
	}
	putBlock(ref, 9, 2, [][]int{{1, 2}}, nil)
	if got := s.Stats().Bytes; got != shrunk {
		t.Fatalf("re-put after Compact grew the image: %d -> %d", shrunk, got)
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
	if got := readProof(t, ref2, 10, 1); got != "[1]:[]" {
		t.Fatalf("latest block lost across compaction: %q", got)
	}
	if got := readProof(t, ref2, 9, 2); got != "[1 2]:[]" {
		t.Fatalf("block lost across compaction: %q", got)
	}
}

// TestStoreConcurrentAccess races block reads against writers that grow
// the image and a flusher: a read may miss a block not yet put, but every
// hit must decode exactly what was put, and once the writers finish every
// block must hit.
func TestStoreConcurrentAccess(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s.gdps"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n, blocks = 16, 600
	g := ringGraph(t, n)
	ref := s.Register(g)
	paths := func(i int) [][]int {
		if i%3 == 0 {
			return nil
		}
		return [][]int{{n, i % n, (i + 1) % n, i % 7, n + 1}}
	}
	want := func(i int) string {
		if p := paths(i); p != nil {
			return fmt.Sprintf("[%d]:%v", i%n, p[0])
		}
		return fmt.Sprintf("[%d]:[]", i%n)
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
			for i := w; i < blocks; i += writers {
				putBlock(ref, uint64(i), 1, [][]int{{i % n}}, paths(i))
				if i%97 == 0 {
					// A block that drops the one before it under its key.
					putRange(ref, uint64(blocks+w), 1, int64(i), int64(i+1), [][]int{{i % n}}, nil)
					putRange(ref, uint64(blocks+w), 1, 0, int64(i+1), [][]int{{i % n}}, nil)
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
			for writing.Load() > 0 {
				for i := r; i < blocks; i += readers {
					if got := readProof(t, ref, uint64(i), 1); got != "miss" && got != want(i) {
						t.Errorf("block %d: got %q, put %q", i, got, want(i))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for i := 0; i < blocks; i++ {
		if got := readProof(t, ref, uint64(i), 1); got != want(i) {
			t.Fatalf("block %d after the writers: got %q, put %q", i, got, want(i))
		}
	}
}

// readProof replays the proof blocks of (sig, size) through ref and
// renders their entries as "set:path", each set sorted, or "miss" when
// the lookup or a decode fails. A block of a range other than putBlock's
// is headed by its range, "[from,to)".
func readProof(t *testing.T, ref *GraphRef, sig uint64, size int) string {
	t.Helper()
	return readProofTotal(t, ref, sig, size, wholeRange)
}

// readProofTotal is readProof for a size of total sets.
func readProofTotal(t *testing.T, ref *GraphRef, sig uint64, size int, total int64) string {
	t.Helper()
	blks := ref.LookupProofs(sig, size, total)
	if len(blks) == 0 {
		return "miss"
	}
	var out []string
	for _, blk := range blks {
		if from, to := blk.Range(); from != 0 || to != wholeRange {
			out = append(out, fmt.Sprintf("[%d,%d)", from, to))
		}
		cur, ok := blk.Cursor(0)
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

// graphRec is the slot-0 record of g's canonical form, with its labeling.
func graphRec(g *graph.Graph) rec {
	return graphRecLab(g, g.Canonical().Labeling)
}

// graphRecLab is the slot-0 record of g's canonical form with the given
// labeling, none when lab is nil.
func graphRecLab(g *graph.Graph, lab []int32) rec {
	cf := g.Canonical()
	p := binary.AppendUvarint(nil, 0)
	p = binary.LittleEndian.AppendUint64(p, cf.Hash)
	p = append(p, boolByte(cf.Exact))
	p = binary.AppendUvarint(p, uint64(len(cf.Bytes)))
	p = append(p, cf.Bytes...)
	if lab != nil {
		p = appendIDs(p, lab)
	}
	return rec{kindGraph, p}
}

// proofRec is a width-1 slot-0 proof block of (sig, size), ranks
// [0, wholeRange), of count entries, each given as its raw bytes.
func proofRec(sig uint64, size int, entries ...[]byte) rec {
	p := binary.LittleEndian.AppendUint64(uv(0), sig)
	p = append(append(p, uv(uint64(size), 0, wholeRange, uint64(len(entries)))...), 1)
	for _, e := range entries {
		p = append(p, e...)
	}
	return rec{kindProof, p}
}

// wholeProofRec is proofRec's block as an earlier release filed it: with
// no range, covering its size.
func wholeProofRec(sig uint64, size int, entries ...[]byte) rec {
	p := binary.LittleEndian.AppendUint64(uv(0), sig)
	p = append(append(p, uv(uint64(size), uint64(len(entries)))...), 1)
	for _, e := range entries {
		p = append(p, e...)
	}
	return rec{kindWholeProof, p}
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
		{"graph labeling", kindGraph, append(append(uv(1), make([]byte, 9)...), uv(0, huge, 1, 2)...)},
		{"group generators", kindGroup, append(uv(0), append([]byte{1}, uv(huge, 0, 1)...)...)},
		{"group generator ids", kindGroup, append(uv(0), append([]byte{1}, append(uv(1), append([]byte{0}, uv(huge, 1, 2)...)...)...)...)},
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

// TestStoreDeadRecordsOfEarlierReleases opens an image holding the record
// kinds of earlier releases, per-set verdicts, orbit manifests and blobs,
// some of them with a count no payload could hold, and a whole-size
// proof block: Open must count the dead kinds as garbage without decoding
// them, and Compact must drop them and keep the block, which reads as
// covering its size.
func TestStoreDeadRecordsOfEarlierReleases(t *testing.T) {
	g := ringGraph(t, 6)
	path := filepath.Join(t.TempDir(), "s.gdps")
	dead := []rec{
		{kindVerdict, uv(0, 1<<40, 1, 2)},
		{kindManifest, append(append(uv(0), make([]byte, 8)...), uv(2, 1<<40, 1, 2)...)},
		{kindVerdict, uv(7)}, // an unknown slot
		{kindBlob, uv(0, 1<<40, 1, 2)},
		{kindBlob, append(uv(0, 2), append([]byte("ck"), uv(3, 1, 2, 3)...)...)},
	}
	writeImage(t, path, append(append([]rec{graphRec(g)}, dead...), wholeProofRec(9, 0, []byte{0}))...)
	s, err := Open(path)
	if err != nil {
		t.Fatalf("records of an earlier release failed Open: %v", err)
	}
	defer s.Close()
	garbage := 0
	for _, r := range dead {
		garbage += recordOverhead + len(r.payload)
	}
	if st := s.Stats(); st.Entries != 2+len(dead) || s.garbage != garbage {
		t.Errorf("opened %d records with %d garbage bytes; want %d and %d", st.Entries, s.garbage, 2+len(dead), garbage)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	ref := s.Register(g)
	if st := s.Stats(); st.Entries != 2 || s.garbage != 0 || readProofTotal(t, ref, 9, 0, 1) != "[0,1) []:[]" {
		t.Errorf("after Compact: %d records, %d garbage bytes, block %q; want the graph and the block", st.Entries, s.garbage, readProofTotal(t, ref, 9, 0, 1))
	}
}

// TestStoreRegisterTrustsOnlyAnIsomorphism writes graph records whose
// labeling is right, another isomorphism onto the canonical graph, wrong,
// short, not a permutation, or absent, each with a valid CRC. Register
// must take a stored labeling exactly when it encodes the graph to the
// slot's canonical bytes, and compute the canonical form otherwise; the
// slot is the same either way.
func TestStoreRegisterTrustsOnlyAnIsomorphism(t *testing.T) {
	g := ringGraph(t, 6) // processors 0-5, input 6 on 0, output 7 on 3
	canon := g.Canonical().Labeling
	relabel := func(f func(v int) int) []int32 {
		lab := make([]int32, len(canon))
		for v := range lab {
			lab[v] = canon[f(v)]
		}
		return lab
	}
	// The reflection of the ring through nodes 0 and 3 fixes both
	// terminals: an automorphism, so canon after it is an isomorphism too.
	mirror := relabel(func(v int) int {
		if v < 6 {
			return (6 - v) % 6
		}
		return v
	})
	swapped := relabel(func(v int) int { return []int{1, 0, 2, 3, 4, 5, 6, 7}[v] })
	dup := slices.Clone(canon)
	dup[1] = dup[0]
	far := slices.Clone(canon)
	far[2] = 200
	for _, tc := range []struct {
		name      string
		lab, want []int32
	}{
		{"right", canon, canon},
		{"another isomorphism", mirror, mirror},
		{"wrong", swapped, canon},
		{"short", canon[:7], canon},
		{"not a permutation", dup, canon},
		{"outside the graph", far, canon},
		{"none", nil, canon},
	} {
		if enc, ok := g.EncodeUnder(tc.lab); slices.Equal(tc.want, canon) && tc.name != "right" && tc.name != "none" && ok &&
			string(enc) == string(g.Canonical().Bytes) {
			t.Fatalf("%s: test premise: the labeling must not be an isomorphism", tc.name)
		}
		path := filepath.Join(t.TempDir(), "s.gdps")
		writeImage(t, path, graphRecLab(g, tc.lab))
		s, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref := s.Register(g)
		if ref.Slot() != 0 || !slices.Equal(ref.lab, tc.want) {
			t.Errorf("%s: slot %d labeling %v; want slot 0 labeling %v", tc.name, ref.Slot(), ref.lab, tc.want)
		}
		if st := s.Stats(); st.Dirty != 0 {
			t.Errorf("%s: Register wrote %d records", tc.name, st.Dirty)
		}
		s.Close()
	}
}

func TestStoreOutOfRangeIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	g := ringGraph(t, 6) // 8 nodes
	inv := make([]int, g.NumNodes())
	for v, c := range g.Canonical().Labeling {
		inv[c] = v
	}
	c1 := byte(g.Canonical().Labeling[1])
	writeImage(t, path, graphRec(g),
		proofRec(42, 1, []byte{c1, 3, 0, 200, 1}),
		proofRec(43, 1, []byte{200, 0}),
		rec{kindGroup, append(uv(0), append([]byte{1, 1, 0}, uv(8, 1, 0, 2, 3, 4, 5, 6, 200)...)...)},
	)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := s.Register(g)
	if got, want := readProof(t, ref, 42, 1), fmt.Sprintf("[1]:[%d -1 %d]", inv[0], inv[1]); got != want {
		t.Errorf("block whose path holds canonical id 200: %q, want %q", got, want)
	}
	if got := readProof(t, ref, 43, 1); got != "miss" {
		t.Errorf("block whose set holds canonical id 200: %q, want a miss", got)
	}
	if gr, ok := ref.LookupGroup(g); ok {
		t.Errorf("group with canonical id 200 hit: %v", gr.Generators())
	}
}

// deadRecords appends to the store file at path one per-set verdict, one
// orbit manifest and one blob, records of earlier releases, as Compact
// must drop.
func deadRecords(t *testing.T, path string) {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img = appendRecord(img, kindVerdict, uv(0, 2, 1, 3, 0))
	img = appendRecord(img, kindManifest, append(append(uv(0), make([]byte, 8)...), uv(1, 1, 4)...))
	img = appendRecord(img, kindBlob, append(uv(0, 2), append([]byte("ck"), uv(1, 7)...)...))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCompactImageDigest pins the bytes Compact writes for a fixed
// store: two slots, proof blocks put out of key and range order with
// their entries shuffled, superseded ranged blocks, groups and dead
// records. A change to the
// record format or the compaction order moves the digest.
func TestStoreCompactImageDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	graphs := []*graph.Graph{ringGraph(t, 9), ringGraph(t, 6)}
	for _, g := range graphs {
		ref := s.Register(g)
		n := g.NumNodes() - 2
		bySize := map[int][][]int{}
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				bySize[2] = append(bySize[2], []int{x, y})
				for z := y + 1; z < n; z++ {
					bySize[3] = append(bySize[3], []int{z, x, y})
				}
			}
		}
		gr := autom.Compute(g, autom.Options{})
		ref.PutGroup(gr)
		sig := ref.SweepSig([]int{0, 1, 2, 3}, 3, ref.GroupSig(gr))
		for _, size := range []int{3, 2} {
			sets := bySize[size]
			rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
			paths := make([][]int, len(sets))
			for i, f := range sets {
				if i%3 != 0 {
					paths[i] = []int{n, f[0], (f[0] + 1) % n, n + 1}
				}
			}
			putBlock(ref, sig, size, sets, paths)
		}
		putBlock(ref, sig+1, 1, [][]int{{3}, {1}}, nil)
		putBlock(ref, sig, 0, [][]int{{}}, [][]int{{n, 0, n + 1}})
		// Ranged blocks put out of order, each range filed again over
		// the one before it.
		for i := 0; i < 5; i++ {
			putRange(ref, sig+2, 1, 4, 8, [][]int{{i}}, nil)
			putRange(ref, sig+2, 1, 0, 4, [][]int{{7 - i}}, nil)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadRecords(t, path)
	if s, err = Open(path); err != nil {
		t.Fatal(err)
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
	const want = "9bd9b67908538523cb73f96162be86c07b9b1a239831c9f74eb7acf4035f7498"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want || len(raw) != 1498 {
		t.Errorf("compacted image: sha256 %s, %d bytes; want %s, 1498 bytes", got, len(raw), want)
	}
}

// TestStoreCompactImageDigestWithProofs pins the bytes Compact writes for
// a store of one slot's proof blocks: put out of key order, one of them
// superseded by a later put, next to dead records. The blocks follow the
// group, by key, one per key.
func TestStoreCompactImageDigestWithProofs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gdps")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := ringGraph(t, 6)
	ref := s.Register(g)
	gr := autom.Compute(g, autom.Options{})
	ref.PutGroup(gr)
	sig := ref.SweepSig([]int{0, 1, 2, 3, 4, 5}, 2, ref.GroupSig(gr))
	putBlock(ref, sig, 2, [][]int{{1, 3}, {0, 2}, {2, 4}}, [][]int{nil, {6, 2, 0, 7}, {6, 4, 2, 7}})
	putBlock(ref, sig, 1, [][]int{{5}}, nil) // superseded: the latest block under a key wins
	putBlock(ref, sig, 1, [][]int{{3}, {1}}, [][]int{{6, 3, 4, 7}, {6, 1, 2, 7}})
	putBlock(ref, sig+1, 1, [][]int{{2}}, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadRecords(t, path)
	if s, err = Open(path); err != nil {
		t.Fatal(err)
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
	const want = "34f386ec564484d6e2dcc406edcd2dead6eece8372fba5174df587d024b68d61"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want || len(raw) != 204 {
		t.Errorf("compacted image: sha256 %s, %d bytes; want %s, 204 bytes", got, len(raw), want)
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

func TestStoreProofCursorZeroAllocs(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s.gdps"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := s.Register(ringGraph(t, 6))
	putBlock(ref, 9, 2, [][]int{{1, 3}, {0, 2}}, [][]int{{6, 0, 5, 4, 2, 7}})
	blks := ref.LookupProofs(9, 2, wholeRange)
	if len(blks) != 1 {
		t.Fatal("block lost")
	}
	blk := blks[0]
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
