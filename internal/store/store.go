// Package store is the persistent, content-addressed proof store behind
// incremental re-verification and -replay.
//
// A Store is one file of versioned, checksummed, append-only binary
// records, held in memory as the file's image with indexes over it; proof
// blocks are replayed in place from the image. Records are never mutated
// in place; newer records supersede older ones (a proof block drops the
// blocks of its size whose ranges overlap its own) or are ignored
// duplicates (groups: the first record wins), and Compact rewrites the
// file keeping only live records. Flush appends the records added since
// the file last matched the image; when the file does not hold a prefix
// of the image (a new store, a compaction, a tail dropped by Open), it
// writes the complete image to a temp file in the same directory and
// renames it over the store path. Either way a crash never costs a record
// flushed before: a torn or corrupted tail, from a crash mid-append or a
// foreign writer, is detected by the per-record CRC32 on open and dropped
// (the valid prefix is kept).
//
// The record kinds are graphs (1), automorphism groups (3) and proof
// blocks (7). Files of earlier releases also hold whole-size proof blocks
// (6), which stay live and read as covering their size, and per-fault-set
// verdicts (2), orbit manifests (4) and blobs (5): Open counts those as
// dead records, never decodes them, and Compact drops them.
//
// Content addressing: graphs are registered under their strengthened
// canonical key (graph.CanonicalForm). The WL fingerprint buckets
// candidate slots; byte equality of the canonical encoding decides slot
// reuse, so a slot hit is sound even on fingerprint collisions (equal
// canonical bytes prove isomorphism unconditionally). A graph record also
// keeps the labeling of the graph that created its slot: Register encodes
// a graph under it first, and takes the slot without computing a
// canonical form when the bytes match. Colliding fingerprints with unequal
// bytes get distinct slots — when either form is inexact and the graphs
// are small, IsomorphicBrute classifies the collision for the
// store_canon_collision_total counter, but the store conservatively keeps
// separate slots either way: without an explicit isomorphism there is no
// labeling to translate fault sets through, so merging would be unsound
// while splitting is merely a cache miss.
//
// Everything inside a slot lives in canonical node ids (fault sets,
// witness paths, automorphism generators, proof blocks), translated
// through the registering graph's labeling on the way in and its inverse
// on the way out. Two byte-identical canonical forms therefore share
// entries even when the concrete graphs label their nodes differently.
//
// Trust model: the store is an untrusted hint, never an oracle. A proof
// block's positive entries carry their pipeline witness, which callers
// must replay (verify.CheckPipeline) before trusting it; negative entries
// are re-screened by cheap necessary conditions; a size's blocks must
// tile its ranks and cover its orbits, on the caller side; automorphism groups are rebuilt through
// autom.FromGenerators, which certificate-checks every generator; a stored
// labeling is used only when it encodes the graph to the slot's canonical
// bytes. A corrupt or adversarial store can therefore cause extra work
// (misses, replay failures counted by store_replay_fail_total) but never
// a wrong verdict.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"gdpn/internal/graph"
	"gdpn/internal/obs"
)

// File layout constants.
const (
	fileVersion   = 1
	recordVersion = 1

	kindGraph = 1
	kindGroup = 3
	kindProof = 7

	// Whole-size proof blocks, written by earlier releases: live.
	kindWholeProof = 6

	// Per-fault-set verdicts, orbit manifests and blobs, written by
	// earlier releases: dead records.
	kindVerdict  = 2
	kindManifest = 4
	kindBlob     = 5
)

var fileMagic = [4]byte{'G', 'D', 'P', 'S'}

// headerLen is magic + u16 file version.
const headerLen = 6

// recordOverhead is version byte + kind byte + u32 payload length + u32 CRC;
// the payload starts payloadOff bytes into a record.
const (
	recordOverhead = 10
	payloadOff     = 6
)

// Store is the record image of one store file plus the indexes over it.
// All methods are safe for concurrent use; lookups share a read lock, and
// a proof-block replay takes none.
type Store struct {
	mu   sync.RWMutex
	path string

	// buf is the file image, header included, exactly as Flush writes it:
	// Open keeps the bytes it read and appends go to the end. Records are
	// never changed in place, so offsets into buf, and slices of it, stay
	// valid as it grows. dirty counts records not yet persisted; the file
	// holds buf[:synced], or no prefix of buf when synced is 0.
	buf     []byte
	dirty   int
	synced  int
	entries int
	// garbage counts the bytes of dead records (proof blocks dropped by an
	// overlapping one or whose header does not parse, the dead record
	// kinds of earlier releases);
	// Close compacts when it grows past half the file.
	garbage int

	slots  []*slot
	byHash map[uint64][]int
	groups map[int]groupVal
	proofs map[proofKey][]proofVal

	hitC, missC      map[string]*obs.Counter
	collisionC       map[string]*obs.Counter
	bytesG, entriesG *obs.Gauge
}

// slot is one registered graph: its canonical form, and the labeling of
// the graph that created it, nil when its record has none.
type slot struct {
	hash  uint64
	bytes []byte
	exact bool
	lab   []int32
}

// groupVal holds canonical node ids; a stored id past int32 is kept as
// -1, outside every graph.
type groupVal struct {
	gens     []permRec
	complete bool
}

type permRec struct {
	m      []int32
	ioswap bool
}

// proofKey keys a size class of a sweep: its proof blocks.
type proofKey struct {
	slot int
	sig  uint64
	size int
}

// proofVal is one proof block: its payload, a slice of buf, and the
// header fields Open read from it. entries is the payload past the header.
// whole marks a block of an earlier release, which covers its size. ok is
// false for a block whose header does not describe its entries, which
// then only drops the blocks its range overlaps.
type proofVal struct {
	payload, entries []byte
	from, to         int64
	count, width     int
	whole, ok        bool
}

// Open loads (or creates) the store at path. A missing file yields an
// empty store; a corrupt tail is dropped with only the valid record
// prefix retained. Every live record of that prefix is decoded, so a
// payload that does not parse is an error; a proof block is decoded only
// as far as its header, and its entries by the replay that walks them.
func Open(path string) (*Store, error) {
	s := &Store{
		path:       path,
		byHash:     map[uint64][]int{},
		groups:     map[int]groupVal{},
		proofs:     map[proofKey][]proofVal{},
		hitC:       map[string]*obs.Counter{},
		missC:      map[string]*obs.Counter{},
		collisionC: map[string]*obs.Counter{},
		bytesG:     obs.Default().Gauge("store_bytes"),
		entriesG:   obs.Default().Gauge("store_entries"),
	}
	// Pre-resolve the per-kind counters: hit/miss are called outside s.mu
	// on the lookup fast path, so the maps must be read-only after Open.
	// There are no per-set lookups: a replayed block counts one verdict
	// hit per entry, and verdict misses stay 0.
	for _, kind := range []string{"verdict", "group", "manifest"} {
		s.hitC[kind] = obs.Default().Counter("store_hit_total", obs.L("kind", kind))
		s.missC[kind] = obs.Default().Counter("store_miss_total", obs.L("kind", kind))
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || err == nil && len(raw) == 0 {
		s.buf = appendHeader(nil)
		s.publishSizes()
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	if len(raw) < headerLen || [4]byte(raw[:4]) != fileMagic {
		return nil, fmt.Errorf("store: %s is not a gdpn store file", path)
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != fileVersion {
		return nil, fmt.Errorf("store: %s has unsupported version %d", path, v)
	}
	// The CRC-valid prefix.
	end := headerLen
	for end < len(raw) {
		n, ok := checkRecord(raw[end:])
		if !ok {
			break // torn/corrupt tail: keep the valid prefix
		}
		end += n
	}
	s.buf = raw[:end]
	if end == len(raw) {
		s.synced = end
	}
	for off := headerLen; off < end; {
		plen := int(binary.LittleEndian.Uint32(raw[off+2:]))
		if err := s.apply(raw[off+1], off+payloadOff, plen); err != nil {
			return nil, fmt.Errorf("store: %s: record at offset %d: %w", path, off, err)
		}
		off += recordOverhead + plen
		s.entries++
	}
	s.publishSizes()
	return s, nil
}

func appendHeader(buf []byte) []byte {
	buf = append(buf, fileMagic[:]...)
	return binary.LittleEndian.AppendUint16(buf, fileVersion)
}

// checkRecord returns the size of the record b starts with, and whether it
// is whole, of a known version and CRC-valid.
func checkRecord(b []byte) (int, bool) {
	if len(b) < recordOverhead || b[0] != recordVersion {
		return 0, false
	}
	plen := uint64(binary.LittleEndian.Uint32(b[2:6]))
	if uint64(len(b)) < recordOverhead+plen {
		return 0, false
	}
	n := recordOverhead + int(plen)
	if crc32.ChecksumIEEE(b[:n-4]) != binary.LittleEndian.Uint32(b[n-4:n]) {
		return 0, false
	}
	return n, true
}

func appendRecord(buf []byte, kind byte, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, recordVersion, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// apply validates the record of the given kind whose plen-byte payload
// starts at buf[off] and enters it in the indexes. Of two groups under one
// key the first wins, as it does for the puts; a later proof block drops
// the earlier ones its range overlaps. Verdicts, manifests and blobs are
// dead.
func (s *Store) apply(kind byte, off, plen int) error {
	payload := s.buf[off : off+plen : off+plen]
	p := &payloadReader{b: payload}
	switch kind {
	case kindVerdict, kindManifest, kindBlob:
		s.garbage += recordOverhead + plen
	case kindGraph:
		slotID := p.uvarint()
		hash := p.u64()
		exact := p.byte() != 0
		cb := p.bytes()
		var lab []int32
		if len(p.b) > 0 {
			lab = p.ids()
		}
		if p.err != nil {
			return p.err
		}
		if slotID != uint64(len(s.slots)) {
			return fmt.Errorf("graph record out of order: slot %d, have %d", slotID, len(s.slots))
		}
		s.slots = append(s.slots, &slot{hash: hash, bytes: cb, exact: exact, lab: lab})
		s.byHash[hash] = append(s.byHash[hash], int(slotID))
	case kindGroup:
		slotID := p.uvarint()
		complete := p.byte() != 0
		ngens := p.count(2) // a generator takes at least two bytes
		gens := make([]permRec, 0, ngens)
		for i := 0; i < ngens; i++ {
			ioswap := p.byte() != 0
			gens = append(gens, permRec{m: p.ids(), ioswap: ioswap})
		}
		if p.err != nil {
			return p.err
		}
		if slotID >= uint64(len(s.slots)) {
			return fmt.Errorf("group for unknown slot %d", slotID)
		}
		if _, ok := s.groups[int(slotID)]; !ok {
			s.groups[int(slotID)] = groupVal{gens: gens, complete: complete}
		}
	case kindProof, kindWholeProof:
		// A proof block is checked only as far as its header: its entries
		// are decoded by the replay that walks them. A malformed block
		// costs a miss, never the store: one whose header does not parse
		// is dropped, one whose header is inconsistent is a miss.
		k, pv, ok := parseProof(kind, payload, len(s.slots))
		if !ok {
			s.garbage += recordOverhead + plen
			break
		}
		s.insertProofLocked(k, pv)
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}

// parseProof reads the header of a proof block of the given kind: slot,
// sweep signature, set size, the range (not in a whole-size block) and
// entry count, then the id width. ok is false when the header does not
// parse, names an unknown slot or an empty range. The block's ok is false
// when its width is not 1 or 2, or it claims more entries than its
// payload holds at their smallest (size ids and a path length).
func parseProof(kind byte, payload []byte, slots int) (proofKey, proofVal, bool) {
	p := &payloadReader{b: payload}
	slotID := p.uvarint()
	sig := p.u64()
	size := p.uvarint()
	from, to := uint64(0), uint64(math.MaxInt64)
	if kind == kindProof {
		from, to = p.uvarint(), p.uvarint()
	}
	count := p.uvarint()
	width := uint64(p.byte())
	if p.err != nil || slotID >= uint64(slots) || from >= to || to > math.MaxInt64 {
		return proofKey{}, proofVal{}, false
	}
	pv := proofVal{payload: payload, entries: p.b, from: int64(from), to: int64(to), width: int(width), whole: kind == kindWholeProof}
	rest := uint64(len(p.b))
	if (width == 1 || width == 2) && (count == 0 || size < rest && count <= rest/((size+1)*width)) {
		pv.count, pv.ok = int(count), true
	}
	return proofKey{int(slotID), sig, int(size)}, pv, true
}

// id32 narrows a stored id; one past int32 becomes -1, outside every graph.
func id32(v uint64) int32 {
	if v > math.MaxInt32 {
		return -1
	}
	return int32(v)
}

// moved returns pv with its slices on payload, a copy of its payload.
func (pv proofVal) moved(payload []byte) proofVal {
	pv.entries = payload[len(payload)-len(pv.entries):]
	pv.payload = payload
	return pv
}

// payloadReader decodes record payloads. The first error is latched and
// empties b, so every later read fails as well and returns zero.
type payloadReader struct {
	b   []byte
	err error
}

func (p *payloadReader) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.b = nil
}

// uvarint reads one uvarint. Most stored ids are below 128: one byte,
// read without calling binary.Uvarint.
func (p *payloadReader) uvarint() uint64 {
	if b := p.b; len(b) > 0 && b[0] < 0x80 {
		p.b = b[1:]
		return uint64(b[0])
	}
	return p.uvarintSlow()
}

func (p *payloadReader) uvarintSlow() uint64 {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.fail(errors.New("truncated uvarint"))
		return 0
	}
	p.b = p.b[n:]
	return v
}

// count reads the length of a list whose items take at least per bytes
// each, and fails when the rest of the payload cannot hold that many.
func (p *payloadReader) count(per int) int {
	n := p.uvarint()
	if n > uint64(len(p.b)/per) {
		p.fail(fmt.Errorf("count %d overruns the %d payload bytes left", n, len(p.b)))
		return 0
	}
	return int(n)
}

func (p *payloadReader) u64() uint64 {
	if len(p.b) < 8 {
		p.fail(errors.New("truncated u64"))
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b)
	p.b = p.b[8:]
	return v
}

func (p *payloadReader) byte() byte {
	if len(p.b) == 0 {
		p.fail(errors.New("truncated byte"))
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v
}

// bytes returns the next length-prefixed byte string as a slice of the
// payload.
func (p *payloadReader) bytes() []byte {
	n := p.count(1)
	v := p.b[:n:n]
	p.b = p.b[n:]
	return v
}

func (p *payloadReader) ids() []int32 {
	out := make([]int32, p.count(1))
	for i := range out {
		out[i] = id32(p.uvarint())
	}
	return out
}

func appendIDs(buf []byte, ids []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, v := range ids {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// appendLocked appends one new record under s.mu. The image grows by
// doubling: a fleet coordinator appends one block per chunk.
func (s *Store) appendLocked(kind byte, payload []byte) {
	if n := recordOverhead + len(payload); len(s.buf)+n > cap(s.buf) {
		s.buf = slices.Grow(s.buf, max(n, len(s.buf)))
	}
	s.buf = appendRecord(s.buf, kind, payload)
	s.entries++
	s.dirty++
}

// lastPayloadTail returns the last n payload bytes of the last record.
func (s *Store) lastPayloadTail(n int) []byte {
	end := len(s.buf) - 4
	return s.buf[end-n : end : end]
}

// Flush persists the current image: it appends the records added since
// the last flush, or, when the file does not hold a prefix of the image,
// writes the image in full to a temp file in the store's directory and
// renames it over the path. A no-op when nothing changed since the last
// flush.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.dirty == 0 {
		s.publishSizes()
		return nil
	}
	if s.synced > 0 && s.appendFile() == nil {
		s.dirty, s.synced = 0, len(s.buf)
		s.publishSizes()
		return nil
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(s.buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: flush: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: flush: %w", err)
	}
	if err := os.Rename(tmpName, s.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: flush: %w", err)
	}
	s.dirty, s.synced = 0, len(s.buf)
	s.publishSizes()
	return nil
}

// appendFile appends buf[synced:] to the store file, which must hold
// buf[:synced] and no more. A failed append leaves at most a torn tail
// past buf[:synced], which the caller's full rewrite replaces.
func (s *Store) appendFile() error {
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if fi, err := f.Stat(); err != nil || fi.Size() != int64(s.synced) {
		f.Close()
		return errors.New("store: the file is not the image's prefix")
	}
	_, err = f.Write(s.buf[s.synced:])
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close flushes the store, compacting first when superseded records exceed
// half the image.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.garbage*2 > len(s.buf)-headerLen {
		s.compactLocked()
	}
	return s.flushLocked()
}

// Compact rewrites the record image keeping only live records and
// persists it.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactLocked()
	return s.flushLocked()
}

// compactLocked rewrites buf as the graphs in slot order, the groups in
// slot order and the proof blocks by key and range. Slices of the old
// image are moved onto the new one, so the old image can be freed.
func (s *Store) compactLocked() {
	old := s.buf
	s.buf = appendHeader(make([]byte, 0, len(old)-s.garbage))
	s.entries = 0
	s.garbage = 0
	s.synced = 0
	for id, sl := range s.slots {
		s.appendGraphLocked(id, sl)
	}
	for slotID := range s.slots {
		if gv, ok := s.groups[slotID]; ok {
			s.appendLocked(kindGroup, encodeGroup(slotID, gv))
		}
	}
	for _, k := range sortedKeys(s.proofs) {
		for i, pv := range s.proofs[k] {
			kind := byte(kindProof)
			if pv.whole {
				kind = kindWholeProof
			}
			s.appendLocked(kind, pv.payload)
			s.proofs[k][i] = pv.moved(s.lastPayloadTail(len(pv.payload)))
		}
	}
	s.dirty++ // force the flush even if record counts coincide
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendGraphLocked appends sl's graph record, the slot id, the
// fingerprint, the exact flag, the canonical bytes and, when sl has one,
// the labeling, and moves sl.bytes onto the record.
func (s *Store) appendGraphLocked(id int, sl *slot) {
	payload := binary.AppendUvarint(nil, uint64(id))
	payload = binary.LittleEndian.AppendUint64(payload, sl.hash)
	payload = append(payload, boolByte(sl.exact))
	payload = binary.AppendUvarint(payload, uint64(len(sl.bytes)))
	at := len(payload)
	payload = append(payload, sl.bytes...)
	if sl.lab != nil {
		payload = appendIDs(payload, sl.lab)
	}
	s.appendLocked(kindGraph, payload)
	start := len(s.buf) - 4 - len(payload) + at
	sl.bytes = s.buf[start : start+len(sl.bytes) : start+len(sl.bytes)]
}

func encodeGroup(slotID int, gv groupVal) []byte {
	payload := binary.AppendUvarint(nil, uint64(slotID))
	payload = append(payload, boolByte(gv.complete))
	payload = binary.AppendUvarint(payload, uint64(len(gv.gens)))
	for _, g := range gv.gens {
		payload = append(payload, boolByte(g.ioswap))
		payload = appendIDs(payload, g.m)
	}
	return payload
}

func sortedKeys(m map[proofKey][]proofVal) []proofKey {
	keys := make([]proofKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		if a.sig != b.sig {
			return a.sig < b.sig
		}
		return a.size < b.size
	})
	return keys
}

// Stats is a point-in-time size summary, also published as the
// store_bytes/store_entries gauges.
type Stats struct {
	Path    string `json:"path"`
	Bytes   int    `json:"bytes"`
	Entries int    `json:"entries"`
	Slots   int    `json:"slots"`
	Dirty   int    `json:"dirty"`
}

// Stats returns current sizes.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Path:    s.path,
		Bytes:   len(s.buf),
		Entries: s.entries,
		Slots:   len(s.slots),
		Dirty:   s.dirty,
	}
}

func (s *Store) publishSizes() {
	s.bytesG.Set(int64(len(s.buf)))
	s.entriesG.Set(int64(s.entries))
}

// counter caches obs counters per (name, kind). The known kinds are
// pre-resolved in Open so the hit/miss fast path (called outside s.mu)
// only ever reads the map; unknown kinds appear solely on locked paths.
func (s *Store) counter(m map[string]*obs.Counter, name, kind string) *obs.Counter {
	c, ok := m[kind]
	if !ok {
		c = obs.Default().Counter(name, obs.L("kind", kind))
		m[kind] = c
	}
	return c
}

func (s *Store) hit(kind string)  { s.counter(s.hitC, "store_hit_total", kind).Add(1) }
func (s *Store) miss(kind string) { s.counter(s.missC, "store_miss_total", kind).Add(1) }

// registerLocked finds or creates the slot for cf, classifying fingerprint
// collisions per the package trust model. A new slot keeps cf's labeling.
func (s *Store) registerLocked(g *graph.Graph, cf graph.CanonicalForm) int {
	for _, id := range s.byHash[cf.Hash] {
		sl := s.slots[id]
		if string(sl.bytes) == string(cf.Bytes) {
			return id
		}
		// Fingerprint collision with distinct canonical bytes. Classify for
		// observability; always keep separate slots (see package comment).
		result := "distinct"
		if (!sl.exact || !cf.Exact) && len(g.Processors()) <= 12 {
			if other, err := graph.DecodeCanonical(sl.bytes); err == nil && graph.IsomorphicBrute(g, other) {
				result = "isomorphic"
			}
		}
		s.counter(s.collisionC, "store_canon_collision_total", result).Add(1)
	}
	id := len(s.slots)
	sl := &slot{hash: cf.Hash, bytes: cf.Bytes, exact: cf.Exact, lab: cf.Labeling}
	s.slots = append(s.slots, sl)
	s.byHash[cf.Hash] = append(s.byHash[cf.Hash], id)
	s.appendGraphLocked(id, sl)
	return id
}
