// Package store is the persistent, content-addressed verdict and
// certificate store behind incremental re-verification (ROADMAP item 4).
//
// A Store is one file of versioned, checksummed, append-only binary
// records, held in memory as the file's image with indexes over it;
// verdicts are read in place from the image. Records are never mutated
// in place; newer records supersede older ones (blobs) or are ignored
// duplicates (verdicts, groups, manifests, proof blocks: the first record
// wins), and Compact rewrites the file keeping only live records. Flush
// persists atomically by writing the complete image to a temp file in the
// same directory and renaming it over the store path, so a crash can never
// leave a half-written store; a torn or corrupted tail from a foreign
// writer is detected by the per-record CRC32 on open and dropped (the
// valid prefix is kept).
//
// Content addressing: graphs are registered under their strengthened
// canonical key (graph.CanonicalForm). The WL fingerprint buckets
// candidate slots; byte equality of the canonical encoding decides slot
// reuse, so a slot hit is sound even on fingerprint collisions (equal
// canonical bytes prove isomorphism unconditionally). Colliding
// fingerprints with unequal bytes get distinct slots — when either form
// is inexact and the graphs are small, IsomorphicBrute classifies the
// collision for the store_canon_collision_total counter, but the store
// conservatively keeps separate slots either way: without an explicit
// isomorphism there is no labeling to translate fault sets through, so
// merging would be unsound while splitting is merely a cache miss.
//
// Everything inside a slot lives in canonical node ids (fault sets,
// certificate paths, automorphism generators, manifests, proof blocks),
// translated through the registering graph's CanonicalForm.Labeling on the
// way in and its inverse on the way out. Two byte-identical canonical forms
// therefore share entries even when the concrete graphs label their
// nodes differently.
//
// Trust model: the store is an untrusted hint, never an oracle. Positive
// verdicts carry their pipeline certificate and callers must replay it
// (verify.CheckPipeline) before trusting the hit; automorphism groups are
// rebuilt through autom.FromGenerators, which certificate-checks every
// generator; negative verdicts are re-screened by cheap necessary
// conditions, and proof blocks must cover their size, on the caller side.
// A corrupt or adversarial store can therefore cause extra work (misses,
// replay failures counted by store_replay_fail_total) but never a wrong
// verdict.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"gdpn/internal/graph"
	"gdpn/internal/obs"
)

// File layout constants.
const (
	fileVersion   = 1
	recordVersion = 1

	kindGraph    = 1
	kindVerdict  = 2
	kindGroup    = 3
	kindManifest = 4
	kindBlob     = 5
	kindProof    = 6
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
	// valid as it grows. dirty counts records not yet persisted.
	buf     []byte
	dirty   int
	entries int
	// garbage counts superseded record bytes (blob overwrites); Compact
	// rewrites when it grows past half the file.
	garbage int

	slots     []*slot
	byHash    map[uint64][]int
	groups    map[int]groupVal
	manifests map[manifestKey]manifestVal
	proofs    map[manifestKey]proofVal
	blobs     map[blobKey]blobVal

	// verdicts is built on first use (indexLocked), from the verdict
	// records of buf[:openEnd], of which Open counted openVerdicts: a warm
	// proof that replays proof blocks never needs it. Until it is built no
	// verdict is appended, so buf[:openEnd] holds them all. indexed is set
	// under the write lock once it is built.
	verdicts     verdictIndex
	indexed      atomic.Bool
	openEnd      int
	openVerdicts int

	hitC, missC      map[string]*obs.Counter
	collisionC       map[string]*obs.Counter
	bytesG, entriesG *obs.Gauge
}

type slot struct {
	hash  uint64
	bytes []byte
	exact bool
}

// groupVal and manifestVal hold canonical node ids; a stored id past
// int32 is kept as -1, outside every graph.
type groupVal struct {
	gens     []permRec
	complete bool
}

type permRec struct {
	m      []int32
	ioswap bool
}

// manifestKey keys a size class of a sweep: its manifest or proof block.
type manifestKey struct {
	slot int
	sig  uint64
	size int
}

// manifestVal holds count sets of the key's size back to back in ids.
type manifestVal struct {
	ids   []int32
	count int
}

// proofVal is one proof block: its payload, a slice of buf, and the
// header fields Open read from it. entries is the payload past the header.
// count is 0 for a block whose header does not describe its entries,
// which then only shadows later blocks under its key.
type proofVal struct {
	payload, entries []byte
	count, width     int
}

type blobKey struct {
	slot int
	name string
}

type blobVal struct {
	data []byte // a slice of buf
	sz   int    // the record's size, for garbage accounting
}

// Open loads (or creates) the store at path. A missing file yields an
// empty store; a corrupt tail is dropped with only the valid record
// prefix retained. Every record of that prefix is decoded, so a payload
// that does not parse is an error; a proof block is decoded only as far
// as its header, and its entries by the replay that walks them. The
// verdict index is left to the first verdict lookup or put.
func Open(path string) (*Store, error) {
	s := &Store{
		path:       path,
		verdicts:   verdictIndex{seed: maphash.MakeSeed()},
		byHash:     map[uint64][]int{},
		groups:     map[int]groupVal{},
		manifests:  map[manifestKey]manifestVal{},
		proofs:     map[manifestKey]proofVal{},
		blobs:      map[blobKey]blobVal{},
		hitC:       map[string]*obs.Counter{},
		missC:      map[string]*obs.Counter{},
		collisionC: map[string]*obs.Counter{},
		bytesG:     obs.Default().Gauge("store_bytes"),
		entriesG:   obs.Default().Gauge("store_entries"),
	}
	// Pre-resolve the per-kind counters: hit/miss are called outside s.mu
	// on the lookup fast path, so the maps must be read-only after Open.
	for _, kind := range []string{"verdict", "group", "manifest", "blob"} {
		s.hitC[kind] = obs.Default().Counter("store_hit_total", obs.L("kind", kind))
		s.missC[kind] = obs.Default().Counter("store_miss_total", obs.L("kind", kind))
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || err == nil && len(raw) == 0 {
		s.buf = appendHeader(nil)
		s.openEnd = len(s.buf)
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
	s.openEnd = end
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
// starts at buf[off] and enters it in the indexes; verdicts are only
// validated and counted, for indexLocked. Of two groups, manifests or
// proof blocks under one key the first wins, as it does for the puts; a
// later blob supersedes an earlier one.
func (s *Store) apply(kind byte, off, plen int) error {
	payload := s.buf[off : off+plen : off+plen]
	if kind == kindVerdict {
		// The common verdict, every uvarint one byte long, is validated
		// from its count fields alone.
		if !shortVerdict(payload, len(s.slots)) {
			if err := s.checkVerdict(payload); err != nil {
				return err
			}
		}
		s.openVerdicts++
		return nil
	}
	p := &payloadReader{b: payload}
	switch kind {
	case kindGraph:
		slotID := p.uvarint()
		hash := p.u64()
		exact := p.byte() != 0
		cb := p.bytes()
		if p.err != nil {
			return p.err
		}
		if slotID != uint64(len(s.slots)) {
			return fmt.Errorf("graph record out of order: slot %d, have %d", slotID, len(s.slots))
		}
		s.slots = append(s.slots, &slot{hash: hash, bytes: cb, exact: exact})
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
	case kindManifest:
		slotID := p.uvarint()
		sig := p.u64()
		size := p.uvarint()
		count := p.uvarint()
		if size == 0 && count > 1 || size > 0 && count > uint64(len(p.b))/size {
			return fmt.Errorf("manifest of %d sets of size %d overruns its %d payload bytes", count, size, len(p.b))
		}
		ids := make([]int32, count*size)
		for i := range ids {
			ids[i] = id32(p.uvarint())
		}
		if p.err != nil {
			return p.err
		}
		if slotID >= uint64(len(s.slots)) {
			return fmt.Errorf("manifest for unknown slot %d", slotID)
		}
		k := manifestKey{int(slotID), sig, int(size)}
		if _, ok := s.manifests[k]; !ok {
			s.manifests[k] = manifestVal{ids: ids, count: int(count)}
		}
	case kindBlob:
		slotID := p.uvarint()
		name := string(p.bytes())
		data := p.bytes()
		if p.err != nil {
			return p.err
		}
		if slotID >= uint64(len(s.slots)) {
			return fmt.Errorf("blob for unknown slot %d", slotID)
		}
		k := blobKey{int(slotID), name}
		if old, ok := s.blobs[k]; ok {
			s.garbage += old.sz
		}
		s.blobs[k] = blobVal{data: data, sz: recordOverhead + plen}
	case kindProof:
		// A proof block is checked only as far as its header: its entries
		// are decoded by the replay that walks them. A malformed block
		// costs a miss, never the store: one whose header does not parse
		// is dropped, one whose header is inconsistent is a miss.
		k, pv, ok := parseProof(payload, len(s.slots))
		if !ok {
			s.garbage += recordOverhead + plen
			break
		}
		if _, dup := s.proofs[k]; !dup {
			s.proofs[k] = pv
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}

// checkVerdict validates a verdict payload: the slot, the fault set's ids,
// the found byte and, for a positive, the path's ids. Bytes past the path
// are ignored.
func (s *Store) checkVerdict(payload []byte) error {
	p := &payloadReader{b: payload}
	slotID := p.uvarint()
	p.skipIDs()
	if p.byte() != 0 {
		p.skipIDs()
	}
	if p.err != nil {
		return p.err
	}
	if slotID >= uint64(len(s.slots)) {
		return fmt.Errorf("verdict for unknown slot %d", slotID)
	}
	return nil
}

// shortVerdict reports whether b is a valid verdict payload of a known
// slot in which every byte is below 0x80, so that each uvarint is one
// byte long: then the id counts alone say whether the payload is whole,
// just as checkVerdict decides it. false means "take checkVerdict".
func shortVerdict(b []byte, slots int) bool {
	if len(b) < 3 || int(b[0]) >= slots || !below0x80(b) {
		return false
	}
	found := 2 + int(b[1]) // the found byte's index
	if found >= len(b) {
		return false
	}
	if b[found] == 0 {
		return true
	}
	return found+1 < len(b) && found+2+int(b[found+1]) <= len(b)
}

// below0x80 reports whether every byte of b is below 0x80, eight bytes at
// a time.
func below0x80(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b)&0x8080808080808080 != 0 {
			return false
		}
	}
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// parseProof reads a proof block's header: slot, sweep signature, set
// size and entry count, then the id width. ok is false when the header
// does not parse or names an unknown slot. The block's count is left 0
// when its width is not 1 or 2, or it claims no entries, or more than
// its payload holds at their smallest (size ids and a path length).
func parseProof(payload []byte, slots int) (manifestKey, proofVal, bool) {
	p := &payloadReader{b: payload}
	slotID := p.uvarint()
	sig := p.u64()
	size := p.uvarint()
	count := p.uvarint()
	width := uint64(p.byte())
	if p.err != nil || slotID >= uint64(slots) {
		return manifestKey{}, proofVal{}, false
	}
	pv := proofVal{payload: payload, entries: p.b, width: int(width)}
	rest := uint64(len(p.b))
	if (width == 1 || width == 2) && size < rest && count <= rest/((size+1)*width) {
		pv.count = int(count)
	}
	return manifestKey{int(slotID), sig, int(size)}, pv, true
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

func (p *payloadReader) skipIDs() {
	for n := p.count(1); n > 0; n-- {
		p.uvarint()
	}
}

func appendIDs(buf []byte, ids []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, v := range ids {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// verdictIndex is an open-addressed hash table, probed linearly, of the
// verdict payloads in Store.buf. A verdict's key is its payload's first
// bytes: the slot, the id count and the ascending canonical ids, as
// uvarints. That encoding is prefix-free, so a probe that finds the
// query's bytes at an entry's offset has found its set; a hash collision
// never returns another set's verdict. A stored set in any other encoding
// is never found.
type verdictIndex struct {
	seed maphash.Seed
	ents []indexEnt // a power of two long; off 0 marks a free entry
	n    int
}

type indexEnt struct {
	hash uint64
	off  int // the payload's offset in Store.buf, past the header
}

// reset empties the index and sizes it for n verdicts. It keeps the
// seed, so a hash taken before the reset is still valid for insert.
func (x *verdictIndex) reset(n int) {
	size := 16
	for size*3 < n*4 {
		size *= 2
	}
	x.ents = make([]indexEnt, size)
	x.n = 0
}

// find returns key's hash and the offset of its verdict payload in buf,
// or 0 when key is not indexed.
func (x *verdictIndex) find(buf, key []byte) (uint64, int) {
	h := maphash.Bytes(x.seed, key)
	mask := len(x.ents) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := x.ents[i]
		if e.off == 0 {
			return h, 0
		}
		if e.hash == h && e.off+len(key) <= len(buf) && string(buf[e.off:e.off+len(key)]) == string(key) {
			return h, e.off
		}
	}
}

// insert indexes the verdict payload at off under hash h, which find
// returned for a key it did not find.
func (x *verdictIndex) insert(h uint64, off int) {
	if (x.n+1)*4 > len(x.ents)*3 {
		old := x.ents
		x.ents = make([]indexEnt, 2*len(old))
		for _, e := range old {
			if e.off != 0 {
				x.place(e)
			}
		}
	}
	x.place(indexEnt{hash: h, off: off})
	x.n++
}

func (x *verdictIndex) place(e indexEnt) {
	mask := len(x.ents) - 1
	i := int(e.hash) & mask
	for x.ents[i].off != 0 {
		i = (i + 1) & mask
	}
	x.ents[i] = e
}

// indexLocked builds the verdict index, under the write lock, unless it
// is built. Open validated every verdict payload it reads.
func (s *Store) indexLocked() {
	if s.indexed.Load() {
		return
	}
	s.verdicts.reset(s.openVerdicts)
	for off := headerLen; off < s.openEnd; {
		plen := int(binary.LittleEndian.Uint32(s.buf[off+2:]))
		if s.buf[off+1] == kindVerdict {
			start := off + payloadOff
			p := payloadReader{b: s.buf[start : start+plen]}
			p.uvarint()
			p.skipIDs()
			key := s.buf[start : start+plen-len(p.b)]
			if h, found := s.verdicts.find(s.buf, key); found == 0 {
				s.verdicts.insert(h, start)
			}
		}
		off += recordOverhead + plen
	}
	s.indexed.Store(true)
}

// ensureIndex builds the verdict index if no caller has yet. It takes
// the write lock only the first time.
func (s *Store) ensureIndex() {
	if !s.indexed.Load() {
		s.mu.Lock()
		s.indexLocked()
		s.mu.Unlock()
	}
}

// appendLocked appends one new record under s.mu.
func (s *Store) appendLocked(kind byte, payload []byte) {
	s.buf = appendRecord(s.buf, kind, payload)
	s.entries++
	s.dirty++
}

// lastPayloadTail returns the last n payload bytes of the last record.
func (s *Store) lastPayloadTail(n int) []byte {
	end := len(s.buf) - 4
	return s.buf[end-n : end : end]
}

// Flush atomically persists the current image: full temp-file write in the
// store's directory followed by rename. A no-op when nothing changed since
// the last flush.
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
	s.dirty = 0
	s.publishSizes()
	return nil
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

// Compact rewrites the record image keeping only live records (dropping
// superseded blob versions) and persists it.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactLocked()
	return s.flushLocked()
}

// compactLocked rewrites buf as the graphs in slot order, the verdicts by
// slot and then by their ids' encoding, the groups in slot order, the
// manifests by key, the proof blocks by key and the blobs by slot and
// name. Slices of the old image are moved onto the new one, so the old
// image can be freed.
func (s *Store) compactLocked() {
	s.indexLocked()
	old := s.buf
	verdicts := s.verdicts.sorted(old)
	s.buf = appendHeader(make([]byte, 0, len(old)))
	s.entries = 0
	s.garbage = 0
	for id, sl := range s.slots {
		payload := binary.AppendUvarint(nil, uint64(id))
		payload = binary.LittleEndian.AppendUint64(payload, sl.hash)
		payload = append(payload, boolByte(sl.exact))
		payload = binary.AppendUvarint(payload, uint64(len(sl.bytes)))
		payload = append(payload, sl.bytes...)
		s.appendLocked(kindGraph, payload)
		sl.bytes = s.lastPayloadTail(len(sl.bytes))
	}
	s.verdicts.reset(len(verdicts))
	for _, v := range verdicts {
		s.verdicts.insert(v.hash, len(s.buf)+payloadOff)
		s.appendLocked(kindVerdict, v.payload)
	}
	for slotID := range s.slots {
		if gv, ok := s.groups[slotID]; ok {
			s.appendLocked(kindGroup, encodeGroup(slotID, gv))
		}
	}
	for _, k := range sortedKeys(s.manifests) {
		s.appendLocked(kindManifest, encodeManifest(k, s.manifests[k]))
	}
	for _, k := range sortedKeys(s.proofs) {
		pv := s.proofs[k]
		s.appendLocked(kindProof, pv.payload)
		s.proofs[k] = pv.moved(s.lastPayloadTail(len(pv.payload)))
	}
	for _, k := range sortedBlobKeys(s.blobs) {
		b := s.blobs[k]
		start := len(s.buf)
		s.appendLocked(kindBlob, encodeBlob(k, b.data))
		s.blobs[k] = blobVal{data: s.lastPayloadTail(len(b.data)), sz: len(s.buf) - start}
	}
	s.dirty++ // force the flush even if record counts coincide
}

// compactVerdict is one indexed verdict payload, with its sort key for
// compaction: the slot, then the encoding of the ids.
type compactVerdict struct {
	hash         uint64
	slot         uint64
	ids, payload []byte
}

// sorted returns the indexed verdicts of buf in compaction order.
func (x *verdictIndex) sorted(buf []byte) []compactVerdict {
	out := make([]compactVerdict, 0, x.n)
	for _, e := range x.ents {
		if e.off == 0 {
			continue
		}
		rest := buf[e.off:]
		p := &payloadReader{b: rest}
		v := compactVerdict{hash: e.hash, slot: p.uvarint()}
		n := p.count(1)
		ids := p.b
		for ; n > 0; n-- {
			p.uvarint()
		}
		v.ids = ids[:len(ids)-len(p.b)]
		if p.byte() != 0 {
			p.skipIDs()
		}
		v.payload = rest[:len(rest)-len(p.b)]
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].slot != out[j].slot {
			return out[i].slot < out[j].slot
		}
		return string(out[i].ids) < string(out[j].ids)
	})
	return out
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
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

func encodeManifest(k manifestKey, mv manifestVal) []byte {
	payload := binary.AppendUvarint(nil, uint64(k.slot))
	payload = binary.LittleEndian.AppendUint64(payload, k.sig)
	payload = binary.AppendUvarint(payload, uint64(k.size))
	payload = binary.AppendUvarint(payload, uint64(mv.count))
	for _, v := range mv.ids {
		payload = binary.AppendUvarint(payload, uint64(v))
	}
	return payload
}

func encodeBlob(k blobKey, data []byte) []byte {
	payload := binary.AppendUvarint(nil, uint64(k.slot))
	payload = binary.AppendUvarint(payload, uint64(len(k.name)))
	payload = append(payload, k.name...)
	payload = binary.AppendUvarint(payload, uint64(len(data)))
	payload = append(payload, data...)
	return payload
}

func sortedKeys[V any](m map[manifestKey]V) []manifestKey {
	keys := make([]manifestKey, 0, len(m))
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

func sortedBlobKeys(m map[blobKey]blobVal) []blobKey {
	keys := make([]blobKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].slot != keys[j].slot {
			return keys[i].slot < keys[j].slot
		}
		return keys[i].name < keys[j].name
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
// collisions per the package trust model.
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
	s.slots = append(s.slots, &slot{hash: cf.Hash, bytes: cf.Bytes, exact: cf.Exact})
	s.byHash[cf.Hash] = append(s.byHash[cf.Hash], id)
	payload := binary.AppendUvarint(nil, uint64(id))
	payload = binary.LittleEndian.AppendUint64(payload, cf.Hash)
	payload = append(payload, boolByte(cf.Exact))
	payload = binary.AppendUvarint(payload, uint64(len(cf.Bytes)))
	payload = append(payload, cf.Bytes...)
	s.appendLocked(kindGraph, payload)
	return id
}
