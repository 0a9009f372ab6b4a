// Package diskcache is the proxy client's crash-consistent on-disk block
// store: the persistence layer that turns the in-memory sessionCache into
// the paper's disk cache, surviving proxy restarts so a warm client
// revalidates its working set instead of refetching it over the WAN.
//
// Layout under the store directory:
//
//	MANIFEST    checkpointed index (magic + record stream), replaced by
//	            atomic rename so it is never observed half-written
//	JOURNAL     write-ahead record log appended between checkpoints
//	blk/        one file per cached block, named <hexkey>.<bn>.<gen>
//
// Every record — in the journal and in the manifest — is framed as
// [u32 payload len][u32 CRC-32 of payload][payload], so a torn tail is
// detected and recovery stops at the last intact record. Block files carry
// no framing; their expected length and CRC live in the index record that
// committed them, and recovery drops any block whose on-disk bytes do not
// match (a torn block-file write).
//
// Durability policy: the journal (and a dirty block's data file, then the
// blk/ directory that names it) is fsync'd on dirty-state transitions — a
// block becoming dirty, or a dirty block marked clean after its WRITE
// landed — because those are the records whose loss changes write-back
// semantics. The file and its directory entry are durable before the record
// that names them is appended, so a committed record never names a file a
// crash could take away. Clean-block records ride along unsynced: losing one
// merely refetches a block that the server still has. SyncAlways upgrades
// every record, SyncNone downgrades all of them (benchmarks, tmpfs).
package diskcache

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// SyncPolicy selects which store mutations force an fsync.
type SyncPolicy int

const (
	// SyncDirty fsyncs on dirty-state transitions only (the default):
	// dirty puts, clean transitions, and dirty drops reach stable storage
	// before the call returns; clean-block records may be lost to a crash
	// and are then simply refetched.
	SyncDirty SyncPolicy = iota
	// SyncAlways fsyncs every journal append and block write.
	SyncAlways
	// SyncNone never fsyncs (fastest; a crash may lose anything since the
	// last checkpoint — still torn-write safe, never corrupting).
	SyncNone
)

// ParseSyncPolicy maps the config knob spelling to a policy; the empty
// string selects the default.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "dirty":
		return SyncDirty, nil
	case "always":
		return SyncAlways, nil
	case "none", "off":
		return SyncNone, nil
	}
	return SyncDirty, fmt.Errorf("diskcache: unknown sync policy %q (want dirty, always, or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return "dirty"
}

// BlockState is one recovered block handed back to the cache.
type BlockState struct {
	Data  []byte
	Dirty bool
	// Gen is the block's dirty generation at the time it was persisted;
	// re-entering a recovered dirty block into the write-back pipeline with
	// its saved generation keeps the existing lost-update fences sound.
	Gen uint64
}

// FileState is one recovered file: the identity attributes the cache needs
// to revalidate (mtime under polling's GETATTR reconciliation) plus the
// surviving blocks.
type FileState struct {
	MtimeSec, MtimeNsec uint32
	Size                uint64
	LocalChange         uint32
	Blocks              map[uint64]*BlockState
}

// RecoveryStats summarizes one journal replay.
type RecoveryStats struct {
	Files       int
	Blocks      int // blocks recovered intact (clean + dirty)
	DirtyBlocks int
	Dropped     int // records or blocks discarded: torn tail, CRC mismatch, missing file
}

// Recovered is the full result of opening an existing store directory.
type Recovered struct {
	Files map[string]*FileState
	Stats RecoveryStats
}

// record ops. The payload always starts [op u8][keyLen u16][key]; the tail
// is op-specific. All integers are big-endian.
const (
	opPut       = 1 // bn u64, gen u64, dirty u8, dataLen u32, dataCRC u32
	opClean     = 2 // bn u64, gen u64
	opDropBlock = 3 // bn u64
	opDropFile  = 4
	opMeta      = 5 // mtimeSec u32, mtimeNsec u32, size u64, localChange u32
)

const (
	manifestName = "MANIFEST"
	journalName  = "JOURNAL"
	blockSubdir  = "blk"
	// manifestMagic versions the on-disk format.
	manifestMagic = "GVFSDC1\n"
	// maxRecordPayload bounds a framed payload; journal records carry no
	// block data, so anything larger is corruption.
	maxRecordPayload = 4096
	// checkpointBytes triggers a manifest checkpoint once the journal has
	// grown past it, bounding replay time.
	checkpointBytes = 256 << 10
)

// blockMeta is the in-memory index entry for one on-disk block file.
type blockMeta struct {
	gen   uint64
	dlen  uint32
	dcrc  uint32
	dirty bool
}

type fileMeta struct {
	mtimeSec, mtimeNsec uint32
	size                uint64
	localChange         uint32
	blocks              map[uint64]blockMeta
}

// Store is the live handle on a disk cache directory. All methods are safe
// for concurrent use. Mutations are best-effort from the caller's point of
// view: the first I/O failure latches the store into a no-op state (Err
// reports it) rather than failing cache operations — the disk cache is an
// accelerator, never a correctness dependency.
type Store struct {
	dir    string
	maxB   int64
	policy SyncPolicy

	mu      sync.Mutex
	closed  bool
	failed  error
	journal *os.File
	blk     *os.File // the blk/ directory, synced after a new block file
	jbytes  int64
	files   map[string]*fileMeta
	bytes   int64 // total data bytes the index references
	scratch []byte
	wbuf    []byte
}

// Open creates (or recovers) the store rooted at dir. maxBytes bounds the
// bytes of *clean* block data kept on disk (dirty data is never dropped for
// space; 0 means unbounded). Recovery replays MANIFEST then JOURNAL,
// verifies every surviving block file against its recorded length and CRC,
// and compacts the result into a fresh checkpoint so stale block files and
// torn tails do not accumulate across restarts.
func Open(dir string, maxBytes int64, policy SyncPolicy) (*Store, Recovered, error) {
	rec := Recovered{Files: map[string]*FileState{}}
	if err := os.MkdirAll(filepath.Join(dir, blockSubdir), 0o755); err != nil {
		return nil, rec, err
	}
	s := &Store{dir: dir, maxB: maxBytes, policy: policy, files: map[string]*fileMeta{}}

	s.replayInto(filepath.Join(dir, manifestName), true, &rec.Stats)
	s.replayInto(filepath.Join(dir, journalName), false, &rec.Stats)
	s.loadBlocks(&rec)

	blk, err := os.Open(filepath.Join(dir, blockSubdir))
	if err != nil {
		return nil, rec, err
	}
	// Do NOT truncate here: the old journal must survive until the
	// compacting checkpoint below has durably folded it into the manifest.
	j, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		blk.Close()
		return nil, rec, err
	}
	s.journal, s.blk = j, blk
	if err := s.checkpointLocked(); err != nil {
		j.Close()
		blk.Close()
		return nil, rec, err
	}
	s.gcBlockFiles()
	return s, rec, nil
}

// replayInto applies one record file to the index. manifest requires the
// magic header; a missing file is simply empty state. A torn or corrupt
// record ends the replay (everything before it stands) and counts one drop.
func (s *Store) replayInto(path string, manifest bool, st *RecoveryStats) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	if manifest {
		magic := make([]byte, len(manifestMagic))
		if _, err := io.ReadFull(f, magic); err != nil || string(magic) != manifestMagic {
			if err == nil || !errors.Is(err, io.EOF) {
				st.Dropped++
			}
			return
		}
	}
	var hdr [8]byte
	payload := make([]byte, 0, 256)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if !errors.Is(err, io.EOF) {
				st.Dropped++ // torn header
			}
			return
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		crc := binary.BigEndian.Uint32(hdr[4:])
		if n == 0 || n > maxRecordPayload {
			st.Dropped++
			return
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			st.Dropped++ // torn payload
			return
		}
		if crc32.ChecksumIEEE(payload) != crc {
			st.Dropped++ // torn or bit-rotted record
			return
		}
		if !s.applyRecord(payload) {
			st.Dropped++
			return
		}
	}
}

// applyRecord folds one decoded record into the index; records are absolute
// state ("block bn is now (gen, len, crc, dirty)"), so replaying a journal
// over a manifest that already includes its effects converges.
func (s *Store) applyRecord(p []byte) bool {
	if len(p) < 3 {
		return false
	}
	op := p[0]
	klen := int(binary.BigEndian.Uint16(p[1:3]))
	if len(p) < 3+klen {
		return false
	}
	key := string(p[3 : 3+klen])
	rest := p[3+klen:]
	u64 := func(off int) uint64 { return binary.BigEndian.Uint64(rest[off:]) }
	u32 := func(off int) uint32 { return binary.BigEndian.Uint32(rest[off:]) }
	switch op {
	case opPut:
		if len(rest) != 8+8+1+4+4 {
			return false
		}
		fm := s.fileMetaFor(key)
		bn := u64(0)
		old, had := fm.blocks[bn]
		bm := blockMeta{gen: u64(8), dirty: rest[16] != 0, dlen: u32(17), dcrc: u32(21)}
		fm.blocks[bn] = bm
		if had {
			s.bytes -= int64(old.dlen)
		}
		s.bytes += int64(bm.dlen)
	case opClean:
		if len(rest) != 16 {
			return false
		}
		if fm := s.files[key]; fm != nil {
			if bm, ok := fm.blocks[u64(0)]; ok && bm.gen == u64(8) {
				bm.dirty = false
				fm.blocks[u64(0)] = bm
			}
		}
	case opDropBlock:
		if len(rest) != 8 {
			return false
		}
		if fm := s.files[key]; fm != nil {
			if bm, ok := fm.blocks[u64(0)]; ok {
				s.bytes -= int64(bm.dlen)
				delete(fm.blocks, u64(0))
			}
			if len(fm.blocks) == 0 {
				delete(s.files, key)
			}
		}
	case opDropFile:
		if len(rest) != 0 {
			return false
		}
		if fm := s.files[key]; fm != nil {
			for _, bm := range fm.blocks {
				s.bytes -= int64(bm.dlen)
			}
			delete(s.files, key)
		}
	case opMeta:
		if len(rest) != 4+4+8+4 {
			return false
		}
		fm := s.fileMetaFor(key)
		fm.mtimeSec, fm.mtimeNsec = u32(0), u32(4)
		fm.size = u64(8)
		fm.localChange = u32(16)
	default:
		return false
	}
	return true
}

func (s *Store) fileMetaFor(key string) *fileMeta {
	fm := s.files[key]
	if fm == nil {
		fm = &fileMeta{blocks: map[uint64]blockMeta{}}
		s.files[key] = fm
	}
	return fm
}

// loadBlocks reads and verifies every indexed block file, dropping blocks
// whose bytes do not match the committed length/CRC, and builds Recovered.
func (s *Store) loadBlocks(rec *Recovered) {
	for key, fm := range s.files {
		fs := &FileState{
			MtimeSec: fm.mtimeSec, MtimeNsec: fm.mtimeNsec,
			Size: fm.size, LocalChange: fm.localChange,
			Blocks: map[uint64]*BlockState{},
		}
		for bn, bm := range fm.blocks {
			data, err := os.ReadFile(s.blockPath(key, bn, bm.gen))
			if err != nil || uint32(len(data)) != bm.dlen || crc32.ChecksumIEEE(data) != bm.dcrc {
				s.bytes -= int64(bm.dlen)
				delete(fm.blocks, bn)
				rec.Stats.Dropped++
				continue
			}
			fs.Blocks[bn] = &BlockState{Data: data, Dirty: bm.dirty, Gen: bm.gen}
			rec.Stats.Blocks++
			if bm.dirty {
				rec.Stats.DirtyBlocks++
			}
		}
		if len(fm.blocks) == 0 {
			delete(s.files, key)
			continue
		}
		rec.Files[key] = fs
		rec.Stats.Files++
	}
}

func (s *Store) blockPath(key string, bn, gen uint64) string {
	return filepath.Join(s.dir, blockSubdir, fmt.Sprintf("%s.%d.%d", hex.EncodeToString([]byte(key)), bn, gen))
}

// gcBlockFiles removes block files the index does not reference (crash
// leftovers: committed-then-superseded generations, torn writes with no
// committing record). Called once per Open, after the compacting checkpoint.
func (s *Store) gcBlockFiles() {
	live := map[string]bool{}
	for key, fm := range s.files {
		for bn, bm := range fm.blocks {
			live[filepath.Base(s.blockPath(key, bn, bm.gen))] = true
		}
	}
	ents, err := os.ReadDir(filepath.Join(s.dir, blockSubdir))
	if err != nil {
		return
	}
	for _, e := range ents {
		if !live[e.Name()] {
			os.Remove(filepath.Join(s.dir, blockSubdir, e.Name()))
		}
	}
}

// --- mutation API (mirrors sessionCache state) -----------------------------

// failLocked latches the first I/O error; every later call no-ops.
func (s *Store) failLocked(err error) {
	if s.failed == nil && err != nil {
		s.failed = err
	}
}

// Err reports the latched I/O failure, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

func (s *Store) ok() bool { return !s.closed && s.failed == nil }

// appendRecordLocked frames payload into the journal, fsyncing when the
// policy requires it for this record class.
func (s *Store) appendRecordLocked(payload []byte, dirtyTransition bool) {
	if !s.ok() {
		return
	}
	n := 8 + len(payload)
	if cap(s.wbuf) < n {
		s.wbuf = make([]byte, n)
	}
	w := s.wbuf[:n]
	binary.BigEndian.PutUint32(w[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(w[4:8], crc32.ChecksumIEEE(payload))
	copy(w[8:], payload)
	if _, err := s.journal.Write(w); err != nil {
		s.failLocked(err)
		return
	}
	s.jbytes += int64(8 + len(payload))
	if s.syncs(dirtyTransition) {
		s.failLocked(fsync(s.journal))
	}
	if s.jbytes >= checkpointBytes {
		s.failLocked(s.checkpointLocked())
	}
}

// encode helpers build the op payloads into s.scratch.
func (s *Store) payload(op byte, key string, tail int) []byte {
	n := 3 + len(key) + tail
	if cap(s.scratch) < n {
		s.scratch = make([]byte, n)
	}
	p := s.scratch[:n]
	p[0] = op
	binary.BigEndian.PutUint16(p[1:3], uint16(len(key)))
	copy(p[3:], key)
	return p
}

// PutBlock persists one block's bytes and state. Dirty blocks are always
// stored; clean blocks are skipped (and any stale on-disk copy dropped)
// once the clean-byte budget is exhausted, so the disk mirror can never
// resurrect content the budget evicted.
func (s *Store) PutBlock(key string, bn uint64, data []byte, dirty bool, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ok() {
		return
	}
	fm := s.fileMetaFor(key)
	old, had := fm.blocks[bn]
	if !dirty && s.maxB > 0 {
		projected := s.bytes + int64(len(data))
		if had {
			projected -= int64(old.dlen)
		}
		if projected > s.maxB {
			s.dropBlockLocked(key, bn)
			return
		}
	}
	dcrc := crc32.ChecksumIEEE(data)
	if err := s.writeBlockLocked(s.blockPath(key, bn, gen), data, s.syncs(dirty)); err != nil {
		s.failLocked(err)
		return
	}
	p := s.payload(opPut, key, 8+8+1+4+4)
	tail := p[3+len(key):]
	binary.BigEndian.PutUint64(tail[0:], bn)
	binary.BigEndian.PutUint64(tail[8:], gen)
	tail[16] = 0
	if dirty {
		tail[16] = 1
	}
	binary.BigEndian.PutUint32(tail[17:], uint32(len(data)))
	binary.BigEndian.PutUint32(tail[21:], dcrc)
	s.appendRecordLocked(p, dirty)
	// The new record is committed; a superseded generation's file is garbage.
	if had {
		s.bytes -= int64(old.dlen)
		if old.gen != gen {
			os.Remove(s.blockPath(key, bn, old.gen))
		}
	}
	fm.blocks[bn] = blockMeta{gen: gen, dlen: uint32(len(data)), dcrc: dcrc, dirty: dirty}
	s.bytes += int64(len(data))
}

// writeBlockLocked writes a block file through one open. With sync set the
// file's data, then the blk/ directory entry naming it, reach stable storage
// before it returns: the record committing the block is appended after.
func (s *Store) writeBlockLocked(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && sync {
		err = fsync(s.blk)
	}
	return err
}

// syncs reports whether the policy fsyncs a mutation that is (or is not) a
// dirty-state transition.
func (s *Store) syncs(dirtyTransition bool) bool {
	return s.policy == SyncAlways || (s.policy == SyncDirty && dirtyTransition)
}

// fsync is every sync the store makes: file, directory and journal alike.
var fsync = (*os.File).Sync

// MarkClean records a dirty block's clean transition after its WRITE landed.
// The generation must match the persisted one, mirroring the cache's own
// lost-update fence.
func (s *Store) MarkClean(key string, bn uint64, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ok() {
		return
	}
	fm := s.files[key]
	if fm == nil {
		return
	}
	bm, ok := fm.blocks[bn]
	if !ok || bm.gen != gen || !bm.dirty {
		return
	}
	p := s.payload(opClean, key, 16)
	tail := p[3+len(key):]
	binary.BigEndian.PutUint64(tail[0:], bn)
	binary.BigEndian.PutUint64(tail[8:], gen)
	s.appendRecordLocked(p, true)
	bm.dirty = false
	fm.blocks[bn] = bm
}

// DropBlock removes one block from the mirror.
func (s *Store) DropBlock(key string, bn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ok() {
		return
	}
	s.dropBlockLocked(key, bn)
}

func (s *Store) dropBlockLocked(key string, bn uint64) {
	fm := s.files[key]
	if fm == nil {
		return
	}
	bm, ok := fm.blocks[bn]
	if !ok {
		return
	}
	p := s.payload(opDropBlock, key, 8)
	binary.BigEndian.PutUint64(p[3+len(key):], bn)
	s.appendRecordLocked(p, bm.dirty)
	os.Remove(s.blockPath(key, bn, bm.gen))
	s.bytes -= int64(bm.dlen)
	delete(fm.blocks, bn)
	if len(fm.blocks) == 0 {
		delete(s.files, key)
	}
}

// DropFile removes every trace of key.
func (s *Store) DropFile(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ok() {
		return
	}
	fm := s.files[key]
	if fm == nil {
		return
	}
	dirty := false
	for _, bm := range fm.blocks {
		if bm.dirty {
			dirty = true
		}
	}
	p := s.payload(opDropFile, key, 0)
	s.appendRecordLocked(p, dirty)
	for bn, bm := range fm.blocks {
		os.Remove(s.blockPath(key, bn, bm.gen))
		s.bytes -= int64(bm.dlen)
	}
	delete(s.files, key)
}

// SetFileMeta records the identity attributes recovery hands back to the
// cache. Identical consecutive metas are deduplicated.
func (s *Store) SetFileMeta(key string, mtimeSec, mtimeNsec uint32, size uint64, localChange uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ok() {
		return
	}
	fm := s.files[key]
	if fm == nil {
		// Meta for a file with no persisted blocks is useless on recovery.
		return
	}
	if fm.mtimeSec == mtimeSec && fm.mtimeNsec == mtimeNsec && fm.size == size && fm.localChange == localChange {
		return
	}
	p := s.payload(opMeta, key, 4+4+8+4)
	tail := p[3+len(key):]
	binary.BigEndian.PutUint32(tail[0:], mtimeSec)
	binary.BigEndian.PutUint32(tail[4:], mtimeNsec)
	binary.BigEndian.PutUint64(tail[8:], size)
	binary.BigEndian.PutUint32(tail[16:], localChange)
	s.appendRecordLocked(p, false)
	fm.mtimeSec, fm.mtimeNsec = mtimeSec, mtimeNsec
	fm.size = size
	fm.localChange = localChange
}

// Checkpoint forces a manifest compaction.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ok() {
		return s.failed
	}
	err := s.checkpointLocked()
	s.failLocked(err)
	return err
}

// checkpointLocked writes the full index to MANIFEST.tmp, fsyncs, renames
// it over MANIFEST (atomic: recovery sees either the old or the new
// checkpoint, never a blend), fsyncs the directory so the rename is
// durable, and truncates the journal. A crash between rename and truncate
// leaves stale journal records whose replay over the new manifest is
// idempotent — records are absolute state.
func (s *Store) checkpointLocked() error {
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := &manifestWriter{f: f}
	w.write([]byte(manifestMagic))
	keys := make([]string, 0, len(s.files))
	for key := range s.files {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fm := s.files[key]
		bns := make([]uint64, 0, len(fm.blocks))
		for bn := range fm.blocks {
			bns = append(bns, bn)
		}
		sort.Slice(bns, func(i, j int) bool { return bns[i] < bns[j] })
		for _, bn := range bns {
			bm := fm.blocks[bn]
			p := s.payload(opPut, key, 8+8+1+4+4)
			tail := p[3+len(key):]
			binary.BigEndian.PutUint64(tail[0:], bn)
			binary.BigEndian.PutUint64(tail[8:], bm.gen)
			tail[16] = 0
			if bm.dirty {
				tail[16] = 1
			}
			binary.BigEndian.PutUint32(tail[17:], bm.dlen)
			binary.BigEndian.PutUint32(tail[21:], bm.dcrc)
			w.record(p)
		}
		p := s.payload(opMeta, key, 4+4+8+4)
		tail := p[3+len(key):]
		binary.BigEndian.PutUint32(tail[0:], fm.mtimeSec)
		binary.BigEndian.PutUint32(tail[4:], fm.mtimeNsec)
		binary.BigEndian.PutUint64(tail[8:], fm.size)
		binary.BigEndian.PutUint32(tail[16:], fm.localChange)
		w.record(p)
	}
	if w.err == nil && s.policy != SyncNone {
		w.err = fsync(f)
	}
	if cerr := f.Close(); w.err == nil {
		w.err = cerr
	}
	if w.err != nil {
		os.Remove(tmp)
		return w.err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return err
	}
	if s.policy != SyncNone {
		if d, err := os.Open(s.dir); err == nil {
			fsync(d)
			d.Close()
		}
	}
	if s.journal != nil {
		if err := s.journal.Truncate(0); err != nil {
			return err
		}
		if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
			return err
		}
	}
	s.jbytes = 0
	return nil
}

type manifestWriter struct {
	f   *os.File
	err error
}

func (w *manifestWriter) write(b []byte) {
	if w.err == nil {
		_, w.err = w.f.Write(b)
	}
}

func (w *manifestWriter) record(payload []byte) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	w.write(hdr[:])
	w.write(payload)
}

// Close checkpoints and releases the journal. After Close every mutation
// no-ops.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.failed
	}
	var err error
	if s.failed == nil {
		err = s.checkpointLocked()
	}
	if s.journal != nil {
		if cerr := s.journal.Close(); err == nil {
			err = cerr
		}
	}
	if s.blk != nil {
		s.blk.Close()
	}
	s.closed = true
	s.failLocked(err)
	return err
}

// Abandon releases the store without checkpointing or syncing — the
// SIGKILL-equivalent teardown the chaos harness uses: whatever the crash
// ordering left on disk is exactly what the next Open must recover from.
// Late stragglers (an in-flight flush completing after the crash) no-op.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.journal != nil {
		s.journal.Close()
	}
	if s.blk != nil {
		s.blk.Close()
	}
}

// Usage reports the indexed footprint, for gauges and tests.
func (s *Store) Usage() (files, blocks int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, fm := range s.files {
		blocks += len(fm.blocks)
	}
	return len(s.files), blocks, s.bytes
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }
