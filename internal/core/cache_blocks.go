package core

import (
	"slices"
	"sort"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
	"repro/internal/vclock"
)

// cachedBlock is everything the cache knows about one block it holds. The
// record is created when the block's bytes enter the cache and is freed, with
// every mark on it, by dropBlockLocked — the only way a block leaves.
type cachedBlock struct {
	fc   *cachedFile
	bn   uint64
	data []byte
	// dirty blocks hold buffered writes; they stay off the LRU until flushed.
	dirty bool
	// gen is the file's write sequence at the last local write to the block
	// (0: never written here). A flush records the generation it copied and
	// only marks the block clean if no newer write landed while its WRITE was
	// in flight; otherwise the block stays dirty and the newer data is flushed
	// next round.
	gen uint64
	// flushing marks a block with a WRITE RPC in flight: takeDirtyRun refuses
	// it so concurrent flushers (periodic flush, recall chase, pre-SETATTR
	// flush, parallel flush workers) never double-issue a block.
	flushing bool
	// unread marks a prefetched block no demand read has consumed yet, so one
	// that leaves the cache first is counted as wasted.
	unread bool
	// lent marks data handed to a reader (blockLocked) since it was last
	// written: the reader may still be copying out of it after sc.mu is
	// released, so a local write gives the block a fresh slice instead of
	// writing over this one, and the slice is never recycled (releaseData).
	lent bool
	// stamp is the virtual time the block's bytes entered the cache (server
	// fetch or local write), feeding the staleness observatory: a cache hit's
	// measured age is relative to it.
	stamp time.Duration
	// link threads clean blocks into the session's byte-bounded LRU.
	link link[cachedBlock]
}

// --- data blocks ----------------------------------------------------------

// blockForLocked returns fc's record for block bn, a new empty one if the
// cache does not hold the block yet.
func (sc *sessionCache) blockForLocked(fc *cachedFile, bn uint64) *cachedBlock {
	blk := fc.blocks[bn]
	if blk == nil {
		if n := len(sc.spare); n > 0 {
			blk, sc.spare = sc.spare[n-1], sc.spare[:n-1]
		} else {
			blk = new(cachedBlock)
		}
		*blk = cachedBlock{fc: fc, bn: bn}
		blk.link.of = blk
		fc.blocks[bn] = blk
	}
	return blk
}

// blockLocked looks up a held block for a reader: a clean one moves to the
// front of the LRU, a prefetched one has found its demand read, and its bytes
// are lent until the next local write.
func (sc *sessionCache) blockLocked(key string, bn uint64) (*cachedFile, *cachedBlock) {
	fc := sc.files[key]
	if fc == nil {
		return nil, nil
	}
	blk := fc.blocks[bn]
	if blk != nil {
		if !blk.dirty {
			sc.lru.add(blk)
		}
		blk.unread, blk.lent = false, true
	}
	return fc, blk
}

// setData gives blk the bytes of buf, a buffer from bufpool.Get the block now
// owns, releasing the ones it held.
func (blk *cachedBlock) setData(buf []byte) {
	blk.releaseData()
	blk.data = buf
}

// releaseData gives the block's buffer up: back to the pool, unless it was
// lent — then a reader may still be copying out of it, and it is left to the
// garbage collector.
func (blk *cachedBlock) releaseData() {
	if blk.lent {
		bufpool.Abandon(blk.data)
	} else {
		bufpool.Put(blk.data)
	}
	blk.data, blk.lent = nil, false
}

// getBlock returns the cached block, and whether it was present.
func (sc *sessionCache) getBlock(fh nfs3.FH, bn uint64) ([]byte, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, blk := sc.blockLocked(fh.Key(), bn); blk != nil {
		return blk.data, true
	}
	return nil, false
}

// blockHit is what one pass through the cache tells a READ about a block it
// may serve: the bytes, and the file's metaHit with the stamp of the block
// rather than of the attributes.
type blockHit struct {
	data []byte
	metaHit
}

// readHit answers a READ of one block in one critical section: the cache holds
// the block, the file's attributes are validly cached, and either the model
// lets the file be served or it has buffered writes — dirty blocks are always
// ours to serve.
func (sc *sessionCache) readHit(fh nfs3.FH, bn uint64) (h blockHit, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, blk := sc.blockLocked(fh.Key(), bn)
	if blk == nil {
		return h, false
	}
	a, ok := sc.attrLocked(fc)
	if !ok || !(sc.servableLocked(fc) || fc.ndirty > 0) {
		return h, false
	}
	return blockHit{blk.data, metaHit{attr: fc.adjust(a), stamp: blk.stamp, dirty: fc.ndirty > 0}}, true
}

// landBlock caches data a forwarded READ or WRITE, sent under tk with
// trailers ts, carried for (fh, bn), tagged with the server attributes
// observed alongside it, unless the landing rule refuses it. A block
// readahead fetched lands through putBlockLocked, marked unread until a
// demand read consumes it.
func (sc *sessionCache) landBlock(tk ticket, ts Trailers, fh nfs3.FH, bn uint64, data []byte, attr nfs3.Fattr) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc := sc.landingLocked(tk, fh, ts.seqOf(fh), false); fc != nil {
		sc.putBlockLocked(sc.fileFor(fc.key), bn, data, attr, false)
	}
}

func (sc *sessionCache) putBlockLocked(fc *cachedFile, bn uint64, data []byte, attr nfs3.Fattr, prefetched bool) {
	sc.noteRecoveredLocked(fc, attr.Mtime)
	if fc.mtime != attr.Mtime {
		sc.dropCleanLocked(fc)
		fc.mtime = attr.Mtime
		if fc.localChange == 0 {
			fc.size = attr.Size
		}
	}
	blk := sc.blockForLocked(fc, bn)
	// An earlier prefetch of this block that nothing read is superseded.
	sc.dropUnreadLocked(blk)
	if blk.dirty {
		if prefetched {
			sc.met.raWasted.Inc()
		}
		return // never overwrite dirty data with server state
	}
	// Tail blocks (the EOF path) are stored at their natural length; full
	// blocks are padded to the block size. Serving code must therefore never
	// derive in-block offsets from len(block). The copy goes into a buffer of
	// its own: a reader may still be copying out of the one it replaces.
	sc.lru.remove(blk)
	buf := bufpool.Get(min(len(data), sc.bs))
	copy(buf, data)
	blk.setData(buf)
	blk.stamp = sc.nowLocked()
	blk.unread = prefetched
	sc.lru.add(blk)
	if sc.persist != nil {
		sc.persist.PutBlock(fc.key, bn, blk.data, false, blk.gen)
		sc.persistMetaLocked(fc)
	}
	sc.evictLocked()
}

// dropUnreadLocked forgets that blk was prefetched, counting the prefetch as
// wasted if no demand read consumed it.
func (sc *sessionCache) dropUnreadLocked(blk *cachedBlock) {
	if blk.unread {
		blk.unread = false
		sc.met.raWasted.Inc()
	}
}

// updateAfterWrite reconciles the cache with the reply of a forwarded WRITE
// of n bytes at off, using the weak-cache-consistency data to recognize our
// own modification: when the pre-op mtime matches the cached one, the mtime
// advance is ours and cached blocks stay valid — except the clean ones the
// write overlaps, whose bytes the server now holds newer. They go; the
// caller puts back a block the write covered whole. The reply was sent under
// tk with trailers ts: one the landing rule refuses (landsLocked) may have
// been forwarded before a read whose attributes the record now holds, or
// before a change an invalidation or a recall announced, so neither its
// attributes nor the record's can be trusted to be the newer. Both go, with
// the clean blocks, and the reply makes no record.
func (sc *sessionCache) updateAfterWrite(tk ticket, ts Trailers, fh nfs3.FH, off uint64, n int, wcc nfs3.WccData) {
	if !wcc.After.Present {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	after := wcc.After.Attr
	fc := sc.landingLocked(tk, fh, ts.seqOf(fh), false)
	if fc == nil {
		if fc = sc.files[fh.Key()]; fc != nil {
			sc.dropAttrLocked(fc)
			sc.dropCleanLocked(fc)
		}
		return
	}
	if fc.blocks != nil {
		if wcc.Before.Present {
			// The pre-op mtime is the server state the surviving clean blocks
			// are judged against: unchanged since the crash means revalidated.
			sc.noteRecoveredLocked(fc, wcc.Before.Attr.Mtime)
		}
		ours := wcc.Before.Present && wcc.Before.Attr.Mtime == fc.mtime
		if !ours && fc.mtime != after.Mtime {
			sc.dropCleanLocked(fc)
		}
		for bn := off / uint64(sc.bs); n > 0 && bn <= (off+uint64(n)-1)/uint64(sc.bs); bn++ {
			if blk := fc.blocks[bn]; blk != nil && !blk.dirty {
				sc.dropBlockLocked(blk)
			}
		}
		fc.mtime = after.Mtime
		if fc.localChange == 0 {
			fc.size = after.Size
		} else if after.Size > fc.size {
			fc.size = after.Size
		}
		sc.persistMetaLocked(fc)
	}
	sc.setAttrLocked(fc, after)
}

// writeDirty buffers a write locally (write-back / write delegation),
// returning the file's attributes as the writer must now see them (zero if
// they are no longer validly cached).
func (sc *sessionCache) writeDirty(fh nfs3.FH, off uint64, data []byte) nfs3.Fattr {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	if fc := sc.files[key]; fc != nil && fc.blocks == nil {
		// The first data this session holds of a file known by its
		// attributes alone: EOF is theirs until a write moves it past.
		fc.size = fc.attr.Size
	}
	fc := sc.fileFor(key)
	if fc.ndirty == 0 {
		fc.dirtyBase = fc.attr.Mtime
	}
	bs := uint64(sc.bs)
	for n := 0; n < len(data); {
		pos := off + uint64(n)
		bn := pos / bs
		bo := pos % bs
		chunk := min(int(bs-bo), len(data)-n)
		blk := sc.blockForLocked(fc, bn)
		sc.lru.remove(blk)
		if uint64(len(blk.data)) < bs || blk.lent {
			// A new block, or a short-stored tail being overwritten: dirty
			// blocks are always full-sized. Or bytes a reader may still be
			// copying out of: they do not change under it. A hole reads as
			// zeros.
			buf := bufpool.Get(int(bs))
			clear(buf[copy(buf, blk.data):])
			blk.setData(buf)
		}
		if !blk.dirty {
			blk.dirty = true
			fc.ndirty++
		}
		fc.wseq++
		blk.gen = fc.wseq
		blk.stamp = sc.nowLocked()
		sc.dropUnreadLocked(blk)
		copy(blk.data[bo:], data[n:n+chunk])
		if sc.persist != nil {
			sc.persist.PutBlock(key, bn, blk.data, true, blk.gen)
		}
		n += chunk
	}
	if end := off + uint64(len(data)); end > fc.size {
		fc.size = end
	}
	fc.localChange++
	sc.persistMetaLocked(fc)
	if a, ok := sc.attrLocked(fc); ok {
		return fc.adjust(a)
	}
	return nfs3.Fattr{}
}

// dirtyBlocksLocked returns the sorted dirty block numbers of fc.
func (fc *cachedFile) dirtyBlocksLocked() []uint64 {
	out := make([]uint64, 0, fc.ndirty)
	for bn, blk := range fc.blocks {
		if blk.dirty {
			out = append(out, bn)
		}
	}
	slices.Sort(out)
	return out
}

// dirtyBlocks returns the sorted dirty block numbers of fh.
func (sc *sessionCache) dirtyBlocks(fh nfs3.FH) []uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc := sc.files[fh.Key()]; fc != nil {
		return fc.dirtyBlocksLocked()
	}
	return nil
}

// dirtyFiles lists handles with buffered dirty data, in stable key order so
// flush passes issue their WRITEs in the same order every run. The handles
// are reconstructed from map keys.
func (sc *sessionCache) dirtyFiles() []nfs3.FH {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.dirtyFilesLocked()
}

func (sc *sessionCache) dirtyFilesLocked() []nfs3.FH {
	keys := make([]string, 0, len(sc.files))
	for key, fc := range sc.files {
		if fc.ndirty > 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var out []nfs3.FH
	for _, key := range keys {
		if fh, err := nfs3.FHFromBytes([]byte(key)); err == nil {
			out = append(out, fh)
		}
	}
	return out
}

// runLocked measures the write-back run that starts at bn: consecutive dirty
// blocks inside the file with no WRITE in flight, as many as fit maxBytes
// (the first always does), ending at a short tail. n is 0 when bn itself
// cannot be taken.
func (sc *sessionCache) runLocked(fc *cachedFile, bn uint64, maxBytes int) (n int, total uint64) {
	if fc.fenced {
		return 0, 0
	}
	bs := uint64(sc.bs)
	for b := bn; ; b++ {
		blk := fc.blocks[b]
		if blk == nil || !blk.dirty || blk.flushing || b*bs >= fc.size {
			break
		}
		count := min(bs, fc.size-b*bs)
		if n > 0 && total+count > uint64(maxBytes) {
			break
		}
		n++
		total += count
		if count < bs {
			break // short tail ends the run at EOF
		}
	}
	return n, total
}

// flushStarts returns the blocks a flush pass over fh should hand to
// takeDirtyRun, in order: the first block of each run the file's dirty blocks
// split into under maxBytes, worked out in one pass so parallel flush workers
// take whole runs instead of racing each other for adjacent blocks. A dirty
// block no run covers (in flight, or beyond a truncation, where its own take
// drops it) is its own start.
func (sc *sessionCache) flushStarts(fh nfs3.FH, maxBytes int) []uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.files[fh.Key()]
	if fc == nil {
		return nil
	}
	dirty := fc.dirtyBlocksLocked()
	starts := dirty[:0]
	for i := 0; i < len(dirty); {
		n, _ := sc.runLocked(fc, dirty[i], maxBytes)
		starts = append(starts, dirty[i])
		i += max(n, 1)
	}
	return starts
}

// takeDirtyRun extracts a run of consecutive dirty blocks starting at bn,
// staged into one pooled buffer for a single coalesced WRITE of up to
// maxBytes. Every block in the run is marked in flight until endFlush; gens
// carries each block's dirty generation so the flusher can pass them back to
// flushed individually (a racing write dirties just its own block again).
// The staging buffer is pool-owned: the caller must bufpool.Put it once the
// WRITE RPC has completed. ok is false when bn is no longer dirty or when
// another flusher already has a WRITE for it in flight.
func (sc *sessionCache) takeDirtyRun(fh nfs3.FH, bn uint64, maxBytes int) (data []byte, off uint64, bns, gens []uint64, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.dataFor(fh.Key())
	if fc == nil {
		return nil, 0, nil, nil, false
	}
	n, total := sc.runLocked(fc, bn, maxBytes)
	if n == 0 {
		bs := uint64(sc.bs)
		if blk := fc.blocks[bn]; blk != nil && blk.dirty && !blk.flushing && bn*bs >= fc.size {
			sc.dropBlockLocked(blk) // wholly beyond a truncation
		}
		return nil, 0, nil, nil, false
	}
	// The run is measured; stage it into a buffer sized once. Dirty blocks
	// are always stored full-sized (see writeDirty), so copy cannot run past
	// one.
	data = bufpool.Get(int(total))
	bns, gens = make([]uint64, n), make([]uint64, n)
	for i := range bns {
		blk := fc.blocks[bn+uint64(i)]
		bns[i], gens[i] = blk.bn, blk.gen
		copy(data[i*sc.bs:], blk.data)
		blk.flushing = true
	}
	fc.inflight += n
	return data, bn * uint64(sc.bs), bns, gens, true
}

// endFlush ends the in-flight WRITE of a run takeDirtyRun handed out (success
// or failure) and hands back, to be woken, the actors waiting out the file's
// write-back: each looks again and parks again if more is in flight.
func (sc *sessionCache) endFlush(fh nfs3.FH, bns []uint64) []*vclock.Waiter {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.dataFor(fh.Key())
	if fc == nil {
		return nil
	}
	for _, bn := range bns {
		if blk := fc.blocks[bn]; blk != nil {
			blk.flushing = false
		}
	}
	// Below zero: the run was taken from an entry since forgotten, and this is
	// a successor that never counted it.
	if fc.inflight -= len(bns); fc.inflight <= 0 {
		fc.inflight, fc.fenced = 0, false
	}
	ws := fc.flushWait
	fc.flushWait = nil
	return ws
}

// awaitFlushIdle parks a new waiter on fh's in-flight write-back and returns
// it, in the same critical section that saw the write-back in flight, so the
// endFlush that ends it cannot be missed. nil: nothing is in flight (the
// common case allocates no waiter).
func (sc *sessionCache) awaitFlushIdle(fh nfs3.FH, clk *vclock.Clock) *vclock.Waiter {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.files[fh.Key()]
	if fc == nil || fc.inflight == 0 {
		return nil
	}
	w := clk.NewWaiter()
	fc.flushWait = append(fc.flushWait, w)
	return w
}

// flushed marks a dirty block clean after its WRITE succeeded, adopting the
// server's post-write attributes. The full weak-cache-consistency data
// matters here: adopting the post-op mtime blindly would also adopt any
// foreign commit that slipped in before our flush, silently revalidating
// clean blocks that predate it — the next invalidation for this handle only
// drops attributes and trusts the mtime comparison to reconcile data. When
// the pre-op mtime does not match the cached one, another writer interleaved
// and every clean copy is suspect.
func (sc *sessionCache) flushed(fh nfs3.FH, bn uint64, gen uint64, wcc nfs3.WccData) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	fc := sc.dataFor(key)
	if fc == nil {
		return
	}
	blk := fc.blocks[bn]
	if blk != nil {
		// The WRITE is no longer in flight; a subsequent take may re-flush the
		// block (it stays dirty below when a newer write raced us).
		blk.flushing = false
	}
	if wcc.Before.Present {
		sc.noteRecoveredLocked(fc, wcc.Before.Attr.Mtime)
	}
	after := wcc.After
	if after.Present && wcc.Before.Present &&
		wcc.Before.Attr.Mtime != fc.mtime && fc.mtime != after.Attr.Mtime {
		sc.dropCleanLocked(fc)
	}
	if after.Present && wcc.Before.Present && wcc.Before.Attr.Mtime == fc.dirtyBase {
		fc.dirtyBase = after.Attr.Mtime
	}
	// Only mark the block clean if it is still the data we flushed: a write
	// that landed while the WRITE RPC was in flight took a later generation,
	// and clearing the dirty bit then would lose that newer data.
	if blk != nil && blk.dirty && blk.gen == gen {
		blk.dirty = false
		fc.ndirty--
		sc.lru.add(blk)
		// The WRITE's success proves these bytes are the server's latest
		// committed state for this block, superseding any commit that
		// interleaved since the local write. Re-stamp so the staleness
		// observatory ages the block from this flush, not from the
		// (possibly much older) local write it carried.
		blk.stamp = sc.nowLocked()
		if sc.persist != nil {
			sc.persist.MarkClean(key, bn, gen)
		}
	}
	if after.Present {
		fc.mtime = after.Attr.Mtime
		if fc.ndirty == 0 {
			fc.localChange = 0
			fc.size = after.Attr.Size
		}
		sc.setAttrLocked(fc, after.Attr)
	}
	sc.persistMetaLocked(fc)
	sc.evictLocked()
}

// noteUnstable records that the server acknowledged a WRITE of fh short of
// FILE_SYNC: the next COMMIT has to cross the wide area.
func (sc *sessionCache) noteUnstable(fh nfs3.FH) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.fileFor(fh.Key()).unstable++
}

// commitVerdict is how a COMMIT is answered once the file's write-back has
// drained.
type commitVerdict int

const (
	// commitForward: the server may hold unstable data of the file, or the
	// cache cannot tell (no entry, no attributes). The zero value, so doubt
	// forwards.
	commitForward commitVerdict = iota
	// commitLocal: everything this session wrote is on the server's stable
	// storage; the reply carries the cached post-flush attributes.
	commitLocal
	// commitLost: a write-back was refused and the dirty data dropped.
	commitLost
	// commitPending: blocks are still dirty or in flight (upstream
	// unreachable, or written again under the flush); the client retries.
	commitPending
	// commitFlush: the file has buffered writes the caller has not flushed
	// yet; it flushes, waits the write-back out and asks again.
	commitFlush
)

// settleCommit decides how a COMMIT of fh is answered; flushed says the caller
// has flushed the file and waited its write-back out (a file with nothing
// buffered needs neither, and is settled in this one pass). A loss is reported
// once. A local verdict means the model lets the cached post-flush attributes
// be served, and carries them. With a forward verdict comes the number of
// unstable WRITE replies the COMMIT will cover if it succeeds (commitCovered):
// one that arrives while the COMMIT is in flight is not among them, and makes
// the next COMMIT cross as well.
func (sc *sessionCache) settleCommit(fh nfs3.FH, flushed bool) (v commitVerdict, h metaHit, unstable int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.dataFor(fh.Key())
	switch {
	case fc == nil:
		return commitForward, h, 0
	case fc.ndirty > 0 && !flushed:
		return commitFlush, h, 0
	case fc.lost:
		fc.lost = false
		return commitLost, h, 0
	case fc.ndirty > 0 || fc.inflight > 0:
		return commitPending, h, 0
	case fc.unstable > 0:
		return commitForward, h, fc.unstable
	}
	if h, ok := sc.hitLocked(fc); ok {
		return commitLocal, h, 0
	}
	return commitForward, h, 0
}

// commitCovered records that a forwarded COMMIT of fh succeeded: the n
// unstable WRITE replies seen before it was sent are on stable storage now.
func (sc *sessionCache) commitCovered(fh nfs3.FH, n int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc := sc.files[fh.Key()]; fc != nil {
		fc.unstable = max(fc.unstable-n, 0)
	}
}

// hasDirty reports whether fh has buffered dirty blocks.
func (sc *sessionCache) hasDirty(fh nfs3.FH) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.files[fh.Key()]
	return fc != nil && fc.ndirty > 0
}

// dirtyBaseOf returns the server mtime fh's dirty blocks were written over.
func (sc *sessionCache) dirtyBaseOf(fh nfs3.FH) (nfs3.Time, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc := sc.dataFor(fh.Key()); fc != nil && fc.ndirty > 0 {
		return fc.dirtyBase, true
	}
	return nfs3.Time{}, false
}

// discardDirty abandons fh's dirty data: data the kernel client no longer
// wants (file removed, or truncated by an unchecked create), or, lost, data
// the server refused to take (the target is gone, the write-back was fenced,
// or corruption was detected after crash recovery per Section 4.3.4), whose
// acknowledged writes are gone, which the file's next COMMIT must say.
func (sc *sessionCache) discardDirty(fh nfs3.FH, lost bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc := sc.dataFor(fh.Key()); fc != nil {
		sc.discardDirtyLocked(fc, lost)
	}
}

func (sc *sessionCache) discardDirtyLocked(fc *cachedFile, lost bool) {
	if lost && fc.ndirty > 0 {
		fc.lost = true
	}
	for _, blk := range fc.blocks {
		if blk.dirty {
			sc.dropBlockLocked(blk)
		}
	}
	// Every block with a WRITE in flight was dirty and is gone now.
	fc.fenced = fc.inflight > 0
	fc.localChange = 0
	sc.persistMetaLocked(fc)
}

func (sc *sessionCache) dropCleanLocked(fc *cachedFile) {
	for _, blk := range fc.blocks {
		if !blk.dirty {
			sc.dropBlockLocked(blk)
		}
	}
}

// dropBlockLocked is how a block leaves the cache, whoever decided it should:
// off the LRU, out of the dirty count, counted as wasted if it was prefetched
// and never read, out of the file's table, its buffer released, and off the
// disk. The record is spare from here on: nobody may hold it past sc.mu.
func (sc *sessionCache) dropBlockLocked(blk *cachedBlock) {
	fc := blk.fc
	sc.lru.remove(blk)
	if blk.dirty {
		fc.ndirty--
	}
	sc.dropUnreadLocked(blk)
	delete(fc.blocks, blk.bn)
	blk.releaseData()
	sc.spare = append(sc.spare, blk)
	if sc.persist != nil {
		sc.persist.DropBlock(fc.key, blk.bn)
	}
}

func (sc *sessionCache) evictLocked() {
	for blk := sc.lru.oldest(); blk != nil && sc.lru.bytes > sc.maxB; blk = sc.lru.oldest() {
		sc.dropBlockLocked(blk)
	}
}

// lruList is the byte-bounded ring of clean blocks. A block's data may only
// be replaced while it is off.
type lruList struct {
	ring[cachedBlock]
	bytes int64
}

// add puts blk at the front, whether or not it was on the list.
func (l *lruList) add(blk *cachedBlock) {
	l.remove(blk)
	l.bump(&blk.link)
	l.bytes += int64(len(blk.data))
}

// remove takes blk off the list if it is on it.
func (l *lruList) remove(blk *cachedBlock) {
	if blk.link.on() {
		l.ring.remove(&blk.link)
		l.bytes -= int64(len(blk.data))
	}
}
