package core

import (
	"sync/atomic"
	"time"

	"repro/internal/nfs3"
	"repro/internal/vclock"
)

// Sequential readahead: the READ kinds of speculation (speculation.go). Each
// file carries a small stream detector (where a sequential reader is, how far
// prefetch has got); the session carries one pipeline depth — the window, in
// blocks — because how much it takes in flight to fill the link is a property
// of the link, not of the file. The window starts at Config.ReadAhead (no
// pipe: readahead off) and doubles each time a demand read stalls on an
// in-flight prefetch, until the blocks it keeps in flight already queue behind
// the link's bandwidth rather than wait out its latency. A demand read that
// streamRead finds due — the reader has consumed a quarter of the window —
// claims the stream's next chunk (claimStreamLocked). Its blocks cross the
// wide area exactly once, in one READ per run of adjacent blocks up to a
// quarter of the window (runsOf), so three quarters of the window stay on the
// link; joins stay block-granular, each block of a run landing on its own.
//
// Across files. The window does not stop at end-of-file. The session learns
// which file a sequential reader opens after which — from two events of the
// data path, a reader consuming a file's last block and the next demand read
// of another file's block 0 — and when a stream has been claimed to EOF the
// window spills into the head of the file that followed last time, so the
// link stays full across the boundary (claimSpillLocked). Only under polling:
// a speculative READ under delegation would make this client a sharer of a
// file nobody here asked for, and could recall another client's write
// delegation for it.
//
// After a remote write. A kernel opens a file by revalidating it with GETATTR
// and reads it only once the answer is in, so a file another client has just
// rewritten costs two round trips in series: the GETATTR, then the READs. When
// the session has the evidence — the file's attributes were taken by news of
// another client's write (a GETINV entry; a recall of this client's read
// delegation naming a WRITE's offset), and its last sequential pass here read
// it through — the GETATTR that revalidates it carries the file's head behind
// it, up to a window (claimReread): one round trip. Under delegation too: the
// GETATTR is already this client's read access to the file, and the READs
// behind it conflict with nothing it does not.

// readStream is one file's sequential-read detector. The zero value is "no
// stream". It is guarded by the session cache's mutex and reclaimed with the
// file's cache entry.
type readStream struct {
	next uint64 // block a sequential reader asks for next
	// frontier is the first block prefetch has not requested yet; 0 until a
	// second sequential read confirms the pattern. With next still 0 it is a
	// predecessor's spill, or a revalidating GETATTR (reread), that got this
	// far: the reader has yet to arrive.
	frontier uint64
	// eof is the file's length in blocks as the cached attributes had it when
	// frontier became streamDone; meaningful only then.
	eof uint64
	// reread marks a stream begun by a revalidating GETATTR (claimReread), until
	// its reader arrives: it was claimed against the last-known size, which the
	// GETATTR's answer is compared with (putAttrLocked), and its head is not a spill.
	reread bool
}

// streamDone is a stream's frontier once prefetch has reached EOF: no read
// short of a restart makes another chunk due.
const streamDone = ^uint64(0)

// readPipe is the session's learned readahead pipeline.
type readPipe struct {
	limit  int64        // window cap, in blocks
	window atomic.Int64 // current depth, in blocks
	// The link as the session has measured it (ns; 0 = nothing seen yet):
	// minRTT is the fastest upstream RPC of any kind — a small message's
	// round trip — and minBlock the fastest full-block READ. Their
	// difference is what one block costs the link's bandwidth.
	minRTT, minBlock atomic.Int64
}

// init sizes the pipeline from the session's configuration: it starts at
// Config.ReadAhead and may grow to what one READ may carry or a quarter of
// the cache, whichever is less, so prefetch never evicts its own unread
// blocks.
func (r *readPipe) init(cfg Config) {
	if cfg.ReadAhead <= 0 {
		return
	}
	bytes := min(int64(nfs3.MaxIOSize), cfg.CacheBytes/4)
	r.limit = max(bytes/int64(cfg.BlockSize), 1)
	r.window.Store(min(int64(cfg.ReadAhead), r.limit))
}

// off reports that readahead is off: Config.ReadAhead sized no pipe.
func (r *readPipe) off() bool { return r.limit == 0 }

// observe folds one upstream RPC's latency into the link measurements: a
// READ reply carrying a full block bounds what a block costs, any other reply
// the round trip. A block's latency is not taken for the round trip: before a
// small RPC has been timed, that would make a block's wire time zero (grow).
func (r *readPipe) observe(lat time.Duration, res wireDec, blockSize int) {
	if r.off() {
		return
	}
	if rr, ok := res.(*nfs3.ReadRes); ok && rr.Status == nfs3.OK && int(rr.Count) == blockSize {
		observeMin(&r.minBlock, lat)
		return
	}
	observeMin(&r.minRTT, lat)
}

// observeMin folds one latency sample into a running minimum.
func observeMin(m *atomic.Int64, d time.Duration) {
	for cur := m.Load(); d > 0 && (cur == 0 || int64(d) < cur); cur = m.Load() {
		if m.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// grow doubles the window after a demand read stalled on an in-flight
// prefetch, returning the new depth (0 = unchanged). The stall says the pipe
// ran dry under the reader; whether a deeper one would help depends on what
// it ran dry of. Chunked issue keeps at least half a window in flight. While
// those blocks take less time on the wire than one block takes to come back,
// the round trip is the bound and more READs in flight hide more of it. Once
// they take longer, each prefetch is already queued behind the link's
// bandwidth for more than a round trip — its latency is its own window's
// queueing — and a deeper window would only queue more. Until a small RPC
// has been timed the whole block latency counts as wire time, which holds
// the window where it is.
func (r *readPipe) grow() int64 {
	w := r.window.Load()
	block := r.minBlock.Load()
	if wire := block - r.minRTT.Load(); block == 0 || (w/2)*wire >= block {
		return 0
	}
	nw := min(2*w, r.limit)
	if nw == w || !r.window.CompareAndSwap(w, nw) {
		return 0
	}
	return nw
}

// --- session cache side: stream state and in-flight marks --------------------

// streamRead advances fh's stream for a demand read of block bn under a
// window of `window` blocks. A read of block 0, or of the block after the
// previous read, continues (or starts) the stream; any other restarts
// detection at bn. due reports that the reader has consumed a quarter of the
// window since prefetch last requested up to it — in this file or, once this
// one is claimed to EOF, in the one expected to follow — so the next chunk
// should be issued; busy that a prefetch of bn itself is in flight and is what
// the reader must wait for. A block the cache holds, with attributes to serve it by, is not
// waited for even while it is fetched again (a revalidating GETATTR's claim
// whose answer did not drop it): a held, servable block is served.
func (sc *sessionCache) streamRead(fh nfs3.FH, bn uint64, window int64) (due, busy bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.fileFor(fh.Key())
	_, busy = fc.fetching[bn]
	busy = busy && (fc.blocks[bn] == nil || !fc.attrLink.on())
	st := &fc.stream
	switch {
	case bn == 0:
		// A pass from the top starts the pipeline afresh, unless the file read
		// before this one already spilled into its head, or the GETATTR that
		// revalidated it asked for it again.
		if !sc.openLocked(fc, busy) {
			*st = readStream{}
		}
	case bn != st.next:
		*st = readStream{next: bn + 1}
		fc.readThrough = false
		return false, busy
	}
	st.next = bn + 1
	if st.frontier < st.next {
		st.frontier = st.next
	}
	if st.frontier != streamDone {
		return st.next+3*uint64(window)/4 >= st.frontier, busy
	}
	if st.next >= st.eof {
		sc.lastDone, fc.readThrough = fc, true
	}
	y, _ := sc.spillTargetLocked(fc, window)
	return y != nil, busy
}

// claimLocked marks the blocks of fc in [from, hi) that are neither dirty nor
// in flight — nor, unless refetch, cached clean — as being prefetched, for as
// long as fewer than limit of the file's blocks are, and returns them and the
// block it stopped at.
func (fc *cachedFile) claimLocked(from, hi uint64, limit int64, refetch bool) (claimed []uint64, bn uint64) {
	for bn = from; bn < hi && int64(len(fc.fetching)) < limit; bn++ {
		blk := fc.blocks[bn]
		if _, inflight := fc.fetching[bn]; inflight || blk != nil && (blk.dirty || !refetch) {
			continue
		}
		fc.fetching[bn] = nil
		claimed = append(claimed, bn)
	}
	return claimed, bn
}

// blocksLocked is fc's length in blocks as attr, adjusted for buffered writes,
// has it.
func (sc *sessionCache) blocksLocked(fc *cachedFile, attr nfs3.Fattr) uint64 {
	bs := uint64(sc.bs)
	return (fc.adjust(attr).Size + bs - 1) / bs
}

// claimedLocked is a READ kind's speculation on fc: the blocks claimed, if
// any, cut into the READs that will carry them, and the ticket taken with
// them.
func (sc *sessionCache) claimedLocked(kind specKind, fh nfs3.FH, fc *cachedFile, blocks []uint64, window int64) (s speculation) {
	if len(blocks) > 0 {
		s = speculation{kind: kind, due: true, ticket: sc.ticketLocked(fh), blocks: blocks, runs: runsOf(blocks, window), window: window}
	}
	return s
}

// claimChunk is the claim of a demand read of fh that streamRead found due:
// the stream's next chunk, and behind it whatever of the window now reaches
// into the file expected next.
func (sc *sessionCache) claimChunk(fh nfs3.FH, window int64) (own, spill speculation) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.claimStreamLocked(fh, window), sc.claimSpillLocked(fh, window)
}

// claimStreamLocked claims the next chunk of fh's stream — from its frontier
// to `window` blocks past the reader, never past EOF as the cached attributes
// have it, and never more than brings the file's prefetches in flight to
// `window`. Blocks already cached (clean or dirty) or in flight are skipped,
// so each crosses the wide area once; a non-cacheable handle is never
// prefetched.
func (sc *sessionCache) claimStreamLocked(fh nfs3.FH, window int64) speculation {
	fc := sc.dataFor(fh.Key())
	if fc == nil || fc.noncacheable || fc.stream.frontier == 0 {
		return speculation{} // no confirmed stream: reset since streamRead, or a random read
	}
	attr, ok := sc.attrLocked(fc)
	if !ok {
		return speculation{}
	}
	eof := sc.blocksLocked(fc, attr)
	st := &fc.stream
	claimed, bn := fc.claimLocked(st.frontier, min(st.next+uint64(window), eof), window, false)
	switch {
	case bn >= eof:
		st.frontier, st.eof = streamDone, eof
		if st.next >= eof {
			sc.lastDone, fc.readThrough = fc, true // a file that ends under its reader's first chunk
		}
	case bn > st.frontier:
		st.frontier = bn
	}
	return sc.claimedLocked(specStream, fh, fc, claimed, window)
}

// --- across files: the successor table and the spill ---------------------------

// openLocked is the successor table's learning event: a demand read of block 0
// of fc. Whichever other file a sequential reader finished last is followed by
// fc: the first link is believed at once; one that replaces a different
// successor must repeat before it is spilled into again, so an order that keeps
// changing wastes one spill per change and then nothing. Re-reading the file
// just finished links nothing. begun reports that fc's stream was begun by a
// predecessor's spill, or by the GETATTR that revalidated fc, whose head is
// still here (cached or in flight), so the reader's own stream carries on from
// that frontier.
func (sc *sessionCache) openLocked(fc *cachedFile, busy bool) (begun bool) {
	if st := &fc.stream; st.next == 0 && st.frontier != 0 {
		if blk := fc.blocks[0]; blk != nil || busy {
			begun = true
			if !st.reread && (busy || blk.unread) {
				sc.met.raSpills.Inc() // the head was requested for this reader
			}
			st.reread = false
		}
	}
	x := sc.lastDone
	if x == nil || x == fc {
		return begun
	}
	sc.lastDone = nil
	if x.succ == fc {
		x.succHeld = false
		return begun
	}
	replaced := x.succ != nil
	if y := x.succ; replaced && y.stream.next == 0 && y.stream.frontier != 0 {
		// The window went into y and the reader did not: its stream starts
		// over, and what the spill fetched ages out as wasted like any
		// abandoned prefetch.
		if y.spillPendingLocked() {
			sc.met.raSuccMisses.Inc()
		}
		y.stream = readStream{}
	}
	x.unlinkSuccLocked()
	if fc.pred != nil {
		fc.pred.unlinkSuccLocked() // one predecessor a record, so forget finds it
	}
	x.succ, fc.pred, x.succHeld = fc, x, replaced
	return begun
}

// spillPendingLocked reports whether a spill that began y's stream fetched
// anything still waiting for its reader. The stream reaches at most a window
// into y.
func (y *cachedFile) spillPendingLocked() bool {
	hi := y.stream.frontier
	if hi == streamDone {
		hi = y.stream.eof
	}
	for bn := uint64(0); bn < hi; bn++ {
		if _, inflight := y.fetching[bn]; inflight {
			return true
		}
		if blk := y.blocks[bn]; blk != nil && blk.unread {
			return true
		}
	}
	return false
}

// unlinkSuccLocked takes x's successor link down, both ends.
func (x *cachedFile) unlinkSuccLocked() {
	if x.succ != nil {
		x.succ.pred = nil
	}
	x.succ, x.succHeld = nil, false
}

// unlinkLocked takes fc out of the learned order (forget): no pointer to it
// stays behind.
func (sc *sessionCache) unlinkLocked(fc *cachedFile) {
	fc.unlinkSuccLocked()
	if fc.pred != nil {
		fc.pred.unlinkSuccLocked()
	}
	if sc.lastDone == fc {
		sc.lastDone = nil
	}
}

// spillTargetLocked returns the record the window of fc — its own stream
// claimed to EOF — should now continue into, and the block of it to go on from;
// nil when nothing is due. That takes a believed successor that has an EOF to
// stop at and is not being read by anyone (its stream never started, finished,
// or only ever begun by a spill), the polling model, and a reader within three
// quarters of a window of what has been requested ahead of it, counting
// through the end of fc into the successor: the cadence chunks use.
func (sc *sessionCache) spillTargetLocked(fc *cachedFile, window int64) (y *cachedFile, from uint64) {
	y = fc.succ
	if y == nil || fc.succHeld || sc.pol.model == ModelDelegation || !y.attrLink.on() {
		return nil, 0
	}
	st, yst := &fc.stream, &y.stream
	switch {
	case yst.next == 0:
		from = yst.frontier
	case yst.frontier == streamDone && yst.next >= yst.eof:
		// read to the end before: this pass starts from the top
	default:
		return nil, 0
	}
	if from == streamDone || st.next+3*uint64(window)/4 < st.eof+from {
		return nil, 0
	}
	return y, from
}

// claimSpillLocked claims the chunk of fh's successor that fh's window, its
// own stream claimed to EOF, reaches into: up to `window` blocks past the
// reader counted across the boundary, never past the successor's EOF as its
// cached attributes have it, skipping what is cached or in flight, and never
// bringing the two files' prefetches in flight together above `window`.
func (sc *sessionCache) claimSpillLocked(fh nfs3.FH, window int64) speculation {
	fc := sc.dataFor(fh.Key())
	if fc == nil || fc.stream.frontier != streamDone {
		return speculation{}
	}
	y, from := sc.spillTargetLocked(fc, window)
	if y == nil {
		return speculation{}
	}
	attr, _ := sc.attrLocked(y)
	eof := sc.blocksLocked(y, attr)
	// Blocks of fc the reader has yet to consume: at most three quarters of a
	// window, or nothing would be due.
	st := &fc.stream
	ahead := st.eof - min(st.next, st.eof)
	claimed, bn := y.claimLocked(from, min(uint64(window)-ahead, eof), window-int64(len(fc.fetching)), false)
	if bn >= eof {
		y.stream = readStream{frontier: streamDone, eof: eof}
	} else {
		y.stream = readStream{frontier: bn}
	}
	if len(claimed) == 0 {
		return speculation{}
	}
	sc.met.raSpillBlocks.Add(int64(len(claimed)))
	next, _ := nfs3.FHFromBytes([]byte(y.key)) // a key is a handle's bytes
	return sc.claimedLocked(specSpill, next, y, claimed, window)
}

// --- after a remote write: the revalidating GETATTR's claim -------------------

// claimReread is the claim a GETATTR the cache could not answer carries behind
// it, when the file's attributes were taken by news of another client's write
// and this session's last sequential pass read it through (and block 0 is
// still here, clean, under a cacheable handle the session has not just
// recovered from disk): blocks 0 up to `window`, never past EOF as last known,
// clean ones held included — the news is what makes them suspect — and dirty
// or in-flight ones skipped. The news is consumed, and the file's stream is
// begun for its reader the way a spill begins one.
func (sc *sessionCache) claimReread(fh nfs3.FH, window int64) speculation {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.dataFor(fh.Key())
	if fc == nil || !fc.remoteWrite || !fc.readThrough || fc.attrLink.on() || fc.noncacheable || fc.recovered {
		return speculation{}
	}
	if blk := fc.blocks[0]; blk == nil || blk.dirty {
		return speculation{}
	}
	fc.remoteWrite = false
	eof := sc.blocksLocked(fc, fc.attr)
	claimed, bn := fc.claimLocked(0, min(uint64(window), eof), window, true)
	if len(claimed) == 0 {
		return speculation{}
	}
	if bn >= eof {
		fc.stream = readStream{frontier: streamDone, eof: eof, reread: true}
	} else {
		fc.stream = readStream{frontier: bn, reread: true}
	}
	sc.met.raReopens.Inc()
	sc.met.raReopenBlocks.Add(int64(len(claimed)))
	return sc.claimedLocked(specReread, fh, fc, claimed, window)
}

// awaitFetch parks w on the in-flight prefetch of (fh, bn); it reports false
// if the prefetch has completed meanwhile.
func (sc *sessionCache) awaitFetch(fh nfs3.FH, bn uint64, w *vclock.Waiter) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.files[fh.Key()]
	if fc == nil {
		return false
	}
	ws, inflight := fc.fetching[bn]
	if inflight {
		fc.fetching[bn] = append(ws, w)
	}
	return inflight
}

// --- proxy client side -------------------------------------------------------

// readAhead runs the pipeline for an aligned demand read of block bn: it
// advances the file's stream, claims the next chunk of prefetches when one is
// due, and — when a prefetch of bn itself is in flight — waits for it rather
// than double-issuing the wide-area READ, reporting that it did (a join). The
// sequential hit that needs neither costs one pass through the cache mutex.
// A chunk it returns is the caller's to issue; before sleeping on a join it
// has issued the chunk itself.
func (p *ProxyClient) readAhead(parent uint64, fh nfs3.FH, bn uint64) (joined bool, chunk []speculation) {
	if p.ra.off() {
		return false, nil
	}
	window := p.ra.window.Load()
	due, busy := p.cache.streamRead(fh, bn, window)
	if !due && !busy {
		return false, nil
	}
	var w *vclock.Waiter
	if busy {
		w = p.clk.NewWaiter()
		if joined = p.cache.awaitFetch(fh, bn, w); joined {
			// The reader caught up with the pipeline: deepen it if the link
			// has room, and issue the deeper window's blocks before sleeping
			// on this one.
			if nw := p.ra.grow(); nw != 0 {
				p.met.readaheadWindow.Set(nw)
				window, due = nw, true
			}
		}
	}
	if due {
		chunk = p.streamClaim(parent, fh, window)
	}
	if joined {
		p.issue(chunk)
		p.clk.WaitAs(w, "readahead fetch")
		return true, nil
	}
	return false, chunk
}

// streamClaim claims the stream's next chunk under a window of `window`, and
// behind it whatever of the window now reaches into the file expected next.
func (p *ProxyClient) streamClaim(parent uint64, fh nfs3.FH, window int64) []speculation {
	if p.stopped.Load() {
		return nil
	}
	own, spill := p.cache.claimChunk(fh, window)
	return p.mint(parent, own, spill)
}

// rereadClaim claims what a GETATTR of fh the cache could not answer carries
// behind it (claimReread), parented on that GETATTR.
func (p *ProxyClient) rereadClaim(parent uint64, fh nfs3.FH) []speculation {
	if p.ra.off() || p.stopped.Load() {
		return nil
	}
	return p.mint(parent, p.cache.claimReread(fh, p.ra.window.Load()))
}
