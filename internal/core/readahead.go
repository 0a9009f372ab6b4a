package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Sequential readahead. Each file carries a small stream detector (where a
// sequential reader is, how far prefetch has got); the session carries one
// pipeline depth — the window — because how many READs it takes to fill the
// link is a property of the link, not of the file. The window starts at
// Config.ReadAhead and doubles each time a demand read stalls on an in-flight
// prefetch, until the READs it keeps in flight already queue behind the
// link's bandwidth rather than wait out its latency. Every block still
// crosses the wide area in its own READ, exactly once: joins stay
// block-granular.

// readStream is one file's sequential-read detector. The zero value is "no
// stream". It is guarded by the session cache's mutex and reclaimed with the
// file's cache entry.
type readStream struct {
	next uint64 // block a sequential reader asks for next
	// frontier is the first block prefetch has not requested yet; 0 until a
	// second sequential read confirms the pattern.
	frontier uint64
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

// observe folds one upstream RPC's latency into the link measurements:
// every reply bounds the round trip, a READ reply carrying a full block also
// bounds what a block costs.
func (r *readPipe) observe(lat time.Duration, res wireDec, blockSize int) {
	observeMin(&r.minRTT, lat)
	if rr, ok := res.(*nfs3.ReadRes); ok && rr.Status == nfs3.OK && int(rr.Count) == blockSize {
		observeMin(&r.minBlock, lat)
	}
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
// detection at bn. due reports that the reader has consumed half of what
// prefetch requested ahead of it, so the next chunk should be issued; busy
// that a prefetch of bn itself is in flight.
func (sc *sessionCache) streamRead(fh nfs3.FH, bn uint64, window int64) (due, busy bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.fileFor(fh.Key())
	_, busy = fc.fetching[bn]
	st := &fc.stream
	switch {
	case bn == 0:
		st.frontier = 0 // a pass from the top starts the pipeline afresh
	case bn != st.next:
		*st = readStream{next: bn + 1}
		return false, busy
	}
	st.next = bn + 1
	if st.frontier < st.next {
		st.frontier = st.next
	}
	return st.next+uint64(window)/2 >= st.frontier, busy
}

// beginFetches claims the next chunk of fh's stream — from its frontier to
// `window` blocks past the reader, never past EOF as the cached attributes
// have it, and never more than brings the file's prefetches in flight to
// `window` — and returns the blocks to fetch. Blocks already cached (clean
// or dirty) or in flight are skipped, so each crosses the wide area once; a
// non-cacheable handle is never prefetched.
func (sc *sessionCache) beginFetches(fh nfs3.FH, window int64) []uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.dataFor(fh.Key())
	if fc == nil || fc.noncacheable || fc.stream.frontier == 0 {
		return nil // no confirmed stream: reset since streamRead, or a random read
	}
	attr, ok := sc.attrLocked(fc)
	if !ok {
		return nil
	}
	bs := uint64(sc.bs)
	eof := (fc.adjust(attr).Size + bs - 1) / bs
	st := &fc.stream
	hi := min(st.next+uint64(window), eof)
	var claimed []uint64
	bn := st.frontier
	for ; bn < hi && int64(len(fc.fetching)) < window; bn++ {
		_, cached := fc.blocks[bn]
		if _, inflight := fc.fetching[bn]; cached || inflight {
			continue
		}
		fc.fetching[bn] = nil
		claimed = append(claimed, bn)
	}
	switch {
	case bn >= eof:
		st.frontier = streamDone
	case bn > st.frontier:
		st.frontier = bn
	}
	return claimed
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

// endFetch clears a block's in-flight prefetch mark and returns the demand
// reads parked on it.
func (sc *sessionCache) endFetch(fh nfs3.FH, bn uint64) []*vclock.Waiter {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.files[fh.Key()]
	if fc == nil {
		return nil
	}
	ws := fc.fetching[bn]
	delete(fc.fetching, bn)
	return ws
}

// --- proxy client side -------------------------------------------------------

// readAhead runs the pipeline for an aligned demand read of block bn: it
// advances the file's stream, claims the next chunk of prefetches when one is
// due, and — when a prefetch of bn itself is in flight — waits for it rather
// than double-issuing the wide-area READ, reporting that it did (a join). The
// sequential hit that needs neither costs one pass through the cache mutex.
// A chunk it returns is the caller's to issue (issueChunk); before sleeping on
// a join it has issued the chunk itself.
func (p *ProxyClient) readAhead(parent uint64, fh nfs3.FH, bn uint64) (joined bool, chunk prefetchChunk) {
	window := p.ra.window.Load()
	due, busy := p.cache.streamRead(fh, bn, window)
	if !due && !busy {
		return false, chunk
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
		chunk = p.claimChunk(parent, fh, window)
	}
	if joined {
		p.issueChunk(chunk)
		p.clk.WaitAs(w, "readahead fetch")
		return true, prefetchChunk{}
	}
	return false, chunk
}

// prefetchChunk is a run of a stream's blocks claimed for prefetch (marked in
// flight) whose READs have not been sent yet. The zero value is no chunk.
type prefetchChunk struct {
	parent uint64 // the demand read's request ID
	fh     nfs3.FH
	window int64
	blocks []uint64
	rids   []uint64 // one request ID per block
}

// claimChunk claims the stream's next chunk under a window of `window`.
func (p *ProxyClient) claimChunk(parent uint64, fh nfs3.FH, window int64) prefetchChunk {
	if p.stopped.Load() {
		return prefetchChunk{}
	}
	blocks := p.cache.beginFetches(fh, window)
	// Each prefetch is its own traced request, parented on the demand read
	// that triggered it. Minted here, before any actor is spawned, so the ID
	// order is deterministic regardless of actor scheduling.
	rids := make([]uint64, len(blocks))
	for i := range rids {
		rids[i] = p.node.Mint()
	}
	return prefetchChunk{parent, fh, window, blocks, rids}
}

// issueChunk sends a claimed chunk: one READ per block, sent one after
// another by a single actor so that they cross the link — and their replies
// come back over it — in block order, the order the reader will ask for them,
// and waited for by one actor each so that the round trips overlap. Sent from
// the waiting actors, the chunk would leave in whatever order the scheduler
// ran those, and the reader's next blocks could be the last to arrive. For
// the same reason a demand read that has a READ of its own to send issues the
// chunk after it: the block the reader is waiting for goes first.
func (p *ProxyClient) issueChunk(c prefetchChunk) {
	if len(c.blocks) == 0 {
		return
	}
	p.clk.Go("gvfs-readahead", func() {
		bs := uint64(p.cfg.BlockSize)
		for i, bn := range c.blocks {
			rid := c.rids[i]
			call := p.startUpstream(rid, nfs3.ProcRead, &nfs3.ReadArgs{FH: c.fh, Offset: bn * bs, Count: uint32(bs)})
			p.clk.Go("gvfs-readahead", func() { p.prefetchBlock(c.parent, rid, c.fh, bn, c.window, call) })
		}
	})
}

// prefetchBlock collects one block's READ into the session cache. The
// in-flight mark is cleared and waiting demand reads are woken whether or not
// the fetch succeeded — on failure they simply forward.
func (p *ProxyClient) prefetchBlock(parent, rid uint64, fh nfs3.FH, bn uint64, window int64, c nfsCall) {
	defer func() {
		for _, w := range p.cache.endFetch(fh, bn) {
			w.Wake()
		}
	}()
	bs := uint64(p.cfg.BlockSize)
	var res nfs3.ReadRes
	sp := obs.Span{Req: rid, Parent: parent, Op: "READAHEAD", Model: shortModel(p.cfg.Model), Start: c.start}
	if p.node.Tracing() {
		sp.FH = fh.String()
		sp.Detail = "win=" + strconv.FormatInt(window, 10)
	}
	rep, err := p.finishUpstream(c, &res, nil)
	if err != nil {
		sp.End = p.node.Now()
		sp.Err = err.Error()
		p.node.Record(sp)
		return
	}
	sp.End = p.node.Now()
	if res.Status == nfs3.OK && res.Attr.Present && (uint64(res.Count) == bs || res.EOF) {
		p.cache.putBlock(fh, bn, res.Data, res.Attr.Attr, true)
		p.met.readAheads.Inc()
	}
	rep.Release() // the cache copied what it kept
	sp.Bytes = int64(res.Count)
	if res.Status != nfs3.OK {
		sp.Err = res.Status.String()
	}
	p.node.Record(sp)
}
