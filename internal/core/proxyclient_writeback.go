package core

import (
	"sync"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
	"repro/internal/sunrpc"
)

// recallFlushReq is one queued background write-back (recall with a large
// dirty set); rid is the recall's trace ID so the flush WRITEs join its
// causal chain.
type recallFlushReq struct {
	rid uint64
	fh  nfs3.FH
}

// recallFlushWorkers bounds concurrent background recall flushers, so a recall
// storm (a flood of conflicting requests during a flush) cannot start one
// flush actor per recall; the per-file WRITE pipelining inside flushFile
// already provides parallelism, so a small pool drains a storm without
// flooding the upstream link. gvfs_client_recall_flushers_peak records the
// high-water.
const recallFlushWorkers = 2

// queueRecallFlush schedules a background write-back of fh's remaining dirty
// blocks, starting a drainer actor only while fewer than recallFlushWorkers
// are running. A flush already queued for the same file is coalesced: one
// flushFile pass writes back every dirty block the file has by then.
func (p *ProxyClient) queueRecallFlush(rid uint64, fh nfs3.FH) {
	if p.stopped.Load() {
		return
	}
	p.mu.Lock()
	for _, r := range p.recallFlushQ {
		if r.fh.Key() == fh.Key() {
			p.mu.Unlock()
			return
		}
	}
	p.recallFlushQ = append(p.recallFlushQ, recallFlushReq{rid: rid, fh: fh})
	if p.recallFlushers >= recallFlushWorkers {
		p.mu.Unlock()
		return
	}
	p.recallFlushers++
	if n := int64(p.recallFlushers); n > p.met.recallFlushPeak.Value() {
		p.met.recallFlushPeak.Set(n)
	}
	p.mu.Unlock()
	p.clk.Go("gvfs-recall-flush:"+p.cred.ClientID, p.drainRecallFlushes)
}

// drainRecallFlushes runs queued background flushes until the FIFO empties,
// then exits (the next recall restarts a drainer).
func (p *ProxyClient) drainRecallFlushes() {
	for {
		p.mu.Lock()
		if len(p.recallFlushQ) == 0 || p.stopped.Load() {
			p.recallFlushers--
			p.mu.Unlock()
			return
		}
		req := p.recallFlushQ[0]
		p.recallFlushQ = p.recallFlushQ[1:]
		p.mu.Unlock()
		p.flushFile(req.rid, req.fh)
	}
}

// flushLoop periodically writes back dirty blocks.
func (p *ProxyClient) flushLoop() {
	for {
		p.clk.Sleep(p.cfg.FlushInterval)
		if p.stopped.Load() {
			return
		}
		p.flushAll(0)
	}
}

func (p *ProxyClient) flushAll(rid uint64) {
	var items []flushItem
	for _, fh := range p.cache.dirtyFiles() {
		items = p.appendRuns(items, fh)
	}
	p.flushParallel(rid, items)
}

// appendRuns queues fh's write-back: one item per coalesced run, not per
// block, so parallel workers each take a whole run.
func (p *ProxyClient) appendRuns(items []flushItem, fh nfs3.FH) []flushItem {
	for _, bn := range p.cache.flushStarts(fh, p.cfg.MaxWriteBytes) {
		items = append(items, flushItem{fh: fh, bn: bn})
	}
	return items
}

// flushFile writes back every dirty block of fh, then waits until no flush
// of fh remains in flight — its own or a concurrent actor's — so callers
// (SETATTR truncation, COMMIT, recalls) may order upstream operations after
// the write-back. What became of the data is in the cache entry afterwards
// (settleCommit): blocks an unreachable upstream left dirty, or the mark a
// refused WRITE leaves when it drops them.
func (p *ProxyClient) flushFile(rid uint64, fh nfs3.FH) {
	p.flushParallel(rid, p.appendRuns(nil, fh))
	p.waitFlushIdle(fh)
}

// flushItem is one write-back run queued by its first block.
type flushItem struct {
	fh nfs3.FH
	bn uint64
}

// flushParallel writes back the given runs with up to
// Config.FlushParallelism WRITE RPCs in flight at once, so N runs cost about
// N/W round-trips. Blocks another actor is already flushing are skipped
// (takeDirtyRun refuses them), so concurrent flushers never double-issue a
// WRITE; the per-block dirty-generation protocol keeps re-dirtied blocks
// dirty regardless of completion order.
func (p *ProxyClient) flushParallel(rid uint64, items []flushItem) {
	w := p.cfg.FlushParallelism
	if w > len(items) {
		w = len(items)
	}
	if w <= 1 {
		for _, it := range items {
			p.flushBlock(rid, it.fh, it.bn)
		}
		return
	}
	var mu sync.Mutex
	next := 0
	g := p.clk.NewGroup()
	for i := 0; i < w; i++ {
		g.Go("gvfs-flush-worker", func() {
			for {
				mu.Lock()
				if next >= len(items) {
					mu.Unlock()
					return
				}
				it := items[next]
				next++
				mu.Unlock()
				p.flushBlock(rid, it.fh, it.bn)
			}
		})
	}
	g.Wait()
}

// flushDone clears a run's in-flight marks and wakes actors draining the
// file's flushes.
func (p *ProxyClient) flushDone(fh nfs3.FH, bns []uint64) {
	for _, w := range p.cache.endFlush(fh, bns) {
		w.Wake()
	}
}

// waitFlushIdle blocks (through the clock) until no flush of fh is in
// flight.
func (p *ProxyClient) waitFlushIdle(fh nfs3.FH) {
	for w := p.cache.awaitFlushIdle(fh, p.clk); w != nil; w = p.cache.awaitFlushIdle(fh, p.clk) {
		p.clk.WaitAs(w, "flush drain")
	}
}

// flushBlock writes dirty data starting at bn upstream as one WRITE. Adjacent
// dirty blocks are coalesced into the same RPC up to Config.MaxWriteBytes
// (takeDirtyRun), so a sequentially dirtied file flushes in a handful of
// large WRITEs instead of one per block; with MaxWriteBytes == BlockSize the
// run is exactly one block and the legacy per-block pipeline is preserved.
// Blocks another flusher already staged are refused by takeDirtyRun, so
// per-block flush queues and coalesced runs never double-issue a WRITE. The
// flush-pipeline depth gauge tracks WRITEs between takeDirtyRun and
// completion, so a scrape mid-flush shows how deep the write-back pipeline
// runs.
func (p *ProxyClient) flushBlock(rid uint64, fh nfs3.FH, bn uint64) error {
	data, off, bns, gens, ok := p.cache.takeDirtyRun(fh, bn, p.cfg.MaxWriteBytes)
	if !ok {
		return nil
	}
	// The staging buffer is pool-owned and is the WRITE's data on the wire,
	// sent by reference on every transmission (startUpstream); callUpstream
	// returns after the last, so it recycles here. Staging it is the one copy
	// the write-back makes: the snapshot taken under the cache lock.
	defer bufpool.Put(data)
	p.met.flushInflight.Add(1)
	defer p.met.flushInflight.Add(-1)
	defer p.flushDone(fh, bns)
	if p.cfg.DiskDelay > 0 {
		p.clk.Sleep(p.cfg.DiskDelay) // read the dirty run back from disk
	}
	if len(bns) > 1 {
		p.met.coalescedWrites.Inc()
	}
	args := nfs3.WriteArgs{FH: fh, Offset: off, Count: uint32(len(data)), Stable: nfs3.FileSync, Data: data}
	var res nfs3.WriteRes
	sent := false
	if m := p.cache.pendingMint(fh); m != nil {
		// The file's CREATE is still on its way: the WRITE names it, and
		// crosses now rather than behind its reply.
		res, sent = p.writeByCreate(rid, m, &args)
	}
	if !sent {
		if _, _, err := p.callUpstream(rid, nfs3.ProcWrite, &args, &res); err != nil {
			return err
		}
	}
	if res.Status == nfs3.ErrStale && p.cfg.Model == ModelDelegation && p.unwrittenSince(rid, fh) {
		// The lost-recall fence (Section 4.3.4): the server revoked a write
		// delegation it could not recall, and refuses what was buffered
		// under it lest it land over what the revocation let others write.
		// Nobody has: the file is as it was under the dirty blocks, which
		// may be newer than the revocation, acknowledged to the kernel
		// while the partition hid the recall. Discarding them would lose
		// those writes for nothing, so they go again; the fence is one shot.
		res = nfs3.WriteRes{}
		if _, _, err := p.callUpstream(rid, nfs3.ProcWrite, &args, &res); err != nil {
			return err
		}
	}
	if res.Status != nfs3.OK {
		// The write-back target is gone or rejecting writes (e.g. removed
		// behind our back): keeping the block dirty would retry forever.
		// Drop it, as the paper drops "corrupted" dirty data (Section 4.3.4).
		p.cache.discardDirty(fh, true)
		p.met.flushErrors.Inc()
		return &nfs3.Error{Status: res.Status, Proc: nfs3.ProcWrite}
	}
	for i, b := range bns {
		p.cache.flushed(fh, b, gens[i], res.Wcc)
	}
	p.met.flushedBlocks.Add(int64(len(bns)))
	return nil
}

// unwrittenSince reports whether fh's server mtime is still the one its dirty
// blocks were written over: no other client has changed the file since.
func (p *ProxyClient) unwrittenSince(rid uint64, fh nfs3.FH) bool {
	base, ok := p.cache.dirtyBaseOf(fh)
	if !ok {
		return false
	}
	var res nfs3.GetattrRes
	tk, ts, err := p.callUpstream(rid, nfs3.ProcGetattr, &nfs3.GetattrArgs{FH: fh}, &res)
	if err != nil || res.Status != nfs3.OK {
		return false
	}
	// The reply's trailer may grant a delegation: the attributes it covers
	// are these, unless a later decision overtook it.
	p.cache.landAttr(tk, ts, fh, res.Attr)
	return res.Attr.Mtime == base
}

// --- callback service (proxy server -> proxy client) ------------------------

func (p *ProxyClient) dispatchCallback(call *sunrpc.Call) sunrpc.AcceptStat {
	return p.traced(call, CallbackProgram, func(call *sunrpc.Call) sunrpc.AcceptStat {
		switch call.Proc {
		case ProcRecall:
			return p.handleRecall(call)
		case ProcRecallAll:
			return p.handleRecallAll(call)
		}
		return sunrpc.ProcUnavail
	})
}

// handleRecall serves a delegation recall (Section 4.3.2). Read recalls
// invalidate cached attributes; write recalls additionally force write-back
// of dirty data, with the pending-list optimization for large dirty sets.
func (p *ProxyClient) handleRecall(call *sunrpc.Call) sunrpc.AcceptStat {
	var args RecallArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	p.met.recalls.Inc()
	// A Name says the recall was triggered by an operation removing or
	// replacing that entry of the (directory) handle: the binding goes too.
	p.cache.applyRecall(args)
	p.cfg.Staleness.ObservePropagation("recall", args.FH.Key())

	res := RecallRes{Status: nfs3.OK}
	dirty := p.cache.dirtyBlocks(args.FH)
	if len(dirty) > 0 {
		bs := uint64(p.cfg.BlockSize)
		if len(dirty) > p.cfg.DirtyListThreshold {
			// Large dirty set: write the contended block back now, report
			// the rest as pending, and flush them in the background. The
			// highest dirty block is also submitted inline so the server's
			// file size reflects the buffered writes — other clients stat
			// the file before reading it.
			p.flushBlock(call.ReqID, args.FH, dirty[len(dirty)-1])
			if args.HasOffset {
				p.flushBlock(call.ReqID, args.FH, args.Offset/bs)
			}
			// A concurrent flusher (periodic flush, another recall) may still
			// have WRITEs in flight for the blocks above — takeDirtyRun refuses
			// in-flight blocks, so our inline calls may have been no-ops.
			// Drain before building the pending list so the reply's promises
			// reflect durable state.
			p.waitFlushIdle(args.FH)
			for _, bn := range p.cache.dirtyBlocks(args.FH) {
				res.Pending = append(res.Pending, bn*bs)
			}
			p.queueRecallFlush(call.ReqID, args.FH)
		} else {
			// Small dirty set: write everything back before replying, with
			// the WRITEs pipelined up to FlushParallelism deep.
			p.flushFile(call.ReqID, args.FH)
		}
	}
	return encodeReply(call, &res)
}

// handleRecallAll answers a whole-cache callback during server state
// reconstruction (Section 4.3.4): invalidate all cached attributes and
// report which files hold locally modified data.
func (p *ProxyClient) handleRecallAll(call *sunrpc.Call) sunrpc.AcceptStat {
	p.met.recalls.Inc()
	return encodeReply(call, &RecallAllRes{DirtyFiles: p.cache.recallAll(true)})
}
