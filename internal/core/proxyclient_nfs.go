package core

import (
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

func encodeReply(call *sunrpc.Call, res wireEnc) sunrpc.AcceptStat {
	res.Encode(call.Reply)
	return sunrpc.Success
}

func (p *ProxyClient) getattr(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.GetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	// reread is the file's head when this GETATTR revalidates a file another
	// client has just rewritten and this session read through last time: its
	// READs go out right behind the GETATTR, so the kernel's READs that follow
	// the answer join them (readahead.go, "after a remote write").
	var reread []speculation
	if !p.cfg.DisableMetaCache {
		if h, ok := p.cache.attrHit(args.FH); ok {
			p.met.attrHits.Inc()
			p.hitLocal(call)
			p.observeServe(args.FH, h.stamp, h.dirty)
			res := nfs3.GetattrRes{Status: nfs3.OK, Attr: h.attr}
			res.Encode(call.Reply)
			return sunrpc.Success
		}
		reread = p.rereadClaim(call.ReqID, args.FH)
	}
	var res nfs3.GetattrRes
	c := p.startUpstream(call.ReqID, nfs3.ProcGetattr, &args)
	p.issue(reread) // behind the answer the kernel is waiting for
	rep, ts, err := p.finishUpstream(c, &res, []nfs3.FH{args.FH})
	rep.Release() // the result owns what it decoded
	if err != nil {
		return encodeReply(call, &nfs3.GetattrRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	switch res.Status {
	case nfs3.OK:
		p.cache.landAttr(c.tk, ts, args.FH, res.Attr)
	case nfs3.ErrStale:
		// The handle no longer names a file: every trace of it goes, its
		// protocol state included.
		p.cache.forget(args.FH)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) lookup(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.DirOpArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.Dir)
	// page is, when the directory's walk says so, a page of its listing to ask
	// for.
	var page []speculation
	if !p.cfg.DisableMetaCache {
		h, pg, ok := p.cache.lookupHit(args.Dir, args.Name)
		if !p.stopped.Load() {
			page = p.mint(call.ReqID, pg)
		}
		if ok {
			p.issue(page)
			dirAttr := nfs3.PostOpAttr{Present: true, Attr: h.dir.attr}
			p.hitLocal(call)
			if h.negative {
				// A cached NOENT: the per-file checks the kernel keeps
				// issuing for absent names are filtered out locally.
				p.met.negHits.Inc()
				p.observeServe(args.Dir, h.dir.stamp, h.dir.dirty)
				return encodeReply(call, &nfs3.LookupRes{Status: nfs3.ErrNoEnt, DirAttr: dirAttr})
			}
			p.met.dentryHits.Inc()
			p.observeServe(h.fh, h.child.stamp, h.child.dirty)
			return encodeReply(call, &nfs3.LookupRes{
				Status:  nfs3.OK,
				FH:      h.fh,
				Attr:    nfs3.PostOpAttr{Present: true, Attr: h.child.attr},
				DirAttr: dirAttr,
			})
		}
	}
	var res nfs3.LookupRes
	c := p.startUpstream(call.ReqID, nfs3.ProcLookup, &args)
	if !p.cfg.DisableMetaCache {
		// A small directory's listing may ride the reply (dirwalk.go).
		c.listing = new(nfs3.ReaddirplusRes)
	}
	p.issue(page) // behind the reply the kernel is waiting for
	rep, _, err := p.finishUpstream(c, &res, []nfs3.FH{args.Dir})
	rep.Release() // the result owns what it decoded
	if err != nil {
		return encodeReply(call, &nfs3.LookupRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.cache.seedLookup(c.tk, args.Name, &res, c.listing)
	return encodeReply(call, &res)
}

func (p *ProxyClient) read(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReadArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	bs := uint64(p.cfg.BlockSize)
	bn := args.Offset / bs
	aligned := args.Offset%bs == 0 && uint64(args.Count) <= bs

	// chunk is the stream's next run of prefetches when this read made one
	// due. Its READs go out behind this block's own, if that has to be sent.
	var chunk []speculation
	if aligned {
		// With readahead on, keep the pipeline ahead of a sequential reader;
		// and if a prefetch of this very block is in flight, wait for it
		// rather than double-issuing the wide-area READ.
		var joined bool
		joined, chunk = p.readAhead(call.ReqID, args.FH, bn)
		// One pass through the cache: the block, the file's attributes, whether
		// the model lets them be served, and when the block got here.
		if hit, ok := p.cache.readHit(args.FH, bn); ok {
			// res stays on this frame's stack and its Data is a window onto
			// the cached block, so the hit's one copy is the one Encode makes:
			// cache to reply, here, before anything can wait.
			var res nfs3.ReadRes
			if localReadInto(&res, hit.attr, hit.data, args.Offset, args.Count, bs) {
				p.issue(chunk)
				res.Encode(call.Reply)
				if joined {
					// The demand read rode an in-flight readahead instead of
					// paying its own round-trip.
					p.met.readaheadJoins.Inc()
					call.SpanNote = obs.NoteJoin
				}
				p.hitLocal(call)
				p.observeServe(args.FH, hit.stamp, hit.dirty)
				call.SpanBytes = int64(res.Count)
				if p.cfg.DiskDelay > 0 {
					p.clk.Sleep(p.cfg.DiskDelay) // read the block from the disk cache
				}
				return sunrpc.Success
			}
		}
	}

	return p.readForward(call, args, bn, aligned, chunk)
}

// readForward forwards a READ upstream. args arrives by value: startUpstream's
// interface parameter makes &args escape, and keeping that address-taking out
// of read lets the warm hit path hold its ReadArgs on the stack — otherwise
// every READ, hit or miss, paid a heap allocation at the `var args` line.
func (p *ProxyClient) readForward(call *sunrpc.Call, args nfs3.ReadArgs, bn uint64, aligned bool, chunk []speculation) sunrpc.AcceptStat {
	bs := uint64(p.cfg.BlockSize)
	var res nfs3.ReadRes
	c := p.startUpstream(call.ReqID, nfs3.ProcRead, &args)
	p.issue(chunk) // behind the block the reader is waiting for
	rep, ts, err := p.finishUpstream(c, &res, []nfs3.FH{args.FH})
	if err != nil {
		return encodeReply(call, &nfs3.ReadRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	call.SpanBytes = int64(res.Count)
	if res.Status == nfs3.OK && res.Attr.Present {
		whole := aligned && (uint64(res.Count) == bs || res.EOF)
		p.cache.landReply(c.tk, ts, args.FH, res.Attr.Attr, whole, bn, res.Data)
	}
	res.Encode(call.Reply)
	rep.Release() // cached and encoded: nothing reads the upstream frame again
	return sunrpc.Success
}

// localReadInto fills res with a READ reply from one cached block, returning
// false when the requested range cannot be served from it (the caller then
// forwards upstream). Tail blocks are stored at their natural, short length,
// so the in-block offset must be derived from the configured block size —
// never from len(block). res.Data is a window onto block, not a copy: the
// caller encodes it at once. The out-parameter shape lets the hot path keep
// res on the caller's stack: a warm cache hit allocates nothing.
func localReadInto(res *nfs3.ReadRes, attr nfs3.Fattr, block []byte, offset uint64, count uint32, blockSize uint64) bool {
	size := attr.Size
	if offset >= size {
		*res = nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: attr}, EOF: true}
		return true
	}
	bo := int(offset % blockSize)
	n := int(count)
	if bo+n > len(block) {
		n = len(block) - bo
	}
	if rem := size - offset; n > 0 && uint64(n) > rem {
		n = int(rem)
	}
	if n < 0 {
		n = 0
	}
	if n == 0 && count > 0 {
		// The range starts at or past the end of a short-stored block yet
		// inside the file (the block predates a remote append): the cache
		// cannot serve it.
		return false
	}
	*res = nfs3.ReadRes{
		Status: nfs3.OK,
		Attr:   nfs3.PostOpAttr{Present: true, Attr: attr},
		Count:  uint32(n),
		EOF:    offset+uint64(n) >= size,
		Data:   block[bo : bo+n],
	}
	return true
}

// localWriteVerf is the write verifier of every reply the proxy client makes
// up itself: an absorbed WRITE's, and the COMMIT's that finds nothing
// unstable upstream. A forwarded reply carries the server's own.
const localWriteVerf = 1

func (p *ProxyClient) write(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.WriteArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	call.SpanBytes = int64(len(args.Data))

	if attr, writeLocal := p.cache.absorbable(args.FH); writeLocal {
		bs := uint64(p.cfg.BlockSize)
		// Read-modify-write: fetch a partially overwritten block that is
		// inside the current file but not yet cached.
		startBn := args.Offset / bs
		endBn := (args.Offset + uint64(len(args.Data)) - 1) / bs
		for bn := startBn; len(args.Data) > 0 && bn <= endBn; bn++ {
			blockStart := bn * bs
			blockEnd := blockStart + bs
			coversWhole := args.Offset <= blockStart && args.Offset+uint64(len(args.Data)) >= blockEnd
			if coversWhole || blockStart >= attr.Size {
				continue
			}
			if _, cached := p.cache.getBlock(args.FH, bn); cached {
				continue
			}
			var rres nfs3.ReadRes
			rargs := nfs3.ReadArgs{FH: args.FH, Offset: blockStart, Count: uint32(bs)}
			c := p.startUpstream(call.ReqID, nfs3.ProcRead, &rargs)
			rep, ts, err := p.finishUpstream(c, &rres, nil)
			if err != nil || rres.Status != nfs3.OK {
				rep.Release()
				writeLocal = false
				break
			}
			p.hitForward(call)
			if rres.Attr.Present {
				p.cache.landBlock(c.tk, ts, args.FH, bn, rres.Data, rres.Attr.Attr)
			}
			rep.Release()
		}
		if writeLocal {
			if p.cfg.DiskDelay > 0 {
				p.clk.Sleep(p.cfg.DiskDelay) // persist the dirty block to the disk cache
			}
			newAttr := p.cache.writeDirty(args.FH, args.Offset, args.Data)
			p.hitLocal(call)
			// Stack-encoded directly: the absorbed-write path allocates
			// nothing at steady state.
			res := nfs3.WriteRes{
				Status:    nfs3.OK,
				Wcc:       nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: newAttr}},
				Count:     uint32(len(args.Data)),
				Committed: nfs3.FileSync,
				Verf:      localWriteVerf,
			}
			res.Encode(call.Reply)
			return sunrpc.Success
		}
	}

	return p.writeForward(call, args)
}

// writeForward forwards a WRITE upstream. As with readForward, args arrives
// by value so the absorbed-write path in write keeps its WriteArgs on the
// stack instead of heap-allocating it for callUpstream's sake. The data goes
// upstream out of the kernel's call frame, which outlives the handler's call.
func (p *ProxyClient) writeForward(call *sunrpc.Call, args nfs3.WriteArgs) sunrpc.AcceptStat {
	var res nfs3.WriteRes
	c := p.startUpstream(call.ReqID, nfs3.ProcWrite, &args)
	rep, ts, err := p.finishUpstream(c, &res, []nfs3.FH{args.FH})
	rep.Release() // the result owns what it decoded
	if err != nil {
		return encodeReply(call, &nfs3.WriteRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	if res.Status == nfs3.OK && res.Committed != nfs3.FileSync {
		p.cache.noteUnstable(args.FH)
	}
	if res.Status == nfs3.OK && res.Wcc.After.Present {
		// Reconcile first (recognizing our own mtime advance via the wcc
		// data), then cache the freshly written block.
		p.cache.updateAfterWrite(c.tk, ts, args.FH, args.Offset, len(args.Data), res.Wcc)
		bs := uint64(p.cfg.BlockSize)
		if args.Offset%bs == 0 && (uint64(len(args.Data)) == bs || args.Offset+uint64(len(args.Data)) >= res.Wcc.After.Attr.Size) {
			p.cache.landBlock(c.tk, ts, args.FH, args.Offset/bs, args.Data, res.Wcc.After.Attr)
		}
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) setattr(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.SetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	p.mapIdentity(&args.Attr)
	spanFH(call, args.FH)
	// Truncation invalidates buffered writes beyond the new size; flush
	// first for simplicity and correctness.
	if p.cache.hasDirty(args.FH) {
		p.flushFile(call.ReqID, args.FH)
	}
	var res nfs3.WccRes
	tk, ts, err := p.forward(call, nfs3.ProcSetattr, &args, &res, args.FH)
	if err != nil {
		return encodeReply(call, &nfs3.WccRes{Status: nfs3.ErrJukebox})
	}
	if res.Status == nfs3.OK && res.Wcc.After.Present {
		p.cache.landAttr(tk, ts, args.FH, res.Wcc.After.Attr)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) create(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.CreateArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	if p.absorbsNames() {
		spanFH(call, args.Where.Dir)
		mapped := args // forwardCreate maps the attributes it sends itself
		p.mapIdentity(&mapped.Attr)
		if st, ok := p.absorbCreate(call, &mapped); ok {
			return st
		}
	}
	// An unchecked create truncates an existing file: any dirty data buffered
	// for the old contents is gone by definition.
	return p.forwardCreate(call, &args, args.Where, &args.Attr, args.Mode == nfs3.CreateUnchecked)
}

func (p *ProxyClient) mkdir(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.MkdirArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	return p.forwardCreate(call, &args, args.Where, &args.Attr, false)
}

func (p *ProxyClient) symlink(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.SymlinkArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	return p.forwardCreate(call, &args, args.Where, &args.Attr, false)
}

// forwardCreate forwards a decoded CREATE, MKDIR or SYMLINK and caches what
// the reply says about the directory and the new object.
func (p *ProxyClient) forwardCreate(call *sunrpc.Call, args wireEnc, where nfs3.DirOpArgs, attr *nfs3.Sattr, truncates bool) sunrpc.AcceptStat {
	p.mapIdentity(attr)
	spanFH(call, where.Dir)
	var res nfs3.CreateRes
	tk, ts, err := p.forward(call, call.Proc, args, &res, where.Dir)
	if err != nil {
		// The server may have run it: the name is no longer known either
		// way, and a walk of the directory proves nothing absent.
		p.cache.dropLookup(where.Dir, where.Name)
		return encodeReply(call, &nfs3.CreateRes{Status: nfs3.ErrJukebox})
	}
	if res.DirWcc.After.Present {
		p.cache.landAttr(tk, ts, where.Dir, res.DirWcc.After.Attr)
	}
	if res.Status == nfs3.OK && res.FHFollows {
		if truncates {
			p.cache.discardDirty(res.FH, false)
		}
		if res.Attr.Present {
			p.cache.landAttr(tk, ts, res.FH, res.Attr.Attr)
		}
		p.cache.putLookup(where.Dir, where.Name, res.FH, false)
		if call.Proc == nfs3.ProcMkdir {
			p.cache.madeEmpty(tk, res.FH)
		}
	}
	if res.Status == nfs3.ErrExist {
		// The name is there, bound to what the session does not know.
		p.cache.dropLookup(where.Dir, where.Name)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) unlink(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.DirOpArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.Dir)
	if call.Proc == nfs3.ProcRemove && p.absorbsNames() {
		if st, ok := p.absorbRemove(call, args); ok {
			return st
		}
	}
	// Abandon buffered dirty data for the victim: it is being deleted.
	victim, negative, known := p.cache.getLookup(args.Dir, args.Name)
	known = known && !negative
	if known {
		p.cache.discardDirty(victim, false)
	}
	var res nfs3.WccRes
	tk, ts, err := p.forward(call, call.Proc, &args, &res, args.Dir)
	if err != nil {
		p.cache.dropLookup(args.Dir, args.Name) // it may have run
		return encodeReply(call, &nfs3.WccRes{Status: nfs3.ErrJukebox})
	}
	if res.Status == nfs3.OK && known {
		// That was the handle's last name (a directory has one; a file whose
		// cached link count says otherwise is left to go stale on its own).
		if a, ok := p.cache.getAttr(victim); call.Proc == nfs3.ProcRmdir || (ok && a.Nlink <= 1) {
			p.cache.forget(victim)
		}
	}
	p.cache.dropLookup(args.Dir, args.Name)
	if res.Wcc.After.Present {
		p.cache.landAttr(tk, ts, args.Dir, res.Wcc.After.Attr)
		if res.Status == nfs3.OK {
			// The name is now known absent.
			p.cache.putLookup(args.Dir, args.Name, nfs3.FH{}, true)
		}
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) rename(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.RenameArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.From.Dir)
	var res nfs3.RenameRes
	tk, ts, err := p.forward(call, nfs3.ProcRename, &args, &res, args.From.Dir, args.To.Dir)
	if err != nil {
		p.cache.dropLookup(args.From.Dir, args.From.Name) // it may have run
		p.cache.dropLookup(args.To.Dir, args.To.Name)
		return encodeReply(call, &nfs3.RenameRes{Status: nfs3.ErrJukebox})
	}
	p.cache.dropLookup(args.From.Dir, args.From.Name)
	p.cache.dropLookup(args.To.Dir, args.To.Name)
	if res.FromWcc.After.Present {
		p.cache.landAttr(tk, ts, args.From.Dir, res.FromWcc.After.Attr)
	}
	if res.ToWcc.After.Present {
		p.cache.landAttr(tk, ts, args.To.Dir, res.ToWcc.After.Attr)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) linkProc(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.LinkArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	var res nfs3.LinkRes
	tk, ts, err := p.forward(call, nfs3.ProcLink, &args, &res, args.FH, args.Link.Dir)
	if err != nil {
		p.cache.dropLookup(args.Link.Dir, args.Link.Name) // it may have run
		return encodeReply(call, &nfs3.LinkRes{Status: nfs3.ErrJukebox})
	}
	if res.Attr.Present {
		p.cache.landAttr(tk, ts, args.FH, res.Attr.Attr)
	}
	if res.LinkWcc.After.Present {
		p.cache.landAttr(tk, ts, args.Link.Dir, res.LinkWcc.After.Attr)
	}
	if res.Status == nfs3.OK {
		p.cache.putLookup(args.Link.Dir, args.Link.Name, args.FH, false)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) readdir(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReaddirArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.Dir)
	// Serve complete cached listings that fit one reply; pagination always
	// forwards, since upstream cookies are opaque to us.
	if args.Cookie == 0 && !p.cfg.DisableMetaCache {
		if entries, h, ok := p.cache.listingHit(args.Dir); ok && listingFits(entries, args.Count) {
			p.met.listingHits.Inc()
			p.hitLocal(call)
			p.observeServe(args.Dir, h.stamp, h.dirty)
			return encodeReply(call, &nfs3.ReaddirRes{
				Status:     nfs3.OK,
				DirAttr:    nfs3.PostOpAttr{Present: true, Attr: h.attr},
				CookieVerf: 1,
				Entries:    entries,
				EOF:        true,
			})
		}
	}
	var res nfs3.ReaddirRes
	tk, ts, err := p.forward(call, nfs3.ProcReaddir, &args, &res, args.Dir)
	if err != nil {
		return encodeReply(call, &nfs3.ReaddirRes{Status: nfs3.ErrJukebox})
	}
	if res.DirAttr.Present {
		// A single-page complete listing is cacheable; multi-page listings
		// are not worth stitching.
		complete := res.Status == nfs3.OK && res.EOF && args.Cookie == 0
		p.cache.landListing(tk, ts, args.Dir, res.DirAttr.Attr, complete, res.Entries)
	}
	return encodeReply(call, &res)
}

// listingFits reports whether entries encode within a READDIR count budget,
// charged as the NFS server charges it: what the result occupies on the wire.
func listingFits(entries []nfs3.DirEntry, count uint32) bool {
	budget := int(count) - nfs3.DirResOverhead
	for i := range entries {
		budget -= entries[i].WireSize()
	}
	return budget >= 0
}

func (p *ProxyClient) readdirplus(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReaddirplusArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.Dir)
	var res nfs3.ReaddirplusRes
	tk, _, err := p.forward(call, nfs3.ProcReaddirplus, &args, &res, args.Dir)
	if err != nil {
		return encodeReply(call, &nfs3.ReaddirplusRes{Status: nfs3.ErrJukebox})
	}
	p.cache.seedDir(tk, &res)
	return encodeReply(call, &res)
}

func (p *ProxyClient) commit(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.CommitArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	verdict, h, unstable := p.cache.settleCommit(args.FH, false)
	if verdict == commitFlush {
		p.flushFile(call.ReqID, args.FH)
		verdict, h, unstable = p.cache.settleCommit(args.FH, true)
	}
	switch verdict {
	case commitLost:
		return encodeReply(call, &nfs3.CommitRes{Status: nfs3.ErrIO})
	case commitPending:
		return encodeReply(call, &nfs3.CommitRes{Status: nfs3.ErrJukebox})
	case commitLocal:
		// Every write-back WRITE is sent FILE_SYNC and none of this session's
		// forwarded WRITEs is waiting on a COMMIT: the server has nothing
		// left to make stable, so the round trip would carry no news.
		p.met.commitLocal.Inc()
		call.SpanNote = obs.NoteLocal
		p.hitLocal(call)
		p.observeServe(args.FH, h.stamp, h.dirty)
		return encodeReply(call, &nfs3.CommitRes{
			Status: nfs3.OK,
			Wcc:    nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: h.attr}},
			Verf:   localWriteVerf,
		})
	}
	var res nfs3.CommitRes
	if _, _, err := p.forward(call, nfs3.ProcCommit, &args, &res); err != nil {
		return encodeReply(call, &nfs3.CommitRes{Status: nfs3.ErrJukebox})
	}
	if res.Status == nfs3.OK {
		p.cache.commitCovered(args.FH, unstable)
	}
	return encodeReply(call, &res)
}

// access answers an ACCESS check locally when the model allows it:
// permission bits are a pure function of the file's attributes and the
// caller's identity (nfs3.AccessForAttr), so servable cached attributes
// answer the check without a wide-area round trip. The identity comes from
// the kernel's AUTH_SYS credential — which the loopback mount carries —
// and defaults to root for other flavors, matching the open-export policy
// the server applies to non-AUTH_SYS callers.
func (p *ProxyClient) access(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.AccessArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	if !p.cfg.DisableMetaCache {
		if h, ok := p.cache.attrHit(args.FH); ok {
			uid, gid, idOK := call.Cred.SysIdentity()
			if !idOK {
				uid, gid = 0, 0
			}
			p.met.accessHits.Inc()
			p.hitLocal(call)
			p.observeServe(args.FH, h.stamp, h.dirty)
			return encodeReply(call, &nfs3.AccessRes{
				Status: nfs3.OK,
				Attr:   nfs3.PostOpAttr{Present: true, Attr: h.attr},
				Access: nfs3.AccessForAttr(h.attr, uid, gid, args.Access),
			})
		}
	}
	var res nfs3.AccessRes
	tk, ts, err := p.forward(call, nfs3.ProcAccess, &args, &res, args.FH)
	if err != nil {
		return encodeReply(call, &nfs3.AccessRes{Status: nfs3.ErrJukebox})
	}
	if res.Status == nfs3.OK && res.Attr.Present {
		p.cache.landAttr(tk, ts, args.FH, res.Attr.Attr)
	}
	return encodeReply(call, &res)
}

// passthrough forwards a call without caching semantics. Each procedure it
// relays names one handle first, which leaves as the server's if the session
// minted it.
func (p *ProxyClient) passthrough(call *sunrpc.Call) sunrpc.AcceptStat {
	args := call.Args.Rest()
	if p.cache.held.Load() > 0 {
		var head nfs3.GetattrArgs
		d := xdr.NewDecoder(args)
		if head.Decode(d) == nil {
			fhs, _ := handlesOf(&head)
			p.awaitPending(nfs3.ProcGetattr, fhs, "")
			if _, changed := p.cache.toServer(fhs); changed {
				e := xdr.NewEncoder()
				head.Encode(e)
				e.FixedOpaque(d.Rest())
				args = e.Bytes()
			}
		}
	}
	rep, err := p.rawCall(call.ReqID, nfs3.Program, nfs3.Version, call.Proc, args)
	if err != nil {
		return sunrpc.SystemErr
	}
	p.hitForward(call)
	call.Reply.FixedOpaque(rep.Body.Rest())
	rep.Release()
	return sunrpc.Success
}

// mapIdentity rewrites settable attributes per the session's cross-domain
// identity mapping.
func (p *ProxyClient) mapIdentity(attr *nfs3.Sattr) {
	if attr.UID != nil {
		if mapped, ok := p.cfg.UIDMap[*attr.UID]; ok {
			v := mapped
			attr.UID = &v
		}
	}
	if attr.GID != nil {
		if mapped, ok := p.cfg.GIDMap[*attr.GID]; ok {
			v := mapped
			attr.GID = &v
		}
	}
}
