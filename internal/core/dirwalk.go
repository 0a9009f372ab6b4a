package core

import (
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
)

// Directory walks. A kernel that resolves names one at a time — PostMark, a
// compiler's include search, tar of a file list — asks for every name in a
// directory the proxy could have listed once. The second LOOKUP miss in a
// directory is the evidence that it will: from then on each LOOKUP there, hit
// or miss, buys one READDIRPLUS page of one block, seeded exactly as a
// kernel-issued READDIRPLUS is, until the listing is complete. So pages never
// outnumber LOOKUPs, a path walk (one miss per ancestor) pays for no listing,
// and a huge directory touched twice costs one page. Only under polling: under
// delegation a seeded child is not servable without a delegation of its own.

// dirWalk is one directory's walk, in the directory's handle record under the
// session cache's mutex. The zero value (but for epoch) is "no evidence yet".
type dirWalk struct {
	// epoch counts resets, so that a page still in flight across one is known
	// not to belong to the walk that follows.
	epoch uint64
	// misses counts the LOOKUPs the cache could not answer since the reset.
	misses int
	// started: the first page has been asked for. inflight: a page is out. done:
	// the server said EOF. off: a page came back not OK, and no more are asked
	// for until the directory is next invalidated.
	started, inflight, done, off bool
	// cookie and verf resume the listing where the last page ended.
	cookie, verf uint64
}

// walkStartMisses is the evidence a walk starts on. One miss is a path walk
// touching an ancestor; two are a client working in the directory.
const walkStartMisses = 2

func (w *dirWalk) reset() { *w = dirWalk{epoch: w.epoch + 1} }

// seedTicket is taken when a request goes out whose reply will tell the cache
// about a directory's names and their attributes (LOOKUP, READDIRPLUS), and
// shown when the reply is installed. A reply that was in flight while the
// directory's names were taken back, or while the invalidation channel
// delivered anything at all, is not installed: an attribute has no mtime-style
// reconciliation to catch it later, and a name whose invalidation was already
// consumed would be bound again for good.
type seedTicket struct {
	dir   nfs3.FH
	rec   *cachedFile
	names uint64 // rec.namesGen when sent
	inv   uint64 // sessionCache.invGen when sent
	sent  time.Duration
}

// dirPage is a seedTicket for the LOOKUP that asked and, when due, one page of
// the directory's walk for the caller to send (ProxyClient.issuePage).
type dirPage struct {
	seedTicket
	due          bool
	epoch        uint64
	cookie, verf uint64
}

func (sc *sessionCache) ticketLocked(dir nfs3.FH, dfc *cachedFile) seedTicket {
	return seedTicket{dir: dir, rec: dfc, names: dfc.namesGen, inv: sc.invGen, sent: sc.nowLocked()}
}

// ticket is the seedTicket for a request about dir that is about to be sent.
func (sc *sessionCache) ticket(dir nfs3.FH) seedTicket {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.ticketLocked(dir, sc.record(dir.Key()))
}

// freshLocked reports whether a reply sent under tk may still be installed.
func (sc *sessionCache) freshLocked(tk seedTicket) bool {
	return sc.files[tk.rec.key] == tk.rec && tk.rec.namesGen == tk.names && sc.invGen == tk.inv
}

// walkStepLocked is the walk's one input: a LOOKUP in the directory dfc, which
// the cache answered or (miss) did not. It claims the next page when one is
// due: the second miss starts the walk, and every LOOKUP after that finds it
// either complete, waiting for a page, or buys the next.
func (sc *sessionCache) walkStepLocked(dir nfs3.FH, dfc *cachedFile, miss bool) dirPage {
	pg := dirPage{seedTicket: sc.ticketLocked(dir, dfc)}
	if sc.pol.model == ModelDelegation || dfc.noncacheable {
		return pg
	}
	w := &dfc.walk
	if miss {
		w.misses++
	}
	if w.off || w.done || w.inflight || !(w.started || w.misses >= walkStartMisses) {
		return pg
	}
	w.started, w.inflight = true, true
	sc.met.walkPages.Inc()
	pg.due, pg.epoch, pg.cookie, pg.verf = true, w.epoch, w.cookie, w.verf
	return pg
}

// seedAttrLocked installs attributes a reply sent at `sent` carried for fc,
// unless the record's own were fetched after that: a reply that overtook this
// one, of an operation of the session's own that the server may have served
// later. No invalidation will ever correct those.
func (sc *sessionCache) seedAttrLocked(fc *cachedFile, a nfs3.Fattr, sent time.Duration) {
	if fc.attrLink.on() && fc.fetched > sent {
		return
	}
	sc.putAttrLocked(fc, a)
}

// seedDir caches what a READDIRPLUS reply the kernel asked for says, if it may
// still be installed.
func (sc *sessionCache) seedDir(tk seedTicket, res *nfs3.ReaddirplusRes) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.freshLocked(tk) {
		sc.seedDirLocked(tk, res, false)
	}
}

// landPage settles a walk's page: whatever came back (res is nil when the call
// failed) the page is no longer in flight; one not OK latches the walk off, a
// good one moves the cookie on and is seeded as seedDir would. A page that is
// lost, or may no longer be installed, leaves the cookie where it was: the next
// LOOKUP asks for it again.
func (sc *sessionCache) landPage(pg dirPage, res *nfs3.ReaddirplusRes) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fresh := res != nil && sc.freshLocked(pg.seedTicket)
	if w := &pg.rec.walk; w.epoch == pg.epoch {
		w.inflight = false
		switch {
		case !fresh: // the same page is asked for again
		case res.Status != nfs3.OK || (len(res.Entries) == 0 && !res.EOF):
			w.off = true
		default:
			if n := len(res.Entries); n > 0 {
				w.cookie = res.Entries[n-1].Cookie
			}
			w.verf, w.done = res.CookieVerf, res.EOF
		}
	}
	switch {
	case fresh:
		sc.seedDirLocked(pg.seedTicket, res, true)
	case res != nil:
		sc.met.walkDiscarded.Inc()
	}
}

// seedDirLocked is the one way a directory listing's entries enter the cache,
// whoever asked for it: the directory's post-op attributes, then every entry's
// attributes and name. walked says a walk's page brought them.
func (sc *sessionCache) seedDirLocked(tk seedTicket, res *nfs3.ReaddirplusRes, walked bool) {
	dfc := tk.rec
	if res.DirAttr.Present {
		sc.seedAttrLocked(dfc, res.DirAttr.Attr, tk.sent)
	}
	if res.Status != nfs3.OK {
		return
	}
	// Entry attributes and handles are a free prefetch into the disk cache.
	seeded := 0
	for i := range res.Entries {
		ent := &res.Entries[i]
		if ent.FHFollows && ent.Attr.Present {
			sc.seedAttrLocked(sc.record(ent.FH.Key()), ent.Attr.Attr, tk.sent)
			sc.putLookupLocked(dfc, ent.Name, ent.FH, false, walked)
			seeded++
		}
	}
	if walked {
		sc.met.walkEntries.Add(int64(seeded))
	}
}

// seedLookup is seedDir for a forwarded LOOKUP's reply: the directory's
// attributes, and the one name — bound, known absent, or (any other error) no
// longer known at all.
func (sc *sessionCache) seedLookup(tk seedTicket, name string, res *nfs3.LookupRes) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.freshLocked(tk) {
		return
	}
	dfc := tk.rec
	if res.DirAttr.Present {
		sc.seedAttrLocked(dfc, res.DirAttr.Attr, tk.sent)
	}
	switch res.Status {
	case nfs3.OK:
		if res.Attr.Present {
			sc.seedAttrLocked(sc.record(res.FH.Key()), res.Attr.Attr, tk.sent)
		}
		sc.putLookupLocked(dfc, name, res.FH, false, false)
	case nfs3.ErrNoEnt:
		sc.putLookupLocked(dfc, name, nfs3.FH{}, true, false)
	default:
		sc.dropLookupLocked(dfc.names[name])
	}
}

// --- proxy client side -------------------------------------------------------

// issuePage sends a walk's page, from the actor serving the LOOKUP that made
// it due and — when that LOOKUP is itself forwarded — directly behind it, the
// way issueChunk puts a readahead chunk behind its demand READ: the order on
// the wire is the same every run, and the reply the kernel is waiting for never
// queues behind a page. A parked actor collects it. The page is one block: on
// a slow link a reply of MaxIOSize would hold demand traffic on the same
// connection up for seconds, and one block pays for itself on its second hit.
func (p *ProxyClient) issuePage(parent uint64, pg dirPage) {
	if !pg.due || p.stopped.Load() {
		return
	}
	// The page is its own traced request, parented on the LOOKUP that bought
	// it, so attribution never charges that LOOKUP for it.
	rid := p.node.Mint()
	bs := uint32(p.cfg.BlockSize)
	c := p.startUpstream(rid, nfs3.ProcReaddirplus, &nfs3.ReaddirplusArgs{
		Dir: pg.dir, Cookie: pg.cookie, CookieVerf: pg.verf, DirCount: bs, MaxCount: bs,
	})
	p.clk.Go("gvfs-dirwalk", func() { p.collectPage(parent, rid, pg, c) })
}

// collectPage waits for a page and seeds the cache from it.
func (p *ProxyClient) collectPage(parent, rid uint64, pg dirPage, c nfsCall) {
	sp := obs.Span{Req: rid, Parent: parent, Op: "prefetch READDIRPLUS", Model: shortModel(p.cfg.Model), Start: c.start}
	if p.node.Tracing() {
		sp.FH = pg.dir.String()
	}
	var res nfs3.ReaddirplusRes
	got := &res
	rep, err := p.finishUpstream(c, got, nil)
	rep.Release() // the result owns what it decoded
	sp.End = p.node.Now()
	if err != nil {
		got, sp.Err = nil, err.Error()
	} else if res.Status != nfs3.OK {
		sp.Err = res.Status.String()
	}
	p.cache.landPage(pg, got)
	p.node.Record(sp)
}
