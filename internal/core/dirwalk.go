package core

import (
	"time"

	"repro/internal/nfs3"
)

// Directory walks: the page kind of speculation (speculation.go). A kernel
// that resolves names one at a time — PostMark, a compiler's include search,
// tar of a file list — asks for every name in a directory the proxy could have
// listed once. A directory one page lists completely needs no walk: that
// listing rides the LOOKUP that resolves the directory, fetched by the proxy
// server across its LAN (ProxyServer.smallListing), and lands here as a walk's
// page does (seedLookup), so a path walk crosses once per directory it names.
// For a larger directory the second LOOKUP miss in it is the evidence that the
// kernel will: from then on each LOOKUP there, hit or miss, claims one
// READDIRPLUS page of one block (walkStepLocked), landed (landLocked) exactly
// as a kernel's READDIRPLUS is seeded, until the listing is complete. So pages
// never outnumber LOOKUPs, and a huge directory touched twice costs one page.
// Only under polling: under delegation a seeded child is not servable without
// a delegation of its own.

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
	// for until the directory is next invalidated. evicted: an entry left the
	// directory's names other than by a flush (the cap evicted it, or an
	// operation of the session's left the name unknown), so a name with no
	// entry is no longer proven absent by done (absorbCreate).
	started, inflight, done, off, evicted bool
	// cookie and verf resume the listing where the last page ended.
	cookie, verf uint64
}

// walkStartMisses is the evidence a walk starts on. One miss is a path walk
// touching an ancestor; two are a client working in the directory.
const walkStartMisses = 2

func (w *dirWalk) reset() { *w = dirWalk{epoch: w.epoch + 1} }

// walkStepLocked is the walk's one input: a LOOKUP in the directory dfc, which
// the cache answered or (miss) did not. It returns a page, due when one is
// claimed: the second miss starts the walk, and every LOOKUP after that finds
// it either complete, waiting for a page, or buys one.
func (sc *sessionCache) walkStepLocked(dir nfs3.FH, dfc *cachedFile, miss bool) speculation {
	pg := speculation{kind: specPage, ticket: sc.ticketLocked(dir)}
	if sc.pol.model == ModelDelegation {
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

// seedDir caches what a READDIRPLUS reply the kernel asked for, sent under
// tk, says, if the landing rule lets its names land.
func (sc *sessionCache) seedDir(tk ticket, res *nfs3.ReaddirplusRes) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if dfc := sc.landingLocked(tk, tk.fh, 0, true); dfc != nil {
		sc.seedDirLocked(dfc, tk, res, false, nil)
	}
}

// seedDirLocked is the one way a directory listing's entries enter the cache,
// whoever asked for it: the directory dfc's post-op attributes, then every
// entry's attributes (where the landing rule lets them) and name, each unless
// fetched after the listing was sent under tk. walked says a walk's page
// brought them. keep, when not nil, says which entries' attributes may be
// installed (seedMount).
func (sc *sessionCache) seedDirLocked(dfc *cachedFile, tk ticket, res *nfs3.ReaddirplusRes, walked bool, keep func(nfs3.FH) bool) {
	if res.DirAttr.Present {
		sc.seedAttrLocked(dfc, res.DirAttr.Attr, tk.sent)
	}
	if res.Status != nfs3.OK {
		return
	}
	sc.pageFromServerLocked(res)
	// Entry attributes and handles are a free prefetch into the disk cache.
	seeded := 0
	for i := range res.Entries {
		ent := &res.Entries[i]
		if ent.FHFollows && ent.Attr.Present {
			if keep == nil || keep(ent.FH) {
				if fc := sc.landingLocked(tk, ent.FH, 0, false); fc != nil {
					sc.seedAttrLocked(fc, ent.Attr.Attr, tk.sent)
				}
			}
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
// longer known at all. listing (nil: the caller takes none) is the listing the
// reply may have carried for the directory it resolved; one that completes it
// lands as a walk's page does, under this ticket, and that directory's walk is
// done. The LOOKUP did not name that directory: the listing lands under the
// landing rule's terms for another handle's names.
func (sc *sessionCache) seedLookup(tk ticket, name string, res *nfs3.LookupRes, listing *nfs3.ReaddirplusRes) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dfc := sc.landingLocked(tk, tk.fh, 0, true)
	rides := listing != nil && listing.Status == nfs3.OK && listing.EOF && res.Status == nfs3.OK
	if rides && !(dfc != nil && sc.landsLocked(tk, sc.files[res.FH.Key()], 0, true)) {
		sc.met.walkDiscarded.Inc()
		rides = false
	}
	if dfc == nil {
		return
	}
	if res.DirAttr.Present {
		sc.seedAttrLocked(dfc, res.DirAttr.Attr, tk.sent)
	}
	switch res.Status {
	case nfs3.OK:
		var child *cachedFile
		if res.Attr.Present || rides {
			child = sc.landingLocked(tk, res.FH, 0, false)
		}
		if child != nil && res.Attr.Present {
			sc.seedAttrLocked(child, res.Attr.Attr, tk.sent)
		}
		sc.putLookupLocked(dfc, name, res.FH, false, false)
		if rides && child != nil {
			sc.seedDirLocked(child, tk, listing, true, nil)
			child.walk.done = true
		}
	case nfs3.ErrNoEnt:
		sc.putLookupLocked(dfc, name, nfs3.FH{}, true, false)
	default:
		sc.dropLookupLocked(dfc.names[name])
	}
}

// madeEmpty records that the session's own MKDIR, sent under tk, made the
// directory dir: its listing is complete and empty, as a walk's last page
// would say, so a name in it is absent until the session adds one
// (absorbCreate). Only if the landing rule lets the new directory land: the
// MKDIR did not name it, so no invalidation may have been delivered while it
// was out, since another client's name in it would have been news of a
// handle the session had no record of.
func (sc *sessionCache) madeEmpty(tk ticket, dir nfs3.FH) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc := sc.files[dir.Key()]; fc != nil && sc.landsLocked(tk, fc, 0, false) && fc.attrLink.on() && len(fc.names) == 0 {
		fc.walk.done = true
	}
}

// seedMount lands the pages a MNT reply carried (MountBundle), sent under tk,
// as a walk's pages land, each under its directory's record, whose walk is
// then done. The MOUNT named no handle the session knew, so the whole bundle
// is dropped if sound is false (the bootstrap poll's check failed,
// dispatchMount), or unless the landing rule lets a record it makes bind
// names (landsLocked): while the MOUNT was in flight, the invalidation channel
// delivered nothing, no name of the session's was taken back (a recall takes
// one back, so under delegation any recall that reached the session meanwhile
// drops it), and no handle was forgotten. A page that does not complete its
// listing seeds nothing.
//
// Under delegation the bundle's grants are applied first, as a reply's
// trailers are (applyReplyLocked), and in the same critical section only what
// a grant it applied covers lands: a directory's attributes and names if the
// directory's, an entry's attributes if the entry's. A grant a recall or a
// later decision overtook (cachedFile.overtaken) covers nothing, and neither
// does a handle that rode without one.
func (sc *sessionCache) seedMount(tk ticket, b *MountBundle, sound bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sound || !sc.landsLocked(tk, nil, 0, true) {
		sc.met.walkDiscarded.Inc()
		return
	}
	var granted func(nfs3.FH) bool // nil: everything the pages list lands
	if sc.pol.model == ModelDelegation {
		sc.applyReplyLocked(b.Grants, nil, tk)
		granted = func(fh nfs3.FH) bool {
			seq := b.Grants.seqOf(fh)
			fc := sc.files[fh.Key()]
			return seq != 0 && fc != nil && fc.deleg != DelegNone && !fc.overtaken(seq)
		}
	}
	for i := range b.Pages {
		pg := &b.Pages[i]
		if pg.Page.Status != nfs3.OK || !pg.Page.EOF || granted != nil && !granted(pg.Dir) {
			continue
		}
		if rec := sc.landingLocked(tk, pg.Dir, 0, true); rec != nil {
			sc.seedDirLocked(rec, tk, &pg.Page, true, granted)
			rec.walk.done = true
		}
	}
}
