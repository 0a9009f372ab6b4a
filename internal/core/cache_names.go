package core

import (
	"slices"
	"time"

	"repro/internal/nfs3"
)

// lookupEnt is one cached name resolution: name, under the directory dir,
// is bound to fh or known absent.
type lookupEnt struct {
	dir  *cachedFile
	name string
	link link[lookupEnt]
	fh   nfs3.FH
	// negative records a NOENT result: the name is known not to exist.
	negative bool
	// dirMtime tags the entry with the directory modification time it was
	// observed under; the entry is only valid while the cached directory
	// attributes still carry that mtime, so a directory invalidation
	// followed by revalidation of a *changed* directory cannot revive
	// stale name resolutions.
	dirMtime nfs3.Time
	// fetched is when the resolution was observed, for the staleness
	// observatory.
	fetched time.Duration
	// walked marks an entry a directory walk's page brought that no LOOKUP has
	// been answered from yet: the first serve counts it as used.
	walked bool
}

// flushDirLocked drops every dentry, negative entry, and cached listing
// hanging off the directory, and with them its walk: what the walk had seeded
// is gone, so the evidence for one starts over.
func (sc *sessionCache) flushDirLocked(fc *cachedFile) {
	sc.met.dirFlushes.Add(int64(len(fc.names)))
	for _, ent := range fc.names {
		sc.lookupLRU.remove(&ent.link)
	}
	fc.names = nil
	sc.namesTakenLocked(fc)
	fc.walk.reset()
	sc.dropListingLocked(fc)
}

// namesTakenLocked records that a name under dfc was taken back (ticket).
func (sc *sessionCache) namesTakenLocked(dfc *cachedFile) {
	dfc.namesGen++
	sc.namesGen++
}

// --- lookup cache and directory listings --------------------------------------

// lookupLocked returns the cached resolution of name under the directory dfc
// (possibly negative, possibly nil); it is only valid while the directory's
// attributes are validly cached.
//
// Positive bindings additionally require the caller to hold valid cached
// attributes for the child: per-file invalidations cover every way a binding
// can break (REMOVE and RENAME invalidate the victim's handle), so a directory
// mtime change alone — e.g. an unrelated file created next to it — does not
// force re-lookups of every name. Negative entries have no child to validate,
// so they are additionally tagged with the directory mtime they were observed
// under and die on any directory change.
func (sc *sessionCache) lookupLocked(dfc *cachedFile, name string) *lookupEnt {
	dirAttr, dirValid := sc.attrLocked(dfc)
	if !dirValid {
		return nil
	}
	ent := dfc.names[name]
	if ent == nil || (ent.negative && ent.dirMtime != dirAttr.Mtime) {
		return nil
	}
	sc.lookupLRU.bump(&ent.link)
	return ent
}

// getLookup returns a cached name resolution (possibly negative), whether or
// not the model would let it be served.
func (sc *sessionCache) getLookup(dir nfs3.FH, name string) (fh nfs3.FH, negative, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if ent := sc.lookupLocked(sc.files[dir.Key()], name); ent != nil {
		return ent.fh, ent.negative, true
	}
	return nfs3.FH{}, false, false
}

// nameHit is a LOOKUP answered in one pass: the directory's attributes and
// either a cached NOENT (dir.stamp is then the negative entry's) or the child
// handle with its attributes. Under the strong model the child's attributes —
// and thus the binding's continued existence — are only trustworthy while a
// delegation on the child is held, so both handles must be servable.
type nameHit struct {
	dir      metaHit
	negative bool
	fh       nfs3.FH
	child    metaHit
}

// lookupHit answers a LOOKUP from the cache if it can. Hit or miss, it is also
// the directory walk's one input (walkStepLocked): pg carries the ticket a
// forwarded LOOKUP's reply is seeded under and, when pg.due, is the
// READDIRPLUS page the caller is to mint and issue.
func (sc *sessionCache) lookupHit(dir nfs3.FH, name string) (h nameHit, pg speculation, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dfc := sc.record(dir.Key())
	h, ok = sc.nameHitLocked(dfc, name)
	return h, sc.walkStepLocked(dir, dfc, !ok), ok
}

func (sc *sessionCache) nameHitLocked(dfc *cachedFile, name string) (h nameHit, ok bool) {
	if h.dir, ok = sc.hitLocked(dfc); !ok {
		return h, false
	}
	ent := sc.lookupLocked(dfc, name)
	if ent == nil {
		return h, false
	}
	if ent.negative {
		h.negative, h.dir.stamp = true, ent.fetched
		return h, true
	}
	h.fh = ent.fh
	if h.child, ok = sc.hitLocked(sc.files[ent.fh.Key()]); ok && ent.walked {
		ent.walked = false
		sc.met.walkUsed.Inc()
	}
	return h, ok
}

// putLookup records what one of the session's own namespace operations made of
// name: bound to fh, or gone (negative, fh zero). Either way the directory's
// names changed under any reply still in flight (namesGen). The entry is
// skipped if the directory's attributes are not cached (there is nothing to
// validate it against).
func (sc *sessionCache) putLookup(dir nfs3.FH, name string, fh nfs3.FH, negative bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if dfc := sc.files[dir.Key()]; dfc != nil {
		sc.namesTakenLocked(dfc)
		sc.putLookupLocked(dfc, name, fh, negative, false)
	}
}

// putLookupLocked caches a resolution under dfc; fh zero with negative set
// records NOENT, walked that a directory walk brought it.
func (sc *sessionCache) putLookupLocked(dfc *cachedFile, name string, fh nfs3.FH, negative, walked bool) {
	dirAttr, dirValid := sc.attrLocked(dfc)
	if !dirValid {
		return
	}
	ent := dfc.names[name]
	if ent == nil {
		ent = &lookupEnt{dir: dfc, name: name}
		ent.link.of = ent
		if dfc.names == nil {
			dfc.names = make(map[string]*lookupEnt)
		}
		dfc.names[name] = ent
	}
	ent.fh, ent.negative, ent.dirMtime, ent.fetched, ent.walked = fh, negative, dirAttr.Mtime, sc.nowLocked(), walked
	sc.lookupLRU.bump(&ent.link)
	for sc.pol.maxDentries > 0 && sc.lookupLRU.n > sc.pol.maxDentries {
		sc.dropLookupLocked(sc.lookupLRU.oldest())
		sc.met.evictions.Inc()
	}
}

// dropLookup forgets what name under dir resolves to, whether or not the cache
// held it: the directory's walk no longer proves it absent either.
func (sc *sessionCache) dropLookup(dir nfs3.FH, name string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if dfc := sc.files[dir.Key()]; dfc != nil {
		sc.namesTakenLocked(dfc)
		sc.dropLookupLocked(dfc.names[name])
		dfc.walk.evicted = true
	}
}

// dropLookupLocked removes one resolution (nil: there is none). The
// directory's walk has lost an entry (dirWalk.evicted).
func (sc *sessionCache) dropLookupLocked(ent *lookupEnt) {
	if ent != nil {
		sc.lookupLRU.remove(&ent.link)
		delete(ent.dir.names, ent.name)
		ent.dir.walk.evicted = true
	}
}

// putDirListing caches a complete directory listing observed alongside the
// currently cached directory attributes.
func (sc *sessionCache) putDirListing(dir nfs3.FH, entries []nfs3.DirEntry) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.putDirListingLocked(sc.files[dir.Key()], entries)
}

// landListing installs what a forwarded READDIR's reply, sent under tk with
// trailers ts, says of the directory dir: its attributes and, with complete
// set, its listing, unless the landing rule (landsLocked) refuses both.
func (sc *sessionCache) landListing(tk ticket, ts Trailers, dir nfs3.FH, a nfs3.Fattr, complete bool, entries []nfs3.DirEntry) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.record(dir.Key())
	if !sc.landsLocked(tk, fc, ts.seqOf(dir), false) {
		return
	}
	sc.putAttrLocked(fc, a)
	if complete {
		sc.putDirListingLocked(fc, entries)
	}
}

func (sc *sessionCache) putDirListingLocked(fc *cachedFile, entries []nfs3.DirEntry) {
	dirAttr, ok := sc.attrLocked(fc)
	if !ok {
		return
	}
	fc.listing, fc.listMtime = slices.Clone(entries), dirAttr.Mtime
	sc.listLRU.bump(&fc.listLink)
	for sc.pol.maxListings > 0 && sc.listLRU.n > sc.pol.maxListings {
		sc.dropListingLocked(sc.listLRU.oldest())
		sc.met.evictions.Inc()
	}
}

func (sc *sessionCache) dropListingLocked(fc *cachedFile) {
	sc.listLRU.remove(&fc.listLink)
	fc.listing = nil
}

// listingHit answers a READDIR from the cached complete listing, if the model
// lets the directory be served and the listing is still coherent with its
// cached attributes.
func (sc *sessionCache) listingHit(dir nfs3.FH) (entries []nfs3.DirEntry, h metaHit, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.files[dir.Key()]
	if h, ok = sc.hitLocked(fc); !ok || !fc.listLink.on() || fc.listMtime != fc.attr.Mtime {
		return nil, h, false
	}
	sc.listLRU.bump(&fc.listLink)
	return fc.listing, h, true
}
