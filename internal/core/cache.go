package core

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// sessionCache is the GVFS per-session client-side disk cache: one record per
// file handle — attributes, a directory's listing and name resolutions, data
// blocks with their dirty state, and the handle's consistency-protocol state.
// Unlike the kernel client's caches, entries are not timed out: their validity
// is governed by the session's consistency protocol (invalidation polling or
// delegation callbacks), which is the heart of the paper's design, and whether
// a valid entry may be served is decided here, in the same critical section
// that reads it.
type sessionCache struct {
	bs int

	mu  sync.Mutex
	pol cachePolicy
	// now reads the session's virtual clock for fetch stamps and delegation
	// renewal; nil freezes the clock at zero.
	now func() time.Duration
	met cacheCounters

	// files is the one table keyed by file handle. A record appears on first
	// sight of a handle and leaves only through forget (the handle is dead);
	// the attribute and listing caps evict that part of a record, never the
	// record. forgets counts the records forget has taken: a reply to a call
	// sent before one cannot tell a handle it never saw from one that died
	// under it, and brings no record back (applyReplySince).
	files   map[string]*cachedFile
	forgets atomic.Uint64

	// One ring per cap: a record is on attrLRU exactly while its attributes
	// are valid and on listLRU exactly while it holds a listing; a lookup entry
	// (cachedFile.names) is on lookupLRU for as long as it exists.
	attrLRU, listLRU ring[cachedFile]
	lookupLRU        ring[lookupEnt]
	// invGen counts the invalidations the consistency channel has delivered; a
	// reply sent before one and installed after it would bring back what the
	// invalidation took (seedTicket).
	invGen uint64

	lru  lruList
	maxB int64
	// spare holds block records dropBlockLocked freed, for blockForLocked to
	// reuse: a cache that misses inserts one block and evicts another per READ.
	spare []*cachedBlock

	// lastDone is the record whose sequential reader most recently consumed its
	// last block: the next file opened from the top is what followed it
	// (readahead.go, "across files"). A hint, like every succ pointer.
	lastDone *cachedFile

	// persist, when non-nil, mirrors data blocks and their dirty state into
	// the crash-consistent disk store. Every call site already holds sc.mu.
	persist blockPersister
	recMet  recoveryCounters
}

// cachePolicy is what the session tells its cache at construction: the
// consistency model that decides whether a record may be served, the
// delegation renewal period, whether WRITEs are absorbed without a write
// delegation, and the per-part entry caps (0 = unbounded) enforced by LRU
// eviction.
type cachePolicy struct {
	model      Model
	delegRenew time.Duration
	writeBack  bool

	maxAttrs    int
	maxDentries int
	maxListings int
}

// cacheCounters receives the cache-internal events (metadata bookkeeping,
// renewal bypasses and readahead waste); a nil counter counts nothing.
type cacheCounters struct {
	evictions   *obs.Counter // capacity evictions across all metadata caches
	dirFlushes  *obs.Counter // dentries+negatives flushed by a dir invalidation
	raWasted    *obs.Counter // prefetched blocks that left the cache unread
	renewBypass *obs.Counter // serves refused so a request renews the delegation

	// The readahead window across files (readahead.go): file boundaries a
	// reader crossed onto a head the window had already requested, the blocks
	// so requested, and spills whose successor was not the file opened next.
	raSpills      *obs.Counter
	raSpillBlocks *obs.Counter
	raSuccMisses  *obs.Counter
	// Re-reads after a remote write (readahead.go): revalidating GETATTRs that
	// carried a file's head behind them, and the blocks they claimed.
	raReopens      *obs.Counter
	raReopenBlocks *obs.Counter

	// Directory walks (dirwalk.go): pages asked for, the entries they brought,
	// those of them a LOOKUP was since answered from, and pages that came back
	// across an invalidation and were dropped whole.
	walkPages     *obs.Counter
	walkEntries   *obs.Counter
	walkUsed      *obs.Counter
	walkDiscarded *obs.Counter
}

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

// cachedFile is everything the session knows about one file handle: what the
// server said about it, what the session holds of it, and what the consistency
// protocol currently lets the session do with it.
type cachedFile struct {
	key string

	// attr is the handle's attributes as the server last reported them, and
	// fetched when; valid exactly while attrLink is on the attribute LRU.
	attr     nfs3.Fattr
	fetched  time.Duration
	attrLink link[cachedFile]
	// listing is a directory's complete (single-page) READDIR result, tagged
	// like negative lookups with the directory mtime it was observed under;
	// held exactly while listLink is on the listing LRU. names is the lookup
	// cache of this directory — the one table in the cache keyed by name — so
	// invalidating a directory handle flushes its dentries and negatives in one
	// sweep.
	listing   []nfs3.DirEntry
	listMtime nfs3.Time
	listLink  link[cachedFile]
	names     map[string]*lookupEnt
	// namesGen counts the times a name under this directory was taken back —
	// flushed by an invalidation, or changed by one of the session's own
	// namespace operations; see seedTicket. walk is the directory's walk
	// (dirwalk.go), reset whenever the names are flushed.
	namesGen uint64
	walk     dirWalk

	// The handle's protocol state. deleg is the delegation held (always
	// DelegNone under polling); noncacheable is the server's verdict that the
	// handle must not be cached at all; lastForward is when a request for the
	// handle last crossed the wide area (delegation renewal); recallFence is
	// the sequence of the latest recall served, against which grants that lost
	// a race with it are dropped. Only a dead handle's fence may go: a live
	// file's must outlast everything else cached of it.
	deleg        DelegType
	noncacheable bool
	lastForward  time.Duration
	recallFence  uint64

	// The data state follows; blocks and fetching are nil until the data path
	// first touches the handle, which is also what "a cached file" means to
	// stats and to the disk store.
	//
	// mtime is the server mtime the clean blocks correspond to.
	mtime nfs3.Time
	size  uint64
	// localChange > 0 while dirty data is buffered; it perturbs the mtime
	// served to the kernel client so local writes remain visible.
	localChange uint32
	// dirtyBase is the server mtime the dirty blocks were written over: the
	// attributes' when the file last went from clean to dirty, moved on by
	// each write-back that lands on it.
	dirtyBase nfs3.Time
	// blocks holds one record per block the cache has; ndirty counts the
	// dirty ones among them.
	blocks map[uint64]*cachedBlock
	ndirty int
	// wseq is the file's write sequence: every local write takes the next
	// value as its block's generation, so a generation is never reused in the
	// file, not even for a block dropped and written again while a flush of
	// its earlier contents is still in flight. Recovery seeds it from the
	// highest generation the disk store handed back.
	wseq uint64
	// inflight counts blocks with a write-back WRITE in flight (taken, not yet
	// endFlush'd). fenced is set when such blocks were discarded under their
	// WRITE: until the last of those returns nothing of the file is taken, so
	// a WRITE of newer data can never overtake a stale one.
	inflight int
	fenced   bool
	// flushWait holds the actors waiting for inflight to reach zero; endFlush
	// hands them back to be woken.
	flushWait []*vclock.Waiter
	// unstable counts the forwarded WRITEs of this file the server
	// acknowledged short of FILE_SYNC and no forwarded COMMIT has covered
	// since: data of this session that may not be on stable storage yet. lost
	// is set when a write-back WRITE was refused and the dirty data dropped;
	// the next COMMIT reports it. Both decide how a COMMIT is answered
	// (settleCommit) and go with this entry — a COMMIT that finds no entry is
	// forwarded.
	unstable int
	lost     bool
	// recovered marks a file restored from disk whose clean blocks await
	// their first server attribute observation (revalidated vs refetched).
	recovered bool
	// fetching holds the blocks with a prefetch READ in flight, each with
	// the demand reads parked on it: readahead skips them and demand reads
	// wait for the fetch instead of issuing a duplicate wide-area READ. These
	// are blocks the cache does not hold yet, so they have no record.
	fetching map[uint64][]*vclock.Waiter
	// stream is the file's sequential-read detector (see readahead.go); it
	// lives and dies with this entry.
	stream readStream
	// succ is the file a sequential reader opened from the top right after it
	// last finished this one, and pred the file that names this one so: the
	// session's learned reading order, a set of chains the readahead window
	// follows across file boundaries. Hints only — never persisted, a wrong one
	// costs bytes — and both ends go with either record (unlinkLocked).
	// succHeld withholds the spill after a wrong prediction until the new
	// successor has followed twice running.
	succ, pred *cachedFile
	succHeld   bool
	// The evidence for re-reading the file after a remote write (readahead.go):
	// readThrough, this session's sequential reader last consumed its final
	// block; remoteWrite, its attributes were taken by news of another client's
	// write. Hints, like succ: neither is persisted, and dropping attributes
	// for any other reason sets neither.
	readThrough, remoteWrite bool
}

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

func newSessionCache(blockSize int, maxBytes int64) *sessionCache {
	sc := &sessionCache{
		bs:    blockSize,
		files: make(map[string]*cachedFile),
		maxB:  maxBytes,
	}
	sc.attrLRU.init()
	sc.listLRU.init()
	sc.lookupLRU.init()
	sc.lru.init()
	return sc
}

// setPolicy installs the session's cache policy, clock, and event counters;
// the proxy calls it at construction.
func (sc *sessionCache) setPolicy(now func() time.Duration, pol cachePolicy, met cacheCounters) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.now = now
	sc.pol = pol
	sc.met = met
}

func (sc *sessionCache) nowLocked() time.Duration {
	if sc.now == nil {
		return 0
	}
	return sc.now()
}

// --- records ----------------------------------------------------------------

// record returns the record for key, a new one on first sight of the handle.
func (sc *sessionCache) record(key string) *cachedFile {
	fc := sc.files[key]
	if fc == nil {
		fc = &cachedFile{key: key}
		fc.attrLink.of, fc.listLink.of = fc, fc
		sc.files[key] = fc
	}
	return fc
}

// fileFor is record for the data path: the record gains its block tables.
func (sc *sessionCache) fileFor(key string) *cachedFile {
	fc := sc.record(key)
	if fc.blocks == nil {
		fc.blocks = make(map[uint64]*cachedBlock)
		fc.fetching = make(map[uint64][]*vclock.Waiter)
	}
	return fc
}

// dataFor returns key's record if the data path has touched the handle, nil
// otherwise: write-back, COMMIT and mtime reconciliation have nothing to do
// for a handle known only by its attributes or protocol state.
func (sc *sessionCache) dataFor(key string) *cachedFile {
	if fc := sc.files[key]; fc != nil && fc.blocks != nil {
		return fc
	}
	return nil
}

// forget removes every trace of fh (REMOVE, stale handle): the one way a
// record leaves. Demand reads parked on a prefetch of the file and actors
// waiting out its write-back are released: whatever was in flight finds no
// record to clear and nobody to wake when it returns.
func (sc *sessionCache) forget(fh nfs3.FH) {
	sc.mu.Lock()
	key := fh.Key()
	fc := sc.files[key]
	if fc == nil {
		sc.mu.Unlock()
		return
	}
	sc.attrLRU.remove(&fc.attrLink)
	sc.flushDirLocked(fc)
	sc.dropCleanLocked(fc)
	for _, blk := range fc.blocks {
		blk.releaseData() // dirty: a flush in flight staged its own copy
	}
	sc.unlinkLocked(fc)
	parked := fc.flushWait
	for _, ws := range fc.fetching {
		parked = append(parked, ws...)
	}
	delete(sc.files, key)
	sc.forgets.Add(1)
	if fc.blocks != nil && sc.persist != nil {
		sc.persist.DropFile(key)
	}
	sc.mu.Unlock()
	for _, w := range parked {
		w.Wake()
	}
}

// --- protocol state: who may serve, when ------------------------------------

// servableLocked reports whether fc's cached state may answer requests locally
// under the session's consistency model. Under delegation a held delegation is
// required, and once per renewal period the answer is no so that one request
// bypasses the cache and the server sees the file as still open (Section
// 4.3.1); under polling cached entries are valid until invalidated.
func (sc *sessionCache) servableLocked(fc *cachedFile) bool {
	switch {
	case fc.noncacheable:
		return false
	case sc.pol.model != ModelDelegation:
		return true
	case fc.deleg == DelegNone:
		return false
	case sc.nowLocked()-fc.lastForward >= sc.pol.delegRenew:
		sc.met.renewBypass.Inc()
		return false
	}
	return true
}

// applyReplySince records what a forwarded request's reply says about handles:
// for each the proxy server's trailers name, the delegation granted (if any)
// and whether the handle may be cached; and for those and the handles the
// request itself was for, that a request just crossed the wide area (renewal
// clock). forgets is sc.forgets when the request was sent. Only a trailer that
// says something — a delegation, or that the handle may not be cached — makes a
// record for a handle the session holds none of, and not if a record was
// forgotten while the request was in flight: a READ of a file this session has
// since removed, or that the server has since called stale, would otherwise
// bring the dead handle back, under delegation holding a read delegation.
func (sc *sessionCache) applyReplySince(ts Trailers, forwarded []nfs3.FH, forgets uint64) {
	if len(ts)+len(forwarded) == 0 {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	now := sc.nowLocked()
	for _, tr := range ts {
		fc := sc.files[tr.FH.Key()]
		switch {
		case fc != nil:
		case tr.FH.IsZero(), tr.Deleg == DelegNone && tr.Cacheable, sc.forgets.Load() != forgets:
			continue
		default:
			fc = sc.record(tr.FH.Key())
		}
		if sc.pol.model == ModelDelegation {
			if tr.Deleg != DelegNone && tr.Seq <= fc.recallFence {
				// The grant raced with (and lost to) a recall for a concurrent
				// destructive operation: honoring it would cache revoked state.
				// Drop it; the next access simply forwards.
				tr.Deleg = DelegNone
				tr.Cacheable = false
			}
			fc.deleg = tr.Deleg
		}
		fc.noncacheable = !tr.Cacheable
		fc.lastForward = now
	}
	for _, fh := range forwarded {
		if fc := sc.files[fh.Key()]; fc != nil {
			fc.lastForward = now
		}
	}
}

// applyRecall applies a delegation recall: the delegation is gone, grants
// stamped at or before the recall's are fenced off, and the attributes must be
// revalidated. Data blocks are kept; they are reconciled against the next
// server-observed attributes. Recalls are precise — a destructive directory
// operation carries the removed name and recalls the victim handle separately
// — so the named binding goes and the directory's other dentries need no
// blanket flush. A recall of a read delegation that names an offset can only
// be for another client's WRITE: news of a remote write (readahead.go).
func (sc *sessionCache) applyRecall(args RecallArgs) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.record(args.FH.Key())
	fc.deleg = DelegNone
	fc.recallFence = max(fc.recallFence, args.Seq)
	sc.dropAttrLocked(fc)
	fc.namesGen++
	sc.dropLookupLocked(fc.names[args.Name])
	if args.Deleg == DelegRead && args.HasOffset && fc.blocks != nil {
		fc.remoteWrite = true
	}
}

// recallAll applies the loss of the proxy server's state (RECALL_ALL during
// its reconstruction, Section 4.3.4) or of this proxy's own (crash recovery):
// every cached attribute must be revalidated and every delegation is void. So
// is every recall fence — the sequence they were stamped in died with the
// server, and a fence kept across the restart would drop the new instance's
// grants until its counter happened to pass it. With rebuild, files holding
// locally modified data keep a write delegation, which the server's rebuild
// re-establishes from the returned list.
func (sc *sessionCache) recallAll(rebuild bool) []nfs3.FH {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.invalidateAllLocked(true)
	for _, fc := range sc.files {
		fc.recallFence = 0
		fc.deleg = DelegNone
		if rebuild && fc.ndirty > 0 {
			fc.deleg = DelegWrite
		}
	}
	return sc.dirtyFilesLocked()
}

// --- attributes -------------------------------------------------------------

// attrLocked returns fc's valid cached attributes; fc may be nil.
func (sc *sessionCache) attrLocked(fc *cachedFile) (nfs3.Fattr, bool) {
	if fc == nil || !fc.attrLink.on() {
		return nfs3.Fattr{}, false
	}
	sc.attrLRU.bump(&fc.attrLink)
	return fc.attr, true
}

// setAttrLocked installs attributes on fc, evicting the least recently used
// attributes when the cache is over its cap. Whatever news of a remote write
// took the old ones is answered.
func (sc *sessionCache) setAttrLocked(fc *cachedFile, a nfs3.Fattr) {
	fc.attr, fc.fetched = a, sc.nowLocked()
	fc.remoteWrite = false
	sc.attrLRU.bump(&fc.attrLink)
	for sc.pol.maxAttrs > 0 && sc.attrLRU.n > sc.pol.maxAttrs {
		sc.attrLRU.remove(&sc.attrLRU.oldest().attrLink)
		sc.met.evictions.Inc()
	}
}

// dropAttrLocked invalidates fc's attributes. Whatever dropped them (GETINV,
// recall, force-invalidate) may have moved EOF: the read stream restarts
// against the revalidated size. That the last pass read the file through is
// not forgotten.
func (sc *sessionCache) dropAttrLocked(fc *cachedFile) {
	sc.attrLRU.remove(&fc.attrLink)
	fc.stream = readStream{}
}

// adjust returns server attributes as the kernel client must see them: while
// the file has buffered dirty data the size and a perturbed mtime make the
// caller observe its own writes.
func (fc *cachedFile) adjust(a nfs3.Fattr) nfs3.Fattr {
	if fc.localChange > 0 {
		a.Size = fc.size
		a.Mtime.Nsec += fc.localChange
	}
	return a
}

// getAttr returns the cached attributes for fh, if valid, adjusted for
// buffered writes — whether or not the model would let them be served.
func (sc *sessionCache) getAttr(fh nfs3.FH) (nfs3.Fattr, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.files[fh.Key()]
	a, ok := sc.attrLocked(fc)
	if !ok {
		return nfs3.Fattr{}, false
	}
	return fc.adjust(a), true
}

// metaHit is what one pass through the cache tells a metadata request about a
// handle it may answer locally: the attributes as getAttr returns them, when
// the served state was fetched, and whether the file has buffered writes (the
// staleness observatory skips those: the state served is this client's own).
type metaHit struct {
	attr  nfs3.Fattr
	stamp time.Duration
	dirty bool
}

// hitLocked is the decision behind every local metadata serve: fc (nil for an
// unknown handle) has validly cached attributes and the model lets them be
// served.
func (sc *sessionCache) hitLocked(fc *cachedFile) (h metaHit, ok bool) {
	if fc == nil || !sc.servableLocked(fc) {
		return h, false
	}
	a, ok := sc.attrLocked(fc)
	if !ok {
		return h, false
	}
	return metaHit{attr: fc.adjust(a), stamp: fc.fetched, dirty: fc.ndirty > 0}, true
}

// attrHit answers GETATTR and ACCESS in one critical section.
func (sc *sessionCache) attrHit(fh nfs3.FH) (metaHit, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.hitLocked(sc.files[fh.Key()])
}

// putAttr installs server-observed attributes, reconciling the data cache:
// a changed mtime drops clean blocks.
func (sc *sessionCache) putAttr(fh nfs3.FH, a nfs3.Fattr) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.putAttrLocked(sc.record(fh.Key()), a)
}

func (sc *sessionCache) putAttrLocked(fc *cachedFile, a nfs3.Fattr) {
	if fc.blocks != nil {
		sc.noteRecoveredLocked(fc, a.Mtime)
		// A stream begun by a revalidating GETATTR was claimed against the
		// last-known size, which is what the answer is compared with.
		if fc.attrLink.on() || fc.stream.reread {
			switch st := &fc.stream; {
			case a.Size < fc.attr.Size:
				*st = readStream{} // truncated: the stream restarts against the new EOF
			case a.Size > fc.attr.Size && st.frontier == streamDone:
				st.frontier = st.next // grown past the EOF prefetch stopped at: resume
			}
		}
		if fc.mtime != a.Mtime {
			sc.dropCleanLocked(fc)
			fc.mtime = a.Mtime
			if fc.localChange == 0 {
				fc.size = a.Size
			} else if a.Size > fc.size {
				fc.size = a.Size
			}
		} else if fc.localChange == 0 {
			fc.size = a.Size
		}
		sc.persistMetaLocked(fc)
	}
	sc.setAttrLocked(fc, a)
}

// invalidateHandle serves the GETINV polling channel, which conveys only
// handles — the client cannot tell which binding under a changed directory
// moved. So besides the attributes, a directory's dentries, negatives, and
// cached listing are all flushed: any binding observed under the old
// contents is suspect. The flush granularity matches the invalidation
// channel's granularity. A handle the session has never seen has nothing to
// invalidate and gains no record. The channel names only what another client
// changed: for a file the data path has touched, news of a remote write
// (readahead.go).
func (sc *sessionCache) invalidateHandle(fh nfs3.FH) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.invGen++
	if fc := sc.files[fh.Key()]; fc != nil {
		sc.dropAttrLocked(fc)
		sc.flushDirLocked(fc)
		if fc.blocks != nil {
			fc.remoteWrite = true
		}
	}
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
	fc.namesGen++
	fc.walk.reset()
	sc.dropListingLocked(fc)
}

// invalidateAllAttrs implements the force-invalidate flag: the entire
// attribute (and lookup) cache is dropped. news is false for the session's
// bootstrap poll, whose force flag is how the protocol starts rather than word
// of a change: replies in flight across that one are still installed.
func (sc *sessionCache) invalidateAllAttrs(news bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.invalidateAllLocked(news)
}

func (sc *sessionCache) invalidateAllLocked(news bool) {
	if news {
		sc.invGen++
	}
	for _, fc := range sc.files {
		sc.dropAttrLocked(fc)
		sc.dropListingLocked(fc)
		fc.names = nil
		fc.walk.reset()
	}
	sc.lookupLRU.init()
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
// name: bound to fh (putLookup) or gone (putNegLookup). Either way the
// directory's names changed under any reply still in flight (namesGen). The
// entry is skipped if the directory's attributes are not cached (there is
// nothing to validate it against).
func (sc *sessionCache) putLookup(dir nfs3.FH, name string, fh nfs3.FH) {
	sc.putLookupEnt(dir, name, fh, false)
}

func (sc *sessionCache) putNegLookup(dir nfs3.FH, name string) {
	sc.putLookupEnt(dir, name, nfs3.FH{}, true)
}

func (sc *sessionCache) putLookupEnt(dir nfs3.FH, name string, fh nfs3.FH, negative bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if dfc := sc.files[dir.Key()]; dfc != nil {
		dfc.namesGen++
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

func (sc *sessionCache) dropLookup(dir nfs3.FH, name string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if dfc := sc.files[dir.Key()]; dfc != nil {
		dfc.namesGen++
		sc.dropLookupLocked(dfc.names[name])
	}
}

// dropLookupLocked removes one resolution (nil: there is none).
func (sc *sessionCache) dropLookupLocked(ent *lookupEnt) {
	if ent != nil {
		sc.lookupLRU.remove(&ent.link)
		delete(ent.dir.names, ent.name)
	}
}

// putDirListing caches a complete directory listing observed alongside the
// currently cached directory attributes.
func (sc *sessionCache) putDirListing(dir nfs3.FH, entries []nfs3.DirEntry) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.files[dir.Key()]
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

// putCleanBlock caches data a demand READ fetched from the server for
// (fh, bn), tagged with the server attributes observed alongside it.
func (sc *sessionCache) putCleanBlock(fh nfs3.FH, bn uint64, data []byte, attr nfs3.Fattr) {
	sc.putBlock(fh, bn, data, attr, false)
}

// putBlock is putCleanBlock with the block's provenance: one readahead
// fetched stays marked unread until a demand read consumes it.
func (sc *sessionCache) putBlock(fh nfs3.FH, bn uint64, data []byte, attr nfs3.Fattr, prefetched bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.putBlockLocked(sc.fileFor(fh.Key()), bn, data, attr, prefetched)
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

// updateAfterWrite reconciles the cache with a forwarded WRITE's reply,
// using the weak-cache-consistency data to recognize our own modification:
// when the pre-op mtime matches the cached one, the mtime advance is ours
// and cached blocks stay valid.
func (sc *sessionCache) updateAfterWrite(fh nfs3.FH, wcc nfs3.WccData) {
	if !wcc.After.Present {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	after := wcc.After.Attr
	fc := sc.record(fh.Key())
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

// absorbable reports whether a WRITE to fh may be buffered locally — the
// session writes back or holds a write delegation, the handle is cacheable and
// its attributes are validly cached — returning them as getAttr does.
func (sc *sessionCache) absorbable(fh nfs3.FH) (nfs3.Fattr, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.files[fh.Key()]
	if fc == nil || fc.noncacheable || !(sc.pol.writeBack || fc.deleg == DelegWrite) {
		return nfs3.Fattr{}, false
	}
	a, ok := sc.attrLocked(fc)
	return fc.adjust(a), ok
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

// dropDirty abandons dirty data the kernel client no longer wants (file
// removed, or truncated by an unchecked create).
func (sc *sessionCache) dropDirty(fh nfs3.FH) { sc.discardDirty(fh, false) }

// loseDirty abandons dirty data the server refused to take (the target is
// gone, the write-back was fenced, or corruption was detected after crash
// recovery per Section 4.3.4): acknowledged writes are gone, which the file's
// next COMMIT must say.
func (sc *sessionCache) loseDirty(fh nfs3.FH) { sc.discardDirty(fh, true) }

// dirtyBaseOf returns the server mtime fh's dirty blocks were written over.
func (sc *sessionCache) dirtyBaseOf(fh nfs3.FH) (nfs3.Time, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc := sc.dataFor(fh.Key()); fc != nil && fc.ndirty > 0 {
		return fc.dirtyBase, true
	}
	return nfs3.Time{}, false
}

func (sc *sessionCache) discardDirty(fh nfs3.FH, lost bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.dataFor(fh.Key())
	if fc == nil {
		return
	}
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

// stats reports occupancy for instrumentation: records with valid attributes,
// cached name resolutions, records the data path has touched, and clean bytes.
func (sc *sessionCache) stats() (attrs, lookups, files int, bytes int64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, fc := range sc.files {
		if fc.blocks != nil {
			files++
		}
	}
	return sc.attrLRU.n, sc.lookupLRU.n, files, sc.lru.bytes
}

// --- LRUs ------------------------------------------------------------------

// link threads the entry that embeds it into one LRU ring; off the ring its
// pointers are nil. of points back at the entry.
type link[T any] struct {
	prev, next *link[T]
	of         *T
}

func (k *link[T]) on() bool { return k.next != nil }

// ring is an intrusive LRU: the cached entries themselves are threaded around
// head, head.next the most recently used, head.prev the next to be evicted. n
// counts them.
type ring[T any] struct {
	head link[T]
	n    int
}

func (l *ring[T]) init() { l.head.prev, l.head.next, l.n = &l.head, &l.head, 0 }

// bump puts k at the front, whether or not it was on the ring.
func (l *ring[T]) bump(k *link[T]) {
	l.remove(k)
	k.prev, k.next = &l.head, l.head.next
	k.prev.next, k.next.prev = k, k
	l.n++
}

// remove takes k off the ring if it is on it.
func (l *ring[T]) remove(k *link[T]) {
	if k.next == nil {
		return
	}
	k.prev.next, k.next.prev = k.next, k.prev
	k.prev, k.next = nil, nil
	l.n--
}

// oldest returns the entry next to be evicted, nil when the ring is empty
// (head belongs to no entry).
func (l *ring[T]) oldest() *T { return l.head.prev.of }

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
