package core

import (
	"container/list"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// sessionCache is the GVFS per-session client-side disk cache: file
// attributes, directory lookup results, and data blocks, plus dirty-block
// state for write-back sessions. Unlike the kernel client's caches, entries
// are by default not timed out — their validity is governed by the session's
// consistency protocol (invalidation polling or delegation callbacks), which
// is the heart of the paper's design. A session may additionally bound the
// metadata caches with TTLs and capacity limits (metaPolicy); the proxy
// enables TTLs only under the polling model, which already tolerates
// staleness up to the poll window.
type sessionCache struct {
	bs int

	mu  sync.Mutex
	pol metaPolicy
	// now reads the session's virtual clock for TTL stamps; nil freezes the
	// clock at zero, which with zero TTLs reproduces the untimed behavior.
	now func() time.Duration
	met *cacheCounters

	attrs    map[string]attrEnt     // FH key -> attributes (validity = presence)
	lookups  map[string]lookupEnt   // dir key + "\x00" + name -> child handle
	files    map[string]*cachedFile // FH key -> data blocks
	listings map[string]dirListing  // dir key -> complete directory listing
	// dirNames indexes the lookup cache by directory, so invalidating a
	// directory handle flushes its dentries and negatives in one sweep.
	dirNames map[string]map[string]bool

	attrLRU, lookupLRU, listLRU *keyLRU

	lru  lruList
	maxB int64

	// persist, when non-nil, mirrors data blocks and their dirty state into
	// the crash-consistent disk store. Every call site already holds sc.mu.
	persist blockPersister
	recMet  recoveryCounters
}

// metaPolicy bounds the metadata caches: TTLs in virtual time (0 = entries
// live until the consistency protocol invalidates them) and per-cache entry
// caps (0 = unbounded) enforced by LRU eviction.
type metaPolicy struct {
	attrTTL   time.Duration
	dentryTTL time.Duration
	negTTL    time.Duration

	maxAttrs    int
	maxDentries int
	maxListings int
}

// cacheCounters receives the cache-internal events (metadata bookkeeping and
// readahead waste); any field (or the whole struct) may be nil, which
// disables reporting.
type cacheCounters struct {
	expiries   *obs.Counter // TTL expiries across all metadata caches
	evictions  *obs.Counter // capacity evictions across all metadata caches
	dirFlushes *obs.Counter // dentries+negatives flushed by a dir invalidation
	raWasted   *obs.Counter // prefetched blocks that left the cache unread
}

func (m *cacheCounters) expiry(n int64) {
	if m != nil && m.expiries != nil && n > 0 {
		m.expiries.Add(n)
	}
}

func (m *cacheCounters) eviction(n int64) {
	if m != nil && m.evictions != nil && n > 0 {
		m.evictions.Add(n)
	}
}

func (m *cacheCounters) dirFlush(n int64) {
	if m != nil && m.dirFlushes != nil && n > 0 {
		m.dirFlushes.Add(n)
	}
}

func (m *cacheCounters) wasted(n int64) {
	if m != nil && m.raWasted != nil && n > 0 {
		m.raWasted.Add(n)
	}
}

// attrEnt is one cached attribute record, stamped with its fetch time so a
// TTL policy can expire it.
type attrEnt struct {
	attr    nfs3.Fattr
	fetched time.Duration
}

// dirListing caches a complete (single-page) READDIR result, tagged like
// negative lookups with the directory mtime it was observed under.
type dirListing struct {
	entries  []nfs3.DirEntry
	dirMtime nfs3.Time
}

type lookupEnt struct {
	fh nfs3.FH
	// negative records a NOENT result: the name is known not to exist.
	negative bool
	// dirMtime tags the entry with the directory modification time it was
	// observed under; the entry is only valid while the cached directory
	// attributes still carry that mtime, so a directory invalidation
	// followed by revalidation of a *changed* directory cannot revive
	// stale name resolutions.
	dirMtime nfs3.Time
	fetched  time.Duration
}

type cachedFile struct {
	key string
	// mtime is the server mtime the clean blocks correspond to.
	mtime nfs3.Time
	size  uint64
	// localChange > 0 while dirty data is buffered; it perturbs the mtime
	// served to the kernel client so local writes remain visible.
	localChange uint32
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
	// stamp is the virtual time the block's bytes entered the cache (server
	// fetch or local write), feeding the staleness observatory: a cache hit's
	// measured age is relative to it.
	stamp time.Duration
	// prev and next link clean blocks into the session's LRU.
	prev, next *cachedBlock
}

func newSessionCache(blockSize int, maxBytes int64) *sessionCache {
	sc := &sessionCache{
		bs:        blockSize,
		attrs:     make(map[string]attrEnt),
		lookups:   make(map[string]lookupEnt),
		files:     make(map[string]*cachedFile),
		listings:  make(map[string]dirListing),
		dirNames:  make(map[string]map[string]bool),
		attrLRU:   newKeyLRU(),
		lookupLRU: newKeyLRU(),
		listLRU:   newKeyLRU(),
		maxB:      maxBytes,
	}
	sc.lru.head.prev, sc.lru.head.next = &sc.lru.head, &sc.lru.head
	return sc
}

// setMetaPolicy installs the session's metadata cache policy, clock, and
// event counters; the proxy calls it at construction.
func (sc *sessionCache) setMetaPolicy(now func() time.Duration, pol metaPolicy, met *cacheCounters) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.now = now
	sc.pol = pol
	sc.met = met
}

// --- attributes ---------------------------------------------------------

func (sc *sessionCache) nowLocked() time.Duration {
	if sc.now == nil {
		return 0
	}
	return sc.now()
}

// expiredLocked reports whether an entry fetched at the given stamp has
// outlived ttl (0 disables the TTL).
func (sc *sessionCache) expiredLocked(fetched, ttl time.Duration) bool {
	return ttl > 0 && sc.nowLocked()-fetched >= ttl
}

// attrLocked returns the valid cached attributes for key, expiring a
// TTL-stale entry on the way.
func (sc *sessionCache) attrLocked(key string) (nfs3.Fattr, bool) {
	ent, ok := sc.attrs[key]
	if !ok {
		return nfs3.Fattr{}, false
	}
	if sc.expiredLocked(ent.fetched, sc.pol.attrTTL) {
		sc.delAttrLocked(key)
		sc.met.expiry(1)
		return nfs3.Fattr{}, false
	}
	sc.attrLRU.bump(key)
	return ent.attr, true
}

// setAttrLocked installs attributes for key, evicting the least recently
// used entry when the cache is over its cap.
func (sc *sessionCache) setAttrLocked(key string, a nfs3.Fattr) {
	sc.attrs[key] = attrEnt{attr: a, fetched: sc.nowLocked()}
	sc.attrLRU.bump(key)
	for sc.pol.maxAttrs > 0 && len(sc.attrs) > sc.pol.maxAttrs {
		victim, ok := sc.attrLRU.evict()
		if !ok {
			break
		}
		delete(sc.attrs, victim)
		sc.met.eviction(1)
	}
}

func (sc *sessionCache) delAttrLocked(key string) {
	delete(sc.attrs, key)
	sc.attrLRU.remove(key)
	// Whatever dropped the attributes (GETINV, recall, stale handle) may have
	// moved EOF: the read stream restarts against the revalidated size.
	if fc, ok := sc.files[key]; ok {
		fc.stream = readStream{}
	}
}

// getAttr returns the cached attributes for fh, if valid. When the file has
// buffered dirty data, the returned attributes are adjusted (size, perturbed
// mtime) so the caller observes its own writes.
func (sc *sessionCache) getAttr(fh nfs3.FH) (nfs3.Fattr, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	a, ok := sc.attrLocked(fh.Key())
	if !ok {
		return nfs3.Fattr{}, false
	}
	return sc.adjustLocked(fh.Key(), a), true
}

func (sc *sessionCache) adjustLocked(key string, a nfs3.Fattr) nfs3.Fattr {
	if fc, ok := sc.files[key]; ok && fc.localChange > 0 {
		a.Size = fc.size
		a.Mtime.Nsec += fc.localChange
	}
	return a
}

// putAttr installs server-observed attributes, reconciling the data cache:
// a changed mtime drops clean blocks.
func (sc *sessionCache) putAttr(fh nfs3.FH, a nfs3.Fattr) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	if fc, ok := sc.files[key]; ok {
		sc.noteRecoveredLocked(fc, a.Mtime)
		if old, cached := sc.attrs[key]; cached {
			switch st := &fc.stream; {
			case a.Size < old.attr.Size:
				*st = readStream{} // truncated: the stream restarts against the new EOF
			case a.Size > old.attr.Size && st.frontier == streamDone:
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
	sc.setAttrLocked(key, a)
}

// invalidateAttr drops the attribute entry for fh, forcing revalidation on
// next access. Data blocks are kept; they are reconciled against the next
// server-observed attributes. This is the callback-recall channel: recalls
// are precise — destructive directory operations carry the removed name and
// recall the victim handle separately — so the file's dentries need no
// blanket flush here.
func (sc *sessionCache) invalidateAttr(fh nfs3.FH) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.delAttrLocked(fh.Key())
}

// invalidateHandle serves the GETINV polling channel, which conveys only
// handles — the client cannot tell which binding under a changed directory
// moved. So besides the attributes, a directory's dentries, negatives, and
// cached listing are all flushed: any binding observed under the old
// contents is suspect. The flush granularity matches the invalidation
// channel's granularity.
func (sc *sessionCache) invalidateHandle(fh nfs3.FH) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	sc.delAttrLocked(key)
	sc.flushDirLocked(key)
}

// flushDirLocked drops every dentry, negative entry, and cached listing
// hanging off the directory key.
func (sc *sessionCache) flushDirLocked(dirKey string) {
	names := sc.dirNames[dirKey]
	for name := range names {
		lk := dirKey + "\x00" + name
		delete(sc.lookups, lk)
		sc.lookupLRU.remove(lk)
	}
	if n := len(names); n > 0 {
		sc.met.dirFlush(int64(n))
	}
	delete(sc.dirNames, dirKey)
	if _, ok := sc.listings[dirKey]; ok {
		delete(sc.listings, dirKey)
		sc.listLRU.remove(dirKey)
	}
}

// invalidateAllAttrs implements the force-invalidate flag: the entire
// attribute (and lookup) cache is dropped.
func (sc *sessionCache) invalidateAllAttrs() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.attrs = make(map[string]attrEnt)
	sc.lookups = make(map[string]lookupEnt)
	sc.listings = make(map[string]dirListing)
	sc.dirNames = make(map[string]map[string]bool)
	sc.attrLRU = newKeyLRU()
	sc.lookupLRU = newKeyLRU()
	sc.listLRU = newKeyLRU()
	for _, fc := range sc.files {
		fc.stream = readStream{}
	}
}

// forget removes every trace of fh (REMOVE, stale handle). Demand reads
// parked on a prefetch of the file are released: the prefetch, when it
// returns, finds no entry to clear and nobody to wake.
func (sc *sessionCache) forget(fh nfs3.FH) {
	sc.mu.Lock()
	key := fh.Key()
	sc.delAttrLocked(key)
	sc.flushDirLocked(key)
	var parked []*vclock.Waiter
	if fc, ok := sc.files[key]; ok {
		sc.dropCleanLocked(fc)
		for _, ws := range fc.fetching {
			parked = append(parked, ws...)
		}
		delete(sc.files, key)
		if sc.persist != nil {
			sc.persist.DropFile(key)
		}
	}
	sc.mu.Unlock()
	for _, w := range parked {
		w.Wake()
	}
}

// --- lookup cache -------------------------------------------------------

func cacheLookupKey(dir nfs3.FH, name string) string { return dir.Key() + "\x00" + name }

// getLookup returns a cached name resolution (possibly negative); it is
// only valid while the directory's attributes are validly cached.
//
// Positive bindings additionally require the caller to hold valid cached
// attributes for the child (checked at the serving site): per-file
// invalidations cover every way a binding can break (REMOVE and RENAME
// invalidate the victim's handle), so a directory mtime change alone —
// e.g. an unrelated file created next to it — does not force re-lookups of
// every name. Negative entries have no child to validate, so they are
// additionally tagged with the directory mtime they were observed under and
// die on any directory change.
func (sc *sessionCache) getLookup(dir nfs3.FH, name string) (fh nfs3.FH, negative, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dirAttr, dirValid := sc.attrLocked(dir.Key())
	if !dirValid {
		return nfs3.FH{}, false, false
	}
	lk := cacheLookupKey(dir, name)
	ent, ok := sc.lookups[lk]
	if !ok {
		return nfs3.FH{}, false, false
	}
	ttl := sc.pol.dentryTTL
	if ent.negative {
		ttl = sc.pol.negTTL
	}
	if sc.expiredLocked(ent.fetched, ttl) {
		sc.dropLookupKeyLocked(dir.Key(), name)
		sc.met.expiry(1)
		return nfs3.FH{}, false, false
	}
	if ent.negative && ent.dirMtime != dirAttr.Mtime {
		return nfs3.FH{}, false, false
	}
	sc.lookupLRU.bump(lk)
	return ent.fh, ent.negative, true
}

// putLookup caches a resolution; fh zero with negative set records NOENT.
// The entry is skipped if the directory's attributes are not cached (there
// is nothing to validate it against).
func (sc *sessionCache) putLookup(dir nfs3.FH, name string, fh nfs3.FH) {
	sc.putLookupEnt(dir, name, fh, false)
}

func (sc *sessionCache) putNegLookup(dir nfs3.FH, name string) {
	sc.putLookupEnt(dir, name, nfs3.FH{}, true)
}

func (sc *sessionCache) putLookupEnt(dir nfs3.FH, name string, fh nfs3.FH, negative bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dirKey := dir.Key()
	dirAttr, dirValid := sc.attrLocked(dirKey)
	if !dirValid {
		return
	}
	lk := cacheLookupKey(dir, name)
	sc.lookups[lk] = lookupEnt{
		fh: fh, negative: negative, dirMtime: dirAttr.Mtime, fetched: sc.nowLocked(),
	}
	names := sc.dirNames[dirKey]
	if names == nil {
		names = make(map[string]bool)
		sc.dirNames[dirKey] = names
	}
	names[name] = true
	sc.lookupLRU.bump(lk)
	for sc.pol.maxDentries > 0 && len(sc.lookups) > sc.pol.maxDentries {
		victim, ok := sc.lookupLRU.evict()
		if !ok {
			break
		}
		delete(sc.lookups, victim)
		if d, n, split := splitLookupKey(victim); split {
			if ns := sc.dirNames[d]; ns != nil {
				delete(ns, n)
				if len(ns) == 0 {
					delete(sc.dirNames, d)
				}
			}
		}
		sc.met.eviction(1)
	}
}

// splitLookupKey recovers (dir key, name) from a lookup cache key.
func splitLookupKey(lk string) (dirKey, name string, ok bool) {
	for i := len(lk) - 1; i >= 0; i-- {
		if lk[i] == 0 {
			return lk[:i], lk[i+1:], true
		}
	}
	return "", "", false
}

// putDirListing caches a complete directory listing observed alongside the
// currently cached directory attributes.
func (sc *sessionCache) putDirListing(dir nfs3.FH, entries []nfs3.DirEntry) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dirKey := dir.Key()
	dirAttr, ok := sc.attrLocked(dirKey)
	if !ok {
		return
	}
	cp := make([]nfs3.DirEntry, len(entries))
	copy(cp, entries)
	sc.listings[dirKey] = dirListing{entries: cp, dirMtime: dirAttr.Mtime}
	sc.listLRU.bump(dirKey)
	for sc.pol.maxListings > 0 && len(sc.listings) > sc.pol.maxListings {
		victim, ok := sc.listLRU.evict()
		if !ok {
			break
		}
		delete(sc.listings, victim)
		sc.met.eviction(1)
	}
}

// getDirListing returns the cached complete listing if it is still coherent
// with the cached directory attributes.
func (sc *sessionCache) getDirListing(dir nfs3.FH) ([]nfs3.DirEntry, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dirKey := dir.Key()
	dirAttr, ok := sc.attrLocked(dirKey)
	if !ok {
		return nil, false
	}
	l, ok := sc.listings[dirKey]
	if !ok || l.dirMtime != dirAttr.Mtime {
		return nil, false
	}
	sc.listLRU.bump(dirKey)
	return l.entries, true
}

func (sc *sessionCache) dropLookup(dir nfs3.FH, name string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.dropLookupKeyLocked(dir.Key(), name)
}

func (sc *sessionCache) dropLookupKeyLocked(dirKey, name string) {
	lk := dirKey + "\x00" + name
	delete(sc.lookups, lk)
	sc.lookupLRU.remove(lk)
	if ns := sc.dirNames[dirKey]; ns != nil {
		delete(ns, name)
		if len(ns) == 0 {
			delete(sc.dirNames, dirKey)
		}
	}
}

// --- data blocks ----------------------------------------------------------

func (sc *sessionCache) fileFor(key string) *cachedFile {
	fc, ok := sc.files[key]
	if !ok {
		fc = &cachedFile{
			key:      key,
			blocks:   make(map[uint64]*cachedBlock),
			fetching: make(map[uint64][]*vclock.Waiter),
		}
		sc.files[key] = fc
	}
	return fc
}

// blockFor returns the file's record for block bn, a new empty one if the
// cache does not hold the block yet.
func (fc *cachedFile) blockFor(bn uint64) *cachedBlock {
	blk := fc.blocks[bn]
	if blk == nil {
		blk = &cachedBlock{fc: fc, bn: bn}
		fc.blocks[bn] = blk
	}
	return blk
}

// blockLocked looks up a held block for a reader: a clean one moves to the
// front of the LRU, a prefetched one has found its demand read.
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
		blk.unread = false
	}
	return fc, blk
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
// holds: the bytes, when they entered the cache, the file's attributes as
// getAttr would return them (attrOK false: not validly cached), and whether
// the file has buffered writes.
type blockHit struct {
	data   []byte
	stamp  time.Duration
	attr   nfs3.Fattr
	attrOK bool
	dirty  bool
}

// readHit is getBlock, getAttr and hasDirty in one critical section: the warm
// READ path crosses the cache mutex once.
func (sc *sessionCache) readHit(fh nfs3.FH, bn uint64) (h blockHit, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	fc, blk := sc.blockLocked(key, bn)
	if blk == nil {
		return h, false
	}
	h = blockHit{data: blk.data, stamp: blk.stamp, dirty: fc.ndirty > 0}
	if h.attr, h.attrOK = sc.attrLocked(key); h.attrOK {
		h.attr = sc.adjustLocked(key, h.attr)
	}
	return h, true
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
	key := fh.Key()
	fc := sc.fileFor(key)
	sc.noteRecoveredLocked(fc, attr.Mtime)
	if fc.mtime != attr.Mtime {
		sc.dropCleanLocked(fc)
		fc.mtime = attr.Mtime
		if fc.localChange == 0 {
			fc.size = attr.Size
		}
	}
	blk := fc.blockFor(bn)
	// An earlier prefetch of this block that nothing read is superseded.
	sc.dropUnreadLocked(blk)
	if blk.dirty {
		if prefetched {
			sc.met.wasted(1)
		}
		return // never overwrite dirty data with server state
	}
	// Tail blocks (the EOF path) are stored at their natural length; full
	// blocks are padded to the block size. Serving code must therefore never
	// derive in-block offsets from len(block). The copy is a fresh slice: a
	// reader may still be copying out of the one it replaces.
	sc.lru.remove(blk)
	blk.data = append([]byte(nil), data[:min(len(data), sc.bs)]...)
	blk.stamp = sc.nowLocked()
	blk.unread = prefetched
	sc.lru.add(blk)
	if sc.persist != nil {
		sc.persist.PutBlock(key, bn, blk.data, false, blk.gen)
		sc.persistMetaLocked(fc)
	}
	sc.evictLocked()
}

// dropUnreadLocked forgets that blk was prefetched, counting the prefetch as
// wasted if no demand read consumed it.
func (sc *sessionCache) dropUnreadLocked(blk *cachedBlock) {
	if blk.unread {
		blk.unread = false
		sc.met.wasted(1)
	}
}

// --- fetch stamps (staleness observatory) ---------------------------------
//
// The observatory measures a cache hit's age from the virtual time its bytes
// entered the cache. Attribute and lookup entries already carry fetch stamps
// for the TTL policy; a block's is in its record and comes back with readHit.
// The getters are ok=false when the entry is absent — the caller then skips
// the observe rather than inventing an age.

// attrStamp reports when fh's cached attributes were fetched.
func (sc *sessionCache) attrStamp(fh nfs3.FH) (time.Duration, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ent, ok := sc.attrs[fh.Key()]
	return ent.fetched, ok
}

// lookupStamp reports when the cached resolution of name under dir was
// fetched.
func (sc *sessionCache) lookupStamp(dir nfs3.FH, name string) (time.Duration, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ent, ok := sc.lookups[cacheLookupKey(dir, name)]
	return ent.fetched, ok
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
	key := fh.Key()
	after := wcc.After.Attr
	if fc, ok := sc.files[key]; ok {
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
	sc.setAttrLocked(key, after)
}

// writeDirty buffers a write locally (write-back / write delegation),
// returning the resulting file size.
func (sc *sessionCache) writeDirty(fh nfs3.FH, off uint64, data []byte) uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	fc := sc.fileFor(key)
	bs := uint64(sc.bs)
	for n := 0; n < len(data); {
		pos := off + uint64(n)
		bn := pos / bs
		bo := pos % bs
		chunk := min(int(bs-bo), len(data)-n)
		blk := fc.blockFor(bn)
		sc.lru.remove(blk)
		if uint64(len(blk.data)) < bs {
			// A new block, or a short-stored tail being overwritten: dirty
			// blocks are always full-sized.
			blk.data = append(make([]byte, 0, bs), blk.data...)[:bs]
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
	return fc.size
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
	if fc, ok := sc.files[fh.Key()]; ok {
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
	fc, ok := sc.files[fh.Key()]
	if !ok {
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
	fc, exists := sc.files[fh.Key()]
	if !exists {
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
// or failure).
func (sc *sessionCache) endFlush(fh nfs3.FH, bns []uint64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, ok := sc.files[fh.Key()]
	if !ok {
		return
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
}

// flushInFlight reports whether any flush of fh is still in flight.
func (sc *sessionCache) flushInFlight(fh nfs3.FH) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, ok := sc.files[fh.Key()]
	return ok && fc.inflight > 0
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
	fc, exists := sc.files[key]
	if !exists {
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
		sc.setAttrLocked(key, after.Attr)
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
)

// settleCommit decides how a COMMIT of fh is answered, after the caller has
// flushed the file and waited its write-back out. A loss is reported once.
// With a forward verdict comes the number of unstable WRITE replies the
// COMMIT will cover if it succeeds (commitCovered): one that arrives while
// the COMMIT is in flight is not among them, and makes the next COMMIT cross
// as well.
func (sc *sessionCache) settleCommit(fh nfs3.FH) (v commitVerdict, attr nfs3.Fattr, unstable int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	fc, ok := sc.files[key]
	switch {
	case !ok:
		return commitForward, attr, 0
	case fc.lost:
		fc.lost = false
		return commitLost, attr, 0
	case fc.ndirty > 0 || fc.inflight > 0:
		return commitPending, attr, 0
	}
	if attr, ok = sc.attrLocked(key); !ok || fc.unstable > 0 {
		return commitForward, attr, fc.unstable
	}
	return commitLocal, attr, 0
}

// commitCovered records that a forwarded COMMIT of fh succeeded: the n
// unstable WRITE replies seen before it was sent are on stable storage now.
func (sc *sessionCache) commitCovered(fh nfs3.FH, n int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc, ok := sc.files[fh.Key()]; ok {
		fc.unstable = max(fc.unstable-n, 0)
	}
}

// hasDirty reports whether fh has buffered dirty blocks.
func (sc *sessionCache) hasDirty(fh nfs3.FH) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, ok := sc.files[fh.Key()]
	return ok && fc.ndirty > 0
}

// dropDirty abandons dirty data the kernel client no longer wants (file
// removed, or truncated by an unchecked create).
func (sc *sessionCache) dropDirty(fh nfs3.FH) { sc.discardDirty(fh, false) }

// loseDirty abandons dirty data the server refused to take (the target is
// gone, the write-back was fenced, or corruption was detected after crash
// recovery per Section 4.3.4): acknowledged writes are gone, which the file's
// next COMMIT must say.
func (sc *sessionCache) loseDirty(fh nfs3.FH) { sc.discardDirty(fh, true) }

func (sc *sessionCache) discardDirty(fh nfs3.FH, lost bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, ok := sc.files[fh.Key()]
	if !ok {
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
// and never read, out of the file's table and off the disk.
func (sc *sessionCache) dropBlockLocked(blk *cachedBlock) {
	fc := blk.fc
	sc.lru.remove(blk)
	if blk.dirty {
		fc.ndirty--
	}
	sc.dropUnreadLocked(blk)
	delete(fc.blocks, blk.bn)
	if sc.persist != nil {
		sc.persist.DropBlock(fc.key, blk.bn)
	}
}

func (sc *sessionCache) evictLocked() {
	for blk := sc.lru.oldest(); blk != nil && sc.lru.bytes > sc.maxB; blk = sc.lru.oldest() {
		sc.dropBlockLocked(blk)
	}
}

// stats snapshot for instrumentation.
type cacheStats struct {
	Attrs   int
	Lookups int
	Files   int
	Bytes   int64
}

func (sc *sessionCache) stats() cacheStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return cacheStats{Attrs: len(sc.attrs), Lookups: len(sc.lookups), Files: len(sc.files), Bytes: sc.lru.bytes}
}

// --- byte-bounded LRU over clean blocks ----------------------------------

// lruList threads the clean block records themselves into a ring around
// head: head.next is the most recently used block, head.prev the next to be
// evicted. A record off the list has nil links.
type lruList struct {
	head  cachedBlock
	bytes int64
}

// add puts blk at the front, whether or not it was on the list.
func (l *lruList) add(blk *cachedBlock) {
	l.remove(blk)
	blk.prev, blk.next = &l.head, l.head.next
	blk.prev.next, blk.next.prev = blk, blk
	l.bytes += int64(len(blk.data))
}

// oldest returns the block next to be evicted, nil when the list is empty.
func (l *lruList) oldest() *cachedBlock {
	if l.head.prev == &l.head {
		return nil
	}
	return l.head.prev
}

// remove takes blk off the list if it is on it. A block's data may only be
// replaced while it is off.
func (l *lruList) remove(blk *cachedBlock) {
	if blk.next == nil {
		return
	}
	blk.prev.next, blk.next.prev = blk.next, blk.prev
	blk.prev, blk.next = nil, nil
	l.bytes -= int64(len(blk.data))
}

// --- entry-count LRU over string-keyed metadata caches --------------------

// keyLRU orders string keys by recency for the metadata caches' capacity
// eviction. Unlike lruList it counts entries, not bytes: metadata records
// are small and uniform.
type keyLRU struct {
	order *list.List
	index map[string]*list.Element
}

func newKeyLRU() *keyLRU {
	return &keyLRU{order: list.New(), index: make(map[string]*list.Element)}
}

// bump inserts key at the front, or moves an existing key there.
func (l *keyLRU) bump(key string) {
	if el, ok := l.index[key]; ok {
		l.order.MoveToFront(el)
		return
	}
	l.index[key] = l.order.PushFront(key)
}

func (l *keyLRU) remove(key string) {
	if el, ok := l.index[key]; ok {
		l.order.Remove(el)
		delete(l.index, key)
	}
}

// evict removes and returns the least recently used key.
func (l *keyLRU) evict() (string, bool) {
	el := l.order.Back()
	if el == nil {
		return "", false
	}
	key := el.Value.(string)
	l.order.Remove(el)
	delete(l.index, key)
	return key, true
}
