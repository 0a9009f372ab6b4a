package core

import (
	"sync"
	"sync/atomic"
	"time"

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
	// record. forgets counts the handles forget was told are dead, held or
	// not: a reply to a call sent before one cannot tell a handle it never saw
	// from one that died under it, and brings no record back (ticket).
	files   map[string]*cachedFile
	forgets atomic.Uint64

	// One ring per cap: a record is on attrLRU exactly while its attributes
	// are valid and on listLRU exactly while it holds a listing; a lookup entry
	// (cachedFile.names) is on lookupLRU for as long as it exists.
	attrLRU, listLRU ring[cachedFile]
	lookupLRU        ring[lookupEnt]
	// invGen counts the invalidations the consistency channel has delivered; a
	// reply sent before one and installed after it would bring back what the
	// invalidation took (ticket). namesGen sums every record's namesGen: a
	// listing that rides a LOOKUP is for a directory unknown when the LOOKUP
	// went out (seedLookup).
	invGen, namesGen uint64

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

	// pending is the table of absorbed REMOVEs and CREATEs whose replies have
	// not landed (proxyclient_pending.go), in the order they were absorbed;
	// mints, the handles the session minted for the files it created at home
	// (proxyclient_create.go). held counts both for the upstream boundary,
	// which reads nothing else while it is zero.
	pending []*pendingOp
	mints   mintTable
	held    atomic.Int32
}

// The session cache's metadata caps: past one, the least recently used entry
// of that part is evicted.
const (
	maxAttrEntries = 65536
	maxDentries    = 65536
	maxDirListings = 1024
)

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
	// namespace operations; see ticket. walk is the directory's walk
	// (dirwalk.go), reset whenever the names are flushed.
	namesGen uint64
	walk     dirWalk

	// The handle's protocol state, which only the delegation model keeps.
	// deleg is the delegation held; noncacheable is set by a grant of none,
	// the server's verdict that the handle must not be cached at all until its
	// next grant; lastForward is when a request for the handle last crossed
	// the wide area (delegation renewal); recallFence is the sequence of the
	// latest recall served, against which grants that lost a race with it are
	// dropped; trailerSeq is the highest sequence of a trailer applied, against
	// which a trailer overtaken on the way by its successor is dropped;
	// noneSeq is the highest stamp of a decision of none seen for the handle,
	// applied or overtaken, after which another client's change reaches the
	// session unannounced (overtaken). Only a dead handle's stamps may go: a
	// live file's must outlast everything else cached of it.
	deleg        DelegType
	noncacheable bool
	lastForward  time.Duration
	recallFence  uint64
	trailerSeq   uint64
	noneSeq      uint64

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

	// invs counts the invalidations the polling channel delivered for this
	// handle, a GETINV naming it or a force: a reply about it sent before one
	// installs nothing (ticket).
	invs uint64
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
	parked := sc.forgetLocked(fh.Key())
	sc.mu.Unlock()
	for _, w := range parked {
		w.Wake()
	}
}

// forgetLocked is forget's critical section; it returns the actors to wake.
func (sc *sessionCache) forgetLocked(key string) []*vclock.Waiter {
	sc.forgets.Add(1)
	if m := sc.mints.byP[key]; m != nil && m.op == nil {
		sc.dropMintLocked(m)
	}
	fc := sc.files[key]
	if fc == nil {
		return nil
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
	if fc.blocks != nil && sc.persist != nil {
		sc.persist.DropFile(key)
	}
	return parked
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
// for each the proxy server's trailers name, the delegation it decided on; and
// for those and the handles the request itself was for, that a request just
// crossed the wide area (renewal clock). tk is the request's ticket. Only the
// delegation model decides, and a grant of none is the server's verdict that
// the handle may not be cached (noncacheable) until its next grant. A trailer
// makes a record for a handle the session holds none of only if the landing
// rule lets a record be made (landsLocked): not if a record was forgotten
// while the request was in flight, since a READ of a file this session has
// since removed, or that the server has since called stale, would otherwise
// bring the dead handle back holding a read delegation. A record that a
// recall made to carry its fence, and no trailer has reached since, is as
// new: the recall may have reached the handle after the session forgot it. A trailer stamped before one the record has applied
// says nothing any more: the server made the later decision after it (a READ's
// grant, say, that a WRITE's reply overtook, whose decision took the
// delegation back without a recall).
//
// What the reply says of a handle is installed only if its decision there was
// not overtaken meanwhile (cachedFile.overtaken): the installs compare stamps
// under the lock they install under, so a recall served between this call and
// theirs counts too.
func (sc *sessionCache) applyReplySince(ts Trailers, forwarded []nfs3.FH, tk ticket) {
	if len(ts)+len(forwarded) == 0 {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.applyReplyLocked(ts, forwarded, tk)
}

func (sc *sessionCache) applyReplyLocked(ts Trailers, forwarded []nfs3.FH, tk ticket) {
	now := sc.nowLocked()
	for _, tr := range ts {
		fc := sc.files[tr.FH.Key()]
		switch {
		case fc != nil && (fc.trailerSeq > 0 || fc.recallFence == 0): // not made by a recall alone
		case tr.FH.IsZero(), !sc.landsLocked(tk, nil, 0, false):
			continue
		case fc == nil:
			fc = sc.record(tr.FH.Key())
		}
		fc.lastForward = now
		if tr.Deleg == DelegNone {
			fc.noneSeq = max(fc.noneSeq, tr.Seq)
		}
		if tr.Seq < fc.trailerSeq {
			continue
		}
		fc.trailerSeq = tr.Seq
		if sc.pol.model != ModelDelegation {
			continue
		}
		if tr.Deleg != DelegNone && tr.Seq <= fc.recallFence {
			// The grant raced with (and lost to) a recall for a concurrent
			// destructive operation: honoring it would cache revoked state.
			// Drop it; the next access simply forwards.
			tr.Deleg = DelegNone
		}
		fc.deleg = tr.Deleg
		fc.noncacheable = tr.Deleg == DelegNone
	}
	for _, fh := range forwarded {
		if fc := sc.files[fh.Key()]; fc != nil {
			fc.lastForward = now
		}
	}
}

// overtaken reports whether what a reply whose decision about fc is stamped
// seq says of the file may be older than another client's change the session
// has since been told of, or was since left untold of. A reply read the file
// under its own decision. While the session holds a delegation from then on,
// another client's change reaches it as a recall, stamped later: the record's
// fence is at or past seq. A decision of none at or after seq (the reply's
// own, or one that overtook it) ends that: a change after it is announced to
// nobody, and the record may already hold a later reply's newer view, which
// this one must not replace. seq 0 is a reply that decides nothing about fc
// (polling, or a plain NFS server), whose installs stand as before. A later
// grant alone overtakes nothing: the session's own READs, demand and
// prefetch, come back in any order under one delegation.
func (fc *cachedFile) overtaken(seq uint64) bool {
	return seq != 0 && (seq <= fc.recallFence || seq < fc.trailerSeq && seq <= fc.noneSeq)
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
	sc.namesTakenLocked(fc)
	sc.dropLookupLocked(fc.names[args.Name])
	if args.Deleg == DelegRead && args.HasOffset && fc.blocks != nil {
		fc.remoteWrite = true
	}
}

// recallAll applies the loss of the proxy server's state (RECALL_ALL during
// its reconstruction, Section 4.3.4) or of this proxy's own (crash recovery):
// every cached attribute must be revalidated and every delegation is void, a
// grant of none included. So is every recall fence and trailer stamp — the
// sequence they were stamped in died with the server, and a stamp kept across
// the restart would drop the new instance's grants until its counter happened
// to pass it. With rebuild, files holding locally modified data keep a write
// delegation, which the server's rebuild re-establishes from the returned list.
// It is no news to a reply in flight (ticket): the restarted server decides
// what crosses it after sending it.
func (sc *sessionCache) recallAll(rebuild bool) []nfs3.FH {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.invalidateAllLocked(false)
	for _, fc := range sc.files {
		fc.recallFence, fc.trailerSeq, fc.noneSeq = 0, 0, 0
		fc.deleg, fc.noncacheable = DelegNone, false
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

// ticket is what a forwarded call goes out under, taken once as it is sent
// (startUpstream; an absorbed REMOVE or CREATE at its absorb; a walk page at
// its claim, renewed at its send) and shown wherever its reply installs
// (landsLocked). The reply read the server before whatever reached the session
// while it was out, so what it says may be older than that news.
type ticket struct {
	fh       nfs3.FH     // the call's first handle (handlesOf); zero for none
	rec      *cachedFile // fh's record when sent; nil if the session had none
	invs     uint64      // rec.invs when sent
	names    uint64      // rec.namesGen when sent
	inv      uint64      // sessionCache.invGen when sent
	allNames uint64      // sessionCache.namesGen when sent
	forgets  uint64      // sessionCache.forgets when sent
	sent     time.Duration
}

// ticket is the ticket of a call about fh (zero: about no handle) that is
// about to be sent.
func (sc *sessionCache) ticket(fh nfs3.FH) ticket {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.ticketLocked(fh)
}

func (sc *sessionCache) ticketLocked(fh nfs3.FH) ticket {
	tk := ticket{fh: fh, rec: sc.files[fh.Key()], inv: sc.invGen, allNames: sc.namesGen, forgets: sc.forgets.Load(), sent: sc.nowLocked()}
	if tk.rec != nil {
		tk.invs, tk.names = tk.rec.invs, tk.rec.namesGen
	}
	return tk
}

// landsLocked is the one landing rule of a forwarded reply: what the reply
// sent under tk says of fc may be installed only if nothing it may have
// missed reached the session while it was out. fc nil is a record the
// install would make.
//
//   - The call's own handle, whose record tk took: that record is still in
//     place (forget did not end it), and no invalidation named it (invs).
//   - Any other handle (a CREATE's child, a RENAME's second directory, a
//     listing's entries), or the call's own if the session had no record of
//     it then: no invalidation was delivered at all (invGen), since news of
//     it could not be told from news of anything else.
//   - A record the install would make: besides, no handle was forgotten
//     (forgets), lest the reply bring a dead one back.
//   - names, for a reply that binds names under fc (a listing, a LOOKUP):
//     no name under fc was taken back, by an invalidation or by a namespace
//     operation of the session's own (namesGen: the record's, or the
//     session's for a handle it had no record of); and, since the names bind
//     handles the call did not name, no invalidation was delivered at all.
//   - Under delegation, the reply's decision about fc, stamped seq (0: it
//     decides nothing), was not overtaken (cachedFile.overtaken).
//
// The rule is the same under both models. A RECALL_ALL is no news to a reply
// it crossed (recallAll): the restarted server holds calls until its rebuild
// is done, and decided that reply after sending it. So under delegation
// nothing moves invs or invGen, and a reply there is ordered against the
// recalls by its decision's stamp alone, a listing's and a MOUNT's as a
// GETATTR's.
func (sc *sessionCache) landsLocked(tk ticket, fc *cachedFile, seq uint64, names bool) bool {
	if fc != nil && fc.overtaken(seq) {
		return false
	}
	if fc != nil && tk.rec != nil && fc.key == tk.rec.key { // the call's own handle
		held := sc.files[fc.key] == tk.rec && tk.rec.invs == tk.invs
		return held && (!names || tk.rec.namesGen == tk.names && sc.invGen == tk.inv)
	}
	return sc.invGen == tk.inv && (fc != nil || sc.forgets.Load() == tk.forgets) && (!names || sc.namesGen == tk.allNames)
}

// landReply installs what a forwarded reply, sent under tk with trailers ts,
// says of fh: its attributes and, with block set, the block bn it carried
// (putBlockLocked's rule), unless the landing rule refuses both.
func (sc *sessionCache) landReply(tk ticket, ts Trailers, fh nfs3.FH, a nfs3.Fattr, block bool, bn uint64, data []byte) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.record(fh.Key())
	if !sc.landsLocked(tk, fc, ts.seqOf(fh), false) {
		return
	}
	if block {
		sc.putBlockLocked(sc.fileFor(fc.key), bn, data, a, false)
	}
	sc.putAttrLocked(fc, a)
}

// landAttr is landReply for a reply's attributes alone.
func (sc *sessionCache) landAttr(tk ticket, ts Trailers, fh nfs3.FH, a nfs3.Fattr) {
	sc.landReply(tk, ts, fh, a, false, 0, nil)
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
// invalidate and gains no record. A file the session created at home is
// named by the server's handle, and its record is found by the minted one.
// The channel names only what another client changed: for a file the data
// path has touched, news of a remote write (readahead.go).
func (sc *sessionCache) invalidateHandle(fh nfs3.FH) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.invGen++
	if fc := sc.files[sc.sessionKeyLocked(fh.Key())]; fc != nil {
		fc.invs++
		sc.dropAttrLocked(fc)
		sc.flushDirLocked(fc)
		if fc.blocks != nil {
			fc.remoteWrite = true
		}
	}
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
		if news {
			fc.invs++
		}
		sc.dropAttrLocked(fc)
		sc.dropListingLocked(fc)
		fc.names = nil
		fc.walk.reset()
	}
	sc.lookupLRU.init()
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
