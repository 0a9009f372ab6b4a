package core

import (
	"repro/internal/bufpool"
	"repro/internal/diskcache"
	"repro/internal/nfs3"
	"repro/internal/obs"
)

// blockPersister is the sessionCache's view of the on-disk block store: a
// mirror of block data and dirty state, driven synchronously from under the
// cache mutex at every mutation site. A nil persister disables persistence
// with zero hot-path overhead. *diskcache.Store implements it.
type blockPersister interface {
	PutBlock(key string, bn uint64, data []byte, dirty bool, gen uint64)
	MarkClean(key string, bn uint64, gen uint64)
	DropBlock(key string, bn uint64)
	DropFile(key string)
	SetFileMeta(key string, mtimeSec, mtimeNsec uint32, size uint64, localChange uint32)
}

// recoveryCounters receives the revalidated-vs-refetched verdicts for
// recovered clean blocks; a nil counter counts nothing.
type recoveryCounters struct {
	revalidated *obs.Counter
	refetched   *obs.Counter
}

// setPersister installs the cache's disk mirror and the recovery counters.
func (sc *sessionCache) setPersister(p blockPersister, met recoveryCounters) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.persist = p
	sc.recMet = met
}

// persistMetaLocked mirrors the file's identity attributes; the store
// deduplicates unchanged metas.
func (sc *sessionCache) persistMetaLocked(fc *cachedFile) {
	if sc.persist != nil {
		sc.persist.SetFileMeta(fc.key, fc.mtime.Sec, fc.mtime.Nsec, fc.size, fc.localChange)
	}
}

// adoptRecovered installs the disk store's recovered files into the cache;
// the store is already attached as the persister and holds exactly these
// blocks. Clean blocks enter the LRU; dirty blocks re-enter the write-back
// pipeline with their saved generations, and the file's write sequence
// resumes above them, so the existing lost-update fences (flushed compares
// generations) hold across the restart. Files with surviving clean blocks are
// marked for revalidation accounting: their first server attribute
// observation decides revalidated (mtime unchanged — the blocks were served
// without refetching) versus refetched (mtime moved — the normal
// reconciliation drops them).
func (sc *sessionCache) adoptRecovered(files map[string]*diskcache.FileState) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for key, fs := range files {
		fc := sc.fileFor(key)
		fc.mtime = nfs3.Time{Sec: fs.MtimeSec, Nsec: fs.MtimeNsec}
		fc.size = fs.Size
		fc.localChange = fs.LocalChange
		// Which WRITE replies the previous incarnation saw is not on disk:
		// the file's first COMMIT crosses the wide area.
		fc.unstable = 1
		for bn, b := range fs.Blocks {
			blk := sc.blockForLocked(fc, bn)
			buf := bufpool.Get(len(b.Data))
			copy(buf, b.Data)
			blk.setData(buf)
			blk.dirty, blk.gen, blk.stamp = b.Dirty, b.Gen, sc.nowLocked()
			fc.wseq = max(fc.wseq, b.Gen)
			if b.Dirty {
				fc.ndirty++
			} else {
				sc.lru.add(blk)
			}
		}
		fc.recovered = len(fc.blocks) > fc.ndirty
	}
	// What this incarnation's memory budget cannot hold leaves the disk too,
	// through the same hook as any other eviction.
	sc.evictLocked()
}

// openDiskCache opens (or recovers) the persistent block store under
// Config.DiskCacheDir and installs it as the session cache's disk mirror.
// Recovered clean blocks enter the cache ready to serve once their file
// revalidates through the model's normal channel; recovered dirty blocks
// re-enter the write-back pipeline. Any open failure degrades the proxy to
// memory-only operation — persistence must never take the session down.
func (p *ProxyClient) openDiskCache() {
	pol, err := diskcache.ParseSyncPolicy(p.cfg.DiskCacheSyncPolicy)
	if err != nil {
		p.met.diskCacheErrors.Inc()
		return
	}
	st, rec, err := diskcache.Open(p.cfg.DiskCacheDir, p.cfg.DiskCacheBytes, pol)
	if err != nil {
		p.met.diskCacheErrors.Inc()
		return
	}
	p.disk = st
	p.cache.setPersister(st, recoveryCounters{
		revalidated: p.met.revalidatedBlks,
		refetched:   p.met.refetchedBlks,
	})
	p.cache.adoptRecovered(rec.Files)
	p.recovering = rec.Stats.Blocks > 0
	p.met.recoveredBlocks.Add(int64(rec.Stats.Blocks))
	p.met.recoveredDirty.Add(int64(rec.Stats.DirtyBlocks))
	p.met.recoveryDropped.Add(int64(rec.Stats.Dropped))
	p.met.recoveryReplayNs.Set(rec.Stats.Replay.Nanoseconds())
}

// DiskStore exposes the persistent store (nil when persistence is off), for
// the test harness and recovery experiments.
func (p *ProxyClient) DiskStore() *diskcache.Store { return p.disk }

// noteRecoveredLocked settles a recovered file's revalidation verdict on
// its first server mtime observation after restart. Called before the
// caller's own mtime reconciliation, so the clean-block count reflects what
// recovery carried over, not what reconciliation is about to drop.
func (sc *sessionCache) noteRecoveredLocked(fc *cachedFile, serverMtime nfs3.Time) {
	if !fc.recovered {
		return
	}
	fc.recovered = false
	clean := int64(len(fc.blocks) - fc.ndirty)
	if fc.mtime == serverMtime {
		sc.recMet.revalidated.Add(clean)
	} else {
		sc.recMet.refetched.Add(clean)
	}
}
