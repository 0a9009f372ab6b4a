package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
)

// newMetaCache builds a session cache with a manually advanced virtual clock
// and the given metadata policy; the returned *time.Duration is the clock.
func newMetaCache(pol cachePolicy, met cacheCounters) (*sessionCache, *time.Duration) {
	now := new(time.Duration)
	sc := newSessionCache(32*1024, 1<<20)
	sc.setPolicy(func() time.Duration { return *now }, pol, met)
	return sc, now
}

func testMetaCounters() (cacheCounters, *obs.Registry) {
	reg := obs.New(func() time.Duration { return 0 }, 16).Registry()
	return cacheCounters{
		evictions:  reg.Counter("evictions"),
		dirFlushes: reg.Counter("dir_flushes"),
	}, reg
}

// TestMetaCapacityEviction fills each cache one entry past its cap and checks
// the least recently used entry is the one evicted.
func TestMetaCapacityEviction(t *testing.T) {
	t.Run("attrs", func(t *testing.T) {
		met, _ := testMetaCounters()
		sc, _ := newMetaCache(cachePolicy{maxAttrs: 3}, met)
		for i := uint64(1); i <= 3; i++ {
			sc.putAttr(fhN(i), attrWithMtime(1, nfs3.TypeReg))
		}
		sc.getAttr(fhN(1)) // 1 is now most recent; 2 is LRU
		sc.putAttr(fhN(4), attrWithMtime(1, nfs3.TypeReg))
		if _, ok := sc.getAttr(fhN(2)); ok {
			t.Fatal("LRU entry survived eviction")
		}
		for _, n := range []uint64{1, 3, 4} {
			if _, ok := sc.getAttr(fhN(n)); !ok {
				t.Fatalf("entry %d wrongly evicted", n)
			}
		}
		if met.evictions.Value() != 1 {
			t.Fatalf("evictions = %d, want 1", met.evictions.Value())
		}
	})
	t.Run("dentries", func(t *testing.T) {
		met, _ := testMetaCounters()
		sc, _ := newMetaCache(cachePolicy{maxDentries: 3}, met)
		dir := fhN(1)
		sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
		for i := 0; i < 4; i++ {
			sc.putLookup(dir, fmt.Sprintf("f%d", i), fhN(uint64(10+i)), false)
		}
		if _, _, ok := sc.getLookup(dir, "f0"); ok {
			t.Fatal("LRU dentry survived eviction")
		}
		if _, _, ok := sc.getLookup(dir, "f3"); !ok {
			t.Fatal("fresh dentry wrongly evicted")
		}
		if met.evictions.Value() != 1 {
			t.Fatalf("evictions = %d, want 1", met.evictions.Value())
		}
		// The directory's name index must shrink with the eviction, or a
		// later dir flush would count ghosts.
		sc.mu.Lock()
		n := len(sc.files[dir.Key()].names)
		sc.mu.Unlock()
		if n != 3 {
			t.Fatalf("the directory indexes %d names, want 3", n)
		}
	})
	t.Run("listings", func(t *testing.T) {
		met, _ := testMetaCounters()
		sc, _ := newMetaCache(cachePolicy{maxListings: 1}, met)
		d1, d2 := fhN(1), fhN(2)
		sc.putAttr(d1, attrWithMtime(1, nfs3.TypeDir))
		sc.putAttr(d2, attrWithMtime(1, nfs3.TypeDir))
		sc.putDirListing(d1, []nfs3.DirEntry{{Name: "a"}})
		sc.putDirListing(d2, []nfs3.DirEntry{{Name: "b"}})
		if _, _, ok := sc.listingHit(d1); ok {
			t.Fatal("old listing survived eviction")
		}
		if _, _, ok := sc.listingHit(d2); !ok {
			t.Fatal("fresh listing wrongly evicted")
		}
		// The cap evicts the listing, not the record: d1's attributes stay.
		if _, ok := sc.getAttr(d1); !ok {
			t.Fatal("evicting a listing took the directory's attributes with it")
		}
		if met.evictions.Value() != 1 {
			t.Fatalf("evictions = %d, want 1", met.evictions.Value())
		}
	})
}

// TestMetaInvalidationChannels checks the two invalidation channels flush
// what their granularity demands: a GETINV handle invalidation of a
// directory flushes its dentries, negatives, and listing (GETINV carries no
// names); a callback recall drops only the attributes, because recalls are
// precise — they name the removed binding separately.
func TestMetaInvalidationChannels(t *testing.T) {
	dir, child := fhN(1), fhN(2)
	seed := func(sc *sessionCache) {
		sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
		sc.putAttr(child, attrWithMtime(1, nfs3.TypeReg))
		sc.putLookup(dir, "kept", child, false)
		sc.putLookup(dir, "ghost", nfs3.FH{}, true)
		sc.putDirListing(dir, []nfs3.DirEntry{{Name: "kept"}})
	}
	revalidate := func(sc *sessionCache) {
		// The client refetches the directory's attributes (same mtime: the
		// invalidation was spurious or the change did not touch it).
		sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
	}

	t.Run("getinv-flushes-dir", func(t *testing.T) {
		met, _ := testMetaCounters()
		sc, _ := newMetaCache(cachePolicy{}, met)
		seed(sc)
		sc.invalidateHandle(dir) // what pollOnce applies per GETINV handle
		revalidate(sc)
		if _, _, ok := sc.getLookup(dir, "kept"); ok {
			t.Fatal("dentry survived GETINV dir invalidation")
		}
		if _, _, ok := sc.getLookup(dir, "ghost"); ok {
			t.Fatal("negative survived GETINV dir invalidation")
		}
		if _, _, ok := sc.listingHit(dir); ok {
			t.Fatal("listing survived GETINV dir invalidation")
		}
		if met.dirFlushes.Value() != 2 {
			t.Fatalf("dirFlushes = %d, want 2 (dentry + negative)", met.dirFlushes.Value())
		}
	})

	t.Run("recall-drops-attrs-only", func(t *testing.T) {
		sc, _ := newMetaCache(cachePolicy{}, cacheCounters{})
		seed(sc)
		// What handleRecall applies for a recall of the dir triggered by
		// REMOVE(dir, "kept"): attr invalidation plus the named binding.
		sc.applyRecall(RecallArgs{FH: dir, Seq: 1, Name: "kept"})
		revalidate(sc)
		if _, _, ok := sc.getLookup(dir, "kept"); ok {
			t.Fatal("recalled binding still served")
		}
		if _, neg, ok := sc.getLookup(dir, "ghost"); !ok || !neg {
			t.Fatal("unrelated negative flushed by a precise recall")
		}
	})
}

// TestMetaNegativePromotionOnCreate models CREATE after a cached NOENT: the
// negative entry must be replaced by the positive binding immediately (the
// creator reads its own writes), not linger until an invalidation.
func TestMetaNegativePromotionOnCreate(t *testing.T) {
	sc, _ := newMetaCache(cachePolicy{}, cacheCounters{})
	dir, child := fhN(1), fhN(2)
	sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
	sc.putLookup(dir, "new", nfs3.FH{}, true)
	if _, neg, ok := sc.getLookup(dir, "new"); !ok || !neg {
		t.Fatal("negative entry not cached")
	}
	// CREATE succeeds: the proxy caches the new dir attrs (mtime advanced)
	// and the child binding, as forwardCreate does.
	sc.putAttr(dir, attrWithMtime(2, nfs3.TypeDir))
	sc.putAttr(child, attrWithMtime(2, nfs3.TypeReg))
	sc.putLookup(dir, "new", child, false)
	fh, neg, ok := sc.getLookup(dir, "new")
	if !ok || neg || !fh.Equal(child) {
		t.Fatalf("getLookup after create = fh %v neg %v ok %v; want positive binding", fh, neg, ok)
	}
}

// TestCachePolicyCaps checks how the config's metadata caps reach the cache:
// defaults apply, and a negative cap means unbounded.
func TestCachePolicyCaps(t *testing.T) {
	unbounded := Config{Model: ModelPolling, MaxAttrEntries: -1, MaxDentries: -1, MaxDirListings: -1}
	if p := unbounded.withDefaults().cachePolicy(); p.maxAttrs != 0 || p.maxDentries != 0 || p.maxListings != 0 {
		t.Fatalf("negative caps should mean unbounded: %+v", p)
	}
	if p := (Config{}).withDefaults().cachePolicy(); p.maxAttrs != 65536 || p.maxDentries != 65536 || p.maxListings != 1024 {
		t.Fatalf("default caps wrong: %+v", p)
	}
}

// TestAccessForAttr tables the shared permission model both the NFS server
// and the proxy client's local ACCESS fast path evaluate.
func TestAccessForAttr(t *testing.T) {
	file := nfs3.Fattr{Type: nfs3.TypeReg, Mode: 0o754, UID: 10, GID: 20}
	dir := nfs3.Fattr{Type: nfs3.TypeDir, Mode: 0o750, UID: 10, GID: 20}
	all := uint32(nfs3.AccessRead | nfs3.AccessLookup | nfs3.AccessModify |
		nfs3.AccessExtend | nfs3.AccessDelete | nfs3.AccessExecute)
	cases := []struct {
		name     string
		attr     nfs3.Fattr
		uid, gid uint32
		req      uint32
		want     uint32
	}{
		{"root-gets-everything", file, 0, 0, all, all},
		{"owner-rwx", file, 10, 99, all,
			nfs3.AccessRead | nfs3.AccessModify | nfs3.AccessExtend | nfs3.AccessDelete | nfs3.AccessExecute},
		{"group-rx", file, 11, 20, all, nfs3.AccessRead | nfs3.AccessExecute},
		{"other-r", file, 11, 99, all, nfs3.AccessRead},
		{"dir-x-is-lookup", dir, 11, 20, all, nfs3.AccessRead | nfs3.AccessLookup},
		{"dir-other-denied", dir, 11, 99, all, 0},
		{"mask-respected", file, 10, 99, nfs3.AccessRead, nfs3.AccessRead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := nfs3.AccessForAttr(tc.attr, tc.uid, tc.gid, tc.req); got != tc.want {
				t.Fatalf("AccessForAttr = %#x, want %#x", got, tc.want)
			}
		})
	}
}
