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
func newMetaCache(pol metaPolicy, met *cacheCounters) (*sessionCache, *time.Duration) {
	now := new(time.Duration)
	sc := newSessionCache(32*1024, 1<<20)
	sc.setMetaPolicy(func() time.Duration { return *now }, pol, met)
	return sc, now
}

func testMetaCounters() (*cacheCounters, *obs.Registry) {
	reg := obs.New(func() time.Duration { return 0 }, 16).Registry()
	return &cacheCounters{
		expiries:   reg.Counter("expiries"),
		evictions:  reg.Counter("evictions"),
		dirFlushes: reg.Counter("dir_flushes"),
	}, reg
}

// TestMetaTTLExpiry drives each metadata cache past its TTL in virtual time
// and checks the entry dies exactly at the bound, not before.
func TestMetaTTLExpiry(t *testing.T) {
	const ttl = 10 * time.Second
	dir, child := fhN(1), fhN(2)
	cases := []struct {
		name string
		pol  metaPolicy
		put  func(sc *sessionCache)
		get  func(sc *sessionCache) bool
	}{
		{
			name: "attr",
			pol:  metaPolicy{attrTTL: ttl},
			put:  func(sc *sessionCache) { sc.putAttr(child, attrWithMtime(1, nfs3.TypeReg)) },
			get: func(sc *sessionCache) bool {
				_, ok := sc.getAttr(child)
				return ok
			},
		},
		{
			name: "dentry",
			pol:  metaPolicy{dentryTTL: ttl},
			put: func(sc *sessionCache) {
				sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
				sc.putLookup(dir, "x", child)
			},
			get: func(sc *sessionCache) bool {
				_, neg, ok := sc.getLookup(dir, "x")
				return ok && !neg
			},
		},
		{
			name: "negative",
			pol:  metaPolicy{negTTL: ttl},
			put: func(sc *sessionCache) {
				sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
				sc.putNegLookup(dir, "ghost")
			},
			get: func(sc *sessionCache) bool {
				_, neg, ok := sc.getLookup(dir, "ghost")
				return ok && neg
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			met, _ := testMetaCounters()
			sc, now := newMetaCache(tc.pol, met)
			tc.put(sc)
			*now = ttl - 1
			if !tc.get(sc) {
				t.Fatal("entry expired before its TTL")
			}
			*now = ttl
			if tc.get(sc) {
				t.Fatal("entry served past its TTL")
			}
			if met.expiries.Value() == 0 {
				t.Fatal("expiry not counted")
			}
		})
	}
}

// TestMetaTTLZeroMeansUntimed checks the default policy keeps the paper's
// semantics: entries live until the consistency protocol invalidates them.
func TestMetaTTLZeroMeansUntimed(t *testing.T) {
	sc, now := newMetaCache(metaPolicy{}, nil)
	fh := fhN(1)
	sc.putAttr(fh, attrWithMtime(1, nfs3.TypeReg))
	*now = 365 * 24 * time.Hour
	if _, ok := sc.getAttr(fh); !ok {
		t.Fatal("untimed entry expired")
	}
}

// TestMetaCapacityEviction fills each cache one entry past its cap and checks
// the least recently used entry is the one evicted.
func TestMetaCapacityEviction(t *testing.T) {
	t.Run("attrs", func(t *testing.T) {
		met, _ := testMetaCounters()
		sc, _ := newMetaCache(metaPolicy{maxAttrs: 3}, met)
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
		sc, _ := newMetaCache(metaPolicy{maxDentries: 3}, met)
		dir := fhN(1)
		sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
		for i := 0; i < 4; i++ {
			sc.putLookup(dir, fmt.Sprintf("f%d", i), fhN(uint64(10+i)))
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
		// The dirNames index must shrink with the eviction, or a later dir
		// flush would count ghosts.
		sc.mu.Lock()
		n := len(sc.dirNames[dir.Key()])
		sc.mu.Unlock()
		if n != 3 {
			t.Fatalf("dirNames holds %d names, want 3", n)
		}
	})
	t.Run("listings", func(t *testing.T) {
		met, _ := testMetaCounters()
		sc, _ := newMetaCache(metaPolicy{maxListings: 1}, met)
		d1, d2 := fhN(1), fhN(2)
		sc.putAttr(d1, attrWithMtime(1, nfs3.TypeDir))
		sc.putAttr(d2, attrWithMtime(1, nfs3.TypeDir))
		sc.putDirListing(d1, []nfs3.DirEntry{{Name: "a"}})
		sc.putDirListing(d2, []nfs3.DirEntry{{Name: "b"}})
		if _, ok := sc.getDirListing(d1); ok {
			t.Fatal("old listing survived eviction")
		}
		if _, ok := sc.getDirListing(d2); !ok {
			t.Fatal("fresh listing wrongly evicted")
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
		sc.putLookup(dir, "kept", child)
		sc.putNegLookup(dir, "ghost")
		sc.putDirListing(dir, []nfs3.DirEntry{{Name: "kept"}})
	}
	revalidate := func(sc *sessionCache) {
		// The client refetches the directory's attributes (same mtime: the
		// invalidation was spurious or the change did not touch it).
		sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
	}

	t.Run("getinv-flushes-dir", func(t *testing.T) {
		met, _ := testMetaCounters()
		sc, _ := newMetaCache(metaPolicy{}, met)
		seed(sc)
		sc.invalidateHandle(dir) // what pollOnce applies per GETINV handle
		revalidate(sc)
		if _, _, ok := sc.getLookup(dir, "kept"); ok {
			t.Fatal("dentry survived GETINV dir invalidation")
		}
		if _, _, ok := sc.getLookup(dir, "ghost"); ok {
			t.Fatal("negative survived GETINV dir invalidation")
		}
		if _, ok := sc.getDirListing(dir); ok {
			t.Fatal("listing survived GETINV dir invalidation")
		}
		if met.dirFlushes.Value() != 2 {
			t.Fatalf("dirFlushes = %d, want 2 (dentry + negative)", met.dirFlushes.Value())
		}
	})

	t.Run("recall-drops-attrs-only", func(t *testing.T) {
		sc, _ := newMetaCache(metaPolicy{}, nil)
		seed(sc)
		// What handleRecall applies for a recall of the dir triggered by
		// REMOVE(dir, "kept"): attr invalidation plus the named binding.
		sc.invalidateAttr(dir)
		sc.dropLookup(dir, "kept")
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
// creator reads its own writes), not linger until a TTL or invalidation.
func TestMetaNegativePromotionOnCreate(t *testing.T) {
	sc, _ := newMetaCache(metaPolicy{}, nil)
	dir, child := fhN(1), fhN(2)
	sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
	sc.putNegLookup(dir, "new")
	if _, neg, ok := sc.getLookup(dir, "new"); !ok || !neg {
		t.Fatal("negative entry not cached")
	}
	// CREATE succeeds: the proxy caches the new dir attrs (mtime advanced)
	// and the child binding, as afterCreateLike does.
	sc.putAttr(dir, attrWithMtime(2, nfs3.TypeDir))
	sc.putAttr(child, attrWithMtime(2, nfs3.TypeReg))
	sc.putLookup(dir, "new", child)
	fh, neg, ok := sc.getLookup(dir, "new")
	if !ok || neg || !fh.Equal(child) {
		t.Fatalf("getLookup after create = fh %v neg %v ok %v; want positive binding", fh, neg, ok)
	}
}

// TestMetaPolicyModelGating checks TTLs reach the cache only under the
// polling model; delegation sessions must never add timers to entries whose
// validity the protocol already bounds exactly.
func TestMetaPolicyModelGating(t *testing.T) {
	base := Config{AttrTTL: time.Second, DentryTTL: 2 * time.Second, NegDentryTTL: 3 * time.Second}

	poll := base
	poll.Model = ModelPolling
	if p := poll.withDefaults().metaPolicy(); p.attrTTL != time.Second || p.dentryTTL != 2*time.Second || p.negTTL != 3*time.Second {
		t.Fatalf("polling metaPolicy dropped TTLs: %+v", p)
	}

	deleg := base
	deleg.Model = ModelDelegation
	if p := deleg.withDefaults().metaPolicy(); p.attrTTL != 0 || p.dentryTTL != 0 || p.negTTL != 0 {
		t.Fatalf("delegation metaPolicy kept TTLs: %+v", p)
	}

	unbounded := Config{Model: ModelPolling, MaxAttrEntries: -1, MaxDentries: -1, MaxDirListings: -1}
	if p := unbounded.withDefaults().metaPolicy(); p.maxAttrs != 0 || p.maxDentries != 0 || p.maxListings != 0 {
		t.Fatalf("negative caps should mean unbounded: %+v", p)
	}
	if p := (Config{}).withDefaults().metaPolicy(); p.maxAttrs != 65536 || p.maxDentries != 65536 || p.maxListings != 1024 {
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
