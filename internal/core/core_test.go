package core

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/nfs3"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

func fhN(n uint64) nfs3.FH { return nfs3.MakeFH(1, n) }

func TestSessionCredRoundTrip(t *testing.T) {
	in := SessionCred{SessionKey: "sess-42", ClientID: "C3/sess-42", CallbackAddr: "C3:5007"}
	cred := in.Encode()
	if cred.Flavor != sunrpc.AuthGVFS {
		t.Fatalf("flavor = %d", cred.Flavor)
	}
	out, err := DecodeSessionCred(cred)
	if err != nil || out != in {
		t.Fatalf("round trip = %+v, %v", out, err)
	}
	if _, err := DecodeSessionCred(sunrpc.NoneCred()); err == nil {
		t.Fatal("AUTH_NONE decoded as session cred")
	}
}

func TestGetInvMessagesRoundTrip(t *testing.T) {
	args := GetInvArgs{Timestamp: 77, MaxHandles: 256}
	e := xdr.NewEncoder()
	args.Encode(e)
	var gotArgs GetInvArgs
	if err := gotArgs.Decode(xdr.NewDecoder(e.Bytes())); err != nil || gotArgs != args {
		t.Fatalf("args round trip: %+v, %v", gotArgs, err)
	}

	res := GetInvRes{Timestamp: 99, ForceInvalidate: true, PollAgain: true, Handles: []nfs3.FH{fhN(1), fhN(2)}}
	e = xdr.NewEncoder()
	res.Encode(e)
	var gotRes GetInvRes
	if err := gotRes.Decode(xdr.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if gotRes.Timestamp != 99 || !gotRes.ForceInvalidate || !gotRes.PollAgain || len(gotRes.Handles) != 2 {
		t.Fatalf("res round trip: %+v", gotRes)
	}
	if !gotRes.Handles[0].Equal(fhN(1)) || !gotRes.Handles[1].Equal(fhN(2)) {
		t.Fatal("handles corrupted")
	}
}

func TestTrailersRoundTrip(t *testing.T) {
	ts := Trailers{
		{Deleg: DelegRead, Cacheable: true, FH: fhN(3)},
		{Deleg: DelegWrite, Cacheable: true, FH: fhN(4)},
		{Deleg: DelegNone, Cacheable: false, FH: fhN(5)},
	}
	e := xdr.NewEncoder()
	ts.Encode(e)
	got, err := DecodeTrailers(xdr.NewDecoder(e.Bytes()), nil)
	if err != nil || len(got) != 3 {
		t.Fatalf("decode: %v, %d trailers", err, len(got))
	}
	for i := range ts {
		if got[i].Deleg != ts[i].Deleg || got[i].Cacheable != ts[i].Cacheable || !got[i].FH.Equal(ts[i].FH) {
			t.Fatalf("trailer %d mismatch: %+v vs %+v", i, got[i], ts[i])
		}
	}
	// A reply from a plain NFS server has no trailer bytes at all; the
	// caller handles that by checking Remaining, but an absurd count must
	// be rejected.
	e = xdr.NewEncoder()
	e.Uint32(1000)
	if _, err := DecodeTrailers(xdr.NewDecoder(e.Bytes()), nil); err == nil {
		t.Fatal("absurd trailer count accepted")
	}
}

func TestRecallMessagesRoundTrip(t *testing.T) {
	args := RecallArgs{FH: fhN(9), Deleg: DelegWrite, HasOffset: true, Offset: 65536}
	e := xdr.NewEncoder()
	args.Encode(e)
	var gotArgs RecallArgs
	if err := gotArgs.Decode(xdr.NewDecoder(e.Bytes())); err != nil || gotArgs != args {
		t.Fatalf("recall args: %+v, %v", gotArgs, err)
	}

	res := RecallRes{Status: nfs3.OK, Pending: []uint64{0, 32768, 65536}}
	e = xdr.NewEncoder()
	res.Encode(e)
	var gotRes RecallRes
	if err := gotRes.Decode(xdr.NewDecoder(e.Bytes())); err != nil || len(gotRes.Pending) != 3 {
		t.Fatalf("recall res: %+v, %v", gotRes, err)
	}

	all := RecallAllRes{DirtyFiles: []nfs3.FH{fhN(1)}}
	e = xdr.NewEncoder()
	all.Encode(e)
	var gotAll RecallAllRes
	if err := gotAll.Decode(xdr.NewDecoder(e.Bytes())); err != nil || len(gotAll.DirtyFiles) != 1 {
		t.Fatalf("recall-all res: %+v, %v", gotAll, err)
	}
}

// --- invalidation buffer (Section 4.2) -------------------------------------

func TestInvBufferCoalescesDuplicates(t *testing.T) {
	b := newInvBuffer(10)
	b.add("a")
	b.add("b")
	b.add("a") // coalesce in place: "a" keeps its original queue position
	if len(b.order) != 2 {
		t.Fatalf("order = %v, want 2 entries", b.order)
	}
	// The re-touched entry must NOT move to the back: the client's
	// freshness-horizon accounting (GetInvRes.Remaining) relies on FIFO
	// delivery of everything queued before a GETINV round, and a duplicate
	// slipping behind newer entries would break that invariant.
	if b.order[0] != "a" || b.order[1] != "b" {
		t.Fatalf("coalesced order = %v, want [a b] (leave-in-place)", b.order)
	}
}

func TestInvBufferWrapsAndFlagsOverflow(t *testing.T) {
	b := newInvBuffer(3)
	for i := 0; i < 5; i++ {
		b.add(fmt.Sprintf("f%d", i))
	}
	if !b.overflowed {
		t.Fatal("overflow not flagged")
	}
	if len(b.order) != 3 {
		t.Fatalf("buffer holds %d entries, cap 3", len(b.order))
	}
	if b.order[0] != "f2" {
		t.Fatalf("oldest surviving entry = %s, want f2", b.order[0])
	}
	b.flush()
	if b.overflowed || len(b.order) != 0 || len(b.member) != 0 {
		t.Fatal("flush did not reset state")
	}
}

func TestInvBufferPropertyMembershipMatchesOrder(t *testing.T) {
	f := func(ops []uint8) bool {
		b := newInvBuffer(8)
		for _, op := range ops {
			b.add(fmt.Sprintf("k%d", op%16))
		}
		if len(b.order) != len(b.member) {
			return false
		}
		seen := map[string]bool{}
		for _, k := range b.order {
			if seen[k] || !b.member[k] {
				return false // duplicate in order, or order/member disagree
			}
			seen[k] = true
		}
		return len(b.order) <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- session cache ----------------------------------------------------------

func attrWithMtime(sec uint32, typ nfs3.FType) nfs3.Fattr {
	return nfs3.Fattr{Type: typ, Mtime: nfs3.Time{Sec: sec}, Size: 100}
}

func TestCacheAttrLifecycle(t *testing.T) {
	sc := newSessionCache(32*1024, 1<<20)
	fh := fhN(1)
	if _, ok := sc.getAttr(fh); ok {
		t.Fatal("empty cache returned attrs")
	}
	sc.putAttr(fh, attrWithMtime(1, nfs3.TypeReg))
	if a, ok := sc.getAttr(fh); !ok || a.Mtime.Sec != 1 {
		t.Fatalf("getAttr = %+v, %v", a, ok)
	}
	sc.applyRecall(RecallArgs{FH: fh})
	if _, ok := sc.getAttr(fh); ok {
		t.Fatal("invalidated attr still served")
	}
}

func TestCacheInvalidateAllDropsLookups(t *testing.T) {
	sc := newSessionCache(32*1024, 1<<20)
	dir := fhN(1)
	sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
	sc.putLookup(dir, "x", fhN(2), false)
	sc.invalidateAllAttrs(true)
	sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
	if _, _, ok := sc.getLookup(dir, "x"); ok {
		t.Fatal("lookup survived force-invalidation")
	}
}

func TestCachePositiveLookupSurvivesDirChange(t *testing.T) {
	sc := newSessionCache(32*1024, 1<<20)
	dir := fhN(1)
	child := fhN(2)
	sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
	sc.putLookup(dir, "kept", child, false)
	// Another file is created next to it: dir mtime changes.
	sc.putAttr(dir, attrWithMtime(2, nfs3.TypeDir))
	fh, neg, ok := sc.getLookup(dir, "kept")
	if !ok || neg || !fh.Equal(child) {
		t.Fatal("positive binding should survive unrelated dir changes (per-file invalidation covers removals)")
	}
}

func TestCacheNegativeLookupDiesOnDirChange(t *testing.T) {
	sc := newSessionCache(32*1024, 1<<20)
	dir := fhN(1)
	sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
	sc.putLookup(dir, "ghost", nfs3.FH{}, true)
	if _, neg, ok := sc.getLookup(dir, "ghost"); !ok || !neg {
		t.Fatal("negative entry not cached")
	}
	// The directory changed: the name may exist now.
	sc.putAttr(dir, attrWithMtime(2, nfs3.TypeDir))
	if _, _, ok := sc.getLookup(dir, "ghost"); ok {
		t.Fatal("stale negative entry served after dir change")
	}
}

func TestCacheLookupRequiresDirAttrs(t *testing.T) {
	sc := newSessionCache(32*1024, 1<<20)
	dir := fhN(1)
	sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
	sc.putLookup(dir, "x", fhN(2), false)
	sc.applyRecall(RecallArgs{FH: dir})
	if _, _, ok := sc.getLookup(dir, "x"); ok {
		t.Fatal("lookup served with invalidated dir attrs")
	}
}

func TestCacheBlocksDroppedOnForeignMtimeChange(t *testing.T) {
	sc := newSessionCache(4, 1<<20)
	fh := fhN(1)
	a1 := attrWithMtime(1, nfs3.TypeReg)
	sc.putBlock(fh, 0, []byte{1, 2, 3, 4}, a1, false)
	if _, ok := sc.getBlock(fh, 0); !ok {
		t.Fatal("block not cached")
	}
	// Attributes observed with a different mtime: foreign change.
	sc.putAttr(fh, attrWithMtime(9, nfs3.TypeReg))
	if _, ok := sc.getBlock(fh, 0); ok {
		t.Fatal("stale block served after foreign modification")
	}
}

func TestCacheOwnWriteKeepsBlocks(t *testing.T) {
	sc := newSessionCache(4, 1<<20)
	fh := fhN(1)
	a1 := attrWithMtime(1, nfs3.TypeReg)
	sc.putBlock(fh, 0, []byte{1, 2, 3, 4}, a1, false)
	// Our own WRITE to block 1 advanced mtime 1 -> 2; wcc proves it was us.
	a2 := attrWithMtime(2, nfs3.TypeReg)
	sc.updateAfterWrite(fh, 4, 4, nfs3.WccData{
		Before: nfs3.PreOpAttr{Present: true, Attr: nfs3.WccAttr{Mtime: a1.Mtime, Size: a1.Size}},
		After:  nfs3.PostOpAttr{Present: true, Attr: a2},
	})
	if _, ok := sc.getBlock(fh, 0); !ok {
		t.Fatal("own write dropped cached blocks (wcc reconciliation broken)")
	}
	// A write whose pre-op mtime does not match is foreign: drop.
	a9 := attrWithMtime(9, nfs3.TypeReg)
	sc.updateAfterWrite(fh, 4, 4, nfs3.WccData{
		Before: nfs3.PreOpAttr{Present: true, Attr: nfs3.WccAttr{Mtime: nfs3.Time{Sec: 8}}},
		After:  nfs3.PostOpAttr{Present: true, Attr: a9},
	})
	if _, ok := sc.getBlock(fh, 0); ok {
		t.Fatal("foreign interleaved write did not drop blocks")
	}
}

// TestCacheOwnPartialWriteDropsTheBlock: our own forwarded WRITE of two bytes
// inside a cached block leaves the block's copy of them stale, so the block
// goes, while a block the write does not touch stays.
func TestCacheOwnPartialWriteDropsTheBlock(t *testing.T) {
	sc := newSessionCache(4, 1<<20)
	fh := fhN(1)
	a1 := attrWithMtime(1, nfs3.TypeReg)
	sc.putBlock(fh, 0, []byte{1, 2, 3, 4}, a1, false)
	sc.putBlock(fh, 1, []byte{5, 6, 7, 8}, a1, false)
	sc.updateAfterWrite(fh, 1, 2, nfs3.WccData{
		Before: nfs3.PreOpAttr{Present: true, Attr: nfs3.WccAttr{Mtime: a1.Mtime, Size: a1.Size}},
		After:  nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(2, nfs3.TypeReg)},
	})
	if data, ok := sc.getBlock(fh, 0); ok {
		t.Errorf("block 0 still cached as %v after our write of bytes 1-2", data)
	}
	if _, ok := sc.getBlock(fh, 1); !ok {
		t.Error("block 1, which the write did not touch, was dropped")
	}
}

// takeOne takes block bn alone, the way a flusher whose MaxWriteBytes is one
// block does: the run is capped at the block it starts with.
func takeOne(sc *sessionCache, fh nfs3.FH, bn uint64) (data []byte, off, gen uint64, ok bool) {
	data, off, _, gens, ok := sc.takeDirtyRun(fh, bn, sc.bs)
	if !ok {
		return nil, 0, 0, false
	}
	return data, off, gens[0], true
}

func TestCacheDirtyLifecycle(t *testing.T) {
	sc := newSessionCache(4, 1<<20)
	fh := fhN(1)
	empty := attrWithMtime(1, nfs3.TypeReg)
	empty.Size = 0 // the writes make the file; its size is theirs
	sc.putAttr(fh, empty)
	sc.writeDirty(fh, 0, []byte{9, 9, 9, 9})
	sc.writeDirty(fh, 4, []byte{8, 8})
	if !sc.hasDirty(fh) {
		t.Fatal("no dirty state after writeDirty")
	}
	if got := sc.dirtyBlocks(fh); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("dirtyBlocks = %v", got)
	}
	if files := sc.dirtyFiles(); len(files) != 1 || !files[0].Equal(fh) {
		t.Fatalf("dirtyFiles = %v", files)
	}
	// Size adjustment visible through attrs.
	if a, ok := sc.getAttr(fh); !ok || a.Size != 6 {
		t.Fatalf("adjusted size = %+v", a)
	}
	data, off, gen1, ok := takeOne(sc, fh, 1)
	if !ok || off != 4 || len(data) != 2 {
		t.Fatalf("take of block 1 = %v @%d, %v", data, off, ok)
	}
	_, _, gen0, ok := takeOne(sc, fh, 0)
	if !ok {
		t.Fatal("block 0 not takeable")
	}
	sc.flushed(fh, 1, gen1, nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(2, nfs3.TypeReg)}})
	sc.flushed(fh, 0, gen0, nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(3, nfs3.TypeReg)}})
	// The take of block 0 still worked before flushed(0) marked it clean;
	// after both flushes nothing is dirty.
	if sc.hasDirty(fh) {
		t.Fatal("dirty state after flushing all blocks")
	}
	sc.discardDirty(fh, false) // no-op now
}

// TestFirstAbsorbedWriteKeepsEOF: a WRITE absorbed into a file the session
// knows by its attributes alone, no block of it cached, serves the larger of
// the attributes' size and the write's end. Serving the write's end tells a
// reader of a 4-block file overwritten in block 2 that it has 3 blocks.
func TestFirstAbsorbedWriteKeepsEOF(t *testing.T) {
	const bs = 4
	sc := newSessionCache(bs, 1<<20)
	a := attrWithMtime(1, nfs3.TypeReg)
	a.Size = 4 * bs
	for i, tc := range []struct{ off, n, want uint64 }{
		{2 * bs, bs, 4 * bs},  // inside EOF: the attributes' size
		{4 * bs, 2, 4*bs + 2}, // past EOF: the write's end
	} {
		fh := fhN(uint64(i + 1))
		sc.putAttr(fh, a)
		if got := sc.writeDirty(fh, tc.off, make([]byte, tc.n)); got.Size != tc.want {
			t.Errorf("write of %d at %d: writer sees size %d, want %d", tc.n, tc.off, got.Size, tc.want)
		}
		if got, ok := sc.getAttr(fh); !ok || got.Size != tc.want {
			t.Errorf("write of %d at %d: GETATTR serves size %d (%v), want %d", tc.n, tc.off, got.Size, ok, tc.want)
		}
	}
}

// TestCacheFlushRaceKeepsNewerWrite pins the lost-update guard: a write
// landing while a flush's WRITE RPC is in flight must leave the block
// dirty when the stale flush completes, so the newer data is flushed on
// the next round.
func TestCacheFlushRaceKeepsNewerWrite(t *testing.T) {
	sc := newSessionCache(4, 1<<20)
	fh := fhN(1)
	sc.putAttr(fh, attrWithMtime(1, nfs3.TypeReg))
	sc.writeDirty(fh, 0, []byte{1, 1, 1, 1})
	_, _, gen, ok := takeOne(sc, fh, 0)
	if !ok {
		t.Fatal("take failed")
	}
	// Concurrent write while the flush is "in flight".
	sc.writeDirty(fh, 0, []byte{2, 2, 2, 2})
	sc.flushed(fh, 0, gen, nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(2, nfs3.TypeReg)}})
	if !sc.hasDirty(fh) {
		t.Fatal("stale flush completion marked a re-dirtied block clean — newer write lost")
	}
	// The re-flush takes the newer data and its matching generation clears it.
	data, _, gen2, ok := takeOne(sc, fh, 0)
	if !ok || data[0] != 2 {
		t.Fatalf("re-flush take = %v, %v", data, ok)
	}
	sc.flushed(fh, 0, gen2, nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(3, nfs3.TypeReg)}})
	if sc.hasDirty(fh) {
		t.Fatal("dirty state after flushing the newer write")
	}
}

// TestCacheFlushForeignCommitDropsClean pins the staleness hole the
// observatory surfaced: a flush whose WRITE reply proves another writer
// interleaved (pre-op mtime differs from the cached one) must drop clean
// blocks rather than silently revalidate them under the new mtime. The
// GETINV invalidation channel only drops attributes; adopting the post-op
// mtime blindly would defeat the mtime reconciliation forever.
func TestCacheFlushForeignCommitDropsClean(t *testing.T) {
	sc := newSessionCache(4, 1<<20)
	fh := fhN(1)
	// Block 1 is a clean copy fetched under mtime 1.
	sc.putBlock(fh, 1, []byte{9, 9, 9, 9}, attrWithMtime(1, nfs3.TypeReg), false)
	// We dirty block 0 and flush; by the time the WRITE lands, a foreign
	// commit has moved the file to mtime 2, so our reply reads pre-op mtime
	// 2, post-op mtime 3.
	sc.writeDirty(fh, 0, []byte{1, 1, 1, 1})
	_, _, gen, ok := takeOne(sc, fh, 0)
	if !ok {
		t.Fatal("take failed")
	}
	sc.flushed(fh, 0, gen, nfs3.WccData{
		Before: nfs3.PreOpAttr{Present: true, Attr: nfs3.WccAttr{Mtime: nfs3.Time{Sec: 2}}},
		After:  nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(3, nfs3.TypeReg)},
	})
	if sc.hasDirty(fh) {
		t.Fatal("flushed block still dirty")
	}
	if _, ok := sc.getBlock(fh, 1); ok {
		t.Fatal("clean block predating the foreign commit survived the flush")
	}
	if _, ok := sc.getBlock(fh, 0); !ok {
		t.Fatal("the block we just flushed was dropped too")
	}

	// Control: a flush with a matching pre-op mtime (no interleaving) keeps
	// clean copies.
	sc.putBlock(fh, 1, []byte{8, 8, 8, 8}, attrWithMtime(3, nfs3.TypeReg), false)
	sc.writeDirty(fh, 0, []byte{2, 2, 2, 2})
	_, _, gen2, ok := takeOne(sc, fh, 0)
	if !ok {
		t.Fatal("take failed")
	}
	sc.flushed(fh, 0, gen2, nfs3.WccData{
		Before: nfs3.PreOpAttr{Present: true, Attr: nfs3.WccAttr{Mtime: nfs3.Time{Sec: 3}}},
		After:  nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(4, nfs3.TypeReg)},
	})
	if _, ok := sc.getBlock(fh, 1); !ok {
		t.Fatal("clean block dropped although the mtime advance was ours")
	}
}

func TestCacheDirtyBeyondTruncationDropped(t *testing.T) {
	sc := newSessionCache(4, 1<<20)
	fh := fhN(1)
	sc.putAttr(fh, attrWithMtime(1, nfs3.TypeReg))
	sc.writeDirty(fh, 8, []byte{1, 1, 1, 1}) // block 2, file size 12
	// Shrink the file below the dirty block.
	sc.mu.Lock()
	sc.files[fh.Key()].size = 4
	sc.mu.Unlock()
	if _, _, _, ok := takeOne(sc, fh, 2); ok {
		t.Fatal("dirty block beyond truncation point was flushed")
	}
	if sc.hasDirty(fh) {
		t.Fatal("orphan dirty block not dropped")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	sc := newSessionCache(4, 12) // room for 3 blocks
	fh := fhN(1)
	a := attrWithMtime(1, nfs3.TypeReg)
	for bn := uint64(0); bn < 5; bn++ {
		// Full-size blocks: short data is stored at natural length and five
		// 1-byte blocks would fit the bound without evicting anything.
		sc.putBlock(fh, bn, []byte{byte(bn), byte(bn), byte(bn), byte(bn)}, a, false)
	}
	if _, _, _, bytes := sc.stats(); bytes > 12 {
		t.Fatalf("cache %d bytes, bound 12", bytes)
	}
	// Oldest blocks evicted.
	if _, ok := sc.getBlock(fh, 0); ok {
		t.Fatal("block 0 should have been evicted")
	}
	if _, ok := sc.getBlock(fh, 4); !ok {
		t.Fatal("most recent block missing")
	}
}

func TestCacheDirtyBlocksPinnedAgainstEviction(t *testing.T) {
	sc := newSessionCache(4, 8) // 2 clean blocks max
	fh := fhN(1)
	sc.putAttr(fh, attrWithMtime(1, nfs3.TypeReg))
	sc.writeDirty(fh, 0, []byte{1, 1, 1, 1})
	a := attrWithMtime(1, nfs3.TypeReg)
	for bn := uint64(1); bn < 6; bn++ {
		sc.putBlock(fh, bn, []byte{byte(bn), byte(bn), byte(bn), byte(bn)}, a, false)
	}
	if _, ok := sc.getBlock(fh, 0); !ok {
		t.Fatal("dirty block evicted")
	}
	if !sc.hasDirty(fh) {
		t.Fatal("dirty state lost")
	}
}

// TestConfigDefaults pins what the zero Config becomes: one row per field,
// found by reflection, so a field added without a documented default fails
// here. Then the values derived from the fields.
func TestConfigDefaults(t *testing.T) {
	// off: the zero value is the default and means the feature is off (or,
	// for a pointer, that nothing is attached).
	off := struct{}{}
	rows := map[string]any{
		"Model":                ModelPolling,
		"WriteBack":            off,
		"PollPeriod":           30 * time.Second,
		"PollBackoffMax":       off,
		"InvBufferEntries":     1024,
		"MaxHandlesPerReply":   1024, // the whole buffer: fewer than MaxIOSize/(MaxFHSize+8)
		"DelegExpiry":          10 * time.Minute,
		"DelegRenew":           8 * time.Minute,
		"DirtyListThreshold":   1024,
		"MaxOpenFiles":         65536,
		"DisableMetaCache":     off,
		"BlockSize":            32 * 1024,
		"CacheBytes":           int64(4 << 30),
		"DiskCacheDir":         off,
		"DiskCacheBytes":       int64(4 << 30), // CacheBytes'
		"DiskCacheSyncPolicy":  off,            // diskcache reads "" as "dirty"
		"ProxyDelay":           off,
		"DiskDelay":            off,
		"FlushInterval":        30 * time.Second,
		"FlushParallelism":     1,
		"MaxWriteBytes":        nfs3.MaxIOSize,
		"ReadAhead":            4,
		"CallTimeout":          15 * time.Second,
		"RetransmitSeed":       off,
		"ServerWorkers":        off,
		"ServerQueueDepth":     off, // sunrpc's 256 per client, once ServerWorkers > 0
		"RateLimitOps":         off,
		"RateLimitBurst":       off,
		"ClientRateLimitOps":   off,
		"ClientRateLimitBurst": off,
		"UIDMap":               off,
		"GIDMap":               off,
		"Encrypt":              off,
		"Obs":                  off, // a private spine
		"ObsName":              off, // the proxy server's node is "server"
		"Staleness":            off,
	}
	cfg := reflect.ValueOf(Config{}.withDefaults())
	for i := 0; i < cfg.NumField(); i++ {
		name, got := cfg.Type().Field(i).Name, cfg.Field(i)
		want, ok := rows[name]
		delete(rows, name)
		switch {
		case !ok:
			t.Errorf("Config.%s has no row: document its default and pin it here", name)
		case want == off && !got.IsZero():
			t.Errorf("Config.%s defaults to %v, want off", name, got)
		case want != off && !reflect.DeepEqual(got.Interface(), want):
			t.Errorf("Config.%s defaults to %v, want %v", name, got, want)
		}
	}
	for name := range rows {
		t.Errorf("row %s names no Config field", name)
	}

	for _, d := range []struct {
		name      string
		got, want any
	}{
		{"retransmission start left to sunrpc's 1 s", Config{}.withDefaults().retransmitPolicy().Initial, time.Duration(0)},
		{"retransmission ceiling", Config{}.withDefaults().retransmitPolicy().Max, 8 * time.Second},
		{"retransmission ceiling under a 4 s CallTimeout", Config{CallTimeout: 4 * time.Second}.withDefaults().retransmitPolicy().Max, 4 * time.Second},
		{"DelegRenew not below DelegExpiry is pulled to 4/5 of it", Config{DelegExpiry: 10, DelegRenew: 20}.withDefaults().DelegRenew, time.Duration(8)},
	} {
		if !reflect.DeepEqual(d.got, d.want) {
			t.Errorf("%s: %v, want %v", d.name, d.got, d.want)
		}
	}
}

func TestDelegTypeStrings(t *testing.T) {
	if DelegNone.String() != "none" || DelegRead.String() != "read" || DelegWrite.String() != "write" {
		t.Fatal("DelegType strings wrong")
	}
	if ModelPolling.String() == ModelDelegation.String() {
		t.Fatal("model strings collide")
	}
}
