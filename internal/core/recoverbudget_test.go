package core

import (
	"bytes"
	"testing"

	"repro/internal/diskcache"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
)

// TestRecoveryOverBudgetEvictsThroughTheStore: a proxy client that restarts
// over a disk store holding more clean data than its memory budget keeps what
// fits, and what does not fit leaves the disk the way any evicted block does
// — through the persister's drop hook, not a resync — so no later restart
// brings it back. Dirty blocks are never part of that.
func TestRecoveryOverBudgetEvictsThroughTheStore(t *testing.T) {
	const (
		bs         = 4096
		cleanOnDsk = 16
		dirtyOnDsk = 4
		budget     = 8 // clean blocks memory may keep
	)
	dir := t.TempDir()
	cleanKey, dirtyKey := fhN(1).Key(), fhN(2).Key()
	st, _, err := diskcache.Open(dir, 0, diskcache.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for bn := uint64(0); bn < cleanOnDsk; bn++ {
		st.PutBlock(cleanKey, bn, bytes.Repeat([]byte{byte(bn)}, bs), false, 0)
	}
	for bn := uint64(0); bn < dirtyOnDsk; bn++ {
		st.PutBlock(dirtyKey, bn, bytes.Repeat([]byte{0xD0 + byte(bn)}, bs), true, bn+1)
	}
	st.SetFileMeta(cleanKey, 1, 0, cleanOnDsk*bs, 0)
	st.SetFileMeta(dirtyKey, 1, 0, dirtyOnDsk*bs, dirtyOnDsk)
	st.Abandon() // the crash

	// reopen looks at the directory the way the next incarnation would.
	reopen := func(when string) {
		t.Helper()
		st, rec, err := diskcache.Open(dir, 0, diskcache.SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Abandon()
		if got := len(rec.Files[cleanKey].Blocks); got != budget {
			t.Errorf("%s: %d clean blocks on disk, want the %d memory kept", when, got, budget)
		}
		dirty := rec.Files[dirtyKey]
		if dirty == nil || len(dirty.Blocks) != dirtyOnDsk {
			t.Fatalf("%s: dirty file recovered as %+v, want all %d blocks", when, dirty, dirtyOnDsk)
		}
		for bn, b := range dirty.Blocks {
			if !b.Dirty || b.Gen != bn+1 || b.Data[0] != 0xD0+byte(bn) {
				t.Errorf("%s: dirty block %d came back dirty=%v gen=%d data %#x", when, bn, b.Dirty, b.Gen, b.Data[0])
			}
		}
	}

	// The next incarnation adopts the store as it is built; Serve would go on
	// to recovery's write-back, which has no server here and is not what is
	// under test.
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{})
	if _, err := net.Host("server").Listen(":2049"); err != nil {
		t.Fatal(err)
	}
	var p *ProxyClient
	done := make(chan struct{})
	clk.Go("adopt", func() {
		defer close(done)
		up, err := net.Host("client").Dial("server:2049")
		if err != nil {
			t.Error(err)
			return
		}
		cfg := Config{BlockSize: bs, CacheBytes: budget * bs, DiskCacheDir: dir, DiskCacheSyncPolicy: "none"}
		p = NewProxyClient(clk, cfg, sunrpc.NewClient(clk, up, sunrpc.NoneCred()), SessionCred{SessionKey: "s", ClientID: "ra-test"})
	})
	<-done
	if p == nil {
		return
	}
	if blocks, dirty := p.met.recoveredBlocks.Value(), p.met.recoveredDirty.Value(); blocks != cleanOnDsk+dirtyOnDsk || dirty != dirtyOnDsk {
		t.Errorf("recovered %d blocks (%d dirty), want %d (%d)", blocks, dirty, cleanOnDsk+dirtyOnDsk, dirtyOnDsk)
	}
	if _, _, _, held := p.cache.stats(); held != budget*bs {
		t.Errorf("%d clean bytes in memory, budget %d", held, budget*bs)
	}
	if got := len(p.cache.dirtyBlocks(fhN(2))); got != dirtyOnDsk {
		t.Errorf("%d dirty blocks in memory, want %d", got, dirtyOnDsk)
	}
	if _, blocks, _ := p.DiskStore().Usage(); blocks != budget+dirtyOnDsk {
		t.Errorf("store indexes %d blocks after adoption, want %d", blocks, budget+dirtyOnDsk)
	}
	p.Crash()
	reopen("after the first restart")
	reopen("after the second restart")
}
