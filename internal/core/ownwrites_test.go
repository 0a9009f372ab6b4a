package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/nfs3"
)

// TestForwardedPartialWriteIsReadBack: a WRITE that crosses the wide area
// changes bytes of a block the proxy client caches. The wcc data tells the
// client the mtime advance was its own, which keeps the file's other blocks;
// the block the write touched must not be served as it was cached, and must
// not be written back over the server's newer bytes either.
func TestForwardedPartialWriteIsReadBack(t *testing.T) {
	for _, model := range []Model{ModelPolling, ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			cfg := Config{Model: model, PollPeriod: time.Hour, FlushInterval: time.Hour}
			runPairBed(t, cfg, bytes.Repeat([]byte("v0"), 100), func(b *pairBed) {
				a, ok := b.mount("a")
				if !ok {
					return
				}
				if _, err := a.nc.Read(a.fh, 0, 200); err != nil {
					t.Error(err)
					return
				}
				if res, err := a.nc.Write(a.fh, 0, []byte("v1"), nfs3.Unstable); err != nil || res.Status != nfs3.OK {
					t.Errorf("write: %v %v", res.Status, err)
					return
				}
				if res, err := a.nc.Read(a.fh, 0, 4); err != nil || string(res.Data) != "v1v0" {
					t.Errorf("read back %q, %v; want v1v0", res.Data, err)
				}
				if n := a.p.UpstreamCounts()[uint64(nfs3.Program)<<32|nfs3.ProcWrite]; n != 1 {
					t.Errorf("%d WRITEs crossed, want the one", n)
				}
			})
		})
	}
}

// TestHolderReadKeepsItsDirtyBlocksVisible: the holder of a write delegation
// that reads a block it does not cache keeps the delegation, so the blocks it
// holds dirty still cost any other reader a recall. Granted a read
// delegation instead, it went on buffering them while the proxy server saw a
// plain reader, and another client read the bytes they had overwritten.
func TestHolderReadKeepsItsDirtyBlocksVisible(t *testing.T) {
	const bs = 32 << 10
	block := func(c byte) []byte { return bytes.Repeat([]byte{c}, bs) }
	cfg := Config{Model: ModelDelegation, FlushInterval: time.Hour}
	runPairBed(t, cfg, block('0'), func(b *pairBed) {
		a, ok := b.mount("a")
		if !ok {
			return
		}
		// The first WRITE of block 1 crosses and brings the write delegation;
		// the second is absorbed under it.
		for _, c := range []byte("12") {
			if res, err := a.nc.Write(a.fh, bs, block(c), nfs3.Unstable); err != nil || res.Status != nfs3.OK {
				t.Errorf("write %c: %v %v", c, res.Status, err)
				return
			}
		}
		if len(a.p.cache.dirtyBlocks(a.fh)) != 1 {
			t.Error("the second WRITE was not absorbed")
			return
		}
		if res, err := a.nc.Read(a.fh, 0, 4); err != nil || string(res.Data) != "0000" {
			t.Errorf("A's read of block 0: %q, %v", res.Data, err)
			return
		}
		c, ok := b.mount("c")
		if !ok {
			return
		}
		if res, err := c.nc.Read(c.fh, bs, 4); err != nil || string(res.Data) != "2222" {
			t.Errorf("the other client read %q, %v of block 1; want the holder's 2222", res.Data, err)
		}
	})
}
