package core

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/xdr"
)

// rewriteWrite tampers with WRITE replies only: f edits the decoded result.
func rewriteWrite(f func(*nfs3.WriteRes)) func(uint32, []byte) []byte {
	return func(proc uint32, reply []byte) []byte {
		var res nfs3.WriteRes
		if proc != nfs3.ProcWrite || res.Decode(xdr.NewDecoder(reply)) != nil {
			return reply
		}
		f(&res)
		e := xdr.NewEncoder()
		res.Encode(e)
		return e.Bytes()
	}
}

// commitBed creates an empty file on a fresh bed and hands it to fn.
func commitBed(t *testing.T, cfg Config, tamper func(uint32, []byte) []byte, fn func(b *raBed, fh nfs3.FH)) {
	t.Helper()
	runTamperedBed(t, cfg, tamper, func(*memfs.FS) {}, func(b *raBed) {
		cr, err := b.nc.Create(b.root, "n", 0o644, nfs3.CreateGuarded)
		if err != nil || cr.Status != nfs3.OK || !cr.FHFollows {
			t.Errorf("create: %v %v", err, cr.Status)
			return
		}
		fn(b, cr.FH)
	})
}

// writeBlock sends one block-sized UNSTABLE WRITE of fill bytes, as a kernel
// client flushing its page cache does.
func (b *raBed) writeBlock(t *testing.T, fh nfs3.FH, bn uint64, fill byte) nfs3.WriteRes {
	t.Helper()
	wr, err := b.nc.Write(fh, bn*raBS, bytes.Repeat([]byte{fill}, raBS), nfs3.Unstable)
	if err != nil || wr.Status != nfs3.OK || wr.Count != raBS {
		t.Errorf("write block %d: %v %v count %d", bn, err, wr.Status, wr.Count)
	}
	return wr
}

func (b *raBed) commit(t *testing.T, fh nfs3.FH) nfs3.CommitRes {
	t.Helper()
	cm, err := b.nc.Commit(fh, 0, 0)
	if err != nil {
		t.Errorf("commit: %v", err)
	}
	return cm
}

// onServer reports whether the server's copy of file "n" is blocks blocks of
// fill bytes.
func (b *raBed) onServer(blocks int, fill byte) bool {
	return b.onServerAs("n", bytes.Repeat([]byte{fill}, blocks*raBS))
}

// onServerAs reports whether the server's copy of name is want.
func (b *raBed) onServerAs(name string, want []byte) bool {
	attr, err := b.fs.LookupPath(name)
	if err != nil || attr.Size != uint64(len(want)) {
		return false
	}
	got := make([]byte, len(want))
	n, _, err := b.fs.ReadAt(attr.ID, got, 0)
	return err == nil && n == len(want) && bytes.Equal(got, want)
}

var writeBackCfg = Config{WriteBack: true, FlushInterval: time.Hour}

// TestCommitStaysHomeAfterWriteBack: the write-back flush goes out FILE_SYNC,
// so once it has landed the server holds nothing unstable and the COMMIT
// that triggered it is answered here — with the verifier the absorbed WRITEs
// carried, the post-flush attributes, and the data on the server.
func TestCommitStaysHomeAfterWriteBack(t *testing.T) {
	commitBed(t, writeBackCfg, nil, func(b *raBed, fh nfs3.FH) {
		for bn := uint64(0); bn < 2; bn++ {
			wr := b.writeBlock(t, fh, bn, 0xA1)
			if wr.Committed != nfs3.FileSync || wr.Verf != localWriteVerf {
				t.Errorf("absorbed WRITE: committed=%d verf=%d, want FILE_SYNC and the local verifier", wr.Committed, wr.Verf)
			}
		}
		if got := b.wan(nfs3.ProcWrite); got != 0 {
			t.Errorf("%d WRITEs crossed before the COMMIT", got)
		}
		cm := b.commit(t, fh)
		if cm.Status != nfs3.OK || cm.Verf != localWriteVerf {
			t.Errorf("COMMIT: status %v verf %d, want OK with the absorbed WRITEs' verifier %d", cm.Status, cm.Verf, localWriteVerf)
		}
		if !cm.Wcc.After.Present || cm.Wcc.After.Attr.Size != 2*raBS {
			t.Errorf("COMMIT attributes %+v, want the post-flush size %d", cm.Wcc.After, 2*raBS)
		}
		if w, c := b.wan(nfs3.ProcWrite), b.wan(nfs3.ProcCommit); w != 1 || c != 0 {
			t.Errorf("upstream WRITEs=%d COMMITs=%d, want one coalesced WRITE and no COMMIT", w, c)
		}
		if !b.onServer(2, 0xA1) {
			t.Error("COMMIT returned before the data was on the server")
		}
		// Nothing written since: still nothing for the server to do.
		if cm := b.commit(t, fh); cm.Status != nfs3.OK || b.wan(nfs3.ProcCommit) != 0 {
			t.Errorf("idle COMMIT: status %v, %d crossed", cm.Status, b.wan(nfs3.ProcCommit))
		}
		if got := b.p.met.commitLocal.Value(); got != 2 {
			t.Errorf("commit_local counter = %d, want 2", got)
		}
	})
}

// TestCommitCrossesWhileServerHoldsUnstableData: a forwarded WRITE the
// server acknowledges UNSTABLE makes the file's next COMMIT cross the wide
// area, exactly once, and return the server's verifier; the one after it
// stays home; and a COMMIT that finds the file's cache entry gone crosses
// whatever came before.
func TestCommitCrossesWhileServerHoldsUnstableData(t *testing.T) {
	unstable := rewriteWrite(func(r *nfs3.WriteRes) { r.Committed = nfs3.Unstable })
	commitBed(t, Config{}, unstable, func(b *raBed, fh nfs3.FH) {
		wr := b.writeBlock(t, fh, 0, 0xB2)
		if wr.Committed != nfs3.Unstable || wr.Verf != serverVerf {
			t.Errorf("forwarded WRITE: committed=%d verf=%d, want the server's UNSTABLE and verifier", wr.Committed, wr.Verf)
		}
		if cm := b.commit(t, fh); cm.Status != nfs3.OK || cm.Verf != serverVerf {
			t.Errorf("COMMIT after an UNSTABLE WRITE: status %v verf %d, want the server's verifier %d", cm.Status, cm.Verf, serverVerf)
		}
		if got := b.wan(nfs3.ProcCommit); got != 1 {
			t.Fatalf("%d COMMITs crossed after an UNSTABLE WRITE, want 1", got)
		}
		if cm := b.commit(t, fh); cm.Status != nfs3.OK || cm.Verf != localWriteVerf {
			t.Errorf("second COMMIT: status %v verf %d, want a local OK", cm.Status, cm.Verf)
		}
		if got := b.wan(nfs3.ProcCommit); got != 1 {
			t.Errorf("%d COMMITs crossed in all, want 1: the second had nothing to make stable", got)
		}

		// Two UNSTABLE WRITEs are covered by one COMMIT.
		b.writeBlock(t, fh, 1, 0xB2)
		b.writeBlock(t, fh, 2, 0xB2)
		b.commit(t, fh)
		b.commit(t, fh)
		if got := b.wan(nfs3.ProcCommit); got != 2 {
			t.Errorf("%d COMMITs crossed, want 2", got)
		}

		// The tracking state goes with the cache entry; without it the proxy
		// cannot tell, and asks the server.
		b.writeBlock(t, fh, 3, 0xB2)
		b.p.cache.forget(fh)
		for want := int64(3); want <= 4; want++ {
			if cm := b.commit(t, fh); cm.Status != nfs3.OK || cm.Verf != serverVerf {
				t.Errorf("COMMIT without a cache entry: status %v verf %d, want the server's answer", cm.Status, cm.Verf)
			}
			if got := b.wan(nfs3.ProcCommit); got != want {
				t.Errorf("%d COMMITs crossed, want %d", got, want)
			}
		}
	})
}

// TestCommitReportsLostWriteBack is the regression test for COMMIT reporting
// success over dropped data: when the server refuses a write-back WRITE the
// dirty blocks are dropped, and the COMMIT used to be forwarded and come
// back OK. The loss is reported once, whether this COMMIT's own flush or an
// earlier background one ran into it.
func TestCommitReportsLostWriteBack(t *testing.T) {
	var refuse atomic.Bool
	refusing := rewriteWrite(func(r *nfs3.WriteRes) {
		if refuse.Load() {
			*r = nfs3.WriteRes{Status: nfs3.ErrStale}
		}
	})
	for _, flusher := range []string{"commit", "background"} {
		t.Run(flusher, func(t *testing.T) {
			refuse.Store(false)
			commitBed(t, writeBackCfg, refusing, func(b *raBed, fh nfs3.FH) {
				b.writeBlock(t, fh, 0, 0xC3)
				refuse.Store(true)
				if flusher == "background" {
					b.p.flushAll(0)
				}
				if cm := b.commit(t, fh); cm.Status != nfs3.ErrIO {
					t.Errorf("COMMIT over dropped data: status %v, want %v", cm.Status, nfs3.ErrIO)
				}
				if got := b.p.Stats().FlushErrors; got != 1 {
					t.Errorf("flush errors = %d, want 1", got)
				}
				if b.p.cache.hasDirty(fh) {
					t.Error("refused blocks still dirty: they would be retried forever")
				}
				refuse.Store(false)
				if cm := b.commit(t, fh); cm.Status != nfs3.OK {
					t.Errorf("COMMIT after the loss was reported: status %v", cm.Status)
				}
				// The file works again from there.
				b.writeBlock(t, fh, 0, 0xC4)
				if cm := b.commit(t, fh); cm.Status != nfs3.OK || !b.onServer(1, 0xC4) {
					t.Errorf("COMMIT of a fresh write: status %v, on server: %v", cm.Status, b.onServer(1, 0xC4))
				}
			})
		})
	}
}

// TestCommitWaitsOutUnreachableUpstream: a flush that cannot reach the
// server leaves its blocks dirty, and the COMMIT may not answer OK from the
// cache over them; the client retries, and once the link is back the same
// data lands.
func TestCommitWaitsOutUnreachableUpstream(t *testing.T) {
	cfg := writeBackCfg
	cfg.CallTimeout = time.Second
	commitBed(t, cfg, nil, func(b *raBed, fh nfs3.FH) {
		b.writeBlock(t, fh, 0, 0xD5)
		b.net.Partition("client", "server")
		if cm := b.commit(t, fh); cm.Status != nfs3.ErrJukebox {
			t.Errorf("COMMIT with the upstream unreachable: status %v, want %v", cm.Status, nfs3.ErrJukebox)
		}
		if !b.p.cache.hasDirty(fh) {
			t.Error("the unflushed block is no longer dirty")
		}
		b.net.Heal("client", "server")
		if cm := b.commit(t, fh); cm.Status != nfs3.OK || !b.onServer(1, 0xD5) {
			t.Errorf("COMMIT after the link healed: status %v, on server: %v", cm.Status, b.onServer(1, 0xD5))
		}
		if got := b.wan(nfs3.ProcCommit); got != 0 {
			t.Errorf("%d COMMITs crossed; both were decided here", got)
		}
	})
}

// TestReadAheadOffDoesNoBookkeeping: a negative ReadAhead keeps the whole
// pipeline out of the READ path — no stream state, no link measurements, no
// prefetch — and a sequential read costs one wide-area READ per block.
func TestReadAheadOffDoesNoBookkeeping(t *testing.T) {
	runRABed(t, Config{ReadAhead: -1},
		func(fs *memfs.FS) {
			if _, err := fs.WriteFile("data", make([]byte, 4*raBS)); err != nil {
				t.Fatal(err)
			}
		},
		func(b *raBed) {
			lk, err := b.nc.Lookup(b.root, "data")
			if err != nil || lk.Status != nfs3.OK {
				t.Errorf("lookup: %v %v", err, lk.Status)
				return
			}
			for bn := uint64(0); bn < 3; bn++ {
				if res, err := b.nc.Read(lk.FH, bn*raBS, raBS); err != nil || res.Status != nfs3.OK {
					t.Errorf("read: %v %v", err, res.Status)
				}
			}
			b.clk.Sleep(time.Second)
			if got := b.p.cache.liveStreams(); got != 0 {
				t.Errorf("%d files carry stream state with readahead off", got)
			}
			if rtt, blk := b.p.ra.minRTT.Load(), b.p.ra.minBlock.Load(); rtt != 0 || blk != 0 {
				t.Errorf("link measurements taken with readahead off: minRTT=%d minBlock=%d", rtt, blk)
			}
			if w := b.p.ra.window.Load(); w != 0 {
				t.Errorf("window = %d with readahead off", w)
			}
			if ras, reads := b.p.Stats().ReadAheads, b.wan(nfs3.ProcRead); ras != 0 || reads != 3 {
				t.Errorf("prefetched %d blocks, %d WAN READs for 3 blocks read", ras, reads)
			}
		})
}
