package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
)

// TestTakeDirtyRunMaxWriteBytesBoundary audits the coalesced write-back
// staging against the MaxWriteBytes cap when the run ends in a short tail
// block. The cap must be enforced against actual staged byte counts (a tail
// block contributes only size%bs bytes, not a full block), the tail must
// never straddle the cap (a partial block in the middle of a WRITE would
// corrupt the run), and a cap below one block still takes exactly the first
// block.
func TestTakeDirtyRunMaxWriteBytesBoundary(t *testing.T) {
	const bs = 8
	// The dirty file spans blocks 0..2: two full blocks plus a 4-byte tail
	// (size 20). Payload bytes are the file offsets, so staged contents can
	// be checked against the run the take claims to cover.
	mkCache := func() (*sessionCache, []byte) {
		sc := newSessionCache(bs, 1<<20)
		data := make([]byte, 20)
		for i := range data {
			data[i] = byte(i)
		}
		sc.writeDirty(fhN(1), 0, data)
		return sc, data
	}

	cases := []struct {
		name      string
		maxBytes  int
		startBn   uint64
		wantBns   []uint64
		wantBytes int
	}{
		{name: "cap fits full run including tail", maxBytes: 20, startBn: 0, wantBns: []uint64{0, 1, 2}, wantBytes: 20},
		{name: "generous cap stops at tail", maxBytes: 1 << 20, startBn: 0, wantBns: []uint64{0, 1, 2}, wantBytes: 20},
		{name: "tail would straddle cap", maxBytes: 18, startBn: 0, wantBns: []uint64{0, 1}, wantBytes: 16},
		{name: "cap one byte short of tail end", maxBytes: 19, startBn: 0, wantBns: []uint64{0, 1}, wantBytes: 16},
		{name: "cap lands mid full block", maxBytes: 12, startBn: 0, wantBns: []uint64{0}, wantBytes: 8},
		{name: "cap below one block clamps to block size", maxBytes: 4, startBn: 0, wantBns: []uint64{0}, wantBytes: 8},
		{name: "zero cap clamps to block size", maxBytes: 0, startBn: 0, wantBns: []uint64{0}, wantBytes: 8},
		{name: "short tail alone", maxBytes: 1 << 20, startBn: 2, wantBns: []uint64{2}, wantBytes: 4},
		{name: "tail exactly consumes cap", maxBytes: 12, startBn: 1, wantBns: []uint64{1, 2}, wantBytes: 12},
		{name: "tail one over cap", maxBytes: 11, startBn: 1, wantBns: []uint64{1}, wantBytes: 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, file := mkCache()
			data, off, bns, gens, ok := sc.takeDirtyRun(fhN(1), tc.startBn, tc.maxBytes)
			if !ok {
				t.Fatalf("takeDirtyRun(bn=%d, max=%d) not ok", tc.startBn, tc.maxBytes)
			}
			defer bufpool.Put(data)
			if wantOff := tc.startBn * bs; off != wantOff {
				t.Errorf("off = %d, want %d", off, wantOff)
			}
			if len(bns) != len(tc.wantBns) {
				t.Fatalf("run blocks = %v, want %v", bns, tc.wantBns)
			}
			for i, bn := range tc.wantBns {
				if bns[i] != bn {
					t.Fatalf("run blocks = %v, want %v", bns, tc.wantBns)
				}
			}
			if len(gens) != len(bns) {
				t.Errorf("len(gens) = %d, want %d", len(gens), len(bns))
			}
			if len(data) != tc.wantBytes {
				t.Errorf("staged %d bytes, want %d", len(data), tc.wantBytes)
			}
			want := file[off : off+uint64(tc.wantBytes)]
			if !bytes.Equal(data, want) {
				t.Errorf("staged bytes = %v, want %v", data, want)
			}
			// Exactly the taken blocks are in flight; the rest remain
			// takeable by a concurrent flusher.
			fc := sc.files[fhN(1).Key()]
			taken := map[uint64]bool{}
			for _, bn := range bns {
				taken[bn] = true
				if !fc.blocks[bn].flushing {
					t.Errorf("block %d not marked in flight", bn)
				}
			}
			for bn, blk := range fc.blocks {
				if !taken[bn] && blk.flushing {
					t.Errorf("block %d outside the run marked in flight", bn)
				}
			}
			if fc.inflight != len(bns) {
				t.Errorf("file counts %d blocks in flight, run has %d", fc.inflight, len(bns))
			}
		})
	}
}

// TestTakeDirtyRunTruncatedStartDropsBlock pins the truncation-drop path: a
// dirty block wholly beyond the file size is discarded in full — record, dirty
// count and all — whatever the run cap (one block, as the per-block pipeline
// takes it, or many).
func TestTakeDirtyRunTruncatedStartDropsBlock(t *testing.T) {
	const bs = 8
	for _, maxBytes := range []int{bs, 1 << 20} {
		sc := newSessionCache(bs, 1<<20)
		fh := fhN(1)
		sc.writeDirty(fh, 0, make([]byte, 20)) // blocks 0..2, size 20
		// SETATTR truncation behind the flusher's back.
		sc.files[fh.Key()].size = 6
		if _, _, _, _, ok := sc.takeDirtyRun(fh, 2, maxBytes); ok {
			t.Fatal("block beyond truncation was staged for write-back")
		}
		fc := sc.files[fh.Key()]
		if _, exists := fc.blocks[2]; exists {
			t.Error("truncated block's record retained")
		}
		if fc.ndirty != 2 {
			t.Errorf("dirty count %d after the drop, want 2", fc.ndirty)
		}
	}
}

// TestParallelFlushKeepsRunsWhole: a flush pass hands each worker a whole
// run. Queueing one item per dirty block let FlushParallelism workers race
// for adjacent blocks of the same run: whichever got the cache mutex second
// took blocks bn+1 onwards and left the first a one-block WRITE. 64 dirty
// 32 KiB blocks are two 1 MiB runs, so two WRITEs, however the workers are
// scheduled.
func TestParallelFlushKeepsRunsWhole(t *testing.T) {
	const blocks = 64
	cfg := Config{WriteBack: true, FlushInterval: time.Hour, FlushParallelism: 4}
	commitBed(t, cfg, nil, func(b *raBed, fh nfs3.FH) {
		for bn := uint64(0); bn < blocks; bn++ {
			b.writeBlock(t, fh, bn, 0x5A)
		}
		if cm := b.commit(t, fh); cm.Status != nfs3.OK {
			t.Errorf("COMMIT: %v", cm.Status)
		}
		if got := b.wan(nfs3.ProcWrite); got != 2 {
			t.Errorf("%d dirty blocks flushed in %d wide-area WRITEs, want 2", blocks, got)
		}
		if got := b.p.Stats().FlushedBlocks; got != blocks {
			t.Errorf("flushed %d blocks, want %d", got, blocks)
		}
		if !b.onServer(blocks, 0x5A) {
			t.Error("the server's copy is not what was written")
		}
	})
}
