package core

import (
	"bytes"
	"testing"

	"repro/internal/nfs3"
	"repro/internal/xdr"
)

const coalesceBS = 64

func dirtyFile(t *testing.T, sc *sessionCache, fh nfs3.FH, blocks int) []byte {
	t.Helper()
	data := make([]byte, blocks*coalesceBS)
	for i := range data {
		data[i] = byte(i % 251)
	}
	sc.writeDirty(fh, 0, data)
	return data
}

func TestTakeDirtyRunCoalescesAdjacent(t *testing.T) {
	sc := newSessionCache(coalesceBS, 1<<20)
	fh := nfs3.MakeFH(1, 2)
	want := dirtyFile(t, sc, fh, 4)

	data, off, bns, gens, ok := sc.takeDirtyRun(fh, 0, 1<<20)
	if !ok || off != 0 {
		t.Fatalf("takeDirtyRun: ok=%v off=%d", ok, off)
	}
	if len(bns) != 4 || len(gens) != 4 || !bytes.Equal(data, want) {
		t.Fatalf("run = %d blocks, %d bytes; want 4 blocks, %d bytes", len(bns), len(data), len(want))
	}
	// Every block in the run is in flight: a second taker (a parallel flush
	// worker whose per-block queue item was absorbed) must get nothing.
	if _, _, _, _, ok := sc.takeDirtyRun(fh, 1, 1<<20); ok {
		t.Fatal("block 1 takeable while in flight")
	}
	for i, b := range bns {
		sc.flushed(fh, b, gens[i], nfs3.WccData{})
	}
	if got := sc.dirtyBlocks(fh); len(got) != 0 {
		t.Fatalf("dirty after flushed: %v", got)
	}
}

func TestTakeDirtyRunRespectsMaxBytes(t *testing.T) {
	sc := newSessionCache(coalesceBS, 1<<20)
	fh := nfs3.MakeFH(1, 2)
	dirtyFile(t, sc, fh, 4)

	data, _, bns, _, ok := sc.takeDirtyRun(fh, 0, 2*coalesceBS)
	if !ok || len(bns) != 2 || len(data) != 2*coalesceBS {
		t.Fatalf("run = %d blocks, %d bytes; want 2 blocks", len(bns), len(data))
	}
	// A maxBytes below the block size still takes the one block (it must
	// always make progress).
	data2, _, bns2, _, ok := sc.takeDirtyRun(fh, 2, 1)
	if !ok || len(bns2) != 1 || len(data2) != coalesceBS {
		t.Fatalf("tiny maxBytes run = %d blocks, %d bytes; want 1 block", len(bns2), len(data2))
	}
}

func TestTakeDirtyRunStopsAtHole(t *testing.T) {
	sc := newSessionCache(coalesceBS, 1<<20)
	fh := nfs3.MakeFH(1, 2)
	blk := make([]byte, coalesceBS)
	sc.writeDirty(fh, 0, blk)
	sc.writeDirty(fh, coalesceBS, blk)
	sc.writeDirty(fh, 3*coalesceBS, blk) // hole at block 2

	_, _, bns, _, ok := sc.takeDirtyRun(fh, 0, 1<<20)
	if !ok || len(bns) != 2 {
		t.Fatalf("run across a hole = %v", bns)
	}
}

func TestTakeDirtyRunShortTailEndsRun(t *testing.T) {
	sc := newSessionCache(coalesceBS, 1<<20)
	fh := nfs3.MakeFH(1, 2)
	n := 2*coalesceBS + coalesceBS/2 // 2.5 blocks
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	sc.writeDirty(fh, 0, data)

	got, off, bns, _, ok := sc.takeDirtyRun(fh, 0, 1<<20)
	if !ok || off != 0 || len(bns) != 3 {
		t.Fatalf("run = %v (ok=%v)", bns, ok)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("staged %d bytes, want the %d-byte file (tail clipped at EOF)", len(got), n)
	}
}

// TestCacheCopiesFrameAliasedData pins the ownership boundary between
// pooled RPC frames and the block cache: WriteArgs.Data and ReadRes.Data
// alias the request/reply frame, so writeDirty and putBlock must copy.
// The frame is scribbled after the cache call — exactly what frame
// recycling does — and the cached bytes must not change.
func TestCacheCopiesFrameAliasedData(t *testing.T) {
	sc := newSessionCache(coalesceBS, 1<<20)
	fh := nfs3.MakeFH(1, 2)
	payload := bytes.Repeat([]byte{0x5A}, coalesceBS)

	// Write path.
	e := xdr.NewEncoder()
	(&nfs3.WriteArgs{FH: fh, Count: coalesceBS, Stable: nfs3.FileSync, Data: payload}).Encode(e)
	frame := e.Bytes()
	var wa nfs3.WriteArgs
	if err := wa.Decode(xdr.NewDecoder(frame)); err != nil {
		t.Fatal(err)
	}
	sc.writeDirty(fh, 0, wa.Data)
	for i := range frame {
		frame[i] = 0xFF
	}
	if b, ok := sc.getBlock(fh, 0); !ok || !bytes.Equal(b, payload) {
		t.Fatal("dirty block corrupted by frame recycle; writeDirty must copy")
	}

	// Read-fill path.
	fh2 := nfs3.MakeFH(1, 3)
	e = xdr.NewEncoder()
	(&nfs3.ReadRes{Status: nfs3.OK, Count: coalesceBS, Data: payload}).Encode(e)
	frame = e.Bytes()
	var rr nfs3.ReadRes
	if err := rr.Decode(xdr.NewDecoder(frame)); err != nil {
		t.Fatal(err)
	}
	sc.putBlock(fh2, 0, rr.Data, nfs3.Fattr{Size: coalesceBS})
	for i := range frame {
		frame[i] = 0xFF
	}
	if b, ok := sc.getBlock(fh2, 0); !ok || !bytes.Equal(b, payload) {
		t.Fatal("clean block corrupted by frame recycle; putBlock must copy")
	}
}
