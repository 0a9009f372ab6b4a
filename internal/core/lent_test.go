package core

import (
	"bytes"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
	"repro/internal/xdr"
)

// TestLentBlockIsNeverRecycled: a READ hit lends its block's buffer — the
// reply is encoded out of it after the cache lock is released — so a lent
// buffer never goes back to the pool: not when the block is evicted, not when
// an absorbed WRITE rewrites it, not when a refetch replaces it, not when the
// file is forgotten. Each hit below is encoded only after that has happened
// and the pool has been drained of what it held: a buffer recycled too early
// is poisoned in race builds and handed out and written over in any build,
// and the reply would not carry the block's bytes. Every buffer the cache took
// leaves the outstanding count once the file is gone, lent ones included.
func TestLentBlockIsNeverRecycled(t *testing.T) {
	const bs = 32 << 10
	fh := fhN(1)
	attr := attrWithMtime(1, nfs3.TypeReg)
	attr.Size = 8 * bs
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, bs) }
	for _, tc := range []struct {
		name   string
		change func(sc *sessionCache)
	}{
		{"evicted", func(sc *sessionCache) {
			// Room for two blocks: the third insert evicts block 0, the
			// oldest since its hit.
			sc.putBlock(fh, 1, fill(1), attr)
			sc.putBlock(fh, 2, fill(2), attr)
			if _, ok := sc.getBlock(fh, 0); ok {
				t.Error("block 0 was not evicted")
			}
		}},
		{"rewritten", func(sc *sessionCache) { sc.writeDirty(fh, 0, fill(0xEE)) }},
		{"refetched", func(sc *sessionCache) { sc.putBlock(fh, 0, fill(0xAA), attr) }},
		{"forgotten", func(sc *sessionCache) { sc.forget(fh) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := bufpool.Outstanding()
			sc := newSessionCache(bs, 2*bs)
			sc.putAttr(fh, attr)
			want := fill(0x5A)
			sc.putBlock(fh, 0, want, attr)
			hit, ok := sc.readHit(fh, 0)
			if !ok {
				t.Fatal("block 0 is not a hit")
			}
			tc.change(sc)
			var drawn [][]byte
			for range 16 {
				b := bufpool.Get(bs)
				clear(b)
				drawn = append(drawn, b)
			}
			var res nfs3.ReadRes
			if !localReadInto(&res, hit.attr, hit.data, 0, bs, bs) {
				t.Fatal("the hit cannot be served")
			}
			e := xdr.NewEncoder()
			res.Encode(e)
			var got nfs3.ReadRes
			if err := got.Decode(xdr.NewDecoder(e.Bytes())); err != nil || !bytes.Equal(got.Data, want) {
				t.Errorf("the reply carries %d bytes, %d of them the block's (%v)", len(got.Data), bytes.Count(got.Data, want[:1]), err)
			}
			for _, b := range drawn {
				bufpool.Put(b)
			}
			sc.forget(fh)
			if n := bufpool.Outstanding() - before; n != 0 {
				t.Errorf("%d buffers the cache took are still counted out after its file went", n)
			}
		})
	}
}
