package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// runReply is what the server sends back for a READ of run: the file's
// attributes, and the run's blocks of it up to its end.
func runReply(run []uint64, size uint64) *nfs3.ReadRes {
	a := attrWithMtime(1, nfs3.TypeReg)
	a.Size = size
	lo, hi := run[0]*raBS, min((run[len(run)-1]+1)*raBS, size)
	res := &nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: a}, EOF: hi == size}
	if hi > lo {
		res.Data = bytes.Repeat([]byte{byte(run[0])}, int(hi-lo))
	}
	res.Count = uint32(len(res.Data))
	return res
}

// TestReadRuns: a READ kind's claim crosses the wide area as one READ per run
// of adjacent blocks, a quarter of the window at most, and each READ's reply
// lands block by block under the rules one block's did — waking the readers
// parked on each, keeping what the reply holds, counting what lies past its
// EOF as wasted, and nothing for a record forgotten while it was out.
func TestReadRuns(t *testing.T) {
	t.Run("cut at gaps and at a quarter of the window", func(t *testing.T) {
		for _, tc := range []struct {
			blocks []uint64
			window int64
			want   [][]uint64
		}{
			{blockRange(1, 33), 32, [][]uint64{blockRange(1, 9), blockRange(9, 17), blockRange(17, 25), blockRange(25, 33)}},
			{[]uint64{1, 2, 3, 4, 7, 8, 9, 20, 21}, 32, [][]uint64{{1, 2, 3, 4}, {7, 8, 9}, {20, 21}}},
			{blockRange(3, 8), 8, [][]uint64{{3, 4}, {5, 6}, {7}}},
			{blockRange(0, 3), 4, [][]uint64{{0}, {1}, {2}}},
			{blockRange(0, 2), 1, [][]uint64{{0}, {1}}},
		} {
			if got := runsOf(tc.blocks, tc.window); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("runsOf(%v, %d) = %v, want %v", tc.blocks, tc.window, got, tc.want)
			}
		}
	})

	t.Run("one READ a run, in block order, behind the demand READ", func(t *testing.T) {
		runRABed(t, Config{ReadAhead: 32},
			func(fs *memfs.FS) {
				if _, err := fs.WriteFile("data", make([]byte, 40*raBS)); err != nil {
					t.Fatal(err)
				}
			},
			func(b *raBed) {
				lk, err := b.nc.Lookup(b.root, "data")
				if err != nil || lk.Status != nfs3.OK {
					t.Errorf("lookup: %v %v", err, lk.Status)
					return
				}
				// Blocks 5 and 6 are held: the window's claim goes round them.
				a, _ := b.p.cache.getAttr(lk.FH)
				for _, bn := range []uint64{5, 6} {
					b.p.cache.putBlock(lk.FH, bn, make([]byte, raBS), a)
				}
				before := len(b.up.sent())
				if _, err := b.nc.Read(lk.FH, 0, raBS); err != nil {
					t.Error(err)
					return
				}
				b.clk.Sleep(time.Second)
				var got [][]uint64
				for _, c := range b.up.sent()[before:] {
					got = append(got, c.blocks())
				}
				want := [][]uint64{{0}, blockRange(1, 5), blockRange(7, 15), blockRange(15, 23), blockRange(23, 31), blockRange(31, 33)}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("READs went out for blocks %v, want %v", got, want)
				}
			})
	})

	// claim is a stream's first chunk of a 64-block file under a window of 32
	// on a bare cache: blocks 1..32, in four runs of eight.
	claim := func(t *testing.T) (*sessionCache, nfs3.FH, speculation, *obs.Counter) {
		fh := fhN(1)
		sc := streamCache(fh, 64)
		wasted := obs.New(func() time.Duration { return 0 }, 16).Registry().Counter("wasted")
		sc.setPolicy(nil, sc.pol, cacheCounters{raWasted: wasted})
		sc.streamRead(fh, 0, 32)
		own, _ := sc.claimChunk(fh, 32)
		if want := [][]uint64{blockRange(1, 9), blockRange(9, 17), blockRange(17, 25), blockRange(25, 33)}; !reflect.DeepEqual(own.runs, want) {
			t.Fatalf("claimed runs %v, want %v", own.runs, want)
		}
		return sc, fh, own, wasted
	}
	park := func(t *testing.T, sc *sessionCache, fh nfs3.FH, bns ...uint64) []*vclock.Waiter {
		var ws []*vclock.Waiter
		for _, bn := range bns {
			w := vclock.NewVirtual().NewWaiter()
			if !sc.awaitFetch(fh, bn, w) {
				t.Fatalf("block %d is not in flight", bn)
			}
			ws = append(ws, w)
		}
		return ws
	}
	held := func(sc *sessionCache, fh nfs3.FH, bns []uint64) (n int) {
		for _, bn := range bns {
			if _, ok := sc.getBlock(fh, bn); ok {
				n++
			}
		}
		return n
	}

	t.Run("a reader parked on block 5 is woken by its run's reply", func(t *testing.T) {
		sc, fh, s, _ := claim(t)
		parked := park(t, sc, fh, 5)
		ws, kept := sc.landCall(&s, 0, runReply(s.runs[0], 64*raBS))
		if !reflect.DeepEqual(ws, parked) || kept != 8 {
			t.Errorf("the run handed back %d waiters (the parked one: %v) and kept %d blocks; want it and 8", len(ws), slices.Contains(ws, parked[0]), kept)
		}
		if n := held(sc, fh, s.runs[0]); n != 8 {
			t.Errorf("%d of the run's 8 blocks are cached", n)
		}
		if n := len(s.rec.fetching); n != 24 {
			t.Errorf("%d blocks still in flight, want the other three runs' 24", n)
		}
	})

	t.Run("a reply that ends at EOF mid-run lands what it holds, the rest is wasted", func(t *testing.T) {
		sc, fh, s, wasted := claim(t)
		// The file now ends half way through block 11: 9, 10 and the tail of 11
		// come back.
		ws, kept := sc.landCall(&s, 1, runReply(s.runs[1], 11*raBS+raBS/2))
		if ws != nil || kept != 3 || wasted.Value() != 5 {
			t.Errorf("handed back %d waiters, kept %d blocks, %d wasted; want none, 3 and 5", len(ws), kept, wasted.Value())
		}
		if tail, ok := sc.getBlock(fh, 11); !ok || len(tail) != raBS/2 {
			t.Errorf("block 11 cached=%v with %d bytes, want the tail's %d", ok, len(tail), raBS/2)
		}
		if n := held(sc, fh, blockRange(12, 17)); n != 0 {
			t.Errorf("%d blocks past the end of file cached", n)
		}
		for _, bn := range s.runs[1] {
			if _, inflight := s.rec.fetching[bn]; inflight {
				t.Errorf("block %d still in flight", bn)
			}
		}
	})

	t.Run("a reply that stops short without EOF lands what it holds, and leaves the rest unanswered", func(t *testing.T) {
		sc, fh, s, wasted := claim(t)
		parked := park(t, sc, fh, 20)
		res := runReply(s.runs[2], 64*raBS)
		res.Data = res.Data[:2*raBS]
		res.Count = uint32(len(res.Data))
		ws, kept := sc.landCall(&s, 2, res)
		if !reflect.DeepEqual(ws, parked) || kept != 2 || wasted.Value() != 0 {
			t.Errorf("handed back %d waiters, kept %d blocks, %d wasted; want the parked one, 2 and 0", len(ws), kept, wasted.Value())
		}
		if n := held(sc, fh, s.runs[2]); n != 2 {
			t.Errorf("%d of the run's blocks cached, want the 2 the reply held", n)
		}
	})

	t.Run("a failed run wakes every parked reader and keeps nothing", func(t *testing.T) {
		sc, fh, s, wasted := claim(t)
		parked := park(t, sc, fh, 17, 20, 24)
		ws, kept := sc.landCall(&s, 2, nil)
		if !reflect.DeepEqual(ws, parked) || kept != 0 || wasted.Value() != 0 {
			t.Errorf("handed back %d of the 3 parked readers, kept %d blocks, %d wasted; want 3, 0 and 0", len(ws), kept, wasted.Value())
		}
		if n := held(sc, fh, s.runs[2]); n != 0 {
			t.Errorf("%d blocks of a failed run cached", n)
		}
		for _, bn := range []uint64{17, 20, 24} {
			if due, busy := sc.streamRead(fh, bn, 32); busy {
				t.Errorf("block %d still in flight after its run failed (due=%v): its reader would wait again instead of forwarding", bn, due)
			}
		}
	})

	t.Run("a run that crossed forget lands nothing", func(t *testing.T) {
		sc, fh, s, wasted := claim(t)
		park(t, sc, fh, 3)
		sc.forget(fh)
		ws, kept := sc.landCall(&s, 0, runReply(s.runs[0], 64*raBS))
		if ws != nil || kept != 0 || wasted.Value() != 0 {
			t.Errorf("handed back %d waiters (forget released them), kept %d blocks, %d wasted; want none", len(ws), kept, wasted.Value())
		}
		sc.mu.Lock()
		defer sc.mu.Unlock()
		if fc := sc.files[fh.Key()]; fc != nil {
			t.Errorf("the landing brought the forgotten record back with %d blocks", len(fc.blocks))
		}
	})

	t.Run("the readers of a failed run forward, and every block crosses once", func(t *testing.T) {
		const blocks = 40
		// failRuns answers every READ of more than one block NFS3ERR_IO. A
		// READ3resok is the status, the post-op attributes (a bool and the 84
		// bytes of a fattr3), then the count.
		failRuns := func(proc uint32, reply []byte) []byte {
			if proc == nfs3.ProcRead && len(reply) >= 96 && binary.BigEndian.Uint32(reply[92:]) > raBS {
				return []byte{0, 0, 0, byte(nfs3.ErrIO), 0, 0, 0, 0}
			}
			return reply
		}
		runTamperedBed(t, Config{ReadAhead: 32}, failRuns,
			func(fs *memfs.FS) {
				data := make([]byte, blocks*raBS)
				for i := range data {
					data[i] = byte(i / raBS)
				}
				if _, err := fs.WriteFile("data", data); err != nil {
					t.Fatal(err)
				}
			},
			func(b *raBed) {
				lk, err := b.nc.Lookup(b.root, "data")
				if err != nil || lk.Status != nfs3.OK {
					t.Errorf("lookup: %v %v", err, lk.Status)
					return
				}
				start := b.clk.Now()
				for bn := uint64(0); bn < blocks; bn++ {
					rd, err := b.nc.Read(lk.FH, bn*raBS, raBS)
					if err != nil || rd.Status != nfs3.OK || rd.Count != raBS || bytes.Count(rd.Data, []byte{byte(bn)}) != raBS {
						t.Errorf("block %d: %v %v, %d bytes", bn, err, rd.Status, rd.Count)
						return
					}
				}
				if elapsed := b.clk.Now() - start; elapsed > 2*time.Second {
					t.Errorf("the read took %v: a reader waited out a timeout instead of being woken", elapsed)
				}
				b.clk.Sleep(time.Second)
				var runs int
				crossed := map[uint64]int{}
				for _, c := range b.up.sent() {
					if c.count > raBS {
						runs++
						continue
					}
					crossed[c.offset/raBS]++
				}
				if runs == 0 {
					t.Error("no READ of a run went out: the test proves nothing")
				}
				for bn := uint64(0); bn < blocks; bn++ {
					if crossed[bn] != 1 {
						t.Errorf("block %d crossed %d times in a READ that succeeded, want once", bn, crossed[bn])
					}
				}
			})
	})
}
