package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/nfs3"
)

const raBS = 32 * 1024

// streamCache is a session cache holding attributes for one file of the
// given number of blocks.
func streamCache(fh nfs3.FH, blocks int) *sessionCache {
	sc := newSessionCache(raBS, 1<<30)
	a := attrWithMtime(1, nfs3.TypeReg)
	a.Size = uint64(blocks) * raBS
	sc.putAttr(fh, a)
	return sc
}

// liveStreams counts files carrying read-stream state.
func (sc *sessionCache) liveStreams() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := 0
	for _, fc := range sc.files {
		if fc.stream != (readStream{}) {
			n++
		}
	}
	return n
}

// claimed is the blocks of a stream's own claim (claimChunk's first result).
func claimed(own, _ speculation) []uint64 { return own.blocks }

func blockRange(lo, hi uint64) []uint64 {
	var out []uint64
	for bn := lo; bn < hi; bn++ {
		out = append(out, bn)
	}
	return out
}

// TestStreamChunksAtQuarterWindow walks the per-file state machine: a read of
// block 0 starts the stream and claims a window; sequential hits cost a
// comparison until the reader has consumed a quarter of what is ahead; then one
// chunk tops the pipeline back up to a full window.
func TestStreamChunksAtQuarterWindow(t *testing.T) {
	fh := fhN(1)
	sc := streamCache(fh, 64)
	const w = 8
	attr, _ := sc.getAttr(fh)
	land := func(s speculation) {
		for i, run := range s.runs {
			n := len(run) * raBS
			sc.landCall(&s, i, &nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: attr}, Count: uint32(n), Data: make([]byte, n)})
		}
	}

	if due, busy := sc.streamRead(fh, 0, w); !due || busy {
		t.Fatalf("read of block 0: due=%v busy=%v, want a chunk due and nothing in flight", due, busy)
	}
	first, _ := sc.claimChunk(fh, w)
	if want := blockRange(1, 9); !reflect.DeepEqual(first.blocks, want) {
		t.Fatalf("first chunk = %v, want %v", first.blocks, want)
	}
	if due, busy := sc.streamRead(fh, 1, w); due || !busy {
		t.Fatalf("read of block 1: due=%v busy=%v, want it in flight and nothing due", due, busy)
	}
	land(first)
	// Reading 2 leaves 6 of 8 ahead: the quarter mark.
	if due, _ := sc.streamRead(fh, 2, w); !due {
		t.Fatal("no chunk due at the quarter mark")
	}
	second, _ := sc.claimChunk(fh, w)
	if want := blockRange(9, 11); !reflect.DeepEqual(second.blocks, want) {
		t.Fatalf("second chunk = %v, want %v (up to one window past the reader)", second.blocks, want)
	}
	land(second)
	// Read 3 has more than three quarters of a window ahead of it: nothing is due.
	if due, busy := sc.streamRead(fh, 3, w); due || busy {
		t.Fatalf("read of block 3: due=%v busy=%v, want a plain hit", due, busy)
	}
	// Reading 4 is the next quarter.
	if due, _ := sc.streamRead(fh, 4, w); !due {
		t.Fatal("no chunk due at the next quarter mark")
	}
	if got, want := claimed(sc.claimChunk(fh, w)), blockRange(11, 13); !reflect.DeepEqual(got, want) {
		t.Fatalf("third chunk = %v, want %v", got, want)
	}
}

// TestStreamStopsAtEOF: a file shorter than the window is claimed once and
// the stream then stays quiet, however many more blocks are read — until the
// file grows or is read again from the top.
func TestStreamStopsAtEOF(t *testing.T) {
	fh := fhN(1)
	sc := streamCache(fh, 5)
	sc.streamRead(fh, 0, 32)
	own, _ := sc.claimChunk(fh, 32)
	if got, want := own.blocks, blockRange(1, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("claimed %v, want %v", got, want)
	}
	for i := range own.runs {
		sc.landCall(&own, i, nil)
	}
	for bn := uint64(1); bn < 5; bn++ {
		if due, _ := sc.streamRead(fh, bn, 32); due {
			t.Fatalf("chunk due at block %d of a file already requested to its end", bn)
		}
	}
	// The file grows under the reader (an appender, a log being tailed): the
	// stream resumes past the old end instead of staying finished.
	grown := attrWithMtime(1, nfs3.TypeReg)
	grown.Size = 9 * raBS
	sc.putAttr(fh, grown)
	if due, _ := sc.streamRead(fh, 5, 32); !due {
		t.Fatal("no chunk due after the file grew past the end prefetch had reached")
	}
	if got, want := claimed(sc.claimChunk(fh, 32)), blockRange(6, 9); !reflect.DeepEqual(got, want) {
		t.Fatalf("claimed %v after growth, want %v", got, want)
	}
	// A second pass from the top starts over.
	if due, _ := sc.streamRead(fh, 0, 32); !due {
		t.Fatal("re-reading from block 0 did not restart the stream")
	}
}

// TestStreamBoundsPrefetchesInFlight: the window bounds the file's
// prefetches in flight, counting one the reader is itself waiting on.
func TestStreamBoundsPrefetchesInFlight(t *testing.T) {
	fh := fhN(1)
	sc := streamCache(fh, 64)
	const w = 4
	sc.streamRead(fh, 0, w)
	own, _ := sc.claimChunk(fh, w) // 1..4 in flight, one run each
	sc.streamRead(fh, 1, w)
	sc.streamRead(fh, 2, w) // past the half-way mark, but nothing has landed
	if got := claimed(sc.claimChunk(fh, w)); len(got) != 0 {
		t.Fatalf("claimed %v with a full window in flight", got)
	}
	sc.landCall(&own, 0, nil) // block 1
	sc.landCall(&own, 1, nil) // block 2
	if got, want := claimed(sc.claimChunk(fh, w)), blockRange(5, 7); !reflect.DeepEqual(got, want) {
		t.Fatalf("claimed %v, want %v", got, want)
	}
}

// TestStreamResets covers every way a stream must restart: a non-sequential
// read, either invalidation channel, and a truncation. After each, no chunk
// is due until two sequential reads re-establish the pattern, and nothing is
// claimed past the file's end.
func TestStreamResets(t *testing.T) {
	fh := fhN(1)
	const w = 4
	attr := func(blocks int) nfs3.Fattr {
		a := attrWithMtime(1, nfs3.TypeReg)
		a.Size = uint64(blocks) * raBS
		return a
	}
	cases := []struct {
		name  string
		reset func(sc *sessionCache)
		eof   uint64
	}{
		{"random read", func(sc *sessionCache) { sc.streamRead(fh, 40, w) }, 64},
		{"GETINV invalidation", func(sc *sessionCache) { sc.invalidateHandle(fh); sc.putAttr(fh, attr(64)) }, 64},
		{"recall", func(sc *sessionCache) { sc.applyRecall(RecallArgs{FH: fh}); sc.putAttr(fh, attr(64)) }, 64},
		{"force invalidation", func(sc *sessionCache) { sc.invalidateAllAttrs(true); sc.putAttr(fh, attr(64)) }, 64},
		{"truncation", func(sc *sessionCache) { sc.putAttr(fh, attr(12)) }, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := streamCache(fh, 64)
			sc.putAttr(fh, attr(64))
			for bn := uint64(0); bn < 3; bn++ {
				sc.streamRead(fh, bn, w)
			}
			own, _ := sc.claimChunk(fh, w)
			for i := range own.runs {
				sc.landCall(&own, i, nil)
			}
			tc.reset(sc)
			if tc.name != "random read" && sc.liveStreams() != 0 {
				t.Fatal("stream state survived the reset")
			}
			if got := claimed(sc.claimChunk(fh, w)); len(got) != 0 {
				t.Fatalf("claimed %v straight after the reset", got)
			}
			// The reader resumes near the (possibly new) end of the file.
			at := tc.eof - 3
			if due, _ := sc.streamRead(fh, at, w); due {
				t.Fatal("chunk due on the first read after a reset")
			}
			if due, _ := sc.streamRead(fh, at+1, w); !due {
				t.Fatal("stream did not restart on the second sequential read")
			}
			if got, want := claimed(sc.claimChunk(fh, w)), blockRange(at+2, tc.eof); !reflect.DeepEqual(got, want) {
				t.Fatalf("claimed %v, want %v (never past block %d)", got, want, tc.eof)
			}
		})
	}
}

// TestReadPipeGrowthRule pins the learning rule on the links the repository
// models: it grows while half a window's blocks take less wire time than
// one block's round trip, and holds from there. The samples go through
// observe, as replies do: a full block's READ times a block, any other reply
// the round trip, and a session whose only timed replies are READs holds.
func TestReadPipeGrowthRule(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	cases := []struct {
		name       string
		rtt, block time.Duration
		cfg        Config
		want       int64
	}{
		{"100 Mbit/s x 40 ms: grows to the READ size cap", ms(40), ms(42.6), Config{ReadAhead: 4}, 32},
		{"4 Mbit/s x 40 ms: initial window is already past the BDP", ms(40), ms(105.5), Config{ReadAhead: 4}, 4},
		{"4 Mbit/s x 40 ms from 1: stops at 4", ms(40), ms(105.5), Config{ReadAhead: 1}, 4},
		{"10 Mbit/s x 40 ms", ms(40), ms(66.2), Config{ReadAhead: 4}, 8},
		{"LAN", ms(0.5), ms(3.1), Config{ReadAhead: 4}, 4},
		{"unlimited bandwidth: only the cap stops it", ms(40), ms(40), Config{ReadAhead: 2}, 32},
		{"a quarter of the cache caps it", ms(40), ms(42.6), Config{ReadAhead: 4, CacheBytes: 64 * raBS}, 16},
		{"initial window above the cap is clamped", ms(40), ms(42.6), Config{ReadAhead: 8, CacheBytes: 16 * raBS}, 4},
		{"no small RPC timed yet: hold", 0, ms(42.6), Config{ReadAhead: 4}, 4},
		{"no block timed yet: hold", ms(40), 0, Config{ReadAhead: 4}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r readPipe
			cfg := tc.cfg.withDefaults()
			r.init(cfg)
			block := &nfs3.ReadRes{Status: nfs3.OK, Count: uint32(cfg.BlockSize)}
			r.observe(tc.rtt, &nfs3.GetattrRes{}, cfg.BlockSize)
			r.observe(tc.block, block, cfg.BlockSize)
			r.observe(2*tc.block, block, cfg.BlockSize) // a queued sample never raises the minimum
			for i := 0; i < 10; i++ {
				r.grow()
			}
			if got := r.window.Load(); got != tc.want {
				t.Errorf("window settled at %d, want %d", got, tc.want)
			}
		})
	}
	var off, def readPipe
	off.init(Config{ReadAhead: -1}.withDefaults())
	if off.window.Load() != 0 || off.grow() != 0 {
		t.Error("a negative ReadAhead must leave the pipeline off")
	}
	def.init(Config{}.withDefaults())
	if got := def.window.Load(); got != 4 {
		t.Errorf("the zero Config starts the window at %d, want 4", got)
	}
}

// TestUnreadPrefetchAccounting: a prefetched block counts as wasted exactly
// when it leaves the cache before any demand read consumed it.
func TestUnreadPrefetchAccounting(t *testing.T) {
	met, reg := testMetaCounters()
	met.raWasted = reg.Counter("wasted")
	fh := fhN(1)
	sc := newSessionCache(4, 12) // room for three blocks
	sc.setPolicy(nil, cachePolicy{}, met)
	a := attrWithMtime(1, nfs3.TypeReg)
	a.Size = 64
	blk := []byte{1, 2, 3, 4}

	putPrefetched(sc, fh, 0, blk, a, true)
	putPrefetched(sc, fh, 1, blk, a, true)
	sc.getBlock(fh, 0) // consumed
	sc.putBlock(fh, 2, blk, a)
	sc.putBlock(fh, 3, blk, a) // evicts block 1 (least recently used), unread
	if got := met.raWasted.Value(); got != 1 {
		t.Fatalf("wasted = %d after evicting one unread prefetch, want 1", got)
	}
	putPrefetched(sc, fh, 4, blk, a, true) // evicts block 0: read, not wasted
	a2 := attrWithMtime(2, nfs3.TypeReg)
	sc.putAttr(fh, a2) // foreign change drops the clean blocks, block 4 unread
	if got := met.raWasted.Value(); got != 2 {
		t.Fatalf("wasted = %d after invalidating one unread prefetch, want 2", got)
	}
	sc.writeDirty(fh, 20, blk)
	putPrefetched(sc, fh, 5, blk, a2, true) // lands on a dirty block: dropped
	if got := met.raWasted.Value(); got != 3 {
		t.Fatalf("wasted = %d after a prefetch lost to dirty data, want 3", got)
	}
}

// putPrefetched lands a block as putBlock does, or, prefetched, as a
// readahead's landing does: marked unread until a demand read consumes it.
func putPrefetched(sc *sessionCache, fh nfs3.FH, bn uint64, data []byte, attr nfs3.Fattr, prefetched bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.putBlockLocked(sc.fileFor(fh.Key()), bn, data, attr, prefetched)
}
