package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// succBed is a bare session cache and a kernel that reads through it the way
// ProxyClient.read and readAhead do, minus the network: stream, claim, spill,
// and a demand fetch for a block that is not there.
type succBed struct {
	t      *testing.T
	sc     *sessionCache
	w      int64
	files  []nfs3.FH         // in the order state() lists them
	names  map[string]string // handle key -> one letter
	blocks map[string]int    // handle key -> length
	// hold keeps claimed blocks in flight instead of landing them at once,
	// in held.
	hold   bool
	held   []speculation
	claims []string // what the reads since the last take() claimed

	wasted, spills, spillBlocks, misses *obs.Counter
}

const succBS = 8

// newSuccBed returns a bed under model with a window of w blocks over files
// given as name, blocks pairs.
func newSuccBed(t *testing.T, model Model, w int64, files ...any) *succBed {
	reg := obs.New(func() time.Duration { return 0 }, 16).Registry()
	b := &succBed{t: t, sc: newSessionCache(succBS, 1<<20), w: w, names: map[string]string{}, blocks: map[string]int{},
		wasted: reg.Counter("wasted"), spills: reg.Counter("spills"), spillBlocks: reg.Counter("blocks"), misses: reg.Counter("misses")}
	b.sc.setPolicy(nil, cachePolicy{model: model, delegRenew: time.Hour},
		cacheCounters{raWasted: b.wasted, raSpills: b.spills, raSpillBlocks: b.spillBlocks, raSuccMisses: b.misses})
	for i := 0; i < len(files); i += 2 {
		fh := fhN(uint64(1 + i/2))
		b.files = append(b.files, fh)
		b.names[fh.Key()], b.blocks[fh.Key()] = files[i].(string), files[i+1].(int)
		b.sc.putAttr(fh, b.attr(fh))
	}
	return b
}

// file returns the handle named name.
func (b *succBed) file(name string) nfs3.FH {
	for _, fh := range b.files {
		if b.names[fh.Key()] == name {
			return fh
		}
	}
	b.t.Fatalf("no file %q", name)
	return nfs3.FH{}
}

func (b *succBed) attr(fh nfs3.FH) nfs3.Fattr {
	a := attrWithMtime(1, nfs3.TypeReg)
	a.Size = uint64(b.blocks[fh.Key()]) * succBS
	return a
}

// span formats a claimed run: "X[1..8]", or block by block where it has holes.
func (b *succBed) span(fh nfs3.FH, bns []uint64) string {
	name := b.names[fh.Key()]
	if n := len(bns); n > 1 && bns[n-1]-bns[0] == uint64(n-1) {
		return fmt.Sprintf("%s[%d..%d]", name, bns[0], bns[n-1])
	}
	return name + strings.ReplaceAll(fmt.Sprint(bns), " ", ",")
}

// land ends run i of the prefetch s with its bytes.
func (b *succBed) land(s *speculation, i int) {
	n := len(s.runs[i]) * succBS
	b.sc.landCall(s, i, &nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: b.attr(s.fh)}, Count: uint32(n), Data: make([]byte, n)})
}

// inflight counts the prefetches in flight across all files.
func (b *succBed) inflight() (n int) {
	b.sc.mu.Lock()
	defer b.sc.mu.Unlock()
	for _, fc := range b.sc.files {
		n += len(fc.fetching)
	}
	return n
}

// read is one aligned demand READ of block bn of the file named name.
func (b *succBed) read(name string, bn uint64) {
	fh := b.file(name)
	if due, _ := b.sc.streamRead(fh, bn, b.w); due {
		own, sp := b.sc.claimChunk(fh, b.w)
		if len(own.blocks) > 0 {
			b.claims = append(b.claims, fmt.Sprintf("@%d %s", bn, b.span(fh, own.blocks)))
		}
		if sp.due {
			b.claims = append(b.claims, fmt.Sprintf("@%d ->%s", bn, b.span(sp.fh, sp.blocks)))
		}
		if got := b.inflight(); int64(got) > b.w {
			b.t.Fatalf("read of %s block %d left %d prefetches in flight under a window of %d", name, bn, got, b.w)
		}
		for _, s := range []speculation{own, sp} {
			if b.hold {
				b.held = append(b.held, s)
				continue
			}
			for i := range s.runs {
				b.land(&s, i)
			}
		}
	}
	if _, ok := b.sc.getBlock(fh, bn); !ok {
		b.sc.putBlock(fh, bn, make([]byte, succBS), b.attr(fh)) // the demand READ's reply
	}
}

// reads reads blocks [lo, hi) of name in order.
func (b *succBed) reads(name string, lo, hi int) {
	for bn := lo; bn < hi; bn++ {
		b.read(name, uint64(bn))
	}
}

// whole reads name from the top to its end.
func (b *succBed) whole(name string) { b.reads(name, 0, b.blocks[b.file(name).Key()]) }

// take returns what was claimed since the last take.
func (b *succBed) take() string {
	s := strings.Join(b.claims, " ")
	b.claims = nil
	return s
}

// evict drops name's clean blocks, as the LRU would have by the next pass.
func (b *succBed) evict(name string) {
	b.sc.mu.Lock()
	defer b.sc.mu.Unlock()
	if fc := b.sc.files[b.file(name).Key()]; fc != nil {
		b.sc.dropCleanLocked(fc)
	}
}

// state is the learned order: every link ("X>Y", "X>Y!" while the spill is
// withheld), every stream a spill began that no reader has reached ("Y@8":
// requested up to block 8), and the file last read to its end.
func (b *succBed) state() string {
	b.sc.mu.Lock()
	defer b.sc.mu.Unlock()
	var out []string
	for _, fh := range b.files {
		fc := b.sc.files[fh.Key()]
		if fc == nil {
			continue
		}
		if fc.succ != nil {
			s := b.names[fc.key] + ">" + b.names[fc.succ.key]
			if fc.succHeld {
				s += "!"
			}
			out = append(out, s)
		}
		if st := fc.stream; st.next == 0 && st.frontier == streamDone {
			out = append(out, b.names[fc.key]+"@eof")
		} else if st.next == 0 && st.frontier != 0 {
			out = append(out, fmt.Sprintf("%s@%d", b.names[fc.key], st.frontier))
		}
	}
	if d := b.sc.lastDone; d != nil {
		out = append(out, "done="+b.names[d.key])
	}
	return strings.Join(out, " ")
}

// TestSuccessorStateMachine drives the successor table and the spill through
// their transitions on a bare session cache — no network, no clock: after each
// event, what was claimed (own chunks "@block X[lo..hi]", spills "@block
// ->Y[lo..hi]", each at the read that made it due) and what the session
// remembers. Window 8, files of 16 blocks: a chunk every two reads.
func TestSuccessorStateMachine(t *testing.T) {
	b := newSuccBed(t, ModelPolling, 8, "X", 16, "Y", 16, "Z", 16)
	steps := []struct {
		event  string
		do     func()
		claims string
		state  string
	}{
		{"pass one: X read to its end, the window stops at EOF", func() { b.whole("X") },
			"@0 X[1..8] @2 X[9..10] @4 X[11..12] @6 X[13..14] @8 X[15]", "done=X"},
		{"Y opened from the top: it follows X", func() { b.read("Y", 0) },
			"@0 Y[1..8]", "X>Y"},
		{"Y read on to its end", func() { b.reads("Y", 1, 16) },
			"@2 Y[9..10] @4 Y[11..12] @6 Y[13..14] @8 Y[15]", "X>Y done=Y"},
		{"Y read again from the top: a file never follows itself", func() { b.whole("Y") },
			"", "X>Y done=Y"},
		{"a random read of Z (not block 0) links nothing", func() { b.read("Z", 5) },
			"", "X>Y done=Y"},
		{"pass two: X follows Y, and within three quarters of a window of X's EOF the window goes on into Y (evicted since)",
			func() { b.evict("Y"); b.whole("X") },
			"@9 ->Y[0..1] @11 ->Y[2..3] @13 ->Y[4..5] @15 ->Y[6..7]", "X>Y Y>X Y@8 done=X"},
		{"the reader arrives at Y: block 0 is there, and nothing more is due yet", func() { b.read("Y", 0) },
			"", "X>Y Y>X"},
		{"Y's own stream carries on from block 8, not from 1; near its end its window moves on over X, all cached: nothing to fetch",
			func() { b.reads("Y", 1, 16) },
			"@1 Y[8..9] @3 Y[10..11] @5 Y[12..13] @7 Y[14..15]", "X>Y X@8 Y>X done=Y"},
		{"pass three: the same again", func() { b.evict("Y"); b.whole("X") },
			"@9 ->Y[0..1] @11 ->Y[2..3] @13 ->Y[4..5] @15 ->Y[6..7]", "X>Y Y>X Y@8 done=X"},
		{"Z is opened instead: it replaces Y, the spill is withheld, Y's begun stream is dropped and its blocks age out unread",
			func() { b.read("Z", 0); b.evict("Y") },
			"@0 Z[1,2,3,4,6,7,8]", "X>Z! Y>X"}, // block 5 is the random read's
		{"Z read to its end, X again: Z takes Y's place in front of X (one predecessor a record); nothing spills while withheld",
			func() { b.reads("Z", 1, 16); b.evict("Z"); b.whole("X") },
			"@2 Z[9..10] @4 Z[11..12] @6 Z[13..14] @8 Z[15]", "X>Z! Z>X done=X"},
		{"Z opened after X a second time running: believed again", func() { b.whole("Z") },
			"@0 Z[1..8] @2 Z[9..10] @4 Z[11..12] @6 Z[13..14] @8 Z[15]", "X>Z X@8 Z>X done=Z"},
		{"and the next pass over X spills into Z", func() { b.evict("Z"); b.whole("X") },
			"@9 ->Z[0..1] @11 ->Z[2..3] @13 ->Z[4..5] @15 ->Z[6..7]", "X>Z Z>X Z@8 done=X"},
		{"Z's attributes invalidated: the link stays, the stream the spill began does not", func() { b.sc.invalidateHandle(b.file("Z")) },
			"", "X>Z Z>X done=X"},
		{"Z is removed: no pointer to it stays behind", func() { b.sc.forget(b.file("Z")) },
			"", "done=X"},
		{"X is removed", func() { b.sc.forget(b.file("X")) },
			"", ""},
	}
	for _, st := range steps {
		st.do()
		if got := b.take(); got != st.claims {
			t.Fatalf("%s:\nclaimed %q\nwant    %q", st.event, got, st.claims)
		}
		if got := b.state(); got != st.state {
			t.Fatalf("%s:\nstate %q\nwant  %q", st.event, got, st.state)
		}
		if err := checkSuccInvariants(b.sc); err != nil {
			t.Fatalf("%s: %v", st.event, err)
		}
	}
	// The reader found the head of a file requested for it once (Y in pass two;
	// X's, twice, was in the cache already — in pass three it went to Z instead
	// of Y: the one miss); three spills fetched eight blocks each; Y's from pass
	// three and Z's last left the cache unread.
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"spills", b.spills.Value(), 1},
		{"spill blocks", b.spillBlocks.Value(), 24},
		{"successor misses", b.misses.Value(), 1},
		{"wasted", b.wasted.Value(), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s counter = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// checkSuccInvariants is the part of checkCacheInvariants a cache without a
// disk mirror can be held to: the learned order.
func checkSuccInvariants(sc *sessionCache) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return checkSuccLocked(sc)
}

// TestSpillGates: where a speculative READ could recall another client's
// delegation (the only model in which a handle may be granted none, and so
// not cached), where the successor has no EOF
// to stop at or is being read by someone, the window stops at end-of-file
// however well the order is known — and goes on again once the gate lifts.
func TestSpillGates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model Model
		gate  func(b *succBed)
		lift  func(b *succBed) // nil: nothing lifts it
	}{
		{"the delegation model", ModelDelegation, func(*succBed) {}, nil},
		{"Y's attributes are not validly cached", ModelPolling, func(b *succBed) {
			b.sc.invalidateHandle(b.file("Y"))
		}, func(b *succBed) {
			b.sc.putAttr(b.file("Y"), b.attr(b.file("Y")))
		}},
		{"Y is in the middle of being read", ModelPolling, func(b *succBed) {
			b.reads("Y", 0, 6)
		}, func(b *succBed) {
			b.reads("Y", 6, 16)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newSuccBed(t, tc.model, 8, "X", 16, "Y", 16)
			b.whole("X")
			b.whole("Y")
			if got := b.state(); got != "X>Y done=Y" {
				t.Fatalf("after pass one the session remembers %q", got)
			}
			b.evict("X")
			b.evict("Y")
			tc.gate(b)
			b.take()
			b.whole("X")
			if got := b.take(); strings.Contains(got, "->") || b.spillBlocks.Value() != 0 {
				t.Fatalf("the window spilled: %q (%d blocks)", got, b.spillBlocks.Value())
			}
			if tc.lift == nil {
				return
			}
			tc.lift(b)
			b.evict("X")
			b.evict("Y")
			b.take()
			b.whole("X")
			if got := b.take(); !strings.HasSuffix(got, "@9 ->Y[0..1] @11 ->Y[2..3] @13 ->Y[4..5] @15 ->Y[6..7]") {
				t.Fatalf("with the gate lifted the next pass claimed %q", got)
			}
		})
	}
}

// TestSpillSizing: a spill is the window less the blocks of X still ahead of
// the reader, clipped at Y's EOF, without the blocks that are cached, dirty or
// in flight, and never so large that the two files' prefetches in flight
// together exceed the window.
func TestSpillSizing(t *testing.T) {
	// learn builds a bed whose session has seen X then Y, with Y evicted since.
	learn := func(t *testing.T, x, y int) *succBed {
		b := newSuccBed(t, ModelPolling, 8, "X", x, "Y", y)
		b.whole("X")
		b.whole("Y")
		b.evict("Y")
		b.take()
		return b
	}
	t.Run("clipped at Y's EOF, and Y's stream is then done before its reader arrives", func(t *testing.T) {
		b := learn(t, 16, 3)
		b.whole("X")
		if got, want := b.take(), "@9 ->Y[0..1] @11 ->Y[2]"; got != want {
			t.Fatalf("claimed %q, want %q", got, want)
		}
		if got, want := b.state(), "X>Y Y>X Y@eof done=X"; got != want {
			t.Fatalf("state %q, want %q", got, want)
		}
		b.whole("Y")
		if got := b.take(); got != "" {
			t.Fatalf("Y's reader claimed %q of a file already requested whole", got)
		}
		if b.spills.Value() != 1 || b.wasted.Value() != 0 {
			t.Errorf("%d boundaries crossed, %d blocks wasted; want 1 and 0", b.spills.Value(), b.wasted.Value())
		}
	})
	t.Run("cached, dirty and in-flight blocks are skipped", func(t *testing.T) {
		b := learn(t, 16, 16)
		y := b.file("Y")
		b.sc.putBlock(y, 1, make([]byte, succBS), b.attr(y))
		b.sc.writeDirty(y, 2*succBS, make([]byte, succBS))
		b.sc.mu.Lock()
		b.sc.files[y.Key()].fetching[3] = nil
		b.sc.mu.Unlock()
		b.reads("X", 0, 12)
		if got, want := b.take(), "@9 ->Y[0]"; got != want {
			t.Fatalf("claimed %q, want %q", got, want)
		}
		b.sc.mu.Lock()
		delete(b.sc.files[y.Key()].fetching, 3)
		b.sc.mu.Unlock()
	})
	t.Run("a one-block X spills when it is claimed", func(t *testing.T) {
		b := learn(t, 1, 16)
		b.read("X", 0)
		if got, want := b.take(), "@0 ->Y[0..7]"; got != want {
			t.Fatalf("claimed %q, want %q", got, want)
		}
		b.whole("Y")
		if got, want := b.take(), "@1 Y[8..9] @3 Y[10..11] @5 Y[12..13] @7 Y[14..15]"; got != want {
			t.Fatalf("Y's reader claimed %q, want %q", got, want)
		}
	})
	t.Run("a file that ends inside its first chunk spills behind it", func(t *testing.T) {
		b := learn(t, 5, 16)
		b.evict("X")
		b.read("X", 0)
		if got, want := b.take(), "@0 X[1..4] @0 ->Y[0..3]"; got != want {
			t.Fatalf("claimed %q, want %q", got, want)
		}
	})
	t.Run("X and Y in flight together never exceed the window", func(t *testing.T) {
		b := learn(t, 16, 16)
		b.evict("X")
		b.reads("X", 0, 8)
		b.hold = true // from here on nothing lands (read checks the bound at every claim)
		b.reads("X", 8, 16)
		if got, want := b.take(), "@0 X[1..8] @2 X[9..10] @4 X[11..12] @6 X[13..14] @8 X[15] @9 ->Y[0..1] @11 ->Y[2..3] @13 ->Y[4..5] @15 ->Y[6]"; got != want {
			t.Fatalf("claimed %q, want %q", got, want)
		}
		if got := b.inflight(); got != 8 {
			t.Fatalf("%d prefetches in flight, want the window's 8", got)
		}
		// X's tail lands: the next read in reach of the boundary tops the spill up.
		for _, s := range b.held {
			for i, run := range s.runs {
				if s.fh == b.file("X") && slices.Equal(run, []uint64{15}) {
					b.land(&s, i)
				}
			}
		}
		b.read("Y", 0)
		if got, want := b.take(), "@0 Y[7]"; got != want {
			t.Fatalf("claimed %q, want %q", got, want)
		}
	})
}

// TestReadAheadSuccessorRaces runs the successor table against everything that
// can reach it at once — two sequential readers over overlapping rings, a
// random reader, invalidations, removals and prefetches landing late — for the
// race detector, then checks the cache's invariants, that nothing is left in
// flight and that no parked read was left behind.
func TestReadAheadSuccessorRaces(t *testing.T) {
	const (
		nfiles, blocks, w = 5, 16, 8
		passes            = 30
	)
	met, reg := testMetaCounters()
	met.raWasted, met.raSpills = reg.Counter("wasted"), reg.Counter("spills")
	met.raSpillBlocks, met.raSuccMisses = reg.Counter("blocks"), reg.Counter("misses")
	var tick atomic.Int64
	sc := newSessionCache(opsBS, 2*blocks*opsBS) // two files' worth: every pass refetches
	sc.setPolicy(func() time.Duration { return time.Duration(tick.Add(1)) }, cachePolicy{model: ModelPolling, maxAttrs: nfiles}, met)
	mirror := fakePersister{}
	sc.setPersister(mirror, recoveryCounters{})
	clk := vclock.NewReal()
	attr := func(mtime uint32) nfs3.Fattr {
		a := attrWithMtime(mtime, nfs3.TypeReg)
		a.Size = blocks * opsBS
		return a
	}
	fh := func(i int) nfs3.FH { return fhN(uint64(1 + i%nfiles)) }
	for i := 0; i < nfiles; i++ {
		sc.putAttr(fh(i), attr(1))
	}

	claims := make(chan speculation, 4) // small, so that prefetches land well after later reads
	var parked, released atomic.Int64
	read := func(f nfs3.FH, bn uint64) {
		due, busy := sc.streamRead(f, bn, w)
		var wt *vclock.Waiter
		joined := false
		if busy {
			wt = clk.NewWaiter()
			joined = sc.awaitFetch(f, bn, wt)
		}
		if due {
			own, sp := sc.claimChunk(f, w)
			if own.due {
				claims <- own
			}
			if sp.due {
				claims <- sp
			}
		}
		if joined {
			parked.Add(1)
			clk.Wait(wt)
			released.Add(1)
		}
		if _, ok := sc.readHit(f, bn); !ok {
			sc.putBlock(f, bn, make([]byte, opsBS), attr(1))
			sc.putAttr(f, attr(1))
		}
	}
	ring := func(first, n int) {
		for i := first; i < first+n; i++ {
			for bn := uint64(0); bn < blocks; bn++ {
				read(fh(i), bn)
			}
		}
	}

	var landers, actors sync.WaitGroup
	landers.Add(1)
	go func() {
		defer landers.Done()
		for c := range claims {
			for i, run := range c.runs {
				n := len(run) * opsBS
				ws, _ := sc.landCall(&c, i, &nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: attr(1)}, Count: uint32(n), Data: make([]byte, n)})
				for _, w := range ws {
					w.Wake()
				}
			}
		}
	}()
	// Alone at first, so that whatever the scheduler does later the window has
	// spilled: the second pass over a ring larger than the cache.
	ring(0, 2*3)
	if met.raSpillBlocks.Value() == 0 {
		t.Error("two passes over a three-file ring spilled nothing")
	}
	for _, actor := range []func(){
		func() { ring(0, passes*3) }, // files 0 1 2
		func() { ring(1, passes*3) }, // files 1 2 3, sharing the session's one "last finished" slot
		func() { // a random reader: never block 0, never the block after the last
			for i := 0; i < passes*blocks; i++ {
				read(fh(i%3), uint64(1+(i*7)%(blocks-1)))
			}
		},
		func() { // the consistency channel: handles named, with and without a change behind them
			for i := 0; i < passes*4; i++ {
				f := fh(i)
				sc.invalidateHandle(f)
				sc.putAttr(f, attr(uint32(1+i%2)))
				sc.putAttr(f, attr(1))
			}
		},
		func() { // removals, and the name coming back
			for i := 0; i < passes; i++ {
				f := fh(i)
				sc.forget(f)
				sc.putAttr(f, attr(1))
			}
		},
	} {
		actors.Add(1)
		go func() {
			defer actors.Done()
			actor()
		}()
	}
	finished := make(chan struct{})
	go func() {
		actors.Wait()
		close(claims)
		landers.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatalf("the actors did not finish: %d reads parked on a prefetch, %d released", parked.Load(), released.Load())
	}
	if err := checkCacheInvariants(sc, mirror, nil, nil); err != nil {
		t.Fatal(err)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for key, fc := range sc.files {
		for bn, ws := range fc.fetching {
			t.Errorf("%q block %d still marked in flight, %d reads parked on it", key, bn, len(ws))
		}
	}
	if p, r := parked.Load(), released.Load(); p != r {
		t.Errorf("%d reads parked on a prefetch, %d released", p, r)
	}
	t.Logf("%d boundaries crossed on a spill, %d blocks spilled, %d successor misses, %d wasted; %d reads joined a prefetch",
		met.raSpills.Value(), met.raSpillBlocks.Value(), met.raSuccMisses.Value(), met.raWasted.Value(), parked.Load())
}
