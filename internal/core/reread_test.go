package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// rereadBed is a bare session cache holding one file, X, that another client
// rewrites, and a kernel that reads X through it the way ProxyClient.read and
// getattr do, minus the network: the stream, chunks (landing at once), the
// revalidating GETATTR's claim (landing when the test says), a demand fetch
// for a block that is not there.
type rereadBed struct {
	t      *testing.T
	sc     *sessionCache
	mirror fakePersister
	w      int64
	fh     nfs3.FH
	// The file as the server has it now.
	blocks int
	mtime  uint32
	// claims holds every claim made of X, each landed block by block.
	claims []speculation

	wasted, spills, reopens, reopenBlocks *obs.Counter
}

func newRereadBed(t *testing.T, model Model, blocks int) *rereadBed {
	reg := obs.New(func() time.Duration { return 0 }, 16).Registry()
	b := &rereadBed{t: t, sc: newSessionCache(succBS, 1<<20), mirror: fakePersister{}, w: 8, fh: fhN(1), blocks: blocks, mtime: 1,
		wasted: reg.Counter("wasted"), spills: reg.Counter("spills"), reopens: reg.Counter("reopens"), reopenBlocks: reg.Counter("blocks")}
	b.sc.setPolicy(nil, cachePolicy{model: model, delegRenew: time.Hour, maxAttrs: 1},
		cacheCounters{raWasted: b.wasted, raSpills: b.spills, raReopens: b.reopens, raReopenBlocks: b.reopenBlocks})
	b.sc.setPersister(b.mirror, recoveryCounters{})
	b.sc.putAttr(b.fh, b.attr())
	return b
}

func (b *rereadBed) attr() nfs3.Fattr {
	a := attrWithMtime(b.mtime, nfs3.TypeReg)
	a.Size = uint64(b.blocks) * succBS
	return a
}

// reply is what a READ of block bn brings back from the server now.
func (b *rereadBed) reply(bn uint64) *nfs3.ReadRes {
	res := &nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: b.attr()}, EOF: bn+1 >= uint64(b.blocks)}
	if bn < uint64(b.blocks) {
		res.Count, res.Data = succBS, make([]byte, succBS)
	}
	return res
}

// land ends the prefetch of block bn with the server's current bytes, as a
// run of its own of the latest claim that holds it.
func (b *rereadBed) land(bn uint64) (ws []*vclock.Waiter, kept int) {
	for i := len(b.claims) - 1; i >= 0; i-- {
		if s := b.claims[i]; slices.Contains(s.blocks, bn) {
			one := speculation{kind: s.kind, ticket: s.ticket, blocks: []uint64{bn}, runs: [][]uint64{{bn}}}
			return b.sc.landCall(&one, 0, b.reply(bn))
		}
	}
	return nil, 0
}

// landAll lands every prefetch in flight.
func (b *rereadBed) landAll() {
	for _, bn := range b.inflight() {
		b.land(bn)
	}
}

func (b *rereadBed) inflight() (bns []uint64) {
	b.sc.mu.Lock()
	defer b.sc.mu.Unlock()
	if fc := b.sc.files[b.fh.Key()]; fc != nil {
		for bn := uint64(0); bn < 64; bn++ {
			if _, ok := fc.fetching[bn]; ok {
				bns = append(bns, bn)
			}
		}
	}
	return bns
}

// getattr is a GETATTR of X the cache could not answer: what it claims to
// carry behind it, as "X[0..7]" ("" for nothing).
func (b *rereadBed) getattr() string {
	s := b.sc.claimReread(b.fh, b.w)
	b.claims = append(b.claims, s)
	bns := s.blocks
	if len(bns) == 0 {
		return ""
	}
	if n := len(bns); bns[n-1]-bns[0] == uint64(n-1) {
		return fmt.Sprintf("X[%d..%d]", bns[0], bns[n-1])
	}
	return "X" + strings.ReplaceAll(fmt.Sprint(bns), " ", ",")
}

// answer is the GETATTR's answer: the server's attributes now.
func (b *rereadBed) answer() { b.sc.putAttr(b.fh, b.attr()) }

// read is one aligned demand READ of block bn: a hit, a join (the prefetch it
// waits for lands first), or forwarded.
func (b *rereadBed) read(bn uint64) string {
	due, busy := b.sc.streamRead(b.fh, bn, b.w)
	if due {
		own, _ := b.sc.claimChunk(b.fh, b.w)
		b.claims = append(b.claims, own)
		for _, x := range own.blocks {
			b.land(x)
		}
	}
	how := "hit"
	if busy {
		b.land(bn)
		how = "joined"
	}
	if _, ok := b.sc.readHit(b.fh, bn); !ok {
		b.sc.putBlock(b.fh, bn, make([]byte, succBS), b.attr())
		b.sc.putAttr(b.fh, b.attr())
		how = "forwarded"
	}
	return how
}

// reads reads blocks [lo, hi) and says how each was answered, run by run:
// "hit x3 joined x2".
func (b *rereadBed) reads(lo, hi int) string {
	var out []string
	last, n := "", 0
	flush := func() {
		if n > 0 {
			out = append(out, fmt.Sprintf("%s x%d", last, n))
		}
	}
	for bn := lo; bn < hi; bn++ {
		if how := b.read(uint64(bn)); how == last {
			n++
		} else {
			flush()
			last, n = how, 1
		}
	}
	flush()
	return strings.Join(out, " ")
}

func (b *rereadBed) whole() string { return b.reads(0, b.blocks) }

// record runs fn on X's record under the cache lock.
func (b *rereadBed) record(fn func(fc *cachedFile)) {
	b.sc.mu.Lock()
	defer b.sc.mu.Unlock()
	fn(b.sc.files[b.fh.Key()])
}

// state is what X's record says about a re-read: "through" (its last pass read
// it through), "news" (of a remote write), and a stream a revalidating GETATTR
// began that no reader has reached ("reread@8": requested up to block 8).
func (b *rereadBed) state() string {
	var out []string
	b.record(func(fc *cachedFile) {
		if fc == nil {
			out = append(out, "forgotten")
			return
		}
		if fc.readThrough {
			out = append(out, "through")
		}
		if fc.remoteWrite {
			out = append(out, "news")
		}
		if st := fc.stream; st.reread && st.frontier == streamDone {
			out = append(out, "reread@eof")
		} else if st.reread {
			out = append(out, fmt.Sprintf("reread@%d", st.frontier))
		}
	})
	return strings.Join(out, " ")
}

func (b *rereadBed) check(event string) {
	b.t.Helper()
	if err := checkCacheInvariants(b.sc, b.mirror, nil, nil); err != nil {
		b.t.Fatalf("%s: %v", event, err)
	}
}

// TestRereadStateMachine drives the evidence for a revalidating GETATTR's
// claim, and the claim, through their transitions on a bare session cache — no
// network, no clock: after each event, what the event did ("X[0..7]" claimed
// behind a GETATTR; how a run of reads was answered) and what X's record says.
// Window 8, X 16 blocks.
func TestRereadStateMachine(t *testing.T) {
	b := newRereadBed(t, ModelPolling, 16)
	other := fhN(2)
	rewrite := func() { b.mtime++ }
	recall := func(d DelegType, offset bool) func() string {
		return func() string {
			b.sc.applyRecall(RecallArgs{FH: b.fh, Deleg: d, Seq: 1, HasOffset: offset})
			return ""
		}
	}
	do := func(fn func()) func() string { return func() string { fn(); return "" } }
	steps := []struct {
		event, did, state string
		do                func() string
	}{
		{"X read half way from the top", "forwarded x1 hit x7", "",
			func() string { return b.reads(0, 8) }},
		{"GETINV names X: news", "", "news", do(func() { rewrite(); b.sc.invalidateHandle(b.fh) })},
		{"a GETATTR miss: a reader that never got to the end claims nothing", "", "news", b.getattr},
		{"the answer", "", "", do(b.answer)},
		{"X read to its end: read through", "forwarded x1 hit x15", "through", b.whole},
		{"force-invalidate: no news", "", "through", do(func() { b.sc.invalidateAllAttrs(true) })},
		{"a GETATTR miss without news claims nothing", "", "through", b.getattr},
		{"the answer", "", "through", do(b.answer)},
		{"another file's attributes push X's out (the cap): no news", "", "through", do(func() { b.sc.putAttr(other, attrWithMtime(1, nfs3.TypeReg)) })},
		{"nothing claimed", "", "through", b.getattr},
		{"the answer", "", "through", do(b.answer)},
		{"RECALL_ALL: no news", "", "through", do(func() { b.sc.recallAll(false) })},
		{"nothing claimed", "", "through", b.getattr},
		{"the answer", "", "through", do(b.answer)},
		{"a recall naming no offset (idleness, the budget, a SETATTR): no news", "", "through", recall(DelegRead, false)},
		{"a recall of a write delegation for a READ: no news", "", "through", recall(DelegWrite, true)},
		{"nothing claimed", "", "through", b.getattr},
		{"a recall of the read delegation naming a WRITE's offset: news", "", "through news", recall(DelegRead, true)},
		{"attributes installed: the news is answered", "", "through", do(func() { rewrite(); b.answer() })},
		{"the next GETATTR miss claims nothing", "", "through", do(func() { b.sc.invalidateAllAttrs(true) })},
		{"", "", "through", b.getattr},
		{"the answer", "", "through", do(b.answer)},
		{"a random read: no longer read through", "forwarded x1", "", func() string { return b.reads(5, 6) }},
		{"GETINV: news alone", "", "news", do(func() { rewrite(); b.sc.invalidateHandle(b.fh) })},
		{"claims nothing", "", "news", b.getattr},
		{"the answer", "", "", do(b.answer)},

		{"X read to its end", "forwarded x1 hit x15", "through", b.whole},
		{"GETINV names X", "", "through news", do(func() { rewrite(); b.sc.invalidateHandle(b.fh) })},
		{"a GETATTR miss claims the head up to the window, the held blocks included, and begins the stream", "X[0..7]", "through reread@8", b.getattr},
		{"the news is consumed: a second GETATTR before the answer claims nothing", "", "through reread@8", b.getattr},
		{"the answer says X changed: the held copies go, the stream stays begun", "", "through reread@8", do(b.answer)},
		{"the reader arrives: block 0 is on the wire, and the reader waits for it", "joined x1", "through", func() string { return b.reads(0, 1) }},
		{"its stream carries on from block 8", "joined x7 hit x8", "through", func() string {
			return b.reads(1, 16)
		}},
	}
	for _, st := range steps {
		if st.event == "" {
			st.event = "a GETATTR miss"
		}
		if got := st.do(); got != st.did {
			t.Fatalf("%s:\ndid   %q\nwant  %q", st.event, got, st.did)
		}
		if got := b.state(); got != st.state {
			t.Fatalf("%s:\nstate %q\nwant  %q", st.event, got, st.state)
		}
		b.check(st.event)
	}
	// One claim of eight blocks, every one of them read; the reader's block 0
	// was no spill. The seven blocks wasted are what the half-way reader's
	// chunks fetched ahead of it, dropped by the first answer.
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"reopens", b.reopens.Value(), 1},
		{"reopen blocks", b.reopenBlocks.Value(), 8},
		{"wasted", b.wasted.Value(), 7},
		{"spills", b.spills.Value(), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s counter = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestRereadGates: with both pieces of evidence in hand, a GETATTR miss
// claims nothing where block 0 is dirty, gone, or the handle was granted
// none, for a file recovered from disk and not yet revalidated, on a proxy
// that has stopped or runs with readahead off — and claims exactly once the
// gate is lifted.
func TestRereadGates(t *testing.T) {
	for _, tc := range []struct {
		name string
		gate func(b *rereadBed)
		lift func(b *rereadBed) // nil: the claim stays withheld
	}{
		{"block 0 dirty", func(b *rereadBed) { b.sc.writeDirty(b.fh, 0, []byte{1}) }, nil},
		{"block 0 evicted", func(b *rereadBed) {
			b.record(func(fc *cachedFile) { b.sc.dropBlockLocked(fc.blocks[0]) })
		}, nil},
		{"not cacheable", func(b *rereadBed) {
			b.sc.applyReplySince(Trailers{{FH: b.fh, Deleg: DelegNone, Seq: 8}}, nil, b.sc.ticket(nfs3.FH{}))
		}, func(b *rereadBed) {
			b.sc.applyReplySince(Trailers{{FH: b.fh, Deleg: DelegRead, Seq: 9}}, nil, b.sc.ticket(nfs3.FH{}))
		}},
		{"recovered from disk", func(b *rereadBed) { b.record(func(fc *cachedFile) { fc.recovered = true }) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newRereadBed(t, ModelDelegation, 16)
			b.whole()
			b.mtime++
			b.sc.invalidateHandle(b.fh)
			tc.gate(b)
			if got := b.getattr(); got != "" {
				t.Fatalf("claimed %s", got)
			}
			if tc.lift != nil {
				tc.lift(b)
				if got := b.getattr(); got != "X[0..7]" {
					t.Fatalf("with the gate lifted the GETATTR claimed %q", got)
				}
				if got := b.getattr(); got != "" {
					t.Fatalf("a second GETATTR claimed %q", got)
				}
			}
			b.check(tc.name)
		})
	}
	// The proxy client's own gates: readahead off, stopped.
	for _, tc := range []struct {
		name string
		p    func(sc *sessionCache) *ProxyClient
	}{
		{"readahead off", func(sc *sessionCache) *ProxyClient { return &ProxyClient{cfg: Config{ReadAhead: -1}, cache: sc} }},
		{"stopped", func(sc *sessionCache) *ProxyClient {
			p := &ProxyClient{cfg: Config{ReadAhead: 4}, cache: sc}
			p.stopped.Store(true)
			return p
		}},
	} {
		b := newRereadBed(t, ModelPolling, 16)
		b.whole()
		b.mtime++
		b.sc.invalidateHandle(b.fh)
		reads := 0
		for _, s := range tc.p(b.sc).rereadClaim(1, b.fh) {
			reads += len(s.rids)
		}
		if reads != 0 || len(b.inflight()) != 0 {
			t.Errorf("%s: the GETATTR carried %d READs, %d blocks claimed", tc.name, reads, len(b.inflight()))
		}
	}
}

// TestRereadSizing: the claim is the window or the file as last known, if that
// is shorter; dirty and in-flight blocks are skipped and held clean ones are
// not.
func TestRereadSizing(t *testing.T) {
	evidence := func(b *rereadBed) {
		b.whole()
		b.mtime++
		b.sc.invalidateHandle(b.fh)
	}
	t.Run("a file shorter than the window is claimed whole, and its stream is done", func(t *testing.T) {
		b := newRereadBed(t, ModelPolling, 5)
		evidence(b)
		if got := b.getattr(); got != "X[0..4]" {
			t.Fatalf("claimed %q", got)
		}
		if got := b.state(); got != "through reread@eof" {
			t.Fatalf("state %q", got)
		}
		b.answer()
		b.landAll()
		if got := b.whole(); got != "hit x5" {
			t.Fatalf("the reader's pass: %s", got)
		}
		b.check("short file")
	})
	t.Run("dirty and in-flight blocks are skipped, held clean ones claimed, within the window", func(t *testing.T) {
		b := newRereadBed(t, ModelPolling, 16)
		evidence(b)
		b.sc.writeDirty(b.fh, 2*succBS, make([]byte, succBS))
		b.record(func(fc *cachedFile) { fc.fetching[3] = nil })
		if got := b.getattr(); got != "X[0,1,4,5,6,7]" {
			t.Fatalf("claimed %q", got)
		}
		if got := len(b.inflight()); got != 7 {
			t.Fatalf("%d blocks in flight, want the six claimed and the one already on the wire", got)
		}
		b.landAll()
		b.check("dirty and in flight")
	})
}

// TestRereadAnswers: what the GETATTR's answer can say, at the cache. mtime
// unchanged: the held blocks are served while their re-fetches are on the
// wire, never waited for, and a re-fetch that lands behind its reader counts
// as wasted. Shrunk: the claims past the new end of file land as nothing,
// counted wasted, and the stream restarts against the new length. Stale: the
// record is forgotten, and the claims landing afterwards bring none back.
func TestRereadAnswers(t *testing.T) {
	claim := func(t *testing.T) *rereadBed {
		b := newRereadBed(t, ModelPolling, 16)
		b.whole()
		b.sc.invalidateHandle(b.fh) // the WRITE was refused, or a mode-only SETATTR
		if got := b.getattr(); got != "X[0..7]" {
			t.Fatalf("claimed %q", got)
		}
		return b
	}
	t.Run("mtime unchanged", func(t *testing.T) {
		b := claim(t)
		b.answer()
		// Each read is a hit on the held copy; reading a block lands its own
		// re-fetch just after, as the wire would.
		for bn := uint64(0); bn < 8; bn++ {
			if how := b.read(bn); how != "hit" {
				t.Fatalf("block %d: %s while its re-fetch was on the wire", bn, how)
			}
			b.land(bn)
		}
		if got := b.reads(8, 16); got != "hit x8" {
			t.Fatalf("the rest of the pass: %s", got)
		}
		b.record(func(fc *cachedFile) {
			for bn, blk := range fc.blocks {
				if blk.unread {
					b.sc.dropBlockLocked(fc.blocks[bn])
				}
			}
		})
		if got := b.wasted.Value(); got != 8 {
			t.Errorf("%d re-fetches counted wasted, want the 8 that landed behind their reader", got)
		}
		b.check("unchanged")
	})
	t.Run("shrunk", func(t *testing.T) {
		b := claim(t)
		b.blocks, b.mtime = 4, b.mtime+1
		b.answer()
		if got := b.state(); got != "through" {
			t.Fatalf("state %q after the answer, want the stream restarted", got)
		}
		b.landAll()
		b.record(func(fc *cachedFile) {
			for bn := range fc.blocks {
				if bn >= 4 {
					t.Errorf("block %d cached past the new end of file", bn)
				}
			}
		})
		if got := b.wasted.Value(); got != 4 {
			t.Errorf("%d claims counted wasted, want the 4 past the new end", got)
		}
		if got := b.whole(); got != "hit x4" {
			t.Errorf("the reader's pass over the new length: %s", got)
		}
		b.check("shrunk")
	})
	t.Run("stale", func(t *testing.T) {
		b := claim(t)
		b.sc.forget(b.fh)
		for bn := uint64(0); bn < 8; bn++ {
			if ws, kept := b.land(bn); ws != nil || kept > 0 {
				t.Fatalf("block %d landed on a forgotten record: %d waiters, kept=%v", bn, len(ws), kept > 0)
			}
		}
		if got := b.state(); got != "forgotten" {
			t.Fatalf("state %q", got)
		}
		b.check("stale")
	})
}

// TestRereadUnchangedServesHeldBlocks is the answer "nothing changed" on the
// wire, in both models: news of a write arrives for a file the session read
// through (a GETINV entry; a recall of the read delegation naming an offset —
// the WRITE behind it refused, say), and the server still has the bytes the
// cache holds. The GETATTR carries the re-read behind it all the same; its
// answer keeps the held blocks, and the reader is served from them while their
// re-fetches are on the wire — the revalidation costs the GETATTR's round trip
// and nothing more, no read waits, and no block is asked for twice.
func TestRereadUnchangedServesHeldBlocks(t *testing.T) {
	const blocks = 8
	link := simnet.Params{RTT: 40 * time.Millisecond, Bandwidth: 100_000_000 / 8}
	populate := func(fs *memfs.FS) {
		if _, err := fs.WriteFile("f", make([]byte, blocks*raBS)); err != nil {
			t.Fatal(err)
		}
	}
	for _, model := range []Model{ModelPolling, ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			runRecordedChainBed(t, link, Config{Model: model, PollPeriod: time.Hour, ReadAhead: blocks}, populate, func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH, up *readRecorder) {
				lk, err := nc.Lookup(root, "f")
				if err != nil || lk.Status != nfs3.OK {
					t.Errorf("lookup: %v %v", err, lk.Status)
					return
				}
				readAll := func() {
					for bn := uint64(0); bn < blocks; bn++ {
						if rd, err := nc.Read(lk.FH, bn*raBS, raBS); err != nil || rd.Status != nfs3.OK || rd.Count != raBS {
							t.Errorf("read block %d: %v %v", bn, err, rd.Status)
						}
					}
				}
				readAll()
				p.clk.Sleep(time.Second)
				if model == ModelDelegation {
					p.cache.applyRecall(RecallArgs{FH: lk.FH, Deleg: DelegRead, HasOffset: true})
				} else {
					p.cache.invalidateHandle(lk.FH)
				}
				reads, joins := len(up.sent()), p.met.readaheadJoins.Value()
				elapsed := p.clk.Now()
				if ga, err := nc.Getattr(lk.FH); err != nil || ga.Status != nfs3.OK {
					t.Errorf("getattr: %v %v", err, ga.Status)
				}
				readAll()
				elapsed = p.clk.Now() - elapsed
				p.clk.Sleep(time.Second)
				if budget := 40*time.Millisecond + 5*time.Millisecond; elapsed > budget {
					t.Errorf("revalidation and re-read took %v, want <= %v: a read waited for the re-fetch of a block the cache held", elapsed, budget)
				}
				if got := p.met.readaheadJoins.Value() - joins; got != 0 {
					t.Errorf("%d reads joined a re-fetch", got)
				}
				var fetched []uint64
				for _, c := range up.sent()[reads:] {
					fetched = append(fetched, c.blocks()...)
				}
				if !slices.Equal(fetched, blockRange(0, blocks)) {
					t.Errorf("blocks %v crossed for the %d blocks the GETATTR claimed", fetched, blocks)
				}
				if got := p.met.readaheadReopenBlk.Value(); got != blocks {
					t.Errorf("%d blocks claimed behind the GETATTR, want %d: the test proves nothing", got, blocks)
				}
			})
		})
	}
}
