package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// landBed is one speculation of each kind, claimed on a bare session cache the
// way the proxy client claims it, with what its first call's reply brings.
type landBed struct {
	sc *sessionCache
	s  speculation
	// reply is the first call's reply; short, one that says less than was
	// claimed: a file that now ends before the block, a listing the server
	// refuses to go on with.
	reply func(short bool) wireDec
	// installed reports whether what the reply brought is in the cache.
	installed func() bool
}

// landMark fills the bytes a READ kind's reply carries, so that an install is
// told apart from the block the cache held before.
const landMark = 0xA5

func readReply(a nfs3.Fattr, bn uint64, short bool) wireDec {
	if short {
		a.Size = bn * succBS
	}
	return &nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: a},
		Count: succBS, Data: bytes.Repeat([]byte{landMark}, succBS)}
}

func blockLanded(sc *sessionCache, fh nfs3.FH, bn uint64) func() bool {
	return func() bool {
		data, ok := sc.getBlock(fh, bn)
		return ok && data[0] == landMark
	}
}

// mustClaim fails the test unless the claim is due.
func mustClaim(t *testing.T, s speculation) speculation {
	t.Helper()
	if !s.due {
		t.Fatalf("nothing claimed: %+v", s)
	}
	return s
}

var landBeds = []struct {
	kind string
	bed  func(t *testing.T) landBed
}{
	{"stream", func(t *testing.T) landBed {
		b := newSuccBed(t, ModelPolling, 4, "F", 16)
		f := b.file("F")
		b.sc.streamRead(f, 0, b.w)
		own, _ := b.sc.claimChunk(f, b.w)
		s := mustClaim(t, own)
		return landBed{b.sc, s,
			func(short bool) wireDec { return readReply(b.attr(f), s.blocks[0], short) },
			blockLanded(b.sc, f, s.blocks[0])}
	}},
	{"spill", func(t *testing.T) landBed {
		// X then Y, read through: the window over X's second pass spills into
		// Y's head, which the LRU has taken since.
		b := newSuccBed(t, ModelPolling, 4, "X", 2, "Y", 4)
		b.whole("X")
		b.whole("Y")
		b.evict("Y")
		x, y := b.file("X"), b.file("Y")
		b.sc.streamRead(x, 0, b.w)
		_, spill := b.sc.claimChunk(x, b.w)
		s := mustClaim(t, spill)
		if !s.fh.Equal(y) {
			t.Fatalf("spilled into %v, want Y", s.fh)
		}
		return landBed{b.sc, s,
			func(short bool) wireDec { return readReply(b.attr(y), s.blocks[0], short) },
			blockLanded(b.sc, y, s.blocks[0])}
	}},
	{"reread", func(t *testing.T) landBed {
		// Read through, then rewritten elsewhere: the revalidating GETATTR
		// claims the head again, held blocks included.
		b := newRereadBed(t, ModelPolling, 16)
		b.whole()
		b.mtime++
		b.sc.invalidateHandle(b.fh)
		s := mustClaim(t, b.sc.claimReread(b.fh, b.w))
		return landBed{b.sc, s,
			func(short bool) wireDec { return readReply(b.attr(), s.blocks[0], short) },
			blockLanded(b.sc, b.fh, s.blocks[0])}
	}},
	{"page", func(t *testing.T) landBed {
		// Two LOOKUP misses: the walk's first page.
		sc := newSessionCache(opsBS, 1<<20)
		sc.setPolicy(nil, cachePolicy{model: ModelPolling}, cacheCounters{})
		dir := fhN(1)
		sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
		sc.lookupHit(dir, "x")
		_, pg, _ := sc.lookupHit(dir, "y")
		s := mustClaim(t, pg)
		names := []string{"a", "b"}
		return landBed{sc, s,
			func(short bool) wireDec {
				if short {
					return &nfs3.ReaddirplusRes{Status: nfs3.ErrBadCooki}
				}
				return pageOf(names, 0, len(names), true)
			},
			func() bool {
				_, _, named := sc.getLookup(dir, "a")
				_, attrs := sc.getAttr(fhN(100))
				return named || attrs
			}}
	}},
}

// TestSpeculationsLandAcrossInvalidation lands the first call of each kind of
// speculation after nothing, after its record was forgotten, after the
// invalidation channel named its file or directory, and with a reply that says
// less than was claimed; and checks what the landing does with it: whether it
// is installed, which demand reads it hands back to be woken, and what it
// counts as wasted or discarded. A block is refused only for its record (and
// what its reply says of the file): its mtime reconciliation is its guard
// against a rewrite, so an invalidation alone does not refuse it. A page is
// refused for anything delivered while it was out.
func TestSpeculationsLandAcrossInvalidation(t *testing.T) {
	type want struct {
		installed, handed bool
		wasted, discarded int64
	}
	for _, tc := range []struct {
		across string
		do     func(sc *sessionCache, fh nfs3.FH)
		short  bool
		want   map[string]want // by kind; "" for the three READ kinds
	}{
		{"nothing", func(*sessionCache, nfs3.FH) {}, false, map[string]want{
			"":     {installed: true, handed: true},
			"page": {installed: true}}},
		{"its record forgotten", func(sc *sessionCache, fh nfs3.FH) { sc.forget(fh) }, false, map[string]want{
			"":     {},
			"page": {discarded: 1}}},
		{"GETINV names its file or directory", func(sc *sessionCache, fh nfs3.FH) { sc.invalidateHandle(fh) }, false, map[string]want{
			"":     {installed: true, handed: true},
			"page": {discarded: 1}}},
		{"a reply short of the claim", func(*sessionCache, nfs3.FH) {}, true, map[string]want{
			"":     {handed: true, wasted: 1},
			"page": {}}},
	} {
		for _, kb := range landBeds {
			t.Run(tc.across+"/"+kb.kind, func(t *testing.T) {
				b := kb.bed(t)
				w, ok := tc.want[kb.kind]
				if !ok {
					w = tc.want[""]
				}
				// A demand read parked on the block, as a join would be.
				parked := vclock.NewVirtual().NewWaiter()
				if b.s.kind != specPage && !b.sc.awaitFetch(b.s.fh, b.s.blocks[0], parked) {
					t.Fatal("the claimed block is not in flight")
				}
				tc.do(b.sc, b.s.fh)
				reg := obs.New(func() time.Duration { return 0 }, 16).Registry()
				wasted, discarded := reg.Counter("wasted"), reg.Counter("discarded")
				b.sc.setPolicy(nil, b.sc.pol, cacheCounters{raWasted: wasted, walkDiscarded: discarded})

				ws, kept := b.sc.landCall(&b.s, 0, b.reply(tc.short))
				if got := b.installed(); got != w.installed {
					t.Errorf("installed = %v, want %v", got, w.installed)
				}
				if (kept > 0) != (w.installed && b.s.kind != specPage) {
					t.Errorf("landing reported kept = %v with installed = %v", kept > 0, w.installed)
				}
				if handed := slices.Contains(ws, parked); handed != w.handed || len(ws) > 1 {
					t.Errorf("handed back %d waiters (the parked one: %v), want the parked one: %v", len(ws), handed, w.handed)
				}
				if got := wasted.Value(); got != w.wasted {
					t.Errorf("raWasted = %d, want %d", got, w.wasted)
				}
				if got := discarded.Value(); got != w.discarded {
					t.Errorf("walkDiscarded = %d, want %d", got, w.discarded)
				}
			})
		}
	}
}
