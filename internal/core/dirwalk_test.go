package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/xdr"
)

// walkCounters are cacheCounters with the four directory-walk series live.
func walkCounters() cacheCounters {
	reg := obs.New(func() time.Duration { return 0 }, 16).Registry()
	return cacheCounters{
		walkPages:     reg.Counter("pages"),
		walkEntries:   reg.Counter("entries"),
		walkUsed:      reg.Counter("used"),
		walkDiscarded: reg.Counter("discarded"),
	}
}

// pageOf is a READDIRPLUS result listing names[from:to] of a directory, with
// cookies as the bed's NFS server mints them (1-based positions).
func pageOf(names []string, from, to int, eof bool) *nfs3.ReaddirplusRes {
	res := &nfs3.ReaddirplusRes{
		Status:     nfs3.OK,
		DirAttr:    nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(1, nfs3.TypeDir)},
		CookieVerf: 1,
		EOF:        eof,
	}
	for i := from; i < to; i++ {
		res.Entries = append(res.Entries, nfs3.DirEntryPlus{
			FileID: uint64(100 + i), Name: names[i], Cookie: uint64(i + 1),
			Attr:      nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(1, nfs3.TypeReg)},
			FHFollows: true, FH: fhN(uint64(100 + i)),
		})
	}
	return res
}

// TestDirWalkStateMachine drives one directory's walk through its transitions
// on a bare session cache — no network, no clock: after each event, whether a
// page is due, from which cookie, and what the record remembers.
func TestDirWalkStateMachine(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	dir, other := fhN(1), fhN(2)
	met := walkCounters()
	var now time.Duration
	sc := newSessionCache(opsBS, 1<<20)
	sc.setPolicy(func() time.Duration { now++; return now }, cachePolicy{model: ModelPolling}, met)

	var pg speculation // the last page claimed
	lookup := func(name string) func() bool {
		return func() bool {
			_, p, hit := sc.lookupHit(dir, name)
			if p.due {
				pg = p
			}
			if !hit {
				// What the forwarded LOOKUP brings back: the directory's
				// attributes, and the file or — x and y are names nobody made —
				// NOENT.
				res := &nfs3.LookupRes{Status: nfs3.ErrNoEnt, DirAttr: nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(1, nfs3.TypeDir)}}
				if i := slices.Index(names, name); i >= 0 {
					res.Status, res.FH = nfs3.OK, fhN(uint64(100+i))
					res.Attr = nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(1, nfs3.TypeReg)}
				}
				sc.seedLookup(p.seedTicket, name, res, nil)
			}
			return p.due
		}
	}
	returns := func(res *nfs3.ReaddirplusRes) func() bool {
		return func() bool { sc.landCall(&pg, 0, res); return false }
	}
	walk := func() dirWalk {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		if fc := sc.files[dir.Key()]; fc != nil {
			w := fc.walk
			w.epoch, w.verf = 0, 0
			return w
		}
		return dirWalk{}
	}
	steps := []struct {
		event string
		do    func() bool // reports whether a page fell due
		due   bool
		want  dirWalk
	}{
		{"first miss: a path walk may be passing through", lookup("x"),
			false, dirWalk{misses: 1}},
		{"the cached NOENT answers: a hit is no evidence", lookup("x"),
			false, dirWalk{misses: 1}},
		{"second miss: the walk starts", lookup("a"),
			true, dirWalk{misses: 2, started: true, inflight: true}},
		{"a miss while the page is out buys nothing", lookup("b"),
			false, dirWalk{misses: 3, started: true, inflight: true}},
		{"page one lands", returns(pageOf(names, 0, 3, false)),
			false, dirWalk{misses: 3, started: true, cookie: 3}},
		{"a hit on a seeded name buys the next page", lookup("a"),
			true, dirWalk{misses: 3, started: true, inflight: true, cookie: 3}},
		{"the last page lands", returns(pageOf(names, 3, 6, true)),
			false, dirWalk{misses: 3, started: true, done: true, cookie: 6}},
		{"a complete walk asks for nothing, hit", lookup("f"),
			false, dirWalk{misses: 3, started: true, done: true, cookie: 6}},
		{"or miss", lookup("y"),
			false, dirWalk{misses: 4, started: true, done: true, cookie: 6}},
		{"the session's own CREATE does not restart it", func() bool { sc.putLookup(dir, "n", fhN(50), false); return false },
			false, dirWalk{misses: 4, started: true, done: true, cookie: 6}},
		{"GETINV names the directory: the evidence starts over", func() bool { sc.invalidateHandle(dir); return false },
			false, dirWalk{}},
		{"one miss", lookup("a"),
			false, dirWalk{misses: 1}},
		{"two: the walk starts again, from the top", lookup("b"),
			true, dirWalk{misses: 2, started: true, inflight: true}},
		{"invalidated with the page out", func() bool { sc.invalidateHandle(dir); return false },
			false, dirWalk{}},
		{"that page lands: dropped whole, and the new walk is not its to settle", returns(pageOf(names, 0, 6, true)),
			false, dirWalk{}},
		{"one miss", lookup("a"),
			false, dirWalk{misses: 1}},
		{"two", lookup("b"),
			true, dirWalk{misses: 2, started: true, inflight: true}},
		{"GETINV names another handle with the page out", func() bool { sc.invalidateHandle(other); return false },
			false, dirWalk{misses: 2, started: true, inflight: true}},
		{"the page is dropped, the walk goes on", returns(pageOf(names, 0, 3, false)),
			false, dirWalk{misses: 2, started: true}},
		{"and asks for the same page again", lookup("c"),
			true, dirWalk{misses: 3, started: true, inflight: true}},
		{"the call fails: likewise", returns(nil),
			false, dirWalk{misses: 3, started: true}},
		{"same page", lookup("d"),
			true, dirWalk{misses: 4, started: true, inflight: true}},
		{"the server refuses it: latched off", returns(&nfs3.ReaddirplusRes{Status: nfs3.ErrBadCooki}),
			false, dirWalk{misses: 4, started: true, off: true}},
		{"no more pages", lookup("e"),
			false, dirWalk{misses: 5, started: true, off: true}},
		{"until a force-invalidate", func() bool { sc.invalidateAllAttrs(true); return false },
			false, dirWalk{}},
		{"one miss", lookup("a"),
			false, dirWalk{misses: 1}},
		{"two", lookup("b"),
			true, dirWalk{misses: 2, started: true, inflight: true}},
		{"the directory is removed with the page out", func() bool { sc.forget(dir); return false },
			false, dirWalk{}},
		{"the page lands on nothing", returns(pageOf(names, 0, 6, true)),
			false, dirWalk{}},
	}
	for _, st := range steps {
		if due := st.do(); due != st.due {
			t.Fatalf("%s: page due = %v, want %v", st.event, due, st.due)
		}
		if st.due && pg.cookie != st.want.cookie {
			t.Fatalf("%s: the page asks from cookie %d, want %d", st.event, pg.cookie, st.want.cookie)
		}
		if got := walk(); got != st.want {
			t.Fatalf("%s: walk = %+v, want %+v", st.event, got, st.want)
		}
	}
	sc.mu.Lock()
	revived := sc.files[dir.Key()] != nil
	sc.mu.Unlock()
	if revived {
		t.Error("a page that landed after forget brought the directory's record back")
	}
	// Seven pages were asked for; the two good ones brought six entries, of
	// which "a" and "f" were served; three came back across an invalidation.
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"pages", met.walkPages.Value(), 7},
		{"entries", met.walkEntries.Value(), 6},
		{"used", met.walkUsed.Value(), 2},
		{"discarded", met.walkDiscarded.Value(), 3},
	} {
		if c.got != c.want {
			t.Errorf("%s counter = %d, want %d", c.name, c.got, c.want)
		}
	}

	// Where a seeded child could not be served, or nothing may be cached, no
	// amount of evidence starts a walk.
	for _, model := range []Model{ModelDelegation, ModelPolling} {
		sc := newSessionCache(opsBS, 1<<20)
		sc.setPolicy(nil, cachePolicy{model: model, delegRenew: time.Hour}, cacheCounters{})
		// Under polling, a directory the server called non-cacheable.
		sc.applyReplySince(Trailers{{FH: dir, Deleg: DelegRead, Cacheable: model == ModelDelegation, Seq: 1}}, nil, sc.forgets.Load())
		for i := 0; i < 5; i++ {
			if _, p, _ := sc.lookupHit(dir, "a"); p.due {
				t.Errorf("%v: a page fell due", model)
			}
		}
	}
}

// TestSeedRepliesAcrossInvalidation pins the guard on the two kernel-issued
// seeding paths: a LOOKUP or READDIRPLUS reply sent before an invalidation was
// drained — of the directory, of any other handle, or one of the session's own
// namespace operations — and installed after it is not cached; one that
// crossed nothing is, except attributes the record fetched later.
func TestSeedRepliesAcrossInvalidation(t *testing.T) {
	names := []string{"a", "b"}
	dir, other := fhN(1), fhN(2)
	for _, tc := range []struct {
		name   string
		across func(sc *sessionCache)
		kept   bool
	}{
		{"nothing", func(*sessionCache) {}, true},
		{"the bootstrap poll's force flag", func(sc *sessionCache) { sc.invalidateAllAttrs(false) }, true},
		{"GETINV names the directory", func(sc *sessionCache) { sc.invalidateHandle(dir) }, false},
		{"GETINV names another handle", func(sc *sessionCache) { sc.invalidateHandle(other) }, false},
		{"a force-invalidate", func(sc *sessionCache) { sc.invalidateAllAttrs(true) }, false},
		{"the session's own REMOVE", func(sc *sessionCache) { sc.dropLookup(dir, "b"); sc.putLookup(dir, "b", nfs3.FH{}, true) }, false},
		{"the session's own CREATE", func(sc *sessionCache) { sc.putLookup(dir, "n", fhN(9), false) }, false},
		{"the directory's removal", func(sc *sessionCache) { sc.forget(dir) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var now time.Duration
			sc := newSessionCache(opsBS, 1<<20)
			sc.setPolicy(func() time.Duration { now++; return now }, cachePolicy{model: ModelPolling}, cacheCounters{})
			dirAttr := nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(1, nfs3.TypeDir)}
			sc.putAttr(dir, dirAttr.Attr)

			plus, look := sc.ticket(dir), sc.ticket(dir)
			tc.across(sc)
			sc.putAttr(dir, dirAttr.Attr) // revalidated since, whatever happened
			sc.seedDir(plus, pageOf(names, 0, 1, true))
			sc.seedLookup(look, "b", &nfs3.LookupRes{Status: nfs3.OK, FH: fhN(101), DirAttr: dirAttr,
				Attr: nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(1, nfs3.TypeReg)}}, nil)
			for i, name := range names {
				fh, negative, ok := sc.getLookup(dir, name)
				if kept := ok && !negative && fh.Equal(fhN(uint64(100+i))); kept != tc.kept {
					t.Errorf("%q cached = %v, want %v", name, kept, tc.kept)
				}
				if _, ok := sc.getAttr(fhN(uint64(100 + i))); ok != tc.kept {
					t.Errorf("%q's attributes cached = %v, want %v", name, ok, tc.kept)
				}
			}
		})
	}

	// Attributes the record fetched after the reply was sent stay: they are a
	// later reply's, which overtook this one.
	var now time.Duration
	sc := newSessionCache(opsBS, 1<<20)
	sc.setPolicy(func() time.Duration { now++; return now }, cachePolicy{model: ModelPolling}, cacheCounters{})
	sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
	tk := sc.ticket(dir)
	newer := attrWithMtime(7, nfs3.TypeReg)
	sc.putAttr(fhN(100), newer)
	sc.seedDir(tk, pageOf(names, 0, 2, true))
	if a, _ := sc.getAttr(fhN(100)); a.Mtime != newer.Mtime {
		t.Errorf("a READDIRPLUS reply replaced attributes fetched after it was sent (mtime %v)", a.Mtime)
	}
	if _, ok := sc.getAttr(fhN(101)); !ok {
		t.Error("the entry beside it was not seeded")
	}
}

// TestDirWalkRaces runs one directory's walk against everything that can reach
// it at once — LOOKUPs claiming pages, pages landing late, GETINV and
// force-invalidates, the session's own namespace operations, kernel
// READDIRPLUS replies and the directory's removal — for the race detector, then
// checks the table's invariants, the page budget and that nothing is left in
// flight.
func TestDirWalkRaces(t *testing.T) {
	const rounds = 2000
	names := []string{"a", "b", "c", "d", "e", "f"}
	dir := fhN(1)
	met := walkCounters()
	var tick atomic.Int64
	sc := newSessionCache(opsBS, opsBudget)
	sc.setPolicy(func() time.Duration { return time.Duration(tick.Add(1)) },
		cachePolicy{model: ModelPolling, maxAttrs: 4, maxDentries: 3}, met)
	mirror := fakePersister{}
	sc.setPersister(mirror, recoveryCounters{})

	var lookups atomic.Int64
	pages := make(chan speculation, 4) // claimed, not landed yet: at most one per walk epoch in practice
	var wg, landers sync.WaitGroup
	landers.Add(1)
	go func() {
		defer landers.Done()
		i := 0
		for pg := range pages {
			i++
			var res *nfs3.ReaddirplusRes
			switch from := int(pg.cookie) % len(names); i % 5 {
			case 0: // the call failed
			case 1:
				res = &nfs3.ReaddirplusRes{Status: nfs3.ErrBadCooki}
			default:
				res = pageOf(names, from, min(from+2, len(names)), from+2 >= len(names))
			}
			sc.landCall(&pg, 0, res)
		}
	}()
	for _, actor := range []func(i int){
		func(i int) {
			lookups.Add(1)
			if _, pg, _ := sc.lookupHit(dir, names[i%len(names)]); pg.due {
				pages <- pg
			}
		},
		func(i int) {
			lookups.Add(1)
			_, pg, hit := sc.lookupHit(dir, "ghost")
			if pg.due {
				pages <- pg
			}
			if !hit {
				sc.seedLookup(pg.seedTicket, "ghost", &nfs3.LookupRes{Status: nfs3.ErrNoEnt,
					DirAttr: nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(1, nfs3.TypeDir)}}, nil)
			}
		},
		func(i int) {
			if i%100 == 99 {
				sc.invalidateAllAttrs(i%200 == 199)
			} else if i%10 == 9 {
				sc.invalidateHandle(dir)
			}
			sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
		},
		func(i int) {
			switch i % 3 {
			case 0:
				sc.putLookup(dir, "n", fhN(50), false)
			case 1:
				sc.dropLookup(dir, "n")
			case 2:
				sc.putLookup(dir, "n", nfs3.FH{}, true)
			}
		},
		func(i int) { sc.seedDir(sc.ticket(dir), pageOf(names, 0, len(names), true)) },
		func(i int) {
			if i%500 == 499 {
				sc.forget(dir)
			}
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				actor(i)
			}
		}()
	}
	wg.Wait()
	close(pages)
	landers.Wait()
	if err := checkCacheInvariants(sc, mirror, nil, nil); err != nil {
		t.Fatal(err)
	}
	if p, l := met.walkPages.Value(), lookups.Load(); p == 0 || p > l {
		t.Errorf("%d pages for %d LOOKUPs", p, l)
	}
	if u, e := met.walkUsed.Value(), met.walkEntries.Value(); u > e {
		t.Errorf("%d walked entries used of %d brought", u, e)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc := sc.files[dir.Key()]; fc != nil && fc.walk.inflight {
		t.Error("every page has landed and the walk still counts one in flight")
	}
}

// walkDir populates dir/ with n small files named so that they sort in
// creation order.
func walkDir(t *testing.T, n int) func(fs *memfs.FS) {
	return func(fs *memfs.FS) {
		for i := 0; i < n; i++ {
			if _, err := fs.WriteFile(fmt.Sprintf("dir/f%05d", i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// walkBed is a bed whose kernel resolves names in dir/ one at a time.
type walkBed struct {
	*raBed
	t   *testing.T
	dir nfs3.FH
}

func (b *walkBed) lookup(i int) {
	b.t.Helper()
	if lk, err := b.nc.Lookup(b.dir, fmt.Sprintf("f%05d", i)); err != nil || lk.Status != nfs3.OK {
		b.t.Errorf("lookup f%05d: %v %v", i, err, lk.Status)
	}
}

// settle lets a page in flight land.
func (b *walkBed) settle() { b.clk.Sleep(time.Second) }

// pages returns the READDIRPLUS calls sent upstream so far.
func (b *walkBed) pages() (out []wireCall) {
	for _, c := range b.up.sentCalls() {
		if c.proc == nfs3.ProcReaddirplus {
			out = append(out, c)
		}
	}
	return out
}

func runWalkBed(t *testing.T, cfg Config, files int, tamper func(proc uint32, reply []byte) []byte, fn func(b *walkBed)) {
	t.Helper()
	runTamperedBed(t, cfg, tamper, walkDir(t, files), func(rb *raBed) {
		lk, err := rb.nc.Lookup(rb.root, "dir")
		if err != nil || lk.Status != nfs3.OK {
			t.Errorf("lookup dir: %v %v", err, lk.Status)
			return
		}
		fn(&walkBed{raBed: rb, t: t, dir: lk.FH})
	})
}

// TestDirWalkRule pins the evidence rule and its budget on the wire: a proxy
// client over a 40 ms link whose kernel opens files by name without ever
// listing their directory.
func TestDirWalkRule(t *testing.T) {
	const bs = 32 * 1024
	lookupsSent := func(b *walkBed) (n int) {
		for _, c := range b.up.sentCalls() {
			if c.proc == nfs3.ProcLookup {
				n++
			}
		}
		return n
	}

	t.Run("the first miss sends only the LOOKUP, the second LOOKUP then one page", func(t *testing.T) {
		runWalkBed(t, Config{}, 8, nil, func(b *walkBed) {
			before := len(b.up.sentCalls())
			b.lookup(0)
			b.settle()
			if sent := b.up.sentCalls()[before:]; len(sent) != 1 || sent[0].proc != nfs3.ProcLookup {
				t.Errorf("the first miss sent %+v, want one LOOKUP", sent)
			}
			before = len(b.up.sentCalls())
			b.lookup(1)
			b.settle()
			sent := b.up.sentCalls()[before:]
			if len(sent) != 2 || sent[0].proc != nfs3.ProcLookup || sent[1].proc != nfs3.ProcReaddirplus {
				t.Errorf("the second miss sent %+v, want LOOKUP then READDIRPLUS", sent)
			}
			// Eight entries fit one page: every other name is now a hit, and the
			// finished walk asks for nothing more.
			before = len(b.up.sentCalls())
			for i := 2; i < 8; i++ {
				b.lookup(i)
			}
			if sent := b.up.sentCalls()[before:]; len(sent) != 0 {
				t.Errorf("a fully seeded directory still sent %+v", sent)
			}
			if used := b.p.met.dirwalkEntriesUsed.Value(); used != 6 {
				t.Errorf("%d walked entries counted as used, want 6", used)
			}
		})
	})

	t.Run("pages never outnumber LOOKUPs and are one block each", func(t *testing.T) {
		const files = 700 // three pages and a bit
		runWalkBed(t, Config{}, files, nil, func(b *walkBed) {
			asked := 0
			for i := 0; i < 12; i++ {
				b.lookup(i * 50)
				asked++
				b.settle()
				if p := len(b.pages()); p > asked-1 {
					t.Fatalf("%d pages after %d LOOKUPs in the directory", p, asked)
				}
			}
			pages := b.pages()
			if len(pages) != 4 {
				t.Errorf("%d pages walked a %d-entry directory, want 4", len(pages), files)
			}
			for i, pg := range pages {
				if pg.maxCount != bs || pg.dirCount != bs {
					t.Errorf("page %d asked for DirCount %d MaxCount %d, want %d", i, pg.dirCount, pg.maxCount, bs)
				}
				if i > 0 && pg.cookie <= pages[i-1].cookie {
					t.Errorf("page %d resumes at cookie %d after %d", i, pg.cookie, pages[i-1].cookie)
				}
			}
			if sent := lookupsSent(b); sent > 1+4 {
				t.Errorf("%d LOOKUPs crossed (the directory's own included); the walk's %d pages should have left at most four misses", sent, len(pages))
			}
		})
	})

	t.Run("two misses in a 10 000-entry directory cost one page", func(t *testing.T) {
		runWalkBed(t, Config{}, 10_000, nil, func(b *walkBed) {
			b.lookup(9_000)
			b.lookup(9_001)
			b.settle()
			pages := b.pages()
			if len(pages) != 1 || pages[0].maxCount != bs {
				t.Errorf("pages sent: %+v, want one of %d bytes", pages, bs)
			}
			if e := b.p.met.dirwalkEntries.Value(); e == 0 || e > bs/100 {
				t.Errorf("the page brought %d entries", e)
			}
		})
	})

	t.Run("an invalidation mid-walk discards the page in flight and the walk starts over", func(t *testing.T) {
		runWalkBed(t, Config{}, 700, nil, func(b *walkBed) {
			b.lookup(0)
			g := b.clk.NewGroup()
			g.Go("kernel", func() { b.lookup(1) })
			b.clk.Sleep(10 * time.Millisecond) // LOOKUP and page are on the wire
			b.p.cache.invalidateHandle(b.dir)
			g.Wait()
			b.settle()
			if d := b.p.met.dirwalkDiscarded.Value(); d != 1 {
				t.Errorf("%d pages discarded, want the one in flight", d)
			}
			if _, _, ok := b.p.cache.getLookup(b.dir, "f00005"); ok {
				t.Error("the discarded page seeded a name")
			}
			b.lookup(2)
			b.settle()
			if p := len(b.pages()); p != 1 {
				t.Errorf("%d pages after one miss since the invalidation, want still 1", p)
			}
			b.lookup(3)
			b.settle()
			pages := b.pages()
			if len(pages) != 2 || pages[1].cookie != 0 {
				t.Errorf("pages sent: %+v, want a second walk from the top", pages)
			}
			if _, _, ok := b.p.cache.getLookup(b.dir, "f00005"); !ok {
				t.Error("the second walk's page seeded nothing")
			}
		})
	})

	for name, cfg := range map[string]Config{
		"the delegation model": {Model: ModelDelegation},
		"DisableMetaCache":     {DisableMetaCache: true},
	} {
		t.Run(name+" never sends a page", func(t *testing.T) {
			runWalkBed(t, cfg, 8, nil, func(b *walkBed) {
				for i := 0; i < 8; i++ {
					b.lookup(i)
				}
				b.settle()
				if p := b.pages(); len(p) != 0 || b.p.met.dirwalkPages.Value() != 0 {
					t.Errorf("pages sent: %+v", p)
				}
			})
		})
	}

	t.Run("MaxDentries bounds the lookup cache during a long walk", func(t *testing.T) {
		const maxDentries = 16
		runWalkBed(t, Config{}, 700, nil, func(b *walkBed) {
			b.p.cache.mu.Lock()
			b.p.cache.pol.maxDentries = maxDentries
			b.p.cache.mu.Unlock()
			for i := 0; i < 8; i++ {
				b.lookup(i * 80)
				b.settle()
				if _, lookups, _, _ := b.p.cache.stats(); lookups > maxDentries {
					t.Fatalf("%d name resolutions cached after %d LOOKUPs, cap %d", lookups, i+1, maxDentries)
				}
			}
			if len(b.pages()) < 3 || b.p.met.metaEvictions.Value() == 0 {
				t.Errorf("%d pages, %d evictions: the walk did not run into the cap", len(b.pages()), b.p.met.metaEvictions.Value())
			}
		})
	})

	t.Run("a page that is not OK latches the walk off until the next invalidation", func(t *testing.T) {
		var refuse atomic.Bool
		refuse.Store(true)
		tamper := func(proc uint32, reply []byte) []byte {
			if proc != nfs3.ProcReaddirplus || !refuse.Load() {
				return reply
			}
			e := xdr.NewEncoder()
			(&nfs3.ReaddirplusRes{Status: nfs3.ErrNotSupp}).Encode(e)
			return e.Bytes()
		}
		runWalkBed(t, Config{}, 8, tamper, func(b *walkBed) {
			for i := 0; i < 5; i++ {
				b.lookup(i)
				b.settle()
			}
			if p := len(b.pages()); p != 1 {
				t.Errorf("%d pages sent to a server that refused the first, want 1", p)
			}
			refuse.Store(false)
			b.p.cache.invalidateHandle(b.dir)
			b.lookup(5)
			b.lookup(6)
			b.settle()
			if p := len(b.pages()); p != 2 {
				t.Errorf("%d pages after the invalidation and two misses, want 2", p)
			}
		})
	})
}
