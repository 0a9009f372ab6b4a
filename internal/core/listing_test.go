package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsserver"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// listingBS is the block size the listing tests run at, the default: one
// READDIRPLUS page of a walk, and of the listing a LOOKUP carries.
const listingBS = 32 * 1024

// listingPerPage is how many of walkDir's entries one page holds as the bed's
// NFS server fills it: what each entry adds to the result, against the page's
// MaxCount less the result's own overhead.
func listingPerPage() int {
	ent := nfs3.DirEntryPlus{Name: "f00000", Attr: nfs3.PostOpAttr{Present: true}, FHFollows: true, FH: fhN(1)}
	return (listingBS - nfs3.DirResOverhead) / ent.WireSize()
}

// TestSmallListingOnTheWire asks a proxy server for the LOOKUP of a directory
// and decodes what comes back: under polling, the directory's listing rides
// behind the trailers when one page completes it, and nothing rides for a
// larger directory, a regular file, a session without a metadata cache, or
// under delegation.
func TestSmallListingOnTheWire(t *testing.T) {
	per := listingPerPage()
	for _, tc := range []struct {
		name       string
		model      Model
		entries    int  // in dir/; -1 names a regular file instead
		noListings bool // the session caches no metadata
		rides      bool
	}{
		{"polling, a directory one page lists", ModelPolling, per, false, true},
		{"polling, an empty directory", ModelPolling, 0, false, true},
		{"polling, one page + 1 entries", ModelPolling, per + 1, false, false},
		{"polling, a regular file", ModelPolling, -1, false, false},
		{"polling, a session without a metadata cache", ModelPolling, per, true, false},
		{"delegation", ModelDelegation, per, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewVirtual()
			defer clk.Stop()
			net := simnet.New(clk, simnet.Params{RTT: time.Millisecond})
			fs := memfs.New(clk.Now)
			if tc.entries < 0 {
				if _, err := fs.WriteFile("dir", []byte("x")); err != nil {
					t.Fatal(err)
				}
			} else if _, err := fs.MkdirAll("dir"); err != nil {
				t.Fatal(err)
			}
			walkDir(t, max(tc.entries, 0))(fs)
			nfsd := sunrpc.NewServer(clk)
			nfsserver.New(fs, serverVerf).Register(nfsd)
			defer nfsd.Close()
			done := make(chan struct{})
			clk.Go("dispatcher", func() {
				defer close(done)
				l, err := net.Host("server").Listen(":2049")
				if err != nil {
					t.Error(err)
					return
				}
				nfsd.Serve(l)
				conn, err := net.Host("server").Dial("server:2049")
				if err != nil {
					t.Error(err)
					return
				}
				s := NewProxyServer(clk, Config{Model: tc.model}, sunrpc.NewClient(clk, conn, sunrpc.SysCred("proxyd", 0, 0)), nil, &MemStateStore{})
				defer s.Stop()
				cred := SessionCred{SessionKey: "s", ClientID: "C1", NoListings: tc.noListings}
				e := xdr.NewEncoder()
				(&nfs3.DirOpArgs{Dir: nfs3.MakeFH(serverVerf, uint64(fs.Root())), Name: "dir"}).Encode(e)
				call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcLookup,
					Cred: cred.Encode(), Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}
				if st := s.dispatchNFS(call); st != sunrpc.Success {
					t.Errorf("LOOKUP: %v", st)
					return
				}
				d := xdr.NewDecoder(call.Reply.Bytes())
				var res nfs3.LookupRes
				var page nfs3.ReaddirplusRes
				if err := res.Decode(d); err != nil || res.Status != nfs3.OK {
					t.Errorf("LOOKUP reply: %v %v", err, res.Status)
					return
				}
				// Under polling the server decides nothing: the list is empty,
				// and the listing rides behind it all the same.
				if ts, err := DecodeTrailers(d, &page); err != nil || (len(ts) == 0) != (tc.model == ModelPolling) {
					t.Errorf("%v trailers: %v %v", tc.model, ts, err)
				}
				if rides := page.EOF; rides != tc.rides {
					t.Errorf("a listing rode the reply = %v, want %v", rides, tc.rides)
				}
				if tc.rides && (len(page.Entries) != tc.entries || page.Status != nfs3.OK || !page.DirAttr.Present) {
					t.Errorf("the listing has %d entries (status %v), want %d with the directory's attributes", len(page.Entries), page.Status, tc.entries)
				}
				if d.Remaining() != 0 {
					t.Errorf("%d bytes left after the reply", d.Remaining())
				}
			})
			<-done
		})
	}
}

// listingBed is a chain bed whose kernel resolves names by LOOKUP, with what
// crossed the link counted by procedure.
type listingBed struct {
	t    *testing.T
	p    *ProxyClient
	nc   *nfscall.Conn
	root nfs3.FH
	up   *readRecorder
}

func runListingBed(t *testing.T, cfg Config, populate func(fs *memfs.FS), fn func(b *listingBed)) {
	t.Helper()
	runRecordedChainBed(t, simnet.Params{RTT: 40 * time.Millisecond}, cfg, populate, func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH, up *readRecorder) {
		// The bootstrap poll's force flag flushes every name: let it land.
		p.clk.Sleep(time.Second)
		fn(&listingBed{t: t, p: p, nc: nc, root: root, up: up})
	})
}

// lookup resolves name under dir, which must succeed.
func (b *listingBed) lookup(dir nfs3.FH, name string) nfs3.FH {
	b.t.Helper()
	lk, err := b.nc.Lookup(dir, name)
	if err != nil || lk.Status != nfs3.OK {
		b.t.Errorf("lookup %s: %v %v", name, err, lk.Status)
	}
	return lk.FH
}

// sent counts the calls of each procedure that crossed since from, and
// returns how many have crossed so far.
func (b *listingBed) sent(from int) (map[uint32]int, int) {
	b.p.clk.Sleep(time.Second) // anything in flight lands
	calls := b.up.sentCalls()
	n := map[uint32]int{}
	for _, c := range calls[from:] {
		n[c.proc]++
	}
	return n, len(calls)
}

// TestSmallListingRidesLookup pins what the listing a LOOKUP carries does for
// a proxy client over a 40 ms link: a path walk crosses once per directory it
// names and not for the names the listings answer, a directory one page
// cannot list still takes its walk, delegation carries nothing, and a listing
// that crossed an invalidation is dropped whole.
func TestSmallListingRidesLookup(t *testing.T) {
	// The root holds more names than a page lists, so the MOUNT carries
	// nothing (TestMountCarriesTopOfExport) and a's LOOKUP crosses.
	pathWalk := func(fs *memfs.FS) {
		if _, err := fs.WriteFile("a/b/file", []byte("x")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= listingPerPage(); i++ {
			if _, err := fs.WriteFile(fmt.Sprintf("r%05d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("a path walk a/b/file: b is a hit, file a miss", func(t *testing.T) {
		runListingBed(t, Config{}, pathWalk, func(b *listingBed) {
			_, mark := b.sent(0)
			a := b.lookup(b.root, "a")
			bFH := b.lookup(a, "b")
			b.lookup(bFH, "file")
			sent, _ := b.sent(mark)
			if sent[nfs3.ProcLookup] != 2 || len(sent) != 1 {
				t.Errorf("the walk sent %v upstream, want two LOOKUPs (a and file) and nothing else", sent)
			}
			if hits, used, brought := b.p.met.dentryHits.Value(), b.p.met.dirwalkEntriesUsed.Value(), b.p.met.dirwalkEntries.Value(); hits != 1 || used != 1 || brought != 1 {
				t.Errorf("%d dentry hits, %d of %d listed entries used; want b's: 1, 1 of 1", hits, used, brought)
			}
		})
	})

	t.Run("under delegation every name crosses", func(t *testing.T) {
		runListingBed(t, Config{Model: ModelDelegation}, pathWalk, func(b *listingBed) {
			_, mark := b.sent(0)
			b.lookup(b.lookup(b.lookup(b.root, "a"), "b"), "file")
			if sent, _ := b.sent(mark); sent[nfs3.ProcLookup] != 3 || len(sent) != 1 {
				t.Errorf("the walk sent %v upstream, want three LOOKUPs", sent)
			}
			if e := b.p.met.dirwalkEntries.Value(); e != 0 {
				t.Errorf("%d entries seeded from listings under delegation", e)
			}
		})
	})

	per := listingPerPage()
	t.Run("a directory one page lists answers every name", func(t *testing.T) {
		runListingBed(t, Config{}, walkDir(t, per), func(b *listingBed) {
			_, mark := b.sent(0)
			dir := b.lookup(b.root, "dir")
			for i := 0; i < per; i++ {
				b.lookup(dir, fmt.Sprintf("f%05d", i))
			}
			if sent, _ := b.sent(mark); sent[nfs3.ProcLookup] != 1 || len(sent) != 1 {
				t.Errorf("%d names sent %v upstream, want the directory's one LOOKUP", per, sent)
			}
			if p := b.p.met.dirwalkPages.Value(); p != 0 {
				t.Errorf("%d walk pages asked for a listed directory", p)
			}
		})
	})

	t.Run("one page + 1 entries carries nothing, and the walk starts on the second miss", func(t *testing.T) {
		runListingBed(t, Config{}, walkDir(t, per+1), func(b *listingBed) {
			mounted := b.p.met.dirwalkEntries.Value() // the root's, from the MOUNT
			dir := b.lookup(b.root, "dir")
			if e := b.p.met.dirwalkEntries.Value() - mounted; e != 0 {
				t.Errorf("%d entries seeded from a directory one page cannot list", e)
			}
			_, mark := b.sent(0)
			b.lookup(dir, "f00000")
			sent, mark := b.sent(mark)
			if sent[nfs3.ProcLookup] != 1 || len(sent) != 1 {
				t.Errorf("the first miss sent %v, want one LOOKUP", sent)
			}
			b.lookup(dir, "f00001")
			if sent, _ := b.sent(mark); sent[nfs3.ProcLookup] != 1 || sent[nfs3.ProcReaddirplus] != 1 || len(sent) != 2 {
				t.Errorf("the second miss sent %v, want a LOOKUP and the walk's first page", sent)
			}
		})
	})

	t.Run("a GETINV delivered while the LOOKUP is in flight discards the listing", func(t *testing.T) {
		runListingBed(t, Config{}, pathWalk, func(b *listingBed) {
			var a nfs3.FH
			g := b.p.clk.NewGroup()
			g.Go("kernel", func() { a = b.lookup(b.root, "a") })
			b.p.clk.Sleep(10 * time.Millisecond) // the LOOKUP is on the wire
			b.p.cache.invalidateHandle(fhN(999))
			g.Wait()
			if d := b.p.met.dirwalkDiscarded.Value(); d != 1 {
				t.Errorf("%d listings discarded, want the one in flight", d)
			}
			if _, _, ok := b.p.cache.getLookup(a, "b"); ok {
				t.Error("the discarded listing seeded b")
			}
			_, mark := b.sent(0)
			b.lookup(a, "b")
			if sent, _ := b.sent(mark); sent[nfs3.ProcLookup] != 1 {
				t.Errorf("b after the discarded listing sent %v, want its LOOKUP", sent)
			}
		})
	})
}

// TestSeedLookupListing lands a LOOKUP reply's listing on a bare cache: what
// a fresh one seeds and that its directory's walk is done; that one sent
// before a GETINV, or before any of the session's own namespace operations
// anywhere, is dropped whole while the name it resolved is kept only in the
// second case; and that a listing short of EOF seeds nothing.
func TestSeedLookupListing(t *testing.T) {
	parent, dir, other := fhN(1), fhN(2), fhN(3)
	names := []string{"x", "y"}
	dirAttr := nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(1, nfs3.TypeDir)}
	for _, tc := range []struct {
		name          string
		across        func(sc *sessionCache)
		eof           bool
		bound, listed bool
		discarded     int64
	}{
		{"across nothing", func(*sessionCache) {}, true, true, true, 0},
		{"across a GETINV", func(sc *sessionCache) { sc.invalidateHandle(other) }, true, false, false, 1},
		{"across the session's own CREATE elsewhere", func(sc *sessionCache) { sc.putLookup(other, "n", fhN(9), false) }, true, true, false, 1},
		{"a listing short of EOF", func(*sessionCache) {}, false, true, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var now time.Duration
			met := walkCounters()
			sc := newSessionCache(opsBS, 1<<20)
			sc.setPolicy(func() time.Duration { now++; return now }, cachePolicy{model: ModelPolling}, met)
			sc.putAttr(parent, dirAttr.Attr)
			sc.putAttr(other, dirAttr.Attr)
			tk := sc.ticket(parent)
			tc.across(sc)
			sc.putAttr(parent, dirAttr.Attr) // revalidated since, whatever happened
			sc.seedLookup(tk, "d", &nfs3.LookupRes{Status: nfs3.OK, FH: dir, Attr: dirAttr, DirAttr: dirAttr}, pageOf(names, 0, 2, tc.eof))
			if _, _, ok := sc.getLookup(parent, "d"); ok != tc.bound {
				t.Errorf("d bound = %v, want %v", ok, tc.bound)
			}
			for _, name := range names {
				if _, _, ok := sc.getLookup(dir, name); ok != tc.listed {
					t.Errorf("%s seeded = %v, want %v", name, ok, tc.listed)
				}
			}
			sc.mu.Lock()
			done := sc.files[dir.Key()] != nil && sc.files[dir.Key()].walk.done
			sc.mu.Unlock()
			if done != tc.listed {
				t.Errorf("the directory's walk done = %v, want %v", done, tc.listed)
			}
			if want := int64(len(names)); tc.listed && met.walkEntries.Value() != want || !tc.listed && met.walkEntries.Value() != 0 {
				t.Errorf("%d walked entries counted", met.walkEntries.Value())
			}
			if d := met.walkDiscarded.Value(); d != tc.discarded {
				t.Errorf("%d listings discarded, want %d", d, tc.discarded)
			}
		})
	}
}

// TestTrailersCarryListing round-trips a LOOKUP reply with its trailers and
// with and without a listing behind them, then cut anywhere inside the
// listing: the reply and its trailers always decode, and only the whole
// listing seeds the cache.
func TestTrailersCarryListing(t *testing.T) {
	root, dir := fhN(1), fhN(2)
	names := []string{"x", "y", "z"}
	dirAttr := nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(1, nfs3.TypeDir)}
	ts := Trailers{{FH: root, Deleg: DelegRead, Seq: 1}, {FH: dir, Deleg: DelegNone, Seq: 2}}
	reply := func(page []byte) []byte {
		e := xdr.NewEncoder()
		(&nfs3.LookupRes{Status: nfs3.OK, FH: dir, Attr: dirAttr, DirAttr: dirAttr}).Encode(e)
		ts.Encode(e)
		e.FixedOpaque(page)
		return e.Bytes()
	}
	pe := xdr.NewEncoder()
	pageOf(names, 0, len(names), true).Encode(pe)
	whole := pe.Bytes()
	type cut struct {
		name string
		page []byte
	}
	cuts := []cut{{"no listing", nil}, {"the whole listing", whole}}
	for n := 4; n < len(whole); n += 4 {
		cuts = append(cuts, cut{fmt.Sprintf("the listing cut to %d of %d bytes", n, len(whole)), whole[:n]})
	}
	for _, c := range cuts {
		d := xdr.NewDecoder(reply(c.page))
		var res nfs3.LookupRes
		var page nfs3.ReaddirplusRes
		if err := res.Decode(d); err != nil || res.Status != nfs3.OK || !res.FH.Equal(dir) {
			t.Fatalf("%s: LOOKUP result %v %v", c.name, err, res.Status)
		}
		got, err := DecodeTrailers(d, &page)
		if err != nil || len(got) != len(ts) || !got[1].FH.Equal(dir) {
			t.Fatalf("%s: trailers %+v, %v", c.name, got, err)
		}
		sc := newSessionCache(opsBS, 1<<20)
		sc.setPolicy(nil, cachePolicy{model: ModelPolling}, walkCounters())
		sc.putAttr(root, dirAttr.Attr)
		sc.seedLookup(sc.ticket(root), "d", &res, &page)
		whole := len(c.page) == len(whole)
		if _, _, ok := sc.getLookup(root, "d"); !ok {
			t.Errorf("%s: the name the reply resolved was not cached", c.name)
		}
		for _, name := range names {
			if _, _, ok := sc.getLookup(dir, name); ok != whole {
				t.Errorf("%s: %s seeded = %v, want %v", c.name, name, ok, whole)
			}
		}
	}
}

// TestRidingListingUnderZeroHandle: a LOOKUP reply whose handle is empty (the
// decoder accepts a handle of length zero) makes no record, so a complete
// listing riding with it seeds nothing and the reply is not fatal.
func TestRidingListingUnderZeroHandle(t *testing.T) {
	root := fhN(1)
	dirAttr := nfs3.PostOpAttr{Present: true, Attr: attrWithMtime(1, nfs3.TypeDir)}
	sc := newSessionCache(opsBS, 1<<20)
	sc.setPolicy(nil, cachePolicy{model: ModelPolling}, walkCounters())
	sc.putAttr(root, dirAttr.Attr)
	sc.seedLookup(sc.ticket(root), "d", &nfs3.LookupRes{Status: nfs3.OK, DirAttr: dirAttr}, pageOf([]string{"x"}, 0, 1, true))
	if len(sc.files) != 1 {
		t.Errorf("the reply left %d records, want only the directory's", len(sc.files))
	}
}
