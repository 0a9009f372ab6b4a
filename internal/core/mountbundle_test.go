package core

import (
	"bytes"
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

// mountTrees are the trees the MNT tests export: what each holds, and the
// directories a bundle lists for it, breadth-first.
var mountTrees = []struct {
	name   string
	files  func(per int) []string
	listed []string
}{
	{"pm-like: a directory larger than a page", func(per int) []string { return names("pm/f%05d", per+1) }, []string{"/"}},
	{"seq-like: one small directory", func(int) []string { return names("seq/f%d", 8) }, []string{"/", "seq"}},
	{"a/b/file, breadth-first beside c/", func(int) []string { return []string{"a/b/file", "c/x"} }, []string{"/", "a", "c", "a/b"}},
	{"the block budget: root + a one-page directory", func(per int) []string { return names("dir/f%05d", per) }, nil},
	{"the root larger than a page", func(per int) []string { return names("r%05d", per+1) }, nil},
}

func names(format string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(format, i)
	}
	return out
}

// mountBed is a proxy server over an NFS server on one host: calls go to
// its dispatch functions directly, as the kernel-facing side would send them.
type mountBed struct {
	t    *testing.T
	fs   *memfs.FS
	s    *ProxyServer
	nfsd *sunrpc.Client // straight to the NFS server
}

func runMountBed(t *testing.T, cfg Config, files []string, fn func(b *mountBed)) {
	t.Helper()
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{RTT: time.Millisecond})
	fs := memfs.New(clk.Now)
	for _, f := range files {
		if _, err := fs.WriteFile(f, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
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
		dial := func() *sunrpc.Client {
			conn, err := net.Host("server").Dial("server:2049")
			if err != nil {
				t.Fatal(err)
			}
			return sunrpc.NewClient(clk, conn, sunrpc.SysCred("proxyd", 0, 0))
		}
		s := NewProxyServer(clk, cfg, dial(), nil, &MemStateStore{})
		defer s.Stop()
		direct := dial()
		defer direct.Close()
		fn(&mountBed{t: t, fs: fs, s: s, nfsd: direct})
	})
	<-done
}

// mnt is a MNT of /export as the proxy server answers it under cred.
func (b *mountBed) mnt(cred sunrpc.Cred) []byte {
	e := xdr.NewEncoder()
	e.String("/export")
	call := &sunrpc.Call{Prog: nfs3.MountProgram, Vers: nfs3.MountVersion, Proc: nfs3.MountProcMnt,
		Cred: cred, Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}
	if st := b.s.dispatchMount(call); st != sunrpc.Success {
		b.t.Fatalf("MNT: %v", st)
	}
	return call.Reply.Bytes()
}

// direct is the NFS server's own MNT reply.
func (b *mountBed) direct() []byte {
	e := xdr.NewEncoder()
	e.String("/export")
	rep, err := b.nfsd.CallParts(0, nfs3.MountProgram, nfs3.MountVersion, nfs3.MountProcMnt, e.Bytes(), nil, time.Second)
	if err != nil {
		b.t.Fatal(err)
	}
	defer rep.Release()
	return bytes.Clone(rep.Body.Rest())
}

// bootstrap is the session's first GETINV, as the proxy client sends it.
func (b *mountBed) bootstrap(cred sunrpc.Cred) {
	e := xdr.NewEncoder()
	(&GetInvArgs{MaxHandles: 64}).Encode(e)
	call := &sunrpc.Call{Prog: InvProgram, Vers: InvVersion, Proc: ProcGetInv,
		Cred: cred, Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}
	if st := b.s.dispatchInv(call); st != sunrpc.Success {
		b.t.Fatalf("GETINV: %v", st)
	}
}

// path names fh by the bed's tree, "/" for the root.
func (b *mountBed) path(fh nfs3.FH) string {
	var walk func(id memfs.ID, at string) string
	walk = func(id memfs.ID, at string) string {
		if nfs3.MakeFH(serverVerf, uint64(id)).Equal(fh) {
			return at
		}
		ents, _ := b.fs.ReadDir(id)
		for _, e := range ents {
			if p := walk(e.ID, at+"/"+e.Name); p != "" {
				return p
			}
		}
		return ""
	}
	p := walk(b.fs.Root(), "")
	if p == "" {
		return "/"
	}
	return p[1:]
}

var gvfsCred = SessionCred{SessionKey: "s", ClientID: "C1"}

// TestMountCarriesTopOfExport asks a proxy server for a MNT and decodes what
// comes back: the NFS server's mountres3 byte for byte, and, for a polling
// session whose invalidation buffer is bootstrapped, the listings of the top
// of the export breadth-first — the root alone for a pm-like tree, the root
// and its one directory for a seq-like tree — behind an empty grant list, and
// nothing when they do not fit one block, when the root's own page does not
// complete, for a session without a metadata cache, for a credential that is
// not a session's, or before the session's bootstrap GETINV.
func TestMountCarriesTopOfExport(t *testing.T) {
	per := listingPerPage()
	for _, tree := range mountTrees {
		t.Run(tree.name, func(t *testing.T) {
			runMountBed(t, Config{}, tree.files(per), func(b *mountBed) {
				want := b.direct()
				cred := gvfsCred.Encode()
				b.bootstrap(cred)
				reply := b.mnt(cred)
				root, n, bundle := splitMountReply(reply)
				if !bytes.Equal(reply[:n], want) || !root.Equal(nfs3.MakeFH(serverVerf, uint64(b.fs.Root()))) {
					t.Fatalf("mountres3 %x, want the NFS server's %x", reply[:n], want)
				}
				var listed []string
				if bundle != nil {
					for _, pg := range bundle.Pages {
						listed = append(listed, b.path(pg.Dir))
						if pg.Page.Status != nfs3.OK || !pg.Page.EOF {
							t.Errorf("%s: a page that does not complete its listing rode", b.path(pg.Dir))
						}
					}
				}
				if fmt.Sprint(listed) != fmt.Sprint(tree.listed) {
					t.Errorf("the bundle lists %v, want %v", listed, tree.listed)
				}
				if bundle != nil && len(bundle.Grants) != 0 {
					t.Errorf("a polling bundle carries grants %v", bundle.Grants)
				}
				if n != len(reply) && bundle == nil {
					t.Errorf("%d bytes behind the mountres3 that are no bundle", len(reply)-n)
				}
			})
		})
	}

	t.Run("delegation grants what it lists", func(t *testing.T) {
		runMountBed(t, Config{Model: ModelDelegation}, mountTrees[1].files(per), func(b *mountBed) {
			reply := b.mnt(gvfsCred.Encode())
			_, _, bundle := splitMountReply(reply)
			if bundle == nil {
				t.Fatal("no bundle rode")
			}
			var listed, granted []string
			for _, pg := range bundle.Pages {
				listed = append(listed, b.path(pg.Dir))
			}
			for _, g := range bundle.Grants {
				if g.Deleg != DelegRead {
					t.Errorf("%s granted %v, want read", b.path(g.FH), g.Deleg)
				}
				granted = append(granted, b.path(g.FH))
			}
			// Each walked directory and every entry, each once, in walk order.
			want := []string{"/", "seq"}
			for i := 0; i < 8; i++ {
				want = append(want, fmt.Sprintf("seq/f%d", i))
			}
			if fmt.Sprint(listed) != "[/ seq]" || fmt.Sprint(granted) != fmt.Sprint(want) {
				t.Errorf("the bundle lists %v and grants %v; want [/ seq] and %v", listed, granted, want)
			}
		})
	})

	seq := mountTrees[1].files(per)
	for _, tc := range []struct {
		name string
		cfg  Config
		cred sunrpc.Cred
		boot bool
	}{
		{"a session without a metadata cache", Config{}, (&SessionCred{SessionKey: "s", ClientID: "C1", NoListings: true}).Encode(), true},
		{"an anonymous credential", Config{}, sunrpc.SysCred("kernel", 0, 0), true},
		{"before the bootstrap GETINV", Config{}, gvfsCred.Encode(), false},
	} {
		t.Run(tc.name+" carries nothing", func(t *testing.T) {
			runMountBed(t, tc.cfg, seq, func(b *mountBed) {
				want := b.direct()
				if tc.boot {
					b.bootstrap(tc.cred)
				}
				if reply := b.mnt(tc.cred); !bytes.Equal(reply, want) {
					t.Errorf("MNT reply %x, want the NFS server's own %x", reply, want)
				}
			})
		})
	}
}

// TestMountReplyCutAtEveryWord encodes a MNT reply with a two-page bundle and
// a grant and
// splits every word-aligned prefix of it: the mountres3 always parses, and the
// bundle is whole at the reply's full length or dropped, never half-seeded.
func TestMountReplyCutAtEveryWord(t *testing.T) {
	reply := mountReply(t)
	root, n, whole := splitMountReply(reply)
	if whole == nil || len(whole.Pages) != 2 || whole.Stamp != 42 || len(whole.Grants) != 1 || whole.Grants[0].Seq != 7 {
		t.Fatalf("the whole reply's bundle: %+v", whole)
	}
	for cut := n; cut <= len(reply); cut += 4 {
		gotRoot, gotN, bundle := splitMountReply(reply[:cut])
		if gotN != n || !gotRoot.Equal(root) {
			t.Fatalf("cut to %d: mountres3 of %d bytes, root %v; want %d, %v", cut, gotN, gotRoot, n, root)
		}
		if (bundle != nil) != (cut == len(reply)) {
			t.Errorf("cut to %d of %d bytes: bundle decoded = %v", cut, len(reply), bundle != nil)
		}
	}
	for cut := 0; cut < n; cut += 4 {
		if _, gotN, bundle := splitMountReply(reply[:cut]); gotN != cut || bundle != nil {
			t.Errorf("a mountres3 cut to %d bytes: relayed %d, bundle %v", cut, gotN, bundle != nil)
		}
	}
}

// mountReply is a MNT reply of the root fhN(1) with a bundle listing it and
// fhN(2).
func mountReply(t testing.TB) []byte {
	e := xdr.NewEncoder()
	e.Uint32(0)
	e.Opaque(fhN(1).Bytes())
	e.Uint32(1)
	e.Uint32(sunrpc.AuthSys)
	encodeMountBundleHead(e, 42, 2)
	for i, dir := range []nfs3.FH{fhN(1), fhN(2)} {
		e.Opaque(dir.Bytes())
		pageOf([]string{"x", "y"}, 0, 2-i, true).Encode(e)
	}
	Trailers{{Deleg: DelegRead, FH: fhN(2), Seq: 7}}.Encode(e)
	return e.Bytes()
}

// FuzzMountReply feeds splitMountReply arbitrary bytes: it never panics,
// relays no more than it was given, and a bundle it returns decoded whole.
func FuzzMountReply(f *testing.F) {
	reply := mountReply(f)
	f.Add(reply)
	f.Add(reply[:len(reply)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		_, n, bundle := splitMountReply(b)
		if n > len(b) || n < 0 {
			t.Fatalf("relays %d of %d bytes", n, len(b))
		}
		if bundle != nil && n == len(b) {
			t.Fatal("a bundle decoded from no bytes")
		}
	})
}

// TestSeedMount lands a MNT reply's bundle on a bare cache: what a fresh one
// seeds, and that each listed directory's walk is done; that one whose MOUNT
// crossed a GETINV, or any of the session's own namespace operations, or
// whose bootstrap check failed is dropped whole; and that a page short of EOF
// seeds nothing of its directory.
func TestSeedMount(t *testing.T) {
	root, dir, other := fhN(1), fhN(2), fhN(3)
	dirAttr := attrWithMtime(1, nfs3.TypeDir)
	for _, tc := range []struct {
		name      string
		across    func(sc *sessionCache)
		sound     bool
		dirEOF    bool
		listed    []bool // root's names, dir's names
		discarded int64
	}{
		{"across nothing", func(*sessionCache) {}, true, true, []bool{true, true}, 0},
		{"across a GETINV", func(sc *sessionCache) { sc.invalidateHandle(other) }, true, true, []bool{false, false}, 1},
		{"across the session's own CREATE", func(sc *sessionCache) { sc.putLookup(other, "n", fhN(9), false) }, true, true, []bool{false, false}, 1},
		{"a bootstrap later than the stamp", func(*sessionCache) {}, false, true, []bool{false, false}, 1},
		{"a page short of EOF", func(*sessionCache) {}, true, false, []bool{true, false}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var now time.Duration
			met := walkCounters()
			sc := newSessionCache(opsBS, 1<<20)
			sc.setPolicy(func() time.Duration { now++; return now }, cachePolicy{model: ModelPolling}, met)
			sc.putAttr(other, dirAttr)
			tk := sc.ticket(nfs3.FH{})
			tc.across(sc)
			sc.seedMount(tk, &MountBundle{Pages: []MountPage{
				{Dir: root, Page: *pageOf([]string{"d", "x"}, 0, 2, true)},
				{Dir: dir, Page: *pageOf([]string{"y", "z"}, 0, 2, tc.dirEOF)},
			}}, tc.sound)
			for i, d := range []nfs3.FH{root, dir} {
				_, _, ok := sc.getLookup(d, "y")
				if i == 0 {
					_, _, ok = sc.getLookup(d, "x")
				}
				sc.mu.Lock()
				done := sc.files[d.Key()] != nil && sc.files[d.Key()].walk.done
				sc.mu.Unlock()
				if ok != tc.listed[i] || done != tc.listed[i] {
					t.Errorf("directory %d: a name seeded = %v, walk done = %v; want %v", i, ok, done, tc.listed[i])
				}
			}
			if d := met.walkDiscarded.Value(); d != tc.discarded {
				t.Errorf("%d bundles discarded, want %d", d, tc.discarded)
			}
		})
	}
}

// mountChain is a proxy client over a proxy server over a 40 ms link, with
// another session's client straight to the proxy server. The kernel has not
// mounted yet.
type mountChain struct {
	t     *testing.T
	clk   *vclock.Clock
	s     *ProxyServer
	p     *ProxyClient
	nc    *nfscall.Conn // the kernel's, through p
	other *nfscall.Conn // another session's, to the proxy server
	up    *readRecorder
	nfsd  *sunrpc.Client // straight to the NFS server
}

func runMountChain(t *testing.T, cfg Config, files []string, fn func(b *mountChain)) {
	t.Helper()
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{RTT: 40 * time.Millisecond})
	fs := memfs.New(clk.Now)
	for _, f := range files {
		if _, err := fs.WriteFile(f, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	nfsd := sunrpc.NewServer(clk)
	nfsserver.New(fs, serverVerf).Register(nfsd)
	defer nfsd.Close()
	server, client := net.Host("server"), net.Host("client")
	done := make(chan struct{})
	clk.Go("driver", func() {
		defer close(done)
		l, err := server.Listen(":2049")
		if err != nil {
			t.Error(err)
			return
		}
		nfsd.Serve(l)
		dial := func(h *simnet.Host, addr string, cred sunrpc.Cred) *sunrpc.Client {
			c, err := h.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			return sunrpc.NewClient(clk, c, cred)
		}
		ps := NewProxyServer(clk, cfg, dial(server, "server:2049", sunrpc.SysCred("proxyd", 0, 0)), Dialer(server.Dial), &MemStateStore{})
		defer ps.Stop()
		pl, err := server.Listen(":4000")
		if err != nil {
			t.Error(err)
			return
		}
		ps.Serve(pl)
		conn, err := client.Dial("server:4000")
		if err != nil {
			t.Error(err)
			return
		}
		up := &readRecorder{Conn: conn, now: clk.Now}
		p := NewProxyClient(clk, cfg, sunrpc.NewClient(clk, up, sunrpc.NoneCred()),
			SessionCred{SessionKey: "s", ClientID: "client/s", CallbackAddr: "client:3050"})
		defer p.Stop()
		kl, err := client.Listen(":3049")
		if err != nil {
			t.Error(err)
			return
		}
		cl, err := client.Listen(":3050")
		if err != nil {
			t.Error(err)
			return
		}
		p.Serve(kl, cl)
		nc := nfscall.New(dial(client, "client:3049", sunrpc.SysCred("kernel", 0, 0)))
		defer nc.Close()
		other := nfscall.New(dial(server, "server:4000", (&SessionCred{SessionKey: "s", ClientID: "other/s"}).Encode()))
		defer other.Close()
		direct := dial(server, "server:2049", sunrpc.SysCred("kernel", 0, 0))
		defer direct.Close()
		fn(&mountChain{t: t, clk: clk, s: ps, p: p, nc: nc, other: other, up: up, nfsd: direct})
	})
	<-done
}

// sent counts the NFS calls of each procedure that crossed since from, and
// returns how many have crossed so far.
func (b *mountChain) sent(from int) (map[uint32]int, int) {
	b.clk.Sleep(time.Second) // anything in flight lands
	calls := b.up.sentCalls()
	n := map[uint32]int{}
	for _, c := range calls[from:] {
		n[c.proc]++
	}
	return n, len(calls)
}

func (b *mountChain) mount() nfs3.FH {
	b.t.Helper()
	root, err := b.nc.Mount("/export")
	if err != nil {
		b.t.Fatal(err)
	}
	return root
}

func (b *mountChain) lookup(dir nfs3.FH, name string) nfs3.LookupRes {
	b.t.Helper()
	lk, err := b.nc.Lookup(dir, name)
	if err != nil {
		b.t.Fatalf("lookup %s: %v", name, err)
	}
	return lk
}

// TestMountAnswersThePathWalk pins what the bundle does for a polling proxy
// client over a 40 ms link: the path walk a/b/file after the MOUNT sends no
// LOOKUP; a bundle whose MOUNT crossed a GETINV or one of the session's own
// namespace operations is dropped whole and the walk crosses; and another
// client's CREATE or REMOVE after the MOUNT reaches the cache through the next
// poll, after which the name is asked of the server again.
func TestMountAnswersThePathWalk(t *testing.T) {
	tree := []string{"a/b/file", "a/b/gone"}
	walk := func(b *mountChain, root nfs3.FH) {
		b.t.Helper()
		fh := root
		for _, name := range []string{"a", "b", "file"} {
			lk := b.lookup(fh, name)
			if lk.Status != nfs3.OK {
				b.t.Fatalf("lookup %s: %v", name, lk.Status)
			}
			fh = lk.FH
		}
	}

	t.Run("a/b/file after the MOUNT sends no LOOKUP", func(t *testing.T) {
		runMountChain(t, Config{}, tree, func(b *mountChain) {
			root := b.mount()
			_, mark := b.sent(0)
			walk(b, root)
			if sent, _ := b.sent(mark); len(sent) != 0 {
				t.Errorf("the walk sent %v upstream, want nothing", sent)
			}
			if hits := b.p.met.dentryHits.Value(); hits != 3 {
				t.Errorf("%d dentry hits, want 3", hits)
			}
		})
	})

	t.Run("the kernel gets the NFS server's mountres3 byte for byte", func(t *testing.T) {
		runMountChain(t, Config{}, tree, func(b *mountChain) {
			mnt := func(serve func(*sunrpc.Call) []byte) []byte {
				e := xdr.NewEncoder()
				e.String("/export")
				return serve(&sunrpc.Call{Prog: nfs3.MountProgram, Vers: nfs3.MountVersion, Proc: nfs3.MountProcMnt,
					Cred: sunrpc.SysCred("kernel", 0, 0), Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()})
			}
			want := mnt(func(c *sunrpc.Call) []byte {
				rep, err := b.nfsd.CallParts(0, c.Prog, c.Vers, c.Proc, nil, c.Args.Rest(), time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer rep.Release()
				return bytes.Clone(rep.Body.Rest())
			})
			got := mnt(func(c *sunrpc.Call) []byte {
				if st := b.p.dispatchMount(c); st != sunrpc.Success {
					t.Fatalf("MNT: %v", st)
				}
				return c.Reply.Bytes()
			})
			if !bytes.Equal(got, want) {
				t.Errorf("the kernel's MNT reply %x, want the NFS server's %x", got, want)
			}
			if e := b.p.met.dirwalkEntries.Value(); e == 0 {
				t.Error("no bundle landed: the test proves nothing")
			}
		})
	})

	for _, tc := range []struct {
		name   string
		across func(p *ProxyClient)
	}{
		{"a GETINV", func(p *ProxyClient) { p.cache.invalidateHandle(fhN(999)) }},
		{"the session's own namespace operation", func(p *ProxyClient) {
			p.cache.putAttr(fhN(998), attrWithMtime(1, nfs3.TypeDir))
			p.cache.putLookup(fhN(998), "n", fhN(997), false)
		}},
	} {
		t.Run("a bundle whose MOUNT crossed "+tc.name+" is dropped whole", func(t *testing.T) {
			runMountChain(t, Config{}, tree, func(b *mountChain) {
				var root nfs3.FH
				g := b.clk.NewGroup()
				g.Go("kernel", func() { root = b.mount() })
				b.clk.Sleep(10 * time.Millisecond) // the MNT is on the wire
				tc.across(b.p)
				g.Wait()
				if d := b.p.met.dirwalkDiscarded.Value(); d != 1 {
					t.Errorf("%d listings discarded, want the bundle", d)
				}
				_, mark := b.sent(0)
				walk(b, root)
				if sent, _ := b.sent(mark); sent[nfs3.ProcLookup] == 0 {
					t.Errorf("the walk after a dropped bundle sent %v, want LOOKUPs", sent)
				}
			})
		})
	}

	for _, tc := range []struct {
		name   string
		change func(other *nfscall.Conn, b nfs3.FH) error
		probe  string
		want   nfs3.Status
	}{
		{"CREATE", func(o *nfscall.Conn, b nfs3.FH) error {
			_, err := o.Create(b, "new", 0o644, nfs3.CreateGuarded)
			return err
		}, "new", nfs3.OK},
		{"REMOVE", func(o *nfscall.Conn, b nfs3.FH) error {
			_, err := o.Remove(b, "gone")
			return err
		}, "gone", nfs3.ErrNoEnt},
	} {
		t.Run("another client's "+tc.name+" reaches the cache through the next poll", func(t *testing.T) {
			runMountChain(t, Config{PollPeriod: 5 * time.Second}, tree, func(b *mountChain) {
				root := b.mount()
				bdir := b.lookup(b.lookup(root, "a").FH, "b").FH
				if err := tc.change(b.other, bdir); err != nil {
					t.Fatal(err)
				}
				b.clk.Sleep(6 * time.Second) // the next poll
				_, mark := b.sent(0)
				if lk := b.lookup(bdir, tc.probe); lk.Status != tc.want {
					t.Errorf("%s after the poll: %v, want %v", tc.probe, lk.Status, tc.want)
				}
				if sent, _ := b.sent(mark); sent[nfs3.ProcLookup] != 1 {
					t.Errorf("%s after the poll sent %v, want its LOOKUP", tc.probe, sent)
				}
			})
		})
	}
}

// TestMountBundleCheckedAgainstTheBootstrap runs a proxy client over a fake
// proxy server whose bootstrap GETINV reply carries timestamp 5 and whose MNT
// reply carries a bundle stamped 4 or 5. A bundle stamped before the
// bootstrap was read before the bootstrap flushed the session's buffer, and
// what was queued in between is lost to the session: it is dropped. One
// stamped no earlier lands.
func TestMountBundleCheckedAgainstTheBootstrap(t *testing.T) {
	root := fhN(1)
	for _, tc := range []struct {
		stamp uint64
		lands bool
	}{{5, true}, {4, false}} {
		t.Run(fmt.Sprintf("stamp %d against bootstrap 5", tc.stamp), func(t *testing.T) {
			clk := vclock.NewVirtual()
			defer clk.Stop()
			net := simnet.New(clk, simnet.Params{RTT: 40 * time.Millisecond})
			fake := sunrpc.NewServer(clk)
			defer fake.Close()
			fake.Register(InvProgram, InvVersion, func(call *sunrpc.Call) sunrpc.AcceptStat {
				(&GetInvRes{Timestamp: 5, ForceInvalidate: true}).Encode(call.Reply)
				return sunrpc.Success
			})
			fake.Register(nfs3.MountProgram, nfs3.MountVersion, func(call *sunrpc.Call) sunrpc.AcceptStat {
				e := call.Reply
				e.Uint32(0)
				e.Opaque(root.Bytes())
				e.Uint32(1)
				e.Uint32(sunrpc.AuthSys)
				encodeMountBundleHead(e, tc.stamp, 1)
				e.Opaque(root.Bytes())
				pageOf([]string{"x"}, 0, 1, true).Encode(e)
				Trailers(nil).Encode(e)
				return sunrpc.Success
			})
			done := make(chan struct{})
			clk.Go("driver", func() {
				defer close(done)
				l, err := net.Host("server").Listen(":4000")
				if err != nil {
					t.Error(err)
					return
				}
				fake.Serve(l)
				conn, err := net.Host("client").Dial("server:4000")
				if err != nil {
					t.Error(err)
					return
				}
				p := NewProxyClient(clk, Config{}, sunrpc.NewClient(clk, conn, sunrpc.NoneCred()), SessionCred{SessionKey: "s", ClientID: "C1"})
				defer p.Stop()
				kl, err := net.Host("client").Listen(":3049")
				if err != nil {
					t.Error(err)
					return
				}
				p.Serve(kl, nil)
				kc, err := net.Host("client").Dial("client:3049")
				if err != nil {
					t.Error(err)
					return
				}
				nc := nfscall.New(sunrpc.NewClient(clk, kc, sunrpc.SysCred("kernel", 0, 0)))
				defer nc.Close()
				if _, err := nc.Mount("/export"); err != nil {
					t.Error(err)
					return
				}
				if _, _, ok := p.cache.getLookup(root, "x"); ok != tc.lands {
					t.Errorf("the listed name landed = %v, want %v", ok, tc.lands)
				}
				if d := p.met.dirwalkDiscarded.Value(); (d == 1) == tc.lands {
					t.Errorf("%d bundles discarded", d)
				}
			})
			<-done
		})
	}
}

// TestMountGrantsUnderDelegation pins what a MOUNT's bundle costs and buys a
// proxy client under delegation over a 40 ms link: the path walk after it
// sends no LOOKUP; each grant the session never uses is called back once, at
// DelegExpiry, answered clean, and the sharer table is empty afterwards; a
// top of the export larger than a block grants nothing; and a file another
// client holds a write delegation on rides ungranted, calling nobody back.
func TestMountGrantsUnderDelegation(t *testing.T) {
	tree := []string{"a/b/file", "c/x"}
	deleg := Config{Model: ModelDelegation}
	grants := func(s *ProxyServer) int64 { return s.met.delegationGrants[DelegRead].Value() }
	sharers := func(s *ProxyServer) (n int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, f := range s.files {
			n += len(f.sharers)
		}
		return n
	}

	t.Run("a/b/file after the MOUNT sends no LOOKUP", func(t *testing.T) {
		runMountChain(t, deleg, tree, func(b *mountChain) {
			root := b.mount()
			if g := grants(b.s); g != 6 {
				t.Errorf("%d read delegations granted, want 6: the root, a, c, a/b, a/b/file and c/x", g)
			}
			_, mark := b.sent(0)
			fh := root
			for _, name := range []string{"a", "b", "file"} {
				fh = b.lookup(fh, name).FH
			}
			if sent, _ := b.sent(mark); len(sent) != 0 {
				t.Errorf("the walk sent %v upstream, want nothing", sent)
			}
		})
	})

	t.Run("each unused grant is called back once, clean, at DelegExpiry", func(t *testing.T) {
		cfg := deleg
		cfg.DelegExpiry = time.Minute
		runMountChain(t, cfg, tree, func(b *mountChain) {
			b.mount()
			n := grants(b.s)
			if n == 0 || int64(sharers(b.s)) != n {
				t.Fatalf("%d grants and %d sharers after the MOUNT, want one sharer per grant", n, sharers(b.s))
			}
			b.clk.Sleep(3 * cfg.DelegExpiry)
			if cb := b.s.met.callbacksSent.Value(); cb != n {
				t.Errorf("%d callbacks sent for %d unused grants, want one each", cb, n)
			}
			if r := b.p.met.recalls.Value(); r != n {
				t.Errorf("the proxy client served %d recalls, want %d", r, n)
			}
			if left := sharers(b.s); left != 0 {
				t.Errorf("%d sharers left after every grant was called back", left)
			}
		})
	})

	t.Run("a top of the export larger than a block grants nothing", func(t *testing.T) {
		per := listingPerPage()
		runMountBed(t, deleg, mountTrees[3].files(per), func(b *mountBed) {
			want := b.direct()
			if reply := b.mnt(gvfsCred.Encode()); !bytes.Equal(reply, want) {
				t.Errorf("MNT reply %x, want the NFS server's own %x", reply, want)
			}
			if g, n := grants(b.s), sharers(b.s); g != 0 || n != 0 {
				t.Errorf("%d grants, %d sharers; want none", g, n)
			}
		})
	})

	t.Run("a file another client writes rides ungranted and nobody is called back", func(t *testing.T) {
		runMountChain(t, deleg, tree, func(b *mountChain) {
			file, err := b.other.Mount("/export")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"a", "b", "file"} {
				lk, err := b.other.Lookup(file, name)
				if err != nil || lk.Status != nfs3.OK {
					t.Fatalf("the other client's lookup %s: %v %v", name, err, lk.Status)
				}
				file = lk.FH
			}
			if wr, err := b.other.Write(file, 0, []byte("y"), nfs3.FileSync); err != nil || wr.Status != nfs3.OK {
				t.Fatalf("the other client's write: %v %v", err, wr.Status)
			}
			before := b.s.met.callbacksSent.Value()
			b.mount()
			if cb := b.s.met.callbacksSent.Value() - before; cb != 0 {
				t.Errorf("the MOUNT called back %d delegations, want none", cb)
			}
			b.s.mu.Lock()
			row := describeFile(b.s, file)
			b.s.mu.Unlock()
			if row != "other/s=write" {
				t.Errorf("the written file's row is %q after the MOUNT, want the writer alone", row)
			}
			b.p.cache.mu.Lock()
			fc := b.p.cache.files[file.Key()]
			landed := fc != nil && (fc.deleg != DelegNone || fc.attrLink.on())
			b.p.cache.mu.Unlock()
			if landed {
				t.Error("the MOUNT landed a delegation or attributes for the file another client writes")
			}
			if g := grants(b.s); g < 5 {
				t.Errorf("%d read grants, want the other five handles'", g)
			}
		})
	})
}
