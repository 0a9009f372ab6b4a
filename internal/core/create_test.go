package core

import (
	"bytes"
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

// The absorbed CREATE (proxyclient_create.go), on a proxy client over a plain
// NFS server across a simulated 40 ms link, as the absorbed REMOVE is tested:
// a CREATE the session answers at home returns to the kernel in well under a
// round trip; one it forwards takes at least one. A plain NFS server serves
// no MINT-WRITE, so a write-back here waits for the CREATE as any other call
// does; the MINT-WRITE itself is tested against the proxy server below.

// crTree is rmTree with e, an empty directory, beside d.
func crTree(fs *memfs.FS) {
	rmTree(false)(fs)
	if _, err := fs.MkdirAll("e"); err != nil {
		panic(err)
	}
}

// kernelCreate serves one kernel CREATE of name under dir through the proxy
// client as uid over AUTH_SYS and returns its reply and how long the kernel
// waited for it.
func kernelCreate(t *testing.T, p *ProxyClient, uid uint32, args nfs3.CreateArgs) (nfs3.CreateRes, time.Duration) {
	t.Helper()
	e := xdr.NewEncoder()
	args.Encode(e)
	call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcCreate,
		Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder(), Cred: sunrpc.SysCred("kernel", uid, uid)}
	start := p.clk.Now()
	var res nfs3.CreateRes
	if st := p.ServeCall(call); st != sunrpc.Success {
		t.Errorf("create %s: %v", args.Where.Name, st)
	} else if err := res.Decode(xdr.NewDecoder(call.Reply.Bytes())); err != nil {
		t.Errorf("create %s: %v", args.Where.Name, err)
	}
	return res, p.clk.Now() - start
}

// guarded is a GUARDED CREATE of name under dir with mode 0644.
func guarded(dir nfs3.FH, name string) nfs3.CreateArgs {
	mode := uint32(0o644)
	return nfs3.CreateArgs{Where: nfs3.DirOpArgs{Dir: dir, Name: name}, Mode: nfs3.CreateGuarded, Attr: nfs3.Sattr{Mode: &mode}}
}

// provenAbsent has the session look name up under d and cache its NOENT.
func provenAbsent(t *testing.T, b *raBed, d nfs3.FH, name string) {
	t.Helper()
	if lk, err := b.nc.Lookup(d, name); err != nil || lk.Status != nfs3.ErrNoEnt {
		t.Fatalf("lookup %s: %v %v, want NOENT", name, err, lk.Status)
	}
}

// walked marks d's walk finished, as a walk's last page, a listing riding a
// LOOKUP or a MOUNT's bundle leaves it.
func walked(b *raBed, d nfs3.FH) {
	b.p.cache.mu.Lock()
	b.p.cache.files[d.Key()].walk.done = true
	b.p.cache.mu.Unlock()
}

// TestCreateAbsorbGates drives each condition of the absorb rule to fail in
// turn: the CREATE must then be forwarded, the kernel waiting a round trip
// for it, and with every condition met it must be answered at once, under a
// handle the server never made. Either way the file is on the server two
// round trips later, and exactly one CREATE crossed.
func TestCreateAbsorbGates(t *testing.T) {
	size := uint64(5)
	for _, tc := range []struct {
		name   string
		cfg    Config
		uid    uint32
		prep   func(b *raBed, d nfs3.FH)
		edit   func(a *nfs3.CreateArgs)
		absorb bool
	}{
		{name: "a negative entry proves the name absent", prep: func(b *raBed, d nfs3.FH) { provenAbsent(t, b, d, "n") }, absorb: true},
		{name: "a finished walk proves the name absent", prep: walked, absorb: true},
		{name: "unchecked", prep: walked, edit: func(a *nfs3.CreateArgs) { a.Mode = nfs3.CreateUnchecked }, absorb: true},
		{name: "nothing proves the name absent"},
		{name: "a walked directory lost an entry", prep: func(b *raBed, d nfs3.FH) { walked(b, d); b.p.cache.dropLookup(d, "f") }},
		{name: "exclusive", prep: walked, edit: func(a *nfs3.CreateArgs) { a.Mode = nfs3.CreateExclusive; a.Verf = 7 }},
		{name: "a size asked for", prep: walked, edit: func(a *nfs3.CreateArgs) { a.Attr.Size = &size }},
		{name: "no write-back", cfg: Config{WriteBack: false}, prep: walked},
		{name: "no metadata cache", cfg: Config{DisableMetaCache: true}},
		{name: "disk store open", cfg: Config{DiskCacheDir: "tmp"}, prep: walked},
		{name: "directory attributes invalidated", prep: func(b *raBed, d nfs3.FH) { walked(b, d); b.p.cache.invalidateHandle(d) }},
		{name: "caller may not add a name", uid: 1000, prep: walked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if tc.name != "no write-back" {
				cfg.WriteBack = true
			}
			if cfg.DiskCacheDir != "" {
				cfg.DiskCacheDir = t.TempDir()
			}
			runRemoveBed(t, cfg, false, nil, func(b *raBed, d nfs3.FH) {
				b.lookupIn(t, d, "f")
				if tc.prep != nil {
					tc.prep(b, d)
				}
				args := guarded(d, "n")
				if tc.edit != nil {
					tc.edit(&args)
				}
				res, waited := kernelCreate(t, b.p, tc.uid, args)
				if res.Status != nfs3.OK || !res.FHFollows {
					t.Fatalf("create: %v", res.Status)
				}
				if absorbed := waited < rmRTT/2; absorbed != tc.absorb {
					t.Errorf("the kernel waited %v for its CREATE: absorbed = %v, want %v", waited, absorbed, tc.absorb)
				}
				gen, _ := res.FH.Split()
				if minted := gen>>32 == mintMark>>32; minted != tc.absorb {
					t.Errorf("the reply's handle %v is minted = %v, want %v", res.FH, minted, tc.absorb)
				}
				if n := b.p.met.createAbsorbed.Value(); (n == 1) != tc.absorb {
					t.Errorf("gvfs_client_create_absorbed_total = %d", n)
				}
				b.clk.Sleep(2 * rmRTT)
				if !b.onServerPath("d/n") {
					t.Error("the file is not on the server two round trips later")
				}
				if n := b.wan(nfs3.ProcCreate); n != 1 {
					t.Errorf("%d CREATEs crossed, want 1", n)
				}
			})
		})
	}
}

// TestCreateForwardedUnderDelegation: under delegation with write-back, even
// with a read delegation on the directory and the name's NOENT cached under
// it, the CREATE crosses before the kernel has its answer: the strong model
// orders a namespace change by its callbacks, which only the server makes.
func TestCreateForwardedUnderDelegation(t *testing.T) {
	cfg := Config{Model: ModelDelegation, WriteBack: true, FlushInterval: time.Hour}
	runChainBedOver(t, simnet.Params{RTT: rmRTT}, cfg, rmTree(false), func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH) {
		lk, err := nc.Lookup(root, "d")
		if err != nil || lk.Status != nfs3.OK {
			t.Fatalf("lookup d: %v %v", err, lk.Status)
		}
		d := lk.FH
		for range 2 { // the second is answered under the grant the first took
			if lk, err := nc.Lookup(d, "n"); err != nil || lk.Status != nfs3.ErrNoEnt {
				t.Fatalf("lookup n: %v %v", err, lk.Status)
			}
		}
		if h, _, ok := p.cache.lookupHit(d, "n"); !ok || !h.negative {
			t.Fatal("the session cannot answer a LOOKUP of d/n at home: nothing here for a CREATE to be absorbed against")
		}
		if res, waited := kernelCreate(t, p, 0, guarded(d, "n")); res.Status != nfs3.OK || waited < rmRTT/2 {
			t.Errorf("CREATE under delegation: %v after %v, want OK after a round trip", res.Status, waited)
		}
	})
}

// holdCreates keeps every CREATE back five round trips before the server runs
// it.
func holdCreates(proc uint32) time.Duration {
	if proc == nfs3.ProcCreate {
		return 5 * rmRTT
	}
	return 0
}

// TestCallsWaitForThePendingCreate: a call that names the new file or its
// directory, or that names directories by entry (RENAME, RMDIR), or a MOUNT,
// issued while an absorbed CREATE is held back at the server, is held behind
// it: the kernel waits out the hold, and the call runs on the file the CREATE
// made. A READ of another file does not wait.
func TestCallsWaitForThePendingCreate(t *testing.T) {
	mode := uint32(0o600)
	for _, tc := range []struct {
		name string
		call func(b *raBed, d, e, fh, x nfs3.FH) nfs3.Status
		wait bool
	}{
		{"SETATTR of the new file", func(b *raBed, _, _, fh, _ nfs3.FH) nfs3.Status {
			res, err := b.nc.Setattr(fh, nfs3.Sattr{Mode: &mode})
			return status(res.Status, err)
		}, true},
		{"READDIR of its directory", func(b *raBed, d, _, _, _ nfs3.FH) nfs3.Status {
			res, err := b.nc.Readdir(d, 0, 0, 4096)
			return status(res.Status, err)
		}, true},
		{"RENAME elsewhere", func(b *raBed, d, e, _, _ nfs3.FH) nfs3.Status {
			res, err := b.nc.Rename(d, "h", e, "h")
			return status(res.Status, err)
		}, true},
		{"RMDIR elsewhere", func(b *raBed, _, _, _, _ nfs3.FH) nfs3.Status {
			res, err := b.nc.Rmdir(b.root, "e")
			return status(res.Status, err)
		}, true},
		{"MOUNT", func(b *raBed, _, _, _, _ nfs3.FH) nfs3.Status {
			_, err := b.nc.Mount("/export")
			return status(nfs3.OK, err)
		}, true},
		{"READ of another file", func(b *raBed, _, _, _, x nfs3.FH) nfs3.Status {
			res, err := b.nc.Read(x, 0, 8)
			return status(res.Status, err)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runBedOver(t, simnet.Params{RTT: rmRTT}, Config{WriteBack: true, FlushInterval: time.Hour}, &bedFront{hold: holdCreates}, crTree, func(b *raBed) {
				d := b.lookupIn(t, b.root, "d")
				e := b.lookupIn(t, b.root, "e")
				x := b.lookupIn(t, d, "x")
				provenAbsent(t, b, d, "n")
				cr, waited := kernelCreate(t, b.p, 0, guarded(d, "n"))
				if cr.Status != nfs3.OK || waited >= rmRTT/2 {
					t.Fatalf("the CREATE was not absorbed: %v after %v", cr.Status, waited)
				}
				start := b.clk.Now()
				if st := tc.call(b, d, e, cr.FH, x); st != nfs3.OK {
					t.Errorf("%s: %v", tc.name, st)
				}
				held := b.clk.Now()-start >= 4*rmRTT
				if held != tc.wait {
					t.Errorf("%s took %v behind a CREATE held %v: held = %v, want %v", tc.name, b.clk.Now()-start, 5*rmRTT, held, tc.wait)
				}
				b.clk.Sleep(6 * rmRTT)
				if a, err := b.fs.LookupPath("d/n"); err != nil {
					t.Errorf("d/n is not on the server: %v", err)
				} else if tc.name == "SETATTR of the new file" && a.Mode&0o777 != mode {
					t.Errorf("d/n has mode %o on the server, want %o: the SETATTR went elsewhere", a.Mode, mode)
				}
			})
		})
	}
}

func status(st nfs3.Status, err error) nfs3.Status {
	if err != nil {
		return nfs3.ErrIO
	}
	return st
}

// mintBed is a proxy server over an NFS server holding the directory d and
// the file d/x, on one simulated host; fn drives the server's handlers with
// calls from the session "C1" as a proxy client would send them.
func runMintBed(t *testing.T, fn func(clk *vclock.Clock, fs *memfs.FS, d nfs3.FH, restart func() *ProxyServer)) {
	t.Helper()
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{})
	fs := memfs.New(clk.Now)
	if _, err := fs.WriteFile("d/x", []byte("theirs")); err != nil {
		t.Fatal(err)
	}
	rpcSrv := sunrpc.NewServer(clk)
	nsrv := nfsserver.New(fs, serverVerf)
	nsrv.Register(rpcSrv)
	l, err := net.Host("server").Listen(":2049")
	if err != nil {
		t.Fatal(err)
	}
	defer rpcSrv.Close()
	rpcSrv.Serve(l)
	dattr, _ := fs.LookupPath("d")
	d := nfs3.MakeFH(serverVerf, uint64(dattr.ID))
	done := make(chan struct{})
	clk.Go("driver", func() {
		defer close(done)
		var servers []*ProxyServer
		defer func() {
			for _, s := range servers {
				s.Stop()
			}
		}()
		restart := func() *ProxyServer {
			conn, err := net.Host("server").Dial("server:2049")
			if err != nil {
				t.Fatal(err)
			}
			s := NewProxyServer(clk, Config{}, sunrpc.NewClient(clk, conn, sunrpc.SysCred("proxyd", 0, 0)), nil, &MemStateStore{})
			servers = append(servers, s)
			return s
		}
		fn(clk, fs, d, restart)
	})
	<-done
}

var mintCred = (&SessionCred{SessionKey: "s", ClientID: "C1"}).Encode()

// mintedCreate sends s the CREATE a session that answered it at home sends.
func mintedCreate(t *testing.T, s *ProxyServer, a *MintedCreate) nfs3.CreateRes {
	t.Helper()
	e := xdr.NewEncoder()
	a.Encode(e)
	call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcCreate,
		Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder(), Cred: mintCred}
	var res nfs3.CreateRes
	if st := s.dispatchNFS(call); st != sunrpc.Success {
		t.Fatalf("minted create: %v", st)
	}
	if err := res.Decode(xdr.NewDecoder(call.Reply.Bytes())); err != nil {
		t.Fatalf("minted create: %v", err)
	}
	return res
}

// mintWriteCall sends s a MINT-WRITE of data at offset 0 to the file a makes.
func mintWriteCall(t *testing.T, s *ProxyServer, a *MintedCreate, data []byte) MintWriteRes {
	t.Helper()
	e := xdr.NewEncoder()
	(&MintWriteArgs{Create: *a, Write: nfs3.WriteArgs{Count: uint32(len(data)), Stable: nfs3.FileSync, Data: data}}).Encode(e)
	call := &sunrpc.Call{Prog: InvProgram, Vers: InvVersion, Proc: ProcMintWrite,
		Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder(), Cred: mintCred}
	var res MintWriteRes
	if st := s.dispatchInv(call); st != sunrpc.Success {
		t.Fatalf("MINT-WRITE: %v", st)
	}
	if err := res.Decode(xdr.NewDecoder(call.Reply.Bytes())); err != nil {
		t.Fatalf("MINT-WRITE: %v", err)
	}
	return res
}

// TestMintedCreateExactlyOnce: a minted create and the MINT-WRITE that names
// it reach the proxy server again and in any order — a reply lost and the
// call sent again on a new connection, the two calls crossing, the proxy
// server restarted between them, its record of the create gone. Every run
// leaves exactly one file with the bytes written, and the handle every reply
// names is that file's. A create of a name another client holds is refused
// however often it is sent, and the MINT-WRITE naming it writes nothing.
func TestMintedCreateExactlyOnce(t *testing.T) {
	mode := uint32(0o640)
	data := []byte("the session's bytes")
	mk := func(d nfs3.FH, name string) *MintedCreate {
		return &MintedCreate{CreateArgs: nfs3.CreateArgs{Where: nfs3.DirOpArgs{Dir: d, Name: name}, Mode: nfs3.CreateGuarded, Attr: nfs3.Sattr{Mode: &mode}}, Verf: 0x5eed}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *ProxyServer, restart func() *ProxyServer, a *MintedCreate) []nfs3.FH
	}{
		{"the CREATE's reply lost", func(t *testing.T, s *ProxyServer, _ func() *ProxyServer, a *MintedCreate) []nfs3.FH {
			r1, r2 := mintedCreate(t, s, a), mintedCreate(t, s, a)
			w := mintWriteCall(t, s, a, data)
			return []nfs3.FH{r1.FH, r2.FH, w.Create.FH}
		}},
		{"the MINT-WRITE's reply lost", func(t *testing.T, s *ProxyServer, _ func() *ProxyServer, a *MintedCreate) []nfs3.FH {
			r := mintedCreate(t, s, a)
			w1, w2 := mintWriteCall(t, s, a, data), mintWriteCall(t, s, a, data)
			return []nfs3.FH{r.FH, w1.Create.FH, w2.Create.FH}
		}},
		{"the MINT-WRITE ahead of the CREATE", func(t *testing.T, s *ProxyServer, _ func() *ProxyServer, a *MintedCreate) []nfs3.FH {
			w := mintWriteCall(t, s, a, data)
			r := mintedCreate(t, s, a)
			return []nfs3.FH{w.Create.FH, r.FH}
		}},
		{"the proxy server restarted between them", func(t *testing.T, s *ProxyServer, restart func() *ProxyServer, a *MintedCreate) []nfs3.FH {
			r1 := mintedCreate(t, s, a)
			s2 := restart()
			w := mintWriteCall(t, s2, a, data)
			r2 := mintedCreate(t, s2, a) // the session's retry, after a reconnect
			return []nfs3.FH{r1.FH, w.Create.FH, r2.FH}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runMintBed(t, func(clk *vclock.Clock, fs *memfs.FS, d nfs3.FH, restart func() *ProxyServer) {
				a := mk(d, "n")
				fhs := tc.run(t, restart(), restart, a)
				attr, err := fs.LookupPath("d/n")
				if err != nil {
					t.Fatalf("d/n: %v", err)
				}
				for _, fh := range fhs {
					if _, id := fh.Split(); id != uint64(attr.ID) {
						t.Errorf("a reply names %v, not the one file d/n made (%d)", fh, attr.ID)
					}
				}
				got := make([]byte, 64)
				n, _, _ := fs.ReadAt(attr.ID, got, 0)
				if !bytes.Equal(got[:n], data) || attr.Mode&0o777 != mode {
					t.Errorf("d/n holds %q mode %o, want %q mode %o", got[:n], attr.Mode&0o777, data, mode)
				}
				dattr, _ := fs.LookupPath("d")
				if ents, _ := fs.ReadDir(dattr.ID); len(ents) != 2 {
					t.Errorf("d holds %d names, want x and n", len(ents))
				}
			})
		})
	}
	t.Run("a name another client holds", func(t *testing.T) {
		runMintBed(t, func(clk *vclock.Clock, fs *memfs.FS, d nfs3.FH, restart func() *ProxyServer) {
			s := restart()
			a := mk(d, "x")
			for i := 0; i < 2; i++ {
				if r := mintedCreate(t, s, a); r.Status != nfs3.ErrExist {
					t.Errorf("create of x: %v, want EXIST", r.Status)
				}
				w := mintWriteCall(t, s, a, data)
				if w.Create.Status != nfs3.ErrExist || w.Write.Status != nfs3.ErrExist {
					t.Errorf("MINT-WRITE to x's create: create %v write %v, want EXIST for both", w.Create.Status, w.Write.Status)
				}
				s = restart()
			}
			x, _ := fs.LookupPath("d/x")
			got := make([]byte, 64)
			if n, _, _ := fs.ReadAt(x.ID, got, 0); string(got[:n]) != "theirs" {
				t.Errorf("the other client's d/x holds %q", got[:n])
			}
		})
	})
}

// TestCreateInADirectoryTheSessionMade: the session's own MKDIR made the
// directory, so its listing is complete and empty (madeEmpty), and the first
// CREATE in it — PostMark's, into its subdirectories — is answered at home.
func TestCreateInADirectoryTheSessionMade(t *testing.T) {
	runRemoveBed(t, Config{WriteBack: true}, false, nil, func(b *raBed, d nfs3.FH) {
		mk, err := b.nc.Mkdir(d, "sub", 0o755)
		if err != nil || mk.Status != nfs3.OK {
			t.Fatalf("mkdir: %v %v", err, mk.Status)
		}
		res, waited := kernelCreate(t, b.p, 0, guarded(mk.FH, "n"))
		if res.Status != nfs3.OK || waited >= rmRTT/2 {
			t.Errorf("create in the new directory: %v after %v, want it answered at home", res.Status, waited)
		}
		b.clk.Sleep(2 * rmRTT)
		if !b.onServerPath("d/sub/n") {
			t.Error("the file is not on the server two round trips later")
		}
	})
}

// TestMintWriteFallsBackOverAPlainServer: a plain NFS server serves no
// MINT-WRITE. The file's write-back then goes as a WRITE behind its CREATE,
// the COMMIT succeeds with the bytes on the server, and the upstream is not
// asked for a MINT-WRITE again.
func TestMintWriteFallsBackOverAPlainServer(t *testing.T) {
	runRemoveBed(t, Config{WriteBack: true}, false, nil, func(b *raBed, d nfs3.FH) {
		provenAbsent(t, b, d, "n")
		cr, waited := kernelCreate(t, b.p, 0, guarded(d, "n"))
		if cr.Status != nfs3.OK || waited >= rmRTT/2 {
			t.Fatalf("the CREATE was not absorbed: %v after %v", cr.Status, waited)
		}
		if wr := b.writeBlock(t, cr.FH, 0, 0x6e); wr.Status != nfs3.OK {
			t.Fatalf("write: %v", wr.Status)
		}
		if cm := b.commit(t, cr.FH); cm.Status != nfs3.OK {
			t.Fatalf("commit: %v", cm.Status)
		}
		if !b.onServerAs("d/n", bytes.Repeat([]byte{0x6e}, raBS)) {
			t.Error("the server's d/n does not hold the block written")
		}
		if !b.p.noMintWrite.Load() || b.wan(nfs3.ProcWrite) != 1 {
			t.Errorf("MINT-WRITE remembered unserved: %v; WRITEs crossed: %d, want 1", b.p.noMintWrite.Load(), b.wan(nfs3.ProcWrite))
		}
	})
}

// mintWrites is the number of MINT-WRITEs the bed's proxy client has sent.
func (b *raBed) mintWrites() int64 {
	return b.p.UpstreamCounts()[uint64(InvProgram)<<32|ProcMintWrite]
}

// TestMintWriteWaitsForARemoveOfItsName: `rm f; echo x > f` under write-back.
// The REMOVE of f and the GUARDED CREATE of f are both answered at home, and
// the proxy server's REMOVE is held five round trips at the NFS server's door.
// The new file's write-back must not cross as a MINT-WRITE, whose create
// would run ahead of the REMOVE, find the old f and be refused: it goes as a
// WRITE behind the CREATE, which goes behind the REMOVE, and the COMMIT
// leaves the new bytes on the server.
func TestMintWriteWaitsForARemoveOfItsName(t *testing.T) {
	runChainBedFront(t, simnet.Params{RTT: rmRTT}, Config{WriteBack: true, FlushInterval: time.Hour}, &bedFront{hold: holdRemoves}, rmTree(false), func(b *raBed) {
		d := b.lookupIn(t, b.root, "d")
		b.lookupIn(t, d, "f")
		if _, waited := kernelRemove(t, b.p, 0, d, "f"); waited >= rmRTT/2 {
			t.Fatalf("the REMOVE was not absorbed: the kernel waited %v", waited)
		}
		cr, waited := kernelCreate(t, b.p, 0, guarded(d, "f"))
		if cr.Status != nfs3.OK || waited >= rmRTT/2 {
			t.Fatalf("the CREATE was not absorbed: %v after %v", cr.Status, waited)
		}
		b.writeBlock(t, cr.FH, 0, 0x6e)
		if cm := b.commit(t, cr.FH); cm.Status != nfs3.OK {
			t.Errorf("commit: %v, want OK: the new f's data was lost", cm.Status)
		}
		if !b.onServerAs("d/f", bytes.Repeat([]byte{0x6e}, raBS)) {
			t.Error("the server's d/f does not hold the block written")
		}
		if n := b.mintWrites(); n != 0 {
			t.Errorf("%d MINT-WRITEs crossed ahead of the REMOVE, want 0", n)
		}
	})
}

// TestMintWriteFailureIsOneTry: the proxy server answers a MINT-WRITE
// SYSTEM_ERR when its WRITE across the LAN fails. That is one failed try, not
// an upstream that serves no MINT-WRITE: the file's write-back goes again as
// a WRITE behind its CREATE, and the next file's crosses as a MINT-WRITE.
func TestMintWriteFailureIsOneTry(t *testing.T) {
	lost := false
	front := &bedFront{fail: func(proc uint32) bool {
		if proc == nfs3.ProcWrite && !lost {
			lost = true
			return true
		}
		return false
	}}
	runChainBedFront(t, simnet.Params{RTT: rmRTT}, Config{WriteBack: true, FlushInterval: time.Hour}, front, rmTree(false), func(b *raBed) {
		d := b.lookupIn(t, b.root, "d")
		for i, name := range []string{"n", "m"} {
			provenAbsent(t, b, d, name)
			cr, waited := kernelCreate(t, b.p, 0, guarded(d, name))
			if cr.Status != nfs3.OK || waited >= rmRTT/2 {
				t.Fatalf("the CREATE of %s was not absorbed: %v after %v", name, cr.Status, waited)
			}
			fill := byte(0x6e + i)
			b.writeBlock(t, cr.FH, 0, fill)
			if cm := b.commit(t, cr.FH); cm.Status != nfs3.OK {
				t.Errorf("commit %s: %v", name, cm.Status)
			}
			if !b.onServerAs("d/"+name, bytes.Repeat([]byte{fill}, raBS)) {
				t.Errorf("the server's d/%s does not hold the block written", name)
			}
		}
		if !lost {
			t.Fatal("no WRITE reached the NFS server to be lost")
		}
		if b.p.noMintWrite.Load() || b.mintWrites() != 2 || b.wan(nfs3.ProcWrite) != 1 {
			t.Errorf("MINT-WRITE remembered unserved: %v; MINT-WRITEs %d, WRITEs %d, want 2 and 1",
				b.p.noMintWrite.Load(), b.mintWrites(), b.wan(nfs3.ProcWrite))
		}
	})
}

// TestLostNamespaceReplyProvesNothing: a forwarded call that makes or moves a
// name, whose reply is lost after the server ran it, leaves the name unknown
// to the session. The walk of the directory no longer proves the name
// absent, so the kernel's retry, an UNCHECKED create of the name, is
// forwarded to find what the first call made, rather than answered at home
// and refused.
func TestLostNamespaceReplyProvesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		proc uint32
		call func(b *raBed, d, f nfs3.FH) error
	}{
		{"CREATE EXCLUSIVE", nfs3.ProcCreate, func(b *raBed, d, _ nfs3.FH) error {
			_, err := b.nc.Create(d, "n", 0o644, nfs3.CreateExclusive)
			return err
		}},
		{"MKDIR", nfs3.ProcMkdir, func(b *raBed, d, _ nfs3.FH) error {
			_, err := b.nc.Mkdir(d, "n", 0o755)
			return err
		}},
		{"SYMLINK", nfs3.ProcSymlink, func(b *raBed, d, _ nfs3.FH) error {
			_, err := b.nc.Symlink(d, "n", "f")
			return err
		}},
		{"LINK", nfs3.ProcLink, func(b *raBed, d, f nfs3.FH) error {
			_, err := b.nc.Link(f, d, "n")
			return err
		}},
		{"RENAME", nfs3.ProcRename, func(b *raBed, d, _ nfs3.FH) error {
			_, err := b.nc.Rename(d, "h", d, "n")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lost := false
			front := &bedFront{fail: func(proc uint32) bool {
				if proc == tc.proc && !lost {
					lost = true
					return true
				}
				return false
			}}
			runRemoveBed(t, Config{WriteBack: true}, false, front, func(b *raBed, d nfs3.FH) {
				f := b.lookupIn(t, d, "f")
				walked(b, d)
				if err := tc.call(b, d, f); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if !lost || !b.onServerPath("d/n") {
					t.Fatalf("%s did not run with its reply lost", tc.name)
				}
				if _, waited := kernelCreate(t, b.p, 0, nfs3.CreateArgs{Where: nfs3.DirOpArgs{Dir: d, Name: "n"}, Mode: nfs3.CreateUnchecked}); waited < rmRTT/2 {
					t.Errorf("the retry was answered at home after %v: the lost %s left n proven absent", waited, tc.name)
				}
			})
		})
	}
}

// TestMintTableFollowsLiveFiles: a minted file's translation lives as long
// as the session's record of the file. Files created and removed at home
// leave nothing behind once their REMOVEs land; a file that lives on keeps
// one entry, and the boundary's count with it.
func TestMintTableFollowsLiveFiles(t *testing.T) {
	const churn = 50
	runRemoveBed(t, Config{WriteBack: true}, false, nil, func(b *raBed, d nfs3.FH) {
		walked(b, d)
		for i := 0; i <= churn; i++ {
			name := "t" + string(rune('A'+i%26)) + string(rune('a'+i/26))
			if cr, waited := kernelCreate(t, b.p, 0, guarded(d, name)); cr.Status != nfs3.OK || waited >= rmRTT/2 {
				t.Fatalf("create %s: %v after %v, want it answered at home", name, cr.Status, waited)
			}
			if i == churn {
				break // it lives on
			}
			if _, waited := kernelRemove(t, b.p, 0, d, name); waited >= rmRTT/2 {
				t.Fatalf("the REMOVE of %s was not absorbed: the kernel waited %v", name, waited)
			}
		}
		b.clk.Sleep(4 * rmRTT)
		b.p.cache.mu.Lock()
		minted, pending := len(b.p.cache.mints.byP), len(b.p.cache.pending)
		b.p.cache.mu.Unlock()
		if minted != 1 || pending != 0 || b.p.cache.held.Load() != 1 {
			t.Errorf("after %d files created and removed and one kept: %d minted, %d pending, held %d; want 1, 0, 1",
				churn, minted, pending, b.p.cache.held.Load())
		}
	})
}
