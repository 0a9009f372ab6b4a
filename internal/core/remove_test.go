package core

import (
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// The absorbed REMOVE (proxyclient_remove.go), on a proxy client over a plain
// NFS server across a simulated 40 ms link. A REMOVE the session answers at
// home returns to the kernel in well under a round trip; one it forwards
// takes at least one.

const rmRTT = 40 * time.Millisecond

// rmTree puts d/f and d/h (regular files), d/l (a symbolic link), d/x (a
// file another test reads) and, with links, d/g (a second name of d/f) on the
// server.
func rmTree(links bool) func(fs *memfs.FS) {
	return func(fs *memfs.FS) {
		for _, name := range []string{"d/f", "d/h", "d/x"} {
			if _, err := fs.WriteFile(name, []byte("contents")); err != nil {
				panic(err)
			}
		}
		d, _ := fs.LookupPath("d")
		if _, err := fs.Symlink(d.ID, "l", "f"); err != nil {
			panic(err)
		}
		if links {
			f, _ := fs.LookupPath("d/f")
			if _, err := fs.Link(d.ID, "g", f.ID); err != nil {
				panic(err)
			}
		}
	}
}

// runRemoveBed runs fn over the bed with front in front of the server, once
// the kernel has looked up d and every name fn asks for through the proxy
// (which caches the bindings and their attributes).
func runRemoveBed(t *testing.T, cfg Config, links bool, front *bedFront, fn func(b *raBed, d nfs3.FH)) {
	t.Helper()
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = time.Hour
	}
	runBedOver(t, simnet.Params{RTT: rmRTT}, cfg, front, rmTree(links), func(b *raBed) {
		lk, err := b.nc.Lookup(b.root, "d")
		if err != nil || lk.Status != nfs3.OK {
			t.Errorf("lookup d: %v %v", err, lk.Status)
			return
		}
		fn(b, lk.FH)
	})
}

// lookupIn resolves name under dir through the proxy client.
func (b *raBed) lookupIn(t *testing.T, dir nfs3.FH, name string) nfs3.FH {
	t.Helper()
	lk, err := b.nc.Lookup(dir, name)
	if err != nil || lk.Status != nfs3.OK {
		t.Errorf("lookup %s: %v %v", name, err, lk.Status)
	}
	return lk.FH
}

// kernelRemove serves one kernel REMOVE through the proxy client as uid over
// AUTH_SYS and returns its reply and how long the kernel waited for it.
func kernelRemove(t *testing.T, p *ProxyClient, uid uint32, dir nfs3.FH, name string) (nfs3.WccRes, time.Duration) {
	t.Helper()
	e := xdr.NewEncoder()
	(&nfs3.DirOpArgs{Dir: dir, Name: name}).Encode(e)
	call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcRemove,
		Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder(), Cred: sunrpc.SysCred("kernel", uid, uid)}
	start := p.clk.Now()
	var res nfs3.WccRes
	if st := p.ServeCall(call); st != sunrpc.Success {
		t.Errorf("remove %s: %v", name, st)
	} else if err := res.Decode(xdr.NewDecoder(call.Reply.Bytes())); err != nil {
		t.Errorf("remove %s: %v", name, err)
	}
	return res, p.clk.Now() - start
}

// onServerPath reports whether path names anything on the server.
func (b *raBed) onServerPath(path string) bool {
	_, err := b.fs.LookupPath(path)
	return err == nil
}

// TestRemoveAbsorbGates drives each condition of the absorb rule to fail in
// turn: the REMOVE must then be forwarded, the kernel waiting a round trip
// for it, and with every condition met it must be answered at once. Either
// way the file is gone on the server two round trips later, and exactly one
// REMOVE crossed.
func TestRemoveAbsorbGates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		uid    uint32
		victim string
		links  bool
		prep   func(b *raBed, d, v nfs3.FH)
		absorb bool
	}{
		{name: "every condition holds", absorb: true},
		{name: "no write-back", cfg: Config{WriteBack: false}},
		{name: "no metadata cache", cfg: Config{DisableMetaCache: true}},
		{name: "disk store open", cfg: Config{DiskCacheDir: "tmp"}},
		{name: "directory attributes invalidated", prep: func(b *raBed, d, _ nfs3.FH) { b.p.cache.invalidateHandle(d) }},
		{name: "caller may not delete", uid: 1000},
		{name: "name not cached", prep: func(b *raBed, d, _ nfs3.FH) { b.p.cache.dropLookup(d, "f") }},
		{name: "victim attributes invalidated", prep: func(b *raBed, _, v nfs3.FH) { b.p.cache.invalidateHandle(v) }},
		{name: "victim not a regular file", victim: "l"},
		{name: "victim has a second link", links: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if tc.name != "no write-back" {
				cfg.WriteBack = true
			}
			if cfg.DiskCacheDir != "" {
				cfg.DiskCacheDir = t.TempDir()
			}
			victim := tc.victim
			if victim == "" {
				victim = "f"
			}
			runRemoveBed(t, cfg, tc.links, nil, func(b *raBed, d nfs3.FH) {
				v := b.lookupIn(t, d, victim)
				if tc.prep != nil {
					tc.prep(b, d, v)
				}
				res, waited := kernelRemove(t, b.p, tc.uid, d, victim)
				if res.Status != nfs3.OK {
					t.Fatalf("remove: %v", res.Status)
				}
				if absorbed := waited < rmRTT/2; absorbed != tc.absorb {
					t.Errorf("the kernel waited %v for its REMOVE: absorbed = %v, want %v", waited, absorbed, tc.absorb)
				}
				if tc.absorb && (!res.Wcc.Before.Present || res.Wcc.After.Present) {
					t.Errorf("an absorbed REMOVE's wcc = %+v, want the cached directory attributes before and none after", res.Wcc)
				}
				b.clk.Sleep(2 * rmRTT)
				if b.onServerPath("d/" + victim) {
					t.Error("the file is still on the server two round trips later")
				}
				if n := b.wan(nfs3.ProcRemove); n != 1 {
					t.Errorf("%d REMOVEs crossed, want 1", n)
				}
			})
		})
	}
}

// TestRemoveForwardedUnderDelegation: under delegation with write-back, even
// with read delegations on the directory and the file (a proxy server grants
// them to the LOOKUPs), the REMOVE crosses before the kernel has its answer:
// the strong model's callbacks order a namespace change, and only the server
// can make them.
func TestRemoveForwardedUnderDelegation(t *testing.T) {
	cfg := Config{Model: ModelDelegation, WriteBack: true, FlushInterval: time.Hour}
	runChainBedOver(t, simnet.Params{RTT: rmRTT}, cfg, rmTree(false), func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH) {
		lk, err := nc.Lookup(root, "d")
		if err != nil || lk.Status != nfs3.OK {
			t.Fatalf("lookup d: %v %v", err, lk.Status)
		}
		d := lk.FH
		for range 2 { // the second is answered under the grants the first took
			if lk, err := nc.Lookup(d, "f"); err != nil || lk.Status != nfs3.OK {
				t.Fatalf("lookup f: %v %v", err, lk.Status)
			}
		}
		if _, _, ok := p.cache.lookupHit(d, "f"); !ok {
			t.Fatal("the session cannot answer a LOOKUP of d/f at home: nothing here for a REMOVE to be absorbed against")
		}
		if res, waited := kernelRemove(t, p, 0, d, "f"); res.Status != nfs3.OK || waited < rmRTT/2 {
			t.Errorf("REMOVE under delegation: %v after %v, want OK after a round trip", res.Status, waited)
		}
	})
}

// TestRemoveBehindKeepsItsPlace: proxyd runs a connection's calls on a pool
// of workers, so a call sent right behind the absorbed REMOVE could run before
// it. Here the server's side holds each REMOVE back five round trips, and the
// kernel creates the name again right after its REMOVE returns, exclusively, so
// that the CREATE is forwarded rather than answered at home: it must wait for
// the REMOVE's reply, succeed, and leave the new file on the server. A
// REMOVE of another name in the directory, and a READ of another file, do not
// wait: each is on the wire while the first REMOVE is still held.
func TestRemoveBehindKeepsItsPlace(t *testing.T) {
	front := &bedFront{hold: holdRemoves}
	runRemoveBed(t, Config{WriteBack: true}, false, front, func(b *raBed, d nfs3.FH) {
		b.lookupIn(t, d, "f")
		b.lookupIn(t, d, "h")
		x := b.lookupIn(t, d, "x")
		if _, waited := kernelRemove(t, b.p, 0, d, "f"); waited >= rmRTT/2 {
			t.Fatalf("the REMOVE was not absorbed: the kernel waited %v", waited)
		}
		if _, waited := kernelRemove(t, b.p, 0, d, "h"); waited >= rmRTT/2 {
			t.Errorf("a REMOVE of another name waited %v for the first", waited)
		}
		if rd, err := b.nc.Read(x, 0, raBS); err != nil || rd.Status != nfs3.OK {
			t.Errorf("read x: %v %v", err, rd.Status)
		}
		cr, err := b.nc.Create(d, "f", 0o644, nfs3.CreateExclusive)
		if err != nil || cr.Status != nfs3.OK {
			t.Errorf("create f again behind its REMOVE: %v %v (run ahead of the REMOVE, it finds the old file)", err, cr.Status)
		}
		b.clk.Sleep(2 * rmRTT)
		if !b.onServerPath("d/f") {
			t.Error("the new d/f is gone: the REMOVE ran after the CREATE that followed it")
		}
		var rmReplied []time.Duration
		var readReplied time.Duration
		for _, c := range b.up.sentCalls() {
			switch c.proc {
			case nfs3.ProcRemove:
				rmReplied = append(rmReplied, c.replied)
			case nfs3.ProcRead:
				readReplied = c.replied
			}
		}
		if len(rmReplied) != 2 {
			t.Fatalf("%d REMOVEs crossed, want 2", len(rmReplied))
		}
		if rmReplied[1] > rmReplied[0]+rmRTT/2 {
			t.Errorf("the second REMOVE's reply came %v after the first's: it waited for it", rmReplied[1]-rmReplied[0])
		}
		if readReplied > rmReplied[0] {
			t.Errorf("the READ of another file was answered at %v, after the held REMOVE (%v): it waited for it", readReplied, rmReplied[0])
		}
	})
}

// TestRmdirWaitsForTheRemovesInside: rm -r removes a directory's last file
// and then the directory. The file's REMOVE is absorbed and held back at the
// server; the RMDIR names the directory only by its entry in the parent, so
// it waits for every pending REMOVE, and succeeds.
func TestRmdirWaitsForTheRemovesInside(t *testing.T) {
	tree := func(fs *memfs.FS) {
		if _, err := fs.WriteFile("d/s/f", []byte("x")); err != nil {
			panic(err)
		}
	}
	runBedOver(t, simnet.Params{RTT: rmRTT}, Config{WriteBack: true, FlushInterval: time.Hour}, &bedFront{hold: holdRemoves}, tree, func(b *raBed) {
		d := b.lookupIn(t, b.root, "d")
		sub := b.lookupIn(t, d, "s")
		b.lookupIn(t, sub, "f")
		if _, waited := kernelRemove(t, b.p, 0, sub, "f"); waited >= rmRTT/2 {
			t.Fatalf("the REMOVE was not absorbed: the kernel waited %v", waited)
		}
		if res, err := b.nc.Rmdir(d, "s"); err != nil || res.Status != nfs3.OK {
			t.Errorf("rmdir behind the REMOVE of its last file: %v %v (run ahead of the REMOVE, it finds the directory not empty)", err, res.Status)
		}
		if b.onServerPath("d/s") {
			t.Error("the directory is still on the server")
		}
	})
}

// holdRemoves keeps every REMOVE back five round trips before the server
// runs it.
func holdRemoves(proc uint32) time.Duration {
	if proc == nfs3.ProcRemove {
		return 5 * rmRTT
	}
	return 0
}

// TestRemoveRefusedForgetsTheDirectory: a server that refuses an absorbed
// REMOVE (here NFS3ERR_ACCES) proves the session's view of the directory
// wrong. The refusal is counted and marks the REMOVE's span, every name
// cached under the directory goes with its attributes, and the next LOOKUP
// there crosses.
func TestRemoveRefusedForgetsTheDirectory(t *testing.T) {
	o := obs.New(func() time.Duration { return 0 }, 256)
	front := &bedFront{edit: func(proc uint32, reply []byte) []byte {
		if proc != nfs3.ProcRemove {
			return reply
		}
		e := xdr.NewEncoder()
		(&nfs3.WccRes{Status: nfs3.ErrAcces}).Encode(e)
		return e.Bytes()
	}}
	runRemoveBed(t, Config{WriteBack: true, Obs: o}, false, front, func(b *raBed, d nfs3.FH) {
		b.lookupIn(t, d, "f")
		b.lookupIn(t, d, "h")
		if res, waited := kernelRemove(t, b.p, 0, d, "f"); res.Status != nfs3.OK || waited >= rmRTT/2 {
			t.Fatalf("the REMOVE was not absorbed: %v after %v", res.Status, waited)
		}
		b.clk.Sleep(2 * rmRTT)
		if n := b.p.met.removeRefused.Value(); n != 1 {
			t.Errorf("gvfs_client_remove_refused_total = %d, want 1", n)
		}
		if _, ok := b.p.cache.getAttr(d); ok {
			t.Error("the directory's attributes survived the refusal")
		}
		lookups := b.wan(nfs3.ProcLookup)
		b.lookupIn(t, d, "h")
		if b.wan(nfs3.ProcLookup) == lookups {
			t.Error("a LOOKUP under the directory was answered from names cached before the refusal")
		}
	})
	marked := false
	for _, sp := range o.Spans() {
		marked = marked || sp.Op == "REMOVE behind" && sp.Err == nfs3.ErrAcces.String()
	}
	if !marked {
		t.Error("no REMOVE span is marked with the refusal")
	}
}

// TestRemoveNoEntIsBenign: an absorbed REMOVE the server answers NOENT (the
// name went some other way meanwhile) is not a refusal: the directory's
// post-op attributes and the negative entry are installed, and a LOOKUP of
// the name is answered at home.
func TestRemoveNoEntIsBenign(t *testing.T) {
	front := &bedFront{edit: func(proc uint32, reply []byte) []byte {
		var res nfs3.WccRes
		if proc != nfs3.ProcRemove || res.Decode(xdr.NewDecoder(reply)) != nil {
			return reply
		}
		res.Status = nfs3.ErrNoEnt
		e := xdr.NewEncoder()
		res.Encode(e)
		return e.Bytes()
	}}
	runRemoveBed(t, Config{WriteBack: true}, false, front, func(b *raBed, d nfs3.FH) {
		b.lookupIn(t, d, "f")
		before, _ := b.p.cache.getAttr(d)
		if _, waited := kernelRemove(t, b.p, 0, d, "f"); waited >= rmRTT/2 {
			t.Fatalf("the REMOVE was not absorbed: the kernel waited %v", waited)
		}
		b.clk.Sleep(2 * rmRTT)
		if n := b.p.met.removeRefused.Value(); n != 0 {
			t.Errorf("gvfs_client_remove_refused_total = %d, want 0", n)
		}
		if a, ok := b.p.cache.getAttr(d); !ok || a.Mtime == before.Mtime {
			t.Errorf("the directory's cached attributes %+v (valid %v) are not the reply's post-op ones", a, ok)
		}
		lookups := b.wan(nfs3.ProcLookup)
		if lk, err := b.nc.Lookup(d, "f"); err != nil || lk.Status != nfs3.ErrNoEnt {
			t.Errorf("lookup f: %v %v, want NOENT", err, lk.Status)
		}
		if b.wan(nfs3.ProcLookup) != lookups {
			t.Error("the LOOKUP of the removed name crossed")
		}
	})
}

// TestStopLeavesNoRemovePending: Stop waits for the absorbed REMOVEs still on
// their way, as it writes back dirty data, before it closes the upstream
// connection: the file is gone on the server when Stop returns.
func TestStopLeavesNoRemovePending(t *testing.T) {
	front := &bedFront{hold: holdRemoves}
	runRemoveBed(t, Config{WriteBack: true}, false, front, func(b *raBed, d nfs3.FH) {
		b.lookupIn(t, d, "f")
		if _, waited := kernelRemove(t, b.p, 0, d, "f"); waited >= rmRTT/2 {
			t.Fatalf("the REMOVE was not absorbed: the kernel waited %v", waited)
		}
		b.p.Stop()
		if b.onServerPath("d/f") {
			t.Error("Stop returned with the absorbed REMOVE still pending: the file is on the server")
		}
		if n := b.p.cache.held.Load(); n != 0 {
			t.Errorf("%d REMOVEs pending after Stop", n)
		}
	})
}
