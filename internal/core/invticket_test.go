package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nfs3"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// TestPolledReplyCrossedByInvalidation: under polling, a forwarded GETATTR or
// READ reads the file at mtime 1 on a stub upstream (10 ms RTT), another
// client's WRITE then commits mtime 2 and queues the handle, and the stub
// holds the reply 40 ms while a GETINV sent 8 ms in delivers the handle
// first. The kernel still gets its answer, but the reply installs nothing: a
// polling attribute has no timer, and the session would otherwise serve
// mtime 1 until the file changed again, with no news left to come. Each call
// is tried with the handle's record in place (its own invalidation count)
// and, for a handle the session has never seen, with none (the session's).
func TestPolledReplyCrossedByInvalidation(t *testing.T) {
	const bs = 4096
	for _, tc := range []struct {
		name   string
		proc   uint32
		record bool
	}{
		{"GETATTR", nfs3.ProcGetattr, true},
		{"READ", nfs3.ProcRead, true},
		{"GETATTR of a handle without a record", nfs3.ProcGetattr, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fh := fhN(7)
			clk := vclock.NewVirtual()
			defer clk.Stop()
			net := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
			var mtime atomic.Uint32
			mtime.Store(1)
			var queued, hold atomic.Bool
			srv := sunrpc.NewServer(clk)
			defer srv.Close()
			srv.Register(nfs3.Program, nfs3.Version, func(call *sunrpc.Call) sunrpc.AcceptStat {
				attr := nfs3.Fattr{Type: nfs3.TypeReg, Size: bs, Nlink: 1, Mtime: nfs3.Time{Sec: mtime.Load()}}
				if hold.Swap(false) {
					// Read; then another client's WRITE commits and is
					// queued for the session, and the reply is held.
					mtime.Store(2)
					queued.Store(true)
					clk.Sleep(40 * time.Millisecond)
				}
				switch call.Proc {
				case nfs3.ProcGetattr:
					(&nfs3.GetattrRes{Status: nfs3.OK, Attr: attr}).Encode(call.Reply)
				case nfs3.ProcRead:
					(&nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: attr}, Count: bs, EOF: true, Data: make([]byte, bs)}).Encode(call.Reply)
				default:
					return sunrpc.ProcUnavail
				}
				return sunrpc.Success
			})
			srv.Register(InvProgram, InvVersion, func(call *sunrpc.Call) sunrpc.AcceptStat {
				var args GetInvArgs
				if args.Decode(call.Args) != nil {
					return sunrpc.GarbageArgs
				}
				res := GetInvRes{Timestamp: args.Timestamp + 1}
				if queued.Swap(false) {
					res.Handles = []nfs3.FH{fh}
				}
				res.Encode(call.Reply)
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
				srv.Serve(l)
				conn, err := net.Host("client").Dial("server:4000")
				if err != nil {
					t.Error(err)
					return
				}
				p := NewProxyClient(clk, Config{BlockSize: bs, ReadAhead: -1}, sunrpc.NewClient(clk, conn, sunrpc.NoneCred()), SessionCred{SessionKey: "s", ClientID: "A"})
				defer p.Stop()
				serve := func(proc uint32) uint32 {
					e := xdr.NewEncoder()
					if proc == nfs3.ProcRead {
						(&nfs3.ReadArgs{FH: fh, Count: bs}).Encode(e)
					} else {
						(&nfs3.GetattrArgs{FH: fh}).Encode(e)
					}
					call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: proc, Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}
					if st := p.ServeCall(call); st != sunrpc.Success {
						t.Errorf("proc %d: %v", proc, st)
						return 0
					}
					d := xdr.NewDecoder(call.Reply.Bytes())
					if proc == nfs3.ProcRead {
						var res nfs3.ReadRes
						if res.Decode(d) != nil || res.Status != nfs3.OK {
							t.Errorf("read: %v", res.Status)
						}
						return res.Attr.Attr.Mtime.Sec
					}
					var res nfs3.GetattrRes
					if res.Decode(d) != nil || res.Status != nfs3.OK {
						t.Errorf("getattr: %v", res.Status)
					}
					return res.Attr.Mtime.Sec
				}
				poll := func() {
					if _, err := p.pollOnce(nil); err != nil {
						t.Errorf("poll: %v", err)
					}
				}
				if tc.record {
					// The session has the file, and a GETINV has since taken
					// its attributes: the next call is forwarded.
					serve(tc.proc)
					queued.Store(true)
					poll()
				}
				hold.Store(true)
				g := clk.NewGroup()
				g.Go("held call", func() {
					if got := serve(tc.proc); got != 1 {
						t.Errorf("the held reply answered mtime %d, want the 1 it read", got)
					}
				})
				clk.Sleep(8 * time.Millisecond)
				poll()
				g.Wait()
				if h, ok := p.cache.attrHit(fh); ok {
					t.Errorf("the session serves mtime %d, installed by a reply the GETINV overtook, while the server holds 2", h.attr.Mtime.Sec)
				}
				poll() // nothing more is coming
				if got := serve(nfs3.ProcGetattr); got != 2 {
					t.Errorf("GETATTR after the news answered mtime %d, want 2", got)
				}
			})
			<-done
		})
	}
}

// TestPolledAccessAndReaddirCrossedByInvalidation is the test above for the
// other forwarded replies that install under polling: an ACCESS's (the
// file's attributes), a READDIR's (the directory's, and its listing), a
// SETATTR's and a forwarded WRITE's (the file's), a CREATE's and a MKDIR's
// (the directory's, the new object's and its name), a REMOVE's (the
// directory's, and the name's absence), a RENAME's (both directories') and a
// LINK's (the file's, the directory's and the new name), and the GETATTR
// behind a refused write-back (unwrittenSince). The stub reads the handle at
// mtime 1, another client's change then commits mtime 2 and queues the
// handle the call is about (the directory, for a call about a name in it),
// and a GETINV 8 ms in delivers it ahead of the held reply: the kernel gets
// its answer, and the session installs nothing of it, no name included.
func TestPolledAccessAndReaddirCrossedByInvalidation(t *testing.T) {
	dir, file, child, dir2 := fhN(7), fhN(8), fhN(9), fhN(10)
	for _, tc := range []struct {
		name   string
		proc   uint32
		args   wireEnc
		target nfs3.FH // the handle the GETINV names
		// entry, when the reply binds or unbinds a name, is it, under target
		entry string
		// writeBack: the call is the GETATTR unwrittenSince sends for a file
		// with buffered writes
		writeBack bool
	}{
		{name: "ACCESS", proc: nfs3.ProcAccess, args: &nfs3.AccessArgs{FH: dir, Access: nfs3.AccessRead}, target: dir},
		{name: "READDIR", proc: nfs3.ProcReaddir, args: &nfs3.ReaddirArgs{Dir: dir, Count: 4096}, target: dir},
		{name: "SETATTR", proc: nfs3.ProcSetattr, args: &nfs3.SetattrArgs{FH: file}, target: file},
		{name: "WRITE", proc: nfs3.ProcWrite, args: &nfs3.WriteArgs{FH: file, Count: 4, Stable: nfs3.FileSync, Data: []byte("abcd")}, target: file},
		{name: "CREATE", proc: nfs3.ProcCreate, args: &nfs3.CreateArgs{Where: nfs3.DirOpArgs{Dir: dir, Name: "n"}, Mode: nfs3.CreateExclusive, Verf: 1}, target: dir, entry: "n"},
		{name: "MKDIR", proc: nfs3.ProcMkdir, args: &nfs3.MkdirArgs{Where: nfs3.DirOpArgs{Dir: dir, Name: "n"}}, target: dir, entry: "n"},
		{name: "REMOVE", proc: nfs3.ProcRemove, args: &nfs3.DirOpArgs{Dir: dir, Name: "n"}, target: dir, entry: "n"},
		{name: "RENAME", proc: nfs3.ProcRename, args: &nfs3.RenameArgs{From: nfs3.DirOpArgs{Dir: dir, Name: "n"}, To: nfs3.DirOpArgs{Dir: dir2, Name: "m"}}, target: dir},
		{name: "LINK", proc: nfs3.ProcLink, args: &nfs3.LinkArgs{FH: file, Link: nfs3.DirOpArgs{Dir: dir, Name: "n"}}, target: dir, entry: "n"},
		{name: "GETATTR behind a refused write-back", proc: nfs3.ProcGetattr, args: &nfs3.GetattrArgs{FH: file}, target: file, writeBack: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewVirtual()
			defer clk.Stop()
			net := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
			var mtime atomic.Uint32
			mtime.Store(1)
			var queued, hold atomic.Bool
			srv := sunrpc.NewServer(clk)
			defer srv.Close()
			srv.Register(nfs3.Program, nfs3.Version, func(call *sunrpc.Call) sunrpc.AcceptStat {
				post := func(fh nfs3.FH) nfs3.PostOpAttr {
					attr := nfs3.Fattr{Type: nfs3.TypeReg, Mode: 0o644, Nlink: 1, Mtime: nfs3.Time{Sec: mtime.Load()}}
					if fh.Equal(dir) || fh.Equal(dir2) {
						attr.Type, attr.Mode, attr.Nlink = nfs3.TypeDir, 0o755, 2
					}
					return nfs3.PostOpAttr{Present: true, Attr: attr}
				}
				wcc := func(fh nfs3.FH) nfs3.WccData { return nfs3.WccData{After: post(fh)} }
				var res wireEnc
				switch fh := tc.target; call.Proc {
				case nfs3.ProcGetattr:
					var args nfs3.GetattrArgs
					if args.Decode(call.Args) != nil {
						return sunrpc.GarbageArgs
					}
					fh = args.FH
					res = &nfs3.GetattrRes{Status: nfs3.OK, Attr: post(fh).Attr}
				case nfs3.ProcAccess:
					res = &nfs3.AccessRes{Status: nfs3.OK, Attr: post(fh), Access: nfs3.AccessRead}
				case nfs3.ProcReaddir:
					res = &nfs3.ReaddirRes{Status: nfs3.OK, DirAttr: post(fh), CookieVerf: 1,
						Entries: []nfs3.DirEntry{{FileID: 9, Name: "x", Cookie: 1}}, EOF: true}
				case nfs3.ProcSetattr, nfs3.ProcRemove:
					res = &nfs3.WccRes{Status: nfs3.OK, Wcc: wcc(fh)}
				case nfs3.ProcWrite:
					res = &nfs3.WriteRes{Status: nfs3.OK, Wcc: wcc(file), Count: 4, Committed: nfs3.FileSync, Verf: 1}
				case nfs3.ProcCreate, nfs3.ProcMkdir:
					kind := file
					if call.Proc == nfs3.ProcMkdir {
						kind = dir2
					}
					res = &nfs3.CreateRes{Status: nfs3.OK, FHFollows: true, FH: child, Attr: nfs3.PostOpAttr{Present: true, Attr: post(kind).Attr}, DirWcc: wcc(fh)}
				case nfs3.ProcRename:
					res = &nfs3.RenameRes{Status: nfs3.OK, FromWcc: wcc(dir), ToWcc: wcc(dir2)}
				case nfs3.ProcLink:
					res = &nfs3.LinkRes{Status: nfs3.OK, Attr: post(file), LinkWcc: wcc(dir)}
				default:
					return sunrpc.ProcUnavail
				}
				if hold.Swap(false) {
					// Read; then another client's change commits and is
					// queued for the session, and the reply is held.
					mtime.Store(2)
					queued.Store(true)
					clk.Sleep(40 * time.Millisecond)
				}
				res.Encode(call.Reply)
				return sunrpc.Success
			})
			srv.Register(InvProgram, InvVersion, func(call *sunrpc.Call) sunrpc.AcceptStat {
				var args GetInvArgs
				if args.Decode(call.Args) != nil {
					return sunrpc.GarbageArgs
				}
				res := GetInvRes{Timestamp: args.Timestamp + 1}
				if queued.Swap(false) {
					res.Handles = []nfs3.FH{tc.target}
				}
				res.Encode(call.Reply)
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
				srv.Serve(l)
				conn, err := net.Host("client").Dial("server:4000")
				if err != nil {
					t.Error(err)
					return
				}
				cfg := Config{ReadAhead: -1, BlockSize: 4096}
				if tc.writeBack {
					cfg.WriteBack, cfg.FlushInterval = true, time.Hour
				}
				p := NewProxyClient(clk, cfg, sunrpc.NewClient(clk, conn, sunrpc.NoneCred()), SessionCred{SessionKey: "s", ClientID: "A"})
				defer p.Stop()
				// serve returns the mtime of the target's attributes in the
				// reply (0: it carried none).
				serve := func(proc uint32, args wireEnc) uint32 {
					e := xdr.NewEncoder()
					args.Encode(e)
					call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: proc, Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}
					if st := p.ServeCall(call); st != sunrpc.Success {
						t.Errorf("%s: %v", nfs3.ProcName(proc), st)
						return 0
					}
					var (
						res    wireDec
						status *nfs3.Status
						post   func() nfs3.PostOpAttr
					)
					switch proc {
					case nfs3.ProcGetattr:
						r := new(nfs3.GetattrRes)
						res, status, post = r, &r.Status, func() nfs3.PostOpAttr { return nfs3.PostOpAttr{Present: true, Attr: r.Attr} }
					case nfs3.ProcAccess:
						r := new(nfs3.AccessRes)
						res, status, post = r, &r.Status, func() nfs3.PostOpAttr { return r.Attr }
					case nfs3.ProcReaddir:
						r := new(nfs3.ReaddirRes)
						res, status, post = r, &r.Status, func() nfs3.PostOpAttr { return r.DirAttr }
					case nfs3.ProcSetattr, nfs3.ProcRemove:
						r := new(nfs3.WccRes)
						res, status, post = r, &r.Status, func() nfs3.PostOpAttr { return r.Wcc.After }
					case nfs3.ProcWrite:
						r := new(nfs3.WriteRes)
						res, status, post = r, &r.Status, func() nfs3.PostOpAttr { return r.Wcc.After }
					case nfs3.ProcCreate, nfs3.ProcMkdir:
						r := new(nfs3.CreateRes)
						res, status, post = r, &r.Status, func() nfs3.PostOpAttr { return r.DirWcc.After }
					case nfs3.ProcRename:
						r := new(nfs3.RenameRes)
						res, status, post = r, &r.Status, func() nfs3.PostOpAttr { return r.FromWcc.After }
					case nfs3.ProcLink:
						r := new(nfs3.LinkRes)
						res, status, post = r, &r.Status, func() nfs3.PostOpAttr { return r.LinkWcc.After }
					}
					if err := res.Decode(xdr.NewDecoder(call.Reply.Bytes())); err != nil || *status != nfs3.OK {
						t.Errorf("%s: %v %v", nfs3.ProcName(proc), *status, err)
						return 0
					}
					if a := post(); a.Present {
						return a.Attr.Mtime.Sec
					}
					return 0
				}
				call := func() {
					if tc.writeBack {
						// The attributes it saw are the ones the buffered
						// writes were made against.
						if !p.unwrittenSince(0, file) {
							t.Error("unwrittenSince saw a change, want the mtime 1 it read")
						}
					} else if got := serve(tc.proc, tc.args); got != 1 {
						t.Errorf("the held reply answered mtime %d, want the 1 it read", got)
					}
				}
				poll := func() {
					if _, err := p.pollOnce(nil); err != nil {
						t.Errorf("poll: %v", err)
					}
				}
				// The session has the target, and a GETINV has since taken its
				// attributes: a call about it is forwarded. A file with
				// buffered writes keeps them.
				serve(nfs3.ProcGetattr, &nfs3.GetattrArgs{FH: tc.target})
				if tc.writeBack {
					serve(nfs3.ProcWrite, &nfs3.WriteArgs{FH: file, Count: 4, Data: []byte("wxyz")})
				}
				queued.Store(true)
				poll()
				hold.Store(true)
				g := clk.NewGroup()
				g.Go("held call", call)
				clk.Sleep(8 * time.Millisecond)
				poll()
				g.Wait()
				for _, fh := range []nfs3.FH{tc.target, child, dir2} {
					if h, ok := p.cache.attrHit(fh); ok {
						t.Errorf("the session serves mtime %d for %v, installed by a reply the GETINV overtook, while the server holds 2", h.attr.Mtime.Sec, fh)
					}
				}
				if _, _, ok := p.cache.listingHit(tc.target); ok {
					t.Error("the session serves a listing a reply the GETINV overtook installed")
				}
				if tc.entry != "" {
					p.cache.mu.Lock()
					ent := p.cache.files[tc.target.Key()].names[tc.entry]
					p.cache.mu.Unlock()
					if ent != nil {
						t.Errorf("the reply the GETINV overtook bound %q (negative %v)", tc.entry, ent.negative)
					}
				}
				poll() // nothing more is coming
				if got := serve(nfs3.ProcGetattr, &nfs3.GetattrArgs{FH: tc.target}); got != 2 {
					t.Errorf("GETATTR after the news answered mtime %d, want 2", got)
				}
			})
			<-done
		})
	}
}

// TestReplyAcrossForgetInstallsNothing: a reply about a handle the session
// forgot while it was out — its own REMOVE landed, or another call found the
// handle STALE — finds a record that is not the one its ticket took, and
// installs nothing in it, under either model: the session would otherwise
// serve the dead handle's attributes (or blocks, or listing) as if it lived.
func TestReplyAcrossForgetInstallsNothing(t *testing.T) {
	fh := fhN(7)
	a := attrWithMtime(1, nfs3.TypeReg)
	for _, land := range []struct {
		name string
		do   func(sc *sessionCache, tk ticket)
	}{
		{"GETATTR", func(sc *sessionCache, tk ticket) { sc.landAttr(tk, nil, fh, a) }},
		{"READ", func(sc *sessionCache, tk ticket) { sc.landReply(tk, nil, fh, a, true, 0, make([]byte, opsBS)) }},
		{"WRITE", func(sc *sessionCache, tk ticket) {
			sc.updateAfterWrite(tk, nil, fh, 0, opsBS, nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: a}})
		}},
		{"READDIR", func(sc *sessionCache, tk ticket) { sc.landListing(tk, nil, fh, a, true, nil) }},
	} {
		for _, model := range []Model{ModelPolling, ModelDelegation} {
			sc := newSessionCache(opsBS, 1<<20)
			sc.setPolicy(nil, cachePolicy{model: model}, cacheCounters{})
			sc.putAttr(fh, a)
			tk := sc.ticket(fh)
			sc.forget(fh)
			land.do(sc, tk)
			if _, ok := sc.getAttr(fh); ok {
				t.Errorf("%s under %v: a reply sent before the handle was forgotten installed its attributes", land.name, model)
			}
			if _, ok := sc.getBlock(fh, 0); ok {
				t.Errorf("%s under %v: a reply sent before the handle was forgotten installed a block", land.name, model)
			}
		}
	}
	// A seed about a directory the session had no record of when it went out
	// would make the record: a forget while it was out (of the directory, or
	// of the directory whose listing a LOOKUP's reply carried) refuses it, and
	// the session is left with no record of the directory and no name in it.
	dir, sub := fhN(8), fhN(9)
	dirAttr := attrWithMtime(1, nfs3.TypeDir)
	for _, seed := range []struct {
		name  string
		dir   nfs3.FH // the directory the seed's names would be bound under
		known bool    // the session had a record of the call's own directory
		do    func(sc *sessionCache, tk ticket)
	}{
		{"READDIRPLUS", dir, false, func(sc *sessionCache, tk ticket) { sc.seedDir(tk, pageOf([]string{"x"}, 0, 1, true)) }},
		{"LOOKUP", dir, false, func(sc *sessionCache, tk ticket) {
			sc.seedLookup(tk, "x", &nfs3.LookupRes{Status: nfs3.ErrNoEnt, DirAttr: nfs3.PostOpAttr{Present: true, Attr: dirAttr}}, nil)
		}},
		{"LOOKUP's listing", sub, true, func(sc *sessionCache, tk ticket) {
			sc.seedLookup(tk, "d", &nfs3.LookupRes{Status: nfs3.OK, FH: sub, Attr: nfs3.PostOpAttr{Present: true, Attr: dirAttr}}, pageOf([]string{"x"}, 0, 1, true))
		}},
	} {
		for _, model := range []Model{ModelPolling, ModelDelegation} {
			sc := newSessionCache(opsBS, 1<<20)
			sc.setPolicy(nil, cachePolicy{model: model}, cacheCounters{})
			if seed.known {
				sc.putAttr(dir, dirAttr)
			}
			tk := sc.ticket(dir)
			sc.forget(seed.dir)
			seed.do(sc, tk)
			sc.mu.Lock()
			fc := sc.files[seed.dir.Key()]
			sc.mu.Unlock()
			if fc != nil && (len(fc.names) > 0 || fc.walk.done || seed.dir.Equal(dir)) {
				t.Errorf("%s under %v: a seed sent before the directory was forgotten left a record of it (%d names, walk done %v)", seed.name, model, len(fc.names), fc.walk.done)
			}
		}
	}
}
