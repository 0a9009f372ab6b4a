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
// two other forwarded replies that install attributes under polling: an
// ACCESS's (the file's) and a READDIR's (the directory's, and its listing).
// The stub reads the handle at mtime 1, another client's change then commits
// mtime 2 and queues it, and a GETINV 8 ms in delivers it ahead of the held
// reply: the kernel gets its answer, and the session installs nothing of it.
func TestPolledAccessAndReaddirCrossedByInvalidation(t *testing.T) {
	for _, proc := range []uint32{nfs3.ProcAccess, nfs3.ProcReaddir} {
		t.Run(nfs3.ProcName(proc), func(t *testing.T) {
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
				attr := nfs3.Fattr{Type: nfs3.TypeDir, Mode: 0o755, Nlink: 2, Mtime: nfs3.Time{Sec: mtime.Load()}}
				if hold.Swap(false) {
					mtime.Store(2)
					queued.Store(true)
					clk.Sleep(40 * time.Millisecond)
				}
				post := nfs3.PostOpAttr{Present: true, Attr: attr}
				switch call.Proc {
				case nfs3.ProcGetattr:
					(&nfs3.GetattrRes{Status: nfs3.OK, Attr: attr}).Encode(call.Reply)
				case nfs3.ProcAccess:
					(&nfs3.AccessRes{Status: nfs3.OK, Attr: post, Access: nfs3.AccessRead}).Encode(call.Reply)
				case nfs3.ProcReaddir:
					(&nfs3.ReaddirRes{Status: nfs3.OK, DirAttr: post, CookieVerf: 1,
						Entries: []nfs3.DirEntry{{FileID: 9, Name: "x", Cookie: 1}}, EOF: true}).Encode(call.Reply)
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
				p := NewProxyClient(clk, Config{ReadAhead: -1}, sunrpc.NewClient(clk, conn, sunrpc.NoneCred()), SessionCred{SessionKey: "s", ClientID: "A"})
				defer p.Stop()
				serve := func(proc uint32) uint32 {
					e := xdr.NewEncoder()
					switch proc {
					case nfs3.ProcAccess:
						(&nfs3.AccessArgs{FH: fh, Access: nfs3.AccessRead}).Encode(e)
					case nfs3.ProcReaddir:
						(&nfs3.ReaddirArgs{Dir: fh, Count: 4096}).Encode(e)
					default:
						(&nfs3.GetattrArgs{FH: fh}).Encode(e)
					}
					call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: proc, Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}
					if st := p.ServeCall(call); st != sunrpc.Success {
						t.Errorf("proc %d: %v", proc, st)
						return 0
					}
					d := xdr.NewDecoder(call.Reply.Bytes())
					switch proc {
					case nfs3.ProcAccess:
						var res nfs3.AccessRes
						if res.Decode(d) != nil || res.Status != nfs3.OK {
							t.Errorf("access: %v", res.Status)
						}
						return res.Attr.Attr.Mtime.Sec
					case nfs3.ProcReaddir:
						var res nfs3.ReaddirRes
						if res.Decode(d) != nil || res.Status != nfs3.OK {
							t.Errorf("readdir: %v", res.Status)
						}
						return res.DirAttr.Attr.Mtime.Sec
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
				// The session has the handle, and a GETINV has since taken
				// its attributes (and listing): the next call is forwarded.
				serve(proc)
				queued.Store(true)
				poll()
				hold.Store(true)
				g := clk.NewGroup()
				g.Go("held call", func() {
					if got := serve(proc); got != 1 {
						t.Errorf("the held reply answered mtime %d, want the 1 it read", got)
					}
				})
				clk.Sleep(8 * time.Millisecond)
				poll()
				g.Wait()
				if h, ok := p.cache.attrHit(fh); ok {
					t.Errorf("the session serves mtime %d, installed by a reply the GETINV overtook, while the server holds 2", h.attr.Mtime.Sec)
				}
				if _, _, ok := p.cache.listingHit(fh); ok {
					t.Error("the session serves a listing a reply the GETINV overtook installed")
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
