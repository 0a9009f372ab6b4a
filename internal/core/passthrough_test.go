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

// TestServeCallSymlinkAndPassthrough drives the procedures the proxy client
// has no cache of its own for through ServeCall, against a real NFS server:
// SYMLINK, whose name the cache answers afterwards without crossing; and
// READLINK, FSSTAT and FSINFO, passed through, whose replies are the server's
// own bytes, as a direct call to the server gets them.
func TestServeCallSymlinkAndPassthrough(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{RTT: 2 * time.Millisecond})
	nfsd := sunrpc.NewServer(clk)
	nfsserver.New(memfs.New(clk.Now), serverVerf).Register(nfsd)
	l, err := net.Host("server").Listen(":2049")
	if err != nil {
		t.Fatal(err)
	}
	defer nfsd.Close()
	nfsd.Serve(l)

	done := make(chan struct{})
	clk.Go("driver", func() {
		defer close(done)
		dial := func(cred sunrpc.Cred) *sunrpc.Client {
			c, err := net.Host("client").Dial("server:2049")
			if err != nil {
				t.Error(err)
				return nil
			}
			return sunrpc.NewClient(clk, c, cred)
		}
		// The proxy client straight over the NFS server: pass-through
		// operation, no proxy server and so no trailers.
		p := NewProxyClient(clk, Config{Model: ModelPolling, PollPeriod: time.Hour}, dial(sunrpc.NoneCred()), SessionCred{SessionKey: "s", ClientID: "C1"})
		defer p.Stop()
		direct := dial(sunrpc.SysCred("kernel", 0, 0))
		defer direct.Close()
		root, err := nfscall.New(direct).Mount("/export")
		if err != nil {
			t.Error(err)
			return
		}
		serve := func(proc uint32, args wireEnc) []byte {
			e := xdr.NewEncoder()
			args.Encode(e)
			call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: proc, Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}
			if st := p.ServeCall(call); st != sunrpc.Success {
				t.Errorf("%s: %v", nfs3.ProcName(proc), st)
			}
			return call.Reply.Bytes()
		}
		forwards := func() int64 { return p.met.forwards.Value() }

		var link nfs3.FH
		for _, tc := range []struct {
			proc  uint32
			args  func() wireEnc
			check func(reply []byte) bool
		}{
			{nfs3.ProcSymlink, func() wireEnc {
				return &nfs3.SymlinkArgs{Where: nfs3.DirOpArgs{Dir: root, Name: "ln"}, Path: "target/of/ln"}
			}, func(reply []byte) bool {
				var res nfs3.CreateRes
				if err := res.Decode(xdr.NewDecoder(reply)); err != nil || res.Status != nfs3.OK || !res.FHFollows {
					t.Errorf("SYMLINK: %v %v", res.Status, err)
					return false
				}
				link = res.FH
				// The name is a dentry hit now: the LOOKUP is answered here.
				before, hits := forwards(), p.met.dentryHits.Value()
				var lk nfs3.LookupRes
				if err := lk.Decode(xdr.NewDecoder(serve(nfs3.ProcLookup, &nfs3.DirOpArgs{Dir: root, Name: "ln"}))); err != nil || lk.Status != nfs3.OK {
					t.Errorf("LOOKUP ln: %v %v", lk.Status, err)
					return false
				}
				if lk.FH != link || lk.Attr.Attr.Type != nfs3.TypeLnk {
					t.Errorf("LOOKUP ln = %v (type %v), want the symlink %v", lk.FH, lk.Attr.Attr.Type, link)
				}
				if n := forwards() - before; n != 0 || p.met.dentryHits.Value() != hits+1 {
					t.Errorf("LOOKUP after SYMLINK crossed %d times, %d dentry hits; want a dentry hit", n, p.met.dentryHits.Value()-hits)
				}
				return true
			}},
			{nfs3.ProcReadlink, func() wireEnc { return &nfs3.GetattrArgs{FH: link} }, nil},
			{nfs3.ProcFsstat, func() wireEnc { return &nfs3.GetattrArgs{FH: root} }, nil},
			{nfs3.ProcFsinfo, func() wireEnc { return &nfs3.GetattrArgs{FH: root} }, nil},
		} {
			name := nfs3.ProcName(tc.proc)
			args := tc.args()
			before := forwards()
			reply := serve(tc.proc, args)
			if n := forwards() - before; n != 1 {
				t.Errorf("%s: %d forwards, want 1", name, n)
			}
			if tc.check != nil {
				if !tc.check(reply) {
					return // nothing to pass through without the link
				}
				continue
			}
			// A passthrough: the bytes a direct call gets from the server.
			e := xdr.NewEncoder()
			args.Encode(e)
			d, err := direct.Call(nfs3.Program, nfs3.Version, tc.proc, e.Bytes())
			if err != nil {
				t.Errorf("%s direct: %v", name, err)
				continue
			}
			if want := d.Rest(); !bytes.Equal(reply, want) {
				t.Errorf("%s: reply %x, want the server's %x", name, reply, want)
			}
			if st, _ := xdr.NewDecoder(reply).Uint32(); nfs3.Status(st) != nfs3.OK {
				t.Errorf("%s: status %v", name, nfs3.Status(st))
			}
		}
	})
	<-done
}
