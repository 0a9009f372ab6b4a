package core

import (
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfsserver"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// TestUntracedDispatchLeavesSpanFH: the proxy server formats a call's file
// handle for its serve span only when a tracer will record the span
// (sunrpc.Call.Traced), as the proxy client does: an untraced READ or GETATTR
// leaves SpanFH empty, a traced one names the handle.
func TestUntracedDispatchLeavesSpanFH(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{RTT: time.Millisecond})
	fs := memfs.New(clk.Now)
	id, err := fs.WriteFile("f", make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	nfsd := sunrpc.NewServer(clk)
	nfsserver.New(fs, serverVerf).Register(nfsd)
	defer nfsd.Close()
	fh := nfs3.MakeFH(serverVerf, uint64(id))
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
		s := NewProxyServer(clk, Config{}, sunrpc.NewClient(clk, conn, sunrpc.SysCred("proxyd", 0, 0)), nil, &MemStateStore{})
		defer s.Stop()
		cred := SessionCred{SessionKey: "s", ClientID: "C1"}
		for _, tc := range []struct {
			proc uint32
			args interface{ Encode(*xdr.Encoder) }
		}{
			{nfs3.ProcRead, &nfs3.ReadArgs{FH: fh, Count: 4096}},
			{nfs3.ProcGetattr, &nfs3.GetattrArgs{FH: fh}},
		} {
			for _, traced := range []bool{false, true} {
				e := xdr.NewEncoder()
				tc.args.Encode(e)
				call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: tc.proc,
					Cred: cred.Encode(), Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder(), Traced: traced}
				if st := s.dispatchNFS(call); st != sunrpc.Success {
					t.Errorf("proc %d: %v", tc.proc, st)
					continue
				}
				want := ""
				if traced {
					want = fh.String()
				}
				if call.SpanFH != want {
					t.Errorf("proc %d, traced %v: SpanFH %q, want %q", tc.proc, traced, call.SpanFH, want)
				}
			}
		}
	})
	<-done
}
