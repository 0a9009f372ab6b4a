package core

import (
	"testing"
	"time"

	"repro/internal/nfs3"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// TestOvertakenReplyInstallsNothing runs a proxy client under delegation with
// write-back over a fake proxy server through the explorer's trace: A's two
// READs are granted read at seq 1 and 2, the reply to the second arrives,
// another client's WRITE recalls A at seq 3, and then the reply to the first
// arrives, with attributes read before that WRITE. Its grant is older than
// the recall, so nothing it says of the file is installed: A's record must
// not absorb a WRITE against its attributes, and the kernel's next WRITE
// crosses.
func TestOvertakenReplyInstallsNothing(t *testing.T) {
	const bs = opsBS
	fh := fhN(7)
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{RTT: 2 * time.Millisecond})
	writes := 0
	fake := sunrpc.NewServer(clk)
	defer fake.Close()
	fake.Register(nfs3.Program, nfs3.Version, func(call *sunrpc.Call) sunrpc.AcceptStat {
		before := nfs3.Fattr{Type: nfs3.TypeReg, Size: 2 * bs, Mtime: nfs3.Time{Sec: 1}}
		switch call.Proc {
		case nfs3.ProcRead:
			var args nfs3.ReadArgs
			if args.Decode(call.Args) != nil {
				return sunrpc.GarbageArgs
			}
			seq := uint64(2)
			if args.Offset == 0 {
				seq = 1
				clk.Sleep(30 * time.Millisecond) // overtaken by the second READ's reply, and the recall
			}
			(&nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: before}, Count: bs, Data: make([]byte, bs)}).Encode(call.Reply)
			Trailers{{Deleg: DelegRead, FH: fh, Seq: seq}}.Encode(call.Reply)
		case nfs3.ProcWrite:
			writes++
			after := nfs3.Fattr{Type: nfs3.TypeReg, Size: 2 * bs, Mtime: nfs3.Time{Sec: 3}}
			(&nfs3.WriteRes{Status: nfs3.OK, Wcc: nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: after}}, Count: bs, Committed: nfs3.FileSync}).Encode(call.Reply)
			Trailers{{Deleg: DelegNone, FH: fh, Seq: 4}}.Encode(call.Reply)
		default:
			return sunrpc.ProcUnavail
		}
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
		cfg := Config{Model: ModelDelegation, WriteBack: true, ReadAhead: -1, BlockSize: bs, FlushInterval: time.Hour}
		p := NewProxyClient(clk, cfg, sunrpc.NewClient(clk, conn, sunrpc.NoneCred()), SessionCred{SessionKey: "s", ClientID: "A"})
		defer p.Stop()
		serve := func(proc uint32, args wireEnc) {
			e := xdr.NewEncoder()
			args.Encode(e)
			call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: proc, Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}
			if st := p.ServeCall(call); st != sunrpc.Success {
				t.Errorf("proc %d: %v", proc, st)
			}
		}
		g := clk.NewGroup()
		g.Go("READ 1", func() { serve(nfs3.ProcRead, &nfs3.ReadArgs{FH: fh, Offset: 0, Count: bs}) })
		clk.Sleep(time.Millisecond)
		g.Go("READ 2", func() { serve(nfs3.ProcRead, &nfs3.ReadArgs{FH: fh, Offset: bs, Count: bs}) })
		clk.Sleep(10 * time.Millisecond) // the second READ's reply is in
		e := xdr.NewEncoder()
		(&RecallArgs{FH: fh, Deleg: DelegRead, Seq: 3, HasOffset: true, Offset: 0}).Encode(e)
		if st := p.handleRecall(&sunrpc.Call{Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}); st != sunrpc.Success {
			t.Errorf("recall: %v", st)
		}
		g.Wait()
		if a, ok := p.cache.absorbable(fh); ok {
			t.Errorf("A's record absorbs a WRITE against attributes %+v from before the recall", a)
		}
		serve(nfs3.ProcWrite, &nfs3.WriteArgs{FH: fh, Offset: 0, Count: bs, Stable: nfs3.Unstable, Data: make([]byte, bs)})
		if writes != 1 {
			t.Errorf("%d WRITEs crossed, want the kernel's: it was absorbed against attributes from before the recall", writes)
		}
	})
	<-done
}

// TestOvertakenSetattrAndCreateInstallNothing: under delegation a SETATTR's
// reply (on the file) and a CREATE's (on its directory) decided at seq 1 are
// held 30 ms, and a recall of that handle at seq 2, for another client's
// change, is served meanwhile. The reply still answers the kernel, but the
// attributes it carries were read before the change the recall announced:
// the session must hold none of them.
func TestOvertakenSetattrAndCreateInstallNothing(t *testing.T) {
	file, dir, made := fhN(7), fhN(8), fhN(9)
	old := nfs3.Fattr{Type: nfs3.TypeReg, Size: 10, Nlink: 1, Mtime: nfs3.Time{Sec: 1}}
	for _, tc := range []struct {
		name   string
		proc   uint32
		args   wireEnc
		target nfs3.FH
		held   bool // the session has a record of the target when the call goes out
	}{
		{"SETATTR", nfs3.ProcSetattr, &nfs3.SetattrArgs{FH: file}, file, false},
		{"SETATTR of a held file", nfs3.ProcSetattr, &nfs3.SetattrArgs{FH: file}, file, true},
		{"CREATE", nfs3.ProcCreate, &nfs3.CreateArgs{Where: nfs3.DirOpArgs{Dir: dir, Name: "n"}, Mode: nfs3.CreateGuarded}, dir, false},
		{"CREATE in a held directory", nfs3.ProcCreate, &nfs3.CreateArgs{Where: nfs3.DirOpArgs{Dir: dir, Name: "n"}, Mode: nfs3.CreateGuarded}, dir, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewVirtual()
			defer clk.Stop()
			net := simnet.New(clk, simnet.Params{RTT: 2 * time.Millisecond})
			fake := sunrpc.NewServer(clk)
			defer fake.Close()
			fake.Register(nfs3.Program, nfs3.Version, func(call *sunrpc.Call) sunrpc.AcceptStat {
				clk.Sleep(30 * time.Millisecond) // overtaken by the recall
				switch call.Proc {
				case nfs3.ProcSetattr:
					(&nfs3.WccRes{Status: nfs3.OK, Wcc: nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: old}}}).Encode(call.Reply)
					Trailers{{Deleg: DelegRead, FH: file, Seq: 1}}.Encode(call.Reply)
				case nfs3.ProcCreate:
					dirAttr := old
					dirAttr.Type = nfs3.TypeDir
					(&nfs3.CreateRes{Status: nfs3.OK, FHFollows: true, FH: made, Attr: nfs3.PostOpAttr{Present: true, Attr: old},
						DirWcc: nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: dirAttr}}}).Encode(call.Reply)
					Trailers{{Deleg: DelegRead, FH: dir, Seq: 1}}.Encode(call.Reply)
				default:
					return sunrpc.ProcUnavail
				}
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
				cfg := Config{Model: ModelDelegation, WriteBack: true, ReadAhead: -1, FlushInterval: time.Hour}
				p := NewProxyClient(clk, cfg, sunrpc.NewClient(clk, conn, sunrpc.NoneCred()), SessionCred{SessionKey: "s", ClientID: "A"})
				defer p.Stop()
				if tc.held {
					p.cache.putAttr(tc.target, old)
				}
				g := clk.NewGroup()
				g.Go(tc.name, func() {
					e := xdr.NewEncoder()
					tc.args.Encode(e)
					call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: tc.proc, Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}
					if st := p.ServeCall(call); st != sunrpc.Success {
						t.Errorf("%s: %v", tc.name, st)
					}
				})
				clk.Sleep(10 * time.Millisecond)
				e := xdr.NewEncoder()
				(&RecallArgs{FH: tc.target, Deleg: DelegRead, Seq: 2}).Encode(e)
				if st := p.handleRecall(&sunrpc.Call{Args: xdr.NewDecoder(e.Bytes()), Reply: xdr.NewEncoder()}); st != sunrpc.Success {
					t.Errorf("recall: %v", st)
				}
				g.Wait()
				if a, ok := p.cache.getAttr(tc.target); ok {
					t.Errorf("the session holds attributes %+v the %s reply read before the recall's change", a, tc.name)
				}
			})
			<-done
		})
	}
}
