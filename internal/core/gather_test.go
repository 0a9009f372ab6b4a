package core

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfsserver"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// The WRITE path sends data by reference: the tests below hand each relay a
// connection that gathers (readRecorder) and look at what it was given as
// the tail of the call message.

// writes returns the WRITEs c has seen, in wire order.
func (c *readRecorder) writes() []wireCall {
	var out []wireCall
	for _, call := range c.sentCalls() {
		if call.proc == nfs3.ProcWrite {
			out = append(out, call)
		}
	}
	return out
}

// TestRelayedWriteAliasesCallFrame: the proxy server relays a WRITE's
// arguments to the NFS server out of the frame the call arrived in. Its
// connection is handed that frame's bytes as the call's tail, not a copy in a
// message of its own, and the data lands.
func TestRelayedWriteAliasesCallFrame(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{RTT: time.Millisecond})
	fs := memfs.New(clk.Now)
	id, err := fs.WriteFile("f", nil)
	if err != nil {
		t.Fatal(err)
	}
	nfsd := sunrpc.NewServer(clk)
	nfsserver.New(fs, serverVerf).Register(nfsd)
	defer nfsd.Close()
	data := bytes.Repeat([]byte("relayed "), 8<<10)
	done := make(chan struct{})
	clk.Go("driver", func() {
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
		up := &readRecorder{Conn: conn, now: clk.Now}
		s := NewProxyServer(clk, Config{}, sunrpc.NewClient(clk, up, sunrpc.SysCred("proxyd", 0, 0)), nil, &MemStateStore{})
		defer s.Stop()

		e := xdr.NewEncoder()
		(&nfs3.WriteArgs{FH: nfs3.MakeFH(serverVerf, uint64(id)), Count: uint32(len(data)), Stable: nfs3.FileSync, Data: data}).Encode(e)
		frame := e.Bytes()
		cred := SessionCred{SessionKey: "s", ClientID: "C1"}
		call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcWrite,
			Cred: cred.Encode(), Args: xdr.NewDecoder(frame), Reply: xdr.NewEncoder()}
		var res nfs3.WriteRes
		if st := s.dispatchNFS(call); st != sunrpc.Success || res.Decode(xdr.NewDecoder(call.Reply.Bytes())) != nil || res.Status != nfs3.OK {
			t.Errorf("relayed WRITE: %v, status %v", st, res.Status)
			return
		}
		w := up.writes()
		if len(w) != 1 {
			t.Errorf("%d WRITEs went upstream, want 1", len(w))
			return
		}
		if unsafe.SliceData(w[0].tail) != unsafe.SliceData(frame) || len(w[0].tail) != len(frame) {
			t.Errorf("the relayed arguments (%d bytes) are not the call's frame (%d bytes): they were copied", len(w[0].tail), len(frame))
		}
	})
	<-done
	got := make([]byte, len(data)+1)
	if n, _, err := fs.ReadAt(id, got, 0); err != nil || !bytes.Equal(got[:n], data) {
		t.Errorf("the server holds %d bytes (%v), want the %d relayed", n, err, len(data))
	}
}

// TestWriteForwardRelaysKernelData: a WRITE the proxy client forwards goes
// upstream with its data as the tail, out of the kernel's call frame.
func TestWriteForwardRelaysKernelData(t *testing.T) {
	data := bytes.Repeat([]byte("forwarded "), 3<<10+2) // a multiple of four
	runRABed(t, Config{}, func(fs *memfs.FS) {
		if _, err := fs.WriteFile("f", nil); err != nil {
			t.Fatal(err)
		}
	}, func(b *raBed) {
		lk, err := b.nc.Lookup(b.root, "f")
		if err != nil || lk.Status != nfs3.OK {
			t.Errorf("lookup: %v %v", err, lk.Status)
			return
		}
		args := nfs3.WriteArgs{FH: lk.FH, Count: uint32(len(data)), Stable: nfs3.FileSync, Data: data}
		head := xdr.NewEncoder()
		args.EncodeHead(head)
		e := xdr.NewEncoder()
		args.Encode(e)
		frame := e.Bytes()
		call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcWrite, Args: xdr.NewDecoder(frame), Reply: xdr.NewEncoder()}
		if st := b.p.ServeCall(call); st != sunrpc.Success {
			t.Errorf("WRITE: %v", st)
			return
		}
		w := b.up.writes()
		if len(w) != 1 {
			t.Errorf("%d WRITEs went upstream, want 1", len(w))
			return
		}
		if unsafe.SliceData(w[0].tail) != &frame[head.Len()] || len(w[0].tail) != len(data) {
			t.Error("the forwarded data is not the kernel's, where its frame holds it: it was copied")
		}
		if !b.onServerAs("f", data) {
			t.Error("the server does not hold the forwarded data")
		}
	})
}

// TestFlushSendsTheStagedRun: a coalesced write-back WRITE goes upstream with
// the run takeDirtyRun staged as its tail — a buffer of the run's exact size,
// whole, not a window on an encoding of the call — so the snapshot taken
// under the cache lock is the only copy the proxy client makes of the data.
func TestFlushSendsTheStagedRun(t *testing.T) {
	commitBed(t, writeBackCfg, nil, func(b *raBed, fh nfs3.FH) {
		for bn := uint64(0); bn < 2; bn++ {
			b.writeBlock(t, fh, bn, 0xC3)
		}
		b.commit(t, fh)
		w := b.up.writes()
		if len(w) != 1 {
			t.Errorf("%d WRITEs went upstream, want one coalesced", len(w))
			return
		}
		// Only the slice header is looked at: the buffer is back in the pool.
		if tail := w[0].tail; len(tail) != 2*raBS || cap(tail) != len(tail) {
			t.Errorf("the WRITE's data went as a tail of %d bytes in %d, want the 2-block staging buffer itself", len(tail), cap(tail))
		}
		if !b.onServer(2, 0xC3) {
			t.Error("the server does not hold the flushed blocks")
		}
	})
}

// TestRedialResendsTheTail: the connection dies with a flush's WRITE
// half-written — none of it reaches the server — and the proxy client redials
// and sends the call again: the same staged run, by reference, which lands
// once. Under -race a run given back to the pool before that second send
// would be poisoned, and the server's copy would show it.
func TestRedialResendsTheTail(t *testing.T) {
	commitBed(t, writeBackCfg, nil, func(b *raBed, fh nfs3.FH) {
		var again *readRecorder
		b.p.SetRedial(func() (*sunrpc.Client, error) {
			conn, err := b.net.Host("client").Dial("server:2049")
			if err != nil {
				return nil, err
			}
			again = &readRecorder{Conn: conn, now: b.clk.Now}
			return sunrpc.NewClient(b.clk, again, sunrpc.NoneCred()), nil
		})
		for bn := uint64(0); bn < 2; bn++ {
			b.writeBlock(t, fh, bn, 0xD4)
		}
		b.up.mu.Lock()
		b.up.cut = true
		b.up.mu.Unlock()
		if cm := b.commit(t, fh); cm.Status != nfs3.OK {
			t.Errorf("COMMIT: %v", cm.Status)
		}
		if again == nil {
			t.Error("the proxy client did not redial")
			return
		}
		first, second := b.up.writes(), again.writes()
		if len(first) != 1 || len(second) != 1 {
			t.Errorf("WRITEs: %d on the dead connection, %d on the new one; want one each", len(first), len(second))
			return
		}
		if unsafe.SliceData(first[0].tail) != unsafe.SliceData(second[0].tail) || len(second[0].tail) != 2*raBS {
			t.Error("the WRITE sent again does not carry the staged run by reference")
		}
		if n := b.srv.Counts()[uint64(nfs3.Program)<<32|nfs3.ProcWrite]; n != 1 {
			t.Errorf("the server executed %d WRITEs, want 1", n)
		}
		if !b.onServer(2, 0xD4) {
			t.Error("the server does not hold the flushed blocks")
		}
	})
}
