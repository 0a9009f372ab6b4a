package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsserver"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// replyLoser loses the next reply it is told to and keeps a copy of every
// frame that arrives, lost or not, so a test can hold a retransmission's
// reply against the original's.
type replyLoser struct {
	transport.Conn
	mu     sync.Mutex
	lose   int
	frames [][]byte
}

func (c *replyLoser) Recv() ([]byte, error) {
	for {
		b, err := c.Conn.Recv()
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.frames = append(c.frames, append([]byte(nil), b...))
		lose := c.lose > 0
		if lose {
			c.lose--
		}
		c.mu.Unlock()
		if !lose {
			return b, nil
		}
	}
}

// loseNext arms the loss of one reply and forgets the frames seen so far.
func (c *replyLoser) loseNext() {
	c.mu.Lock()
	c.lose, c.frames = 1, nil
	c.mu.Unlock()
}

func (c *replyLoser) seen() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames
}

// TestDuplicatesAtEveryHop loses the reply of one call of each kind at each
// of the three servers — the NFS server, the proxy server, the proxy client's
// kernel-facing and callback services — so that the caller retransmits it
// after the original has completed. A procedure with an effect must not take
// it twice: its handler runs once and the retransmission gets the first
// reply back, byte for byte. A read-only procedure is simply executed again,
// and answers the same.
func TestDuplicatesAtEveryHop(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	fs := memfs.New(clk.Now)
	block := bytes.Repeat([]byte("0123456789abcdef"), 2048) // one 32 KiB block
	for _, name := range []string{"nfsd", "proxyd", "proxyc"} {
		if _, err := fs.WriteFile(name+"/victim", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteFile(name+"/data", block); err != nil {
			t.Fatal(err)
		}
	}
	nfsd := sunrpc.NewServer(clk)
	nfsserver.New(fs, serverVerf).Register(nfsd)
	defer nfsd.Close()

	done := make(chan struct{})
	clk.Go("driver", func() {
		defer close(done)
		fail := func(err error) bool {
			if err != nil {
				t.Error(err)
			}
			return err != nil
		}
		server, client := net.Host("server"), net.Host("client")
		l, err := server.Listen(":2049")
		if fail(err) {
			return
		}
		nfsd.Serve(l)

		cfg := Config{Model: ModelDelegation}
		up, err := server.Dial("server:2049")
		if fail(err) {
			return
		}
		proxyd := NewProxyServer(clk, cfg, sunrpc.NewClient(clk, up, sunrpc.SysCred("proxyd", 0, 0)),
			func(addr string) (transport.Conn, error) { return server.Dial(addr) }, &MemStateStore{})
		defer proxyd.Stop()
		pl, err := server.Listen(":2050")
		if fail(err) {
			return
		}
		proxyd.Serve(pl)

		cred := SessionCred{SessionKey: "s", ClientID: "replay-test", CallbackAddr: "client:5007"}
		wan, err := client.Dial("server:2050")
		if fail(err) {
			return
		}
		proxyc := NewProxyClient(clk, cfg, sunrpc.NewClient(clk, wan, sunrpc.NoneCred()), cred)
		defer proxyc.Stop()
		kl, err := client.Listen(":3049")
		if fail(err) {
			return
		}
		cbl, err := client.Listen(":5007")
		if fail(err) {
			return
		}
		proxyc.Serve(kl, cbl)

		// dial opens a connection that can lose replies, with a client that
		// retransmits after 50 ms.
		dial := func(from *simnet.Host, addr string, cred sunrpc.Cred) (*replyLoser, *sunrpc.Client, bool) {
			c, err := from.Dial(addr)
			if fail(err) {
				return nil, nil, false
			}
			lc := &replyLoser{Conn: c}
			rpc := sunrpc.NewClient(clk, lc, cred)
			rpc.SetRetransmit(sunrpc.RetransmitPolicy{Initial: 50 * time.Millisecond})
			return lc, rpc, true
		}
		// check runs op with its reply lost, then holds the two replies that
		// came back against each other and the handler count against want.
		check := func(name string, lc *replyLoser, counts func() map[uint64]int64, prog, proc uint32, want int64, op func() error) {
			key := uint64(prog)<<32 | uint64(proc)
			before := counts()[key]
			lc.loseNext()
			if err := op(); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			clk.Sleep(500 * time.Millisecond) // let stragglers land
			if got := counts()[key] - before; got != want {
				t.Errorf("%s: handler ran %d times, want %d", name, got, want)
			}
			frames := lc.seen()
			if len(frames) != 2 {
				t.Errorf("%s: %d replies came back, want the lost one and its retransmission's", name, len(frames))
				return
			}
			if want == 1 && !bytes.Equal(frames[0], frames[1]) {
				t.Errorf("%s: the replayed reply differs from the original", name)
			}
		}

		// The same NFS calls at each of the three NFS services.
		hops := []struct {
			name   string
			from   *simnet.Host
			addr   string
			cred   sunrpc.Cred
			counts func() map[uint64]int64
		}{
			{"nfsd", server, "server:2049", sunrpc.SysCred("t", 0, 0), nfsd.Counts},
			{"proxyd", client, "server:2050", cred.Encode(), proxyd.srv.Counts},
			{"proxyc", client, "client:3049", sunrpc.SysCred("kernel", 0, 0), proxyc.srv.Counts},
		}
		for _, h := range hops {
			lc, rpc, ok := dial(h.from, h.addr, h.cred)
			if !ok {
				return
			}
			nc := nfscall.New(rpc)
			nc.Timeout = 5 * time.Second
			root, err := nc.Mount("/export")
			if fail(err) {
				return
			}
			dirRes, err := nc.Lookup(root, h.name)
			if fail(err) {
				return
			}
			dir := dirRes.FH
			dataRes, err := nc.Lookup(dir, "data")
			if fail(err) {
				return
			}
			data := dataRes.FH
			nfs := func(proc uint32, want int64, op func() error) {
				check(h.name+" "+RPCName(nfs3.Program, proc), lc, h.counts, nfs3.Program, proc, want, op)
			}

			nfs(nfs3.ProcCreate, 1, func() error {
				res, err := nc.Create(dir, "new", 0o644, nfs3.CreateGuarded)
				if err == nil && res.Status != nfs3.OK {
					t.Errorf("%s: retransmitted CREATE answered %v", h.name, res.Status)
				}
				return err
			})
			nfs(nfs3.ProcRemove, 1, func() error {
				res, err := nc.Remove(dir, "victim")
				if err == nil && res.Status != nfs3.OK {
					t.Errorf("%s: retransmitted REMOVE answered %v, not the first reply", h.name, res.Status)
				}
				return err
			})
			nfs(nfs3.ProcWrite, 1, func() error {
				_, err := nc.Write(data, 0, block[:16], nfs3.FileSync)
				return err
			})
			nfs(nfs3.ProcSetattr, 1, func() error {
				mode := uint32(0o600)
				_, err := nc.Setattr(data, nfs3.Sattr{Mode: &mode})
				return err
			})
			nfs(nfs3.ProcCommit, 1, func() error {
				_, err := nc.Commit(data, 0, 0)
				return err
			})
			// Read-only: executed again, same answer.
			nfs(nfs3.ProcRead, 2, func() error {
				res, err := nc.Read(data, 0, uint32(len(block)))
				if err == nil && !bytes.Equal(res.Data, block) {
					t.Errorf("%s: re-executed READ returned other data", h.name)
				}
				return err
			})
			nfs(nfs3.ProcGetattr, 2, func() error {
				res, err := nc.Getattr(data)
				if err == nil && (res.Status != nfs3.OK || res.Attr.Size != uint64(len(block))) {
					t.Errorf("%s: re-executed GETATTR answered %v size %d", h.name, res.Status, res.Attr.Size)
				}
				return err
			})
			nfs(nfs3.ProcLookup, 2, func() error {
				res, err := nc.Lookup(dir, "data")
				if err == nil && !res.FH.Equal(data) {
					t.Errorf("%s: re-executed LOOKUP answered another handle", h.name)
				}
				return err
			})
			nc.Close()
		}

		// GETINV drains a queue at the proxy server.
		lc, rpc, ok := dial(client, "server:2050", cred.Encode())
		if !ok {
			return
		}
		e := xdr.NewEncoder()
		(&GetInvArgs{MaxHandles: 64}).Encode(e)
		check("proxyd GETINV", lc, proxyd.srv.Counts, InvProgram, ProcGetInv, 1, func() error {
			_, err := rpc.CallTimeout(InvProgram, InvVersion, ProcGetInv, e.Bytes(), 5*time.Second)
			return err
		})
		rpc.Close()

		// RECALL and RECALL_ALL flush and fence at the proxy client.
		lc, rpc, ok = dial(server, "client:5007", sunrpc.NoneCred())
		if !ok {
			return
		}
		e = xdr.NewEncoder()
		(&RecallArgs{FH: fhN(77), Deleg: DelegRead, Seq: 1}).Encode(e)
		check("proxyc RECALL", lc, proxyc.cbSrv.Counts, CallbackProgram, ProcRecall, 1, func() error {
			_, err := rpc.CallTimeout(CallbackProgram, CallbackVersion, ProcRecall, e.Bytes(), 5*time.Second)
			return err
		})
		check("proxyc RECALL_ALL", lc, proxyc.cbSrv.Counts, CallbackProgram, ProcRecallAll, 1, func() error {
			_, err := rpc.CallTimeout(CallbackProgram, CallbackVersion, ProcRecallAll, nil, 5*time.Second)
			return err
		})
		rpc.Close()
	})
	<-done
}
