package core

import (
	"fmt"
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
)

// runChainBed runs fn as a virtual-time actor against the whole chain — raw
// NFS connection -> proxy client -> 40 ms link -> proxy server -> NFS server
// — so the proxy client sees the trailers (and, under delegation, the grants)
// a real session's replies carry.
func runChainBed(t *testing.T, cfg Config, fn func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH)) {
	t.Helper()
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{RTT: 40 * time.Millisecond})
	rpcSrv := sunrpc.NewServer(clk)
	nfsserver.New(memfs.New(clk.Now), serverVerf).Register(rpcSrv)
	server, client := net.Host("server"), net.Host("client")
	listen := func(h *simnet.Host, addr string) transport.Listener {
		l, err := h.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	defer rpcSrv.Close()
	rpcSrv.Serve(listen(server, ":2049"))

	done := make(chan struct{})
	clk.Go("driver", func() {
		defer close(done)
		dial := func(h *simnet.Host, addr string, cred sunrpc.Cred) *sunrpc.Client {
			c, err := h.Dial(addr)
			if err != nil {
				t.Error(err)
				return nil
			}
			return sunrpc.NewClient(clk, c, cred)
		}
		ps := NewProxyServer(clk, cfg, dial(server, "server:2049", sunrpc.SysCred("proxyd", 0, 0)), Dialer(server.Dial), &MemStateStore{})
		defer ps.Stop()
		ps.Serve(listen(server, ":4000"))
		p := NewProxyClient(clk, cfg, dial(client, "server:4000", sunrpc.NoneCred()),
			SessionCred{SessionKey: "s", ClientID: "client/s", CallbackAddr: "client:3050"})
		defer p.Stop()
		p.Serve(listen(client, ":3049"), listen(client, ":3050"))
		nc := nfscall.New(dial(client, "client:3049", sunrpc.SysCred("kernel", 0, 0)))
		defer nc.Close()
		root, err := nc.Mount("/export")
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, nc, root)
	})
	<-done
}

// handleEntries counts the session's per-handle records.
func (p *ProxyClient) handleEntries() int {
	p.cache.mu.Lock()
	defer p.cache.mu.Unlock()
	return len(p.cache.files)
}

// TestHandleStateFollowsLiveFiles: per-handle state used to gain an entry for
// every handle a reply ever named and never lose one, so a session that
// creates and removes files grew without bound. A handle's record — cached
// state and protocol state alike — goes when the session removes the handle's
// last name, and when the server calls it stale.
func TestHandleStateFollowsLiveFiles(t *testing.T) {
	const churn = 200
	for _, model := range []Model{ModelPolling, ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			cfg := Config{Model: model, PollPeriod: time.Hour}
			runChainBed(t, cfg, func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH) {
				create := func(name string) (fh nfs3.FH, ok bool) {
					cr, err := nc.Create(root, name, 0o644, nfs3.CreateGuarded)
					if err != nil || cr.Status != nfs3.OK || !cr.FHFollows {
						t.Errorf("create %s: %v %v", name, err, cr.Status)
						return fh, false
					}
					if wr, err := nc.Write(cr.FH, 0, []byte("x"), nfs3.FileSync); err != nil || wr.Status != nfs3.OK {
						t.Errorf("write %s: %v %v", name, err, wr.Status)
						return fh, false
					}
					if rd, err := nc.Read(cr.FH, 0, 1); err != nil || rd.Status != nfs3.OK {
						t.Errorf("read %s: %v %v", name, err, rd.Status)
						return fh, false
					}
					return cr.FH, true
				}
				if _, ok := create("keep"); !ok {
					return
				}
				// live is what the root and one live file cost, measured after
				// the first round so the root has seen a REMOVE reply too.
				live := 0
				for i := 0; i <= churn; i++ {
					name := fmt.Sprintf("t%03d", i)
					if _, ok := create(name); !ok {
						return
					}
					if rm, err := nc.Remove(root, name); err != nil || rm.Status != nfs3.OK {
						t.Errorf("remove %s: %v %v", name, err, rm.Status)
						return
					}
					if i == 0 {
						live = p.handleEntries()
					}
				}
				if got := p.handleEntries(); got > live {
					t.Errorf("%d handle records after %d create/read/remove rounds, %d with the same files live before them", got, churn, live)
				}
				if _, _, files, _ := p.CacheStats(); files > 1 {
					t.Errorf("%d cached file entries, 1 file live", files)
				}

				// A file removed behind the session's back goes when the server
				// says its handle is stale.
				fh, ok := create("gone")
				if !ok {
					return
				}
				if err := removeBehind(p, root, "gone"); err != nil {
					t.Error(err)
					return
				}
				p.cache.invalidateHandle(fh)
				if ga, err := nc.Getattr(fh); err != nil || ga.Status != nfs3.ErrStale {
					t.Errorf("getattr of the removed file: %v %v", err, ga.Status)
				}
				if got := p.handleEntries(); got > live {
					t.Errorf("%d handle records after a stale handle, want at most %d", got, live)
				}
			})
		})
	}
}

// removeBehind removes name as another party would: through the proxy
// client's own upstream connection but past its NFS handlers, so none of its
// bookkeeping hears of it.
func removeBehind(p *ProxyClient, dir nfs3.FH, name string) error {
	args := nfs3.DirOpArgs{Dir: dir, Name: name}
	var res nfs3.WccRes
	if err := p.callUpstream(0, nfs3.ProcRemove, &args, &res); err != nil || res.Status != nfs3.OK {
		return fmt.Errorf("remove behind the proxy: %v %v", err, res.Status)
	}
	return nil
}
