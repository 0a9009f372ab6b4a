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
	runChainBedOver(t, simnet.Params{RTT: 40 * time.Millisecond}, cfg, func(*memfs.FS) {}, fn)
}

// runChainBedOver is runChainBed over a link of the caller's choosing, with
// the NFS server's files populated first.
func runChainBedOver(t *testing.T, link simnet.Params, cfg Config, populate func(fs *memfs.FS), fn func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH)) {
	t.Helper()
	runRecordedChainBed(t, link, cfg, populate, func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH, _ *readRecorder) { fn(p, nc, root) })
}

// runRecordedChainBed is runChainBedOver with what the proxy client sends the
// proxy server noted on the way (readRecorder).
func runRecordedChainBed(t *testing.T, link simnet.Params, cfg Config, populate func(fs *memfs.FS), fn func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH, up *readRecorder)) {
	t.Helper()
	runChainBedFront(t, link, cfg, nil, populate, func(b *raBed) { fn(b.p, b.nc, b.root, b.up) })
}

// runChainBedFront runs fn against the whole chain over link, the proxy
// server reaching the NFS server through front (nil: none) on its own host:
// raBed's helpers drive it, and what the proxy server sends the NFS server
// can be held, rewritten or lost.
func runChainBedFront(t *testing.T, link simnet.Params, cfg Config, front *bedFront, populate func(fs *memfs.FS), fn func(b *raBed)) {
	t.Helper()
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, link)
	fs := memfs.New(clk.Now)
	populate(fs)
	rpcSrv := sunrpc.NewServer(clk)
	nfsserver.New(fs, serverVerf).Register(rpcSrv)
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
		lan := "server:2049"
		if front != nil {
			addr, stop := serveFront(clk, net, *front)
			defer stop()
			lan = addr
		}
		ps := NewProxyServer(clk, cfg, dial(server, lan, sunrpc.SysCred("proxyd", 0, 0)), Dialer(server.Dial), &MemStateStore{})
		defer ps.Stop()
		ps.Serve(listen(server, ":4000"))
		conn, err := client.Dial("server:4000")
		if err != nil {
			t.Error(err)
			return
		}
		up := &readRecorder{Conn: conn, now: clk.Now}
		p := NewProxyClient(clk, cfg, sunrpc.NewClient(clk, up, sunrpc.NoneCred()),
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
		fn(&raBed{clk: clk, net: net, fs: fs, p: p, nc: nc, root: root, up: up, srv: rpcSrv})
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
				if _, _, files, _ := p.cache.stats(); files > 1 {
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

// TestRepliesDoNotBringForgottenHandlesBack: a reply in flight when its handle
// is forgotten finds no record, and must not make one — not through its
// trailer (which under delegation grants a read delegation on the dead
// handle), not through the handle the request was for, not through the block
// a prefetch brings. Two ways a readahead chunk ends up in flight across a
// forget, in both models: the session forgets the file (as its own REMOVE
// does) while the chunk's replies are still on a 100 Mbit/s link; and a
// GETATTR, sent just before the READ that starts the chunk, finds the file
// removed behind the session's back — STALE — and forgets it before the
// READs' STALE replies are in.
func TestRepliesDoNotBringForgottenHandlesBack(t *testing.T) {
	link := simnet.Params{RTT: 40 * time.Millisecond, Bandwidth: 100_000_000 / 8}
	populate := func(fs *memfs.FS) {
		if _, err := fs.WriteFile("f", make([]byte, 16*raBS)); err != nil {
			t.Fatal(err)
		}
	}
	for _, model := range []Model{ModelPolling, ModelDelegation} {
		t.Run(model.String()+"/forgotten under the chunk", func(t *testing.T) {
			runChainBedOver(t, link, Config{Model: model, PollPeriod: time.Hour}, populate, func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH) {
				lk, err := nc.Lookup(root, "f")
				if err != nil || lk.Status != nfs3.OK {
					t.Errorf("lookup: %v %v", err, lk.Status)
					return
				}
				if rd, err := nc.Read(lk.FH, 0, raBS); err != nil || rd.Status != nfs3.OK {
					t.Errorf("read: %v %v", err, rd.Status)
					return
				}
				p.cache.mu.Lock()
				inflight := len(p.cache.files[lk.FH.Key()].fetching)
				p.cache.mu.Unlock()
				p.cache.forget(lk.FH)
				live := p.handleEntries()
				p.clk.Sleep(time.Second)
				if inflight == 0 {
					t.Error("no prefetch was in flight at the forget: the test proves nothing")
				}
				if got := p.handleEntries(); got != live {
					t.Errorf("%d handle records once the chunk (%d READs) landed, %d after the forget", got, inflight, live)
				}
			})
		})
		t.Run(model.String()+"/stale under the chunk", func(t *testing.T) {
			// DisableMetaCache: the GETATTR crosses although the LOOKUP's
			// attributes (which the chunk needs for EOF) are cached.
			cfg := Config{Model: model, PollPeriod: time.Hour, DisableMetaCache: true}
			runChainBedOver(t, link, cfg, populate, func(p *ProxyClient, nc *nfscall.Conn, root nfs3.FH) {
				lk, err := nc.Lookup(root, "f")
				if err != nil || lk.Status != nfs3.OK {
					t.Errorf("lookup: %v %v", err, lk.Status)
					return
				}
				live := p.handleEntries() - 1
				if err := removeBehind(p, root, "f"); err != nil {
					t.Error(err)
					return
				}
				g := p.clk.NewGroup()
				g.Go("getattr", func() {
					if ga, err := nc.Getattr(lk.FH); err != nil || ga.Status != nfs3.ErrStale {
						t.Errorf("getattr of the removed file: %v %v", err, ga.Status)
					}
				})
				g.Go("read", func() {
					p.clk.Sleep(time.Millisecond)
					nc.Read(lk.FH, 0, raBS) // STALE, and blocks 1..4 asked for behind it
				})
				g.Wait()
				p.clk.Sleep(time.Second)
				if got := p.handleEntries(); got != live {
					t.Errorf("%d handle records after the stale file's replies landed, %d without it", got, live)
				}
				if got := p.met.readAheads.Value(); got != 0 {
					t.Errorf("%d blocks of a dead file cached", got)
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
	if _, _, err := p.callUpstream(0, nfs3.ProcRemove, &args, &res); err != nil || res.Status != nfs3.OK {
		return fmt.Errorf("remove behind the proxy: %v %v", err, res.Status)
	}
	return nil
}
