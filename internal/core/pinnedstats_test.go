package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsserver"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
)

// pairBed is a proxy server with proxy clients on their own hosts behind a
// 10 ms link, every node on one registry.
type pairBed struct {
	t   *testing.T
	clk *vclock.Clock
	net *simnet.Net
	cfg Config
	o   *obs.Obs
	ps  *ProxyServer

	mounts []pairMount // closed by stop
}

// runPairBed runs fn as a virtual-time actor against a pair bed whose NFS
// server exports the file p/f holding content.
func runPairBed(t *testing.T, cfg Config, content []byte, fn func(b *pairBed)) {
	t.Helper()
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	fs := memfs.New(clk.Now)
	if _, err := fs.WriteFile("p/f", content); err != nil {
		t.Fatal(err)
	}
	nfsd := sunrpc.NewServer(clk)
	nfsserver.New(fs, serverVerf).Register(nfsd)
	defer nfsd.Close()
	cfg.Obs = obs.New(clk.Now, 1024)
	server := net.Host("server")
	l, err := server.Listen(":2049")
	if err != nil {
		t.Fatal(err)
	}
	nfsd.Serve(l)

	done := make(chan struct{})
	clk.Go("driver", func() {
		defer close(done)
		up, err := server.Dial("server:2049")
		if err != nil {
			t.Error(err)
			return
		}
		ps := NewProxyServer(clk, cfg, sunrpc.NewClient(clk, up, sunrpc.SysCred("proxyd", 0, 0)), server.Dial, &MemStateStore{})
		defer ps.Stop()
		pl, err := server.Listen(":2050")
		if err != nil {
			t.Error(err)
			return
		}
		ps.Serve(pl)
		b := &pairBed{t: t, clk: clk, net: net, cfg: cfg, o: cfg.Obs, ps: ps}
		defer b.stop()
		fn(b)
	})
	<-done
}

// pairMount is one proxy client of a pair bed, its kernel connection, and
// the handles of p and p/f.
type pairMount struct {
	p       *ProxyClient
	nc      *nfscall.Conn
	dir, fh nfs3.FH
}

// mount starts a proxy client named host on its own host, mounts through it
// and looks up p and p/f. It returns false, having failed the test, if any
// step fails.
func (b *pairBed) mount(host string) (pairMount, bool) {
	t, clk := b.t, b.clk
	h := b.net.Host(host)
	fail := func(err error) bool {
		if err != nil {
			t.Errorf("%s: %v", host, err)
		}
		return err != nil
	}
	wan, err := h.Dial("server:2050")
	if fail(err) {
		return pairMount{}, false
	}
	m := pairMount{p: NewProxyClient(clk, b.cfg, sunrpc.NewClient(clk, wan, sunrpc.NoneCred()),
		SessionCred{SessionKey: "s", ClientID: host, CallbackAddr: host + ":3050"})}
	kl, err := h.Listen(":3049")
	if fail(err) {
		return pairMount{}, false
	}
	cbl, err := h.Listen(":3050")
	if fail(err) {
		return pairMount{}, false
	}
	m.p.Serve(kl, cbl)
	kc, err := h.Dial(host + ":3049")
	if fail(err) {
		m.p.Stop()
		return pairMount{}, false
	}
	m.nc = nfscall.New(sunrpc.NewClient(clk, kc, sunrpc.SysCred("kernel", 0, 0)))
	b.mounts = append(b.mounts, m)
	root, err := m.nc.Mount("/export")
	if fail(err) {
		return pairMount{}, false
	}
	dl, err := m.nc.Lookup(root, "p")
	if fail(err) {
		return pairMount{}, false
	}
	fl, err := m.nc.Lookup(dl.FH, "f")
	if fail(err) {
		return pairMount{}, false
	}
	m.dir, m.fh = dl.FH, fl.FH
	return m, true
}

// stop closes every mount's connection and proxy client.
func (b *pairBed) stop() {
	for _, m := range b.mounts {
		m.nc.Close()
		m.p.Stop()
	}
}

// TestPinnedStatsMatchRegistry: the typed views the benchmark under
// benchmark/ still reads (ProxyClientStats, ProxyServerStats) are the
// registry's series and nothing else. A writer's proxy client serves hits,
// forwards, metadata hits of every cache, a recall and the write-back it
// provokes; then every field of both views must equal the series it names,
// and none may be zero, or the comparison proved nothing.
func TestPinnedStatsMatchRegistry(t *testing.T) {
	cfg := Config{Model: ModelDelegation, FlushInterval: time.Hour}
	runPairBed(t, cfg, bytes.Repeat([]byte("v0"), 100), func(b *pairBed) {
		a, ok := b.mount("a")
		if !ok {
			return
		}
		// Twice each: the first crosses, the second is served locally.
		for i := 0; i < 2; i++ {
			a.nc.Lookup(a.dir, "f")
			a.nc.Lookup(a.dir, "missing")
			a.nc.Getattr(a.fh)
			a.nc.Access(a.fh, nfs3.AccessRead)
			a.nc.Readdir(a.dir, 0, 0, 4096)
			if _, err := a.nc.Read(a.fh, 0, 200); err != nil {
				t.Error(err)
				return
			}
		}
		// The first WRITE crosses and brings the write delegation, under
		// which the second is absorbed.
		for _, off := range []uint64{0, 2} {
			if res, err := a.nc.Write(a.fh, off, []byte("v1"), nfs3.Unstable); err != nil || res.Status != nfs3.OK {
				t.Errorf("write at %d: %v %v", off, res.Status, err)
				return
			}
		}
		if len(a.p.cache.dirtyBlocks(a.fh)) == 0 {
			t.Error("the second WRITE was not absorbed")
			return
		}
		// A second client's read recalls the writer, which writes back.
		c, ok := b.mount("c")
		if !ok {
			return
		}
		if res, err := c.nc.Read(c.fh, 0, 4); err != nil || string(res.Data) != "v1v1" {
			t.Errorf("the second client read %q, %v; want the writer's v1v1", res.Data, err)
			return
		}

		snap := b.o.Registry().Snapshot()
		client := func(fam string, kv ...string) int64 {
			return snap.Sum(fam, append([]string{"node", "a"}, kv...)...)
		}
		meta := func(cache string) int64 { return client("gvfs_client_meta_hits_total", "cache", cache) }
		st, sst := a.p.Stats(), b.ps.Stats()
		for _, c := range []struct {
			field     string
			view, reg int64
		}{
			{"LocalHits", st.LocalHits, client("gvfs_client_local_hits_total")},
			{"Forwards", st.Forwards, client("gvfs_client_forwards_total")},
			{"Recalls", st.Recalls, client("gvfs_client_recalls_total")},
			{"FlushedBlocks", st.FlushedBlocks, client("gvfs_client_flushed_blocks_total")},
			{"AttrHits", st.AttrHits, meta("attr")},
			{"DentryHits", st.DentryHits, meta("dentry")},
			{"NegLookupHits", st.NegLookupHits, meta("negative")},
			{"AccessHits", st.AccessHits, meta("access")},
			{"ListingHits", st.ListingHits, meta("listing")},
			{"CallbacksSent", sst.CallbacksSent, snap.Sum("gvfs_server_callbacks_sent_total", "node", "server")},
		} {
			if c.view != c.reg {
				t.Errorf("%s = %d, its registry series %d", c.field, c.view, c.reg)
			}
			if c.view == 0 {
				t.Errorf("%s is 0: the scenario did not reach it", c.field)
			}
		}
	})
}
