package gvfs

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/tcpnet"
)

// The strong model on sockets. Every test here runs a session on a RealTime
// deployment — wall clock, loopback TCP, the assembly the cmd/gvfs-* daemons
// call — so recalls, RECALL_ALL and recovery write-back cross tcpnet framing,
// pooled frames and real callback connections; under -race the buffer poison
// is on. FlushInterval is an hour throughout so dirty data moves only when
// the protocol step under test moves it.

func newRealTimeDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewDeployment(Config{RealTime: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func realTimeSession(t *testing.T, d *Deployment, cfg core.Config) *Session {
	t.Helper()
	sess, err := d.NewSession("rt", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func realTimeMount(t *testing.T, sess *Session, host string) *Mount {
	t.Helper()
	m, err := sess.Mount(host, kernelNoac())
	if err != nil {
		t.Fatalf("mount %s: %v", host, err)
	}
	return m
}

func noStalenessViolations(t *testing.T, d *Deployment) {
	t.Helper()
	snap := d.PublishMetrics()
	if v := snap.SumCounters("gvfs_staleness_violations_total"); v != 0 {
		t.Errorf("staleness violations = %d, want 0", v)
	}
	if snap.Histograms[obs.Label("gvfs_staleness_age", "model", "deleg")].Count == 0 {
		t.Error("the staleness oracle scored no cache serve")
	}
}

// handoff is the scenario of (i) and (iv): A absorbs a multi-block file under
// its write delegation, B's read recalls it over a callback connection the
// proxy server dials, and B must see every byte A wrote.
func handoff(t *testing.T, d *Deployment, sess *Session) {
	t.Helper()
	if _, err := d.FS.WriteFile("rt/file", nil); err != nil {
		t.Fatal(err)
	}
	a, b := realTimeMount(t, sess, "A"), realTimeMount(t, sess, "B")
	payload := bytes.Repeat([]byte("real sockets "), 20_000)
	if err := a.Client.WriteFile("rt/file", payload); err != nil {
		t.Fatalf("A write: %v", err)
	}
	blocks := int64((len(payload) + 32<<10 - 1) / (32 << 10))
	if writes := a.WANCounts()["WRITE"]; writes >= blocks {
		t.Errorf("A sent %d WRITEs for %d blocks: the write delegation absorbed nothing", writes, blocks)
	}
	got, err := b.Client.ReadFile("rt/file")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("B read after the recall: %d bytes, %v; want A's %d", len(got), err, len(payload))
	}
	if clientCount(d, a, "gvfs_client_recalls_total") == 0 {
		t.Error("A received no recall over TCP")
	}
	// And back: A re-reads what it wrote from its cache or the server, B's
	// read delegation notwithstanding.
	if got, err := a.Client.ReadFile("rt/file"); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("A re-read: %d bytes, %v", len(got), err)
	}
	noStalenessViolations(t, d)
}

func TestRealTimeDelegationHandoff(t *testing.T) {
	d := newRealTimeDeployment(t)
	handoff(t, d, realTimeSession(t, d, core.Config{Model: core.ModelDelegation, FlushInterval: time.Hour}))
}

// TestRealTimeSealedSession is the hand-off with Config.Encrypt: every
// wide-area connection, the server-dialled callback leg included, is sealed
// by the session's Network and nothing else changes.
func TestRealTimeSealedSession(t *testing.T) {
	d := newRealTimeDeployment(t)
	sess := realTimeSession(t, d, core.Config{Model: core.ModelDelegation, FlushInterval: time.Hour, Encrypt: true})
	handoff(t, d, sess)

	// The channel is sealed for real: a plain connection to the proxy
	// server's address gets no answer it can read.
	c, err := tcpnet.Net{}.Dial(sess.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("not sealed with the session key")); err != nil {
		t.Fatal(err)
	}
	if msg, err := c.Recv(); err == nil {
		t.Errorf("the sealed listener answered a plain frame with %d bytes", len(msg))
	}
}

// TestRealTimeCallbackAddressIsWorkedOut starts a proxy client the way
// gvfs-proxyc starts with its defaults — a wildcard callback listener, no
// advertised address — and requires its recall to arrive. Advertising the
// listen address verbatim (":0" here, ":4050" for the daemon) names no host
// the proxy server could dial.
func TestRealTimeCallbackAddressIsWorkedOut(t *testing.T) {
	d := newRealTimeDeployment(t)
	sess := realTimeSession(t, d, core.Config{Model: core.ModelDelegation, FlushInterval: time.Hour})
	if _, err := d.FS.WriteFile("rt/f", []byte("one")); err != nil {
		t.Fatal(err)
	}
	proxy, kernelAddr, err := StartProxyClient(d.Clock, tcpnet.Net{}, tcpnet.Net{}, sess.Addr(), "127.0.0.1:0", ":0",
		sess.Cfg, core.SessionCred{SessionKey: sess.Name, ClientID: "daemon"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Stop)
	reader, err := attachKernelClient(d, "daemon", kernelAddr, kernelNoac())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reader.conn.Close() })
	writer := realTimeMount(t, sess, "W")

	if got, err := reader.Client.ReadFile("rt/f"); err != nil || string(got) != "one" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if err := writer.Client.WriteFile("rt/f", []byte("two")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if d.Obs.Registry().Snapshot().Sum("gvfs_client_recalls_total", "node", "daemon") == 0 {
		t.Error("the read delegation was never recalled: the proxy server could not dial the advertised address")
	}
	if got, err := reader.Client.ReadFile("rt/f"); err != nil || string(got) != "two" {
		t.Errorf("read after the write = %q, %v", got, err)
	}
	for _, rec := range sess.StateStore().LoadClients() {
		if rec.ID != "daemon" {
			continue
		}
		host, port, err := net.SplitHostPort(rec.CallbackAddr)
		if err != nil || host != "127.0.0.1" || port == "0" || port == "" {
			t.Errorf("advertised callback address %q, want the upstream connection's host with the bound port", rec.CallbackAddr)
		}
	}
}

// TestRealTimeProxyServerRestart restarts the proxy server on the TCP port
// its first instance bound. The clients' connections die with it; they
// redial the same address, the new instance rebuilds the session by
// RECALL_ALL over fresh callback connections, and A — dirty across the
// restart — is still the writer: B's read recalls A's bytes.
func TestRealTimeProxyServerRestart(t *testing.T) {
	d := newRealTimeDeployment(t)
	sess := realTimeSession(t, d, core.Config{Model: core.ModelDelegation, FlushInterval: time.Hour})
	if _, err := d.FS.WriteFile("rt/f", []byte("before")); err != nil {
		t.Fatal(err)
	}
	a, b := realTimeMount(t, sess, "A"), realTimeMount(t, sess, "B")
	// B is in the session before the restart, so RECALL_ALL reaches it too.
	if _, err := b.Client.Stat("rt"); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("dirty across the restart "), 4000)
	if err := a.Client.WriteFile("rt/f", payload); err != nil {
		t.Fatalf("A write: %v", err)
	}
	if onServer := readServerFile(t, d, "rt/f", len(payload)); bytes.Equal(onServer, payload) {
		t.Fatal("A's write-back landed before the restart; nothing is dirty")
	}

	addr := sess.Addr()
	if err := sess.RestartProxyServer(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if sess.Addr() != addr {
		t.Errorf("restarted on %s, want the first instance's %s", sess.Addr(), addr)
	}
	got, err := b.Client.ReadFile("rt/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("B read after the restart: %d bytes, %v; want A's %d dirty bytes", len(got), err, len(payload))
	}
	if clientCount(d, a, "gvfs_client_upstream_retries_total")+clientCount(d, b, "gvfs_client_upstream_retries_total") == 0 {
		t.Error("no client redialled")
	}
	if clientCount(d, a, "gvfs_client_recalls_total") == 0 {
		t.Error("A's rebuilt write delegation was never recalled")
	}
	if sent := callbacksSent(d, sess); sent < 2 {
		t.Errorf("the new instance sent %d callbacks, want a RECALL_ALL round and a recall", sent)
	}
	noStalenessViolations(t, d)
}

// TestRealTimeRemountFromDisk power-cycles a proxy client over TCP: what it
// had acknowledged and not yet written back reaches the server, and the
// clean blocks it had cached are revalidated, not fetched again.
func TestRealTimeRemountFromDisk(t *testing.T) {
	const cleanBlocks = 6
	d := newRealTimeDeployment(t)
	clean := bytes.Repeat([]byte("c"), cleanBlocks*32<<10)
	if _, err := d.FS.WriteFile("rt/clean", clean); err != nil {
		t.Fatal(err)
	}
	if _, err := d.FS.WriteFile("rt/dirty", nil); err != nil {
		t.Fatal(err)
	}
	sess := realTimeSession(t, d, core.Config{
		Model: core.ModelDelegation, FlushInterval: time.Hour, DiskCacheDir: t.TempDir(),
	})
	m := realTimeMount(t, sess, "A")
	if got, err := m.Client.ReadFile("rt/clean"); err != nil || !bytes.Equal(got, clean) {
		t.Fatalf("cold read: %d bytes, %v", len(got), err)
	}
	dirty := bytes.Repeat([]byte("acknowledged "), 10_000)
	if err := m.Client.WriteFile("rt/dirty", dirty); err != nil {
		t.Fatalf("write: %v", err)
	}

	nm, err := sess.RemountFromDisk(m, kernelNoac())
	if err != nil {
		t.Fatalf("remount from disk: %v", err)
	}
	if clientCount(d, nm, "gvfs_client_recovered_dirty_blocks_total") == 0 {
		t.Fatal("nothing dirty was recovered: the crash tested nothing")
	}
	// Recovery itself writes back one block per dirty file before the mount
	// returns; the file's COMMIT lands the rest.
	if clientCount(d, nm, "gvfs_client_flushed_blocks_total") == 0 {
		t.Error("recovery wrote nothing back before the proxy client was handed over")
	}
	f, err := nm.Client.Open("rt/dirty")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	f.Close()
	if got := readServerFile(t, d, "rt/dirty", len(dirty)); !bytes.Equal(got, dirty) {
		t.Errorf("server holds %d bytes of the acknowledged write, want all %d", len(got), len(dirty))
	}
	if got, err := nm.Client.ReadFile("rt/clean"); err != nil || !bytes.Equal(got, clean) {
		t.Errorf("warm read: %d bytes, %v", len(got), err)
	}
	if reads := nm.WANCounts()["READ"]; reads != 0 {
		t.Errorf("%d READs crossed after the restart, want 0: the clean blocks were on disk", reads)
	}
	if revalidated, refetched := clientCount(d, nm, "gvfs_client_revalidated_blocks_total"), clientCount(d, nm, "gvfs_client_refetched_blocks_total"); revalidated != cleanBlocks || refetched != 0 {
		t.Errorf("revalidated %d, refetched %d blocks; want %d and 0", revalidated, refetched, cleanBlocks)
	}
	noStalenessViolations(t, d)
}

// TestRealTimeDirectoryWalk runs a directory walk over sockets: a polling
// session whose kernel resolves every name of a two-page directory one at a
// time. The pages are decoded out of pooled frames by an actor of their own
// while LOOKUPs are served beside it, so under -race every seeded handle and
// size below is also a use-after-release check.
func TestRealTimeDirectoryWalk(t *testing.T) {
	const files = 300
	d := newRealTimeDeployment(t)
	for i := 0; i < files; i++ {
		if _, err := d.FS.WriteFile(fmt.Sprintf("rt/f%03d", i), bytes.Repeat([]byte{byte(i)}, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	m := realTimeMount(t, realTimeSession(t, d, core.Config{Model: core.ModelPolling}), "A")
	// until waits for something another goroutine of the session does.
	until := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// The session's bootstrap poll force-invalidates, which would start the
	// walk's evidence over in the middle of the count below.
	until("the bootstrap poll", func() bool { return clientCount(d, m, "gvfs_client_force_invalidations_total") > 0 })
	conn := m.Client.Conn()
	dir, err := conn.Lookup(m.Client.Root(), "rt")
	if err != nil || dir.Status != nfs3.OK {
		t.Fatalf("lookup rt: %v %v", err, dir.Status)
	}
	landed := func(n int64) {
		t.Helper()
		until(fmt.Sprintf("the walk's pages to bring %d entries", n), func() bool { return series(d, "gvfs_client_dirwalk_entries_total") >= n })
	}
	for i := 0; i < files; i++ {
		lk, err := conn.Lookup(dir.FH, fmt.Sprintf("f%03d", i))
		if err != nil || lk.Status != nfs3.OK || !lk.Attr.Present || lk.Attr.Attr.Size != uint64(i+1) {
			t.Fatalf("lookup f%03d: %v status %v size %d", i, err, lk.Status, lk.Attr.Attr.Size)
		}
		if ga, err := conn.Getattr(lk.FH); err != nil || ga.Status != nfs3.OK || ga.Attr.Size != uint64(i+1) {
			t.Fatalf("getattr f%03d through the seeded handle: %v status %v size %d", i, err, ga.Status, ga.Attr.Size)
		}
		switch i {
		case 1:
			landed(1) // the second miss bought the first page
		case 2:
			landed(files) // the third LOOKUP the second, which completes the listing
		}
	}
	sent := m.WANCounts()
	if sent["READDIRPLUS"] != 2 || sent["LOOKUP"] > 4 || sent["GETATTR"] != 0 {
		t.Errorf("%d names resolved with %v upstream, want 2 pages, the directory's own LOOKUP and at most three misses", files, sent)
	}
	if used := series(d, "gvfs_client_dirwalk_entries_used_total"); used < files-3 {
		t.Errorf("%d walked entries served, want at least %d", used, files-3)
	}
}

// TestRealTimeReadAheadAcrossFiles runs the window's spill over sockets: a
// polling session reads a ring of four files three times through a cache that
// holds two of them. From the second pass on the head of every file is decoded
// out of pooled frames by prefetch actors started while the kernel was still
// reading the file before it, so under -race every byte compared below is also
// a use-after-release check.
func TestRealTimeReadAheadAcrossFiles(t *testing.T) {
	const files, blocks, passes = 4, 32, 3
	d := newRealTimeDeployment(t)
	content := make([][]byte, files)
	for k := range content {
		content[k] = streamData(40+k, blocks)
		if _, err := d.FS.WriteFile(fmt.Sprintf("ring/f%d", k), content[k]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.Config{Model: core.ModelPolling, ReadAhead: 8, CacheBytes: 2 * blocks * streamBS}
	m := realTimeMount(t, realTimeSession(t, d, cfg), "A")
	// The bootstrap poll's force-invalidate restarts every stream it finds.
	for deadline := time.Now().Add(10 * time.Second); clientCount(d, m, "gvfs_client_force_invalidations_total") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the bootstrap poll")
		}
	}
	r := &streamReader{t: t, d: d, m: m, conn: m.Client.Conn()}
	dir := r.lookup("ring")
	fhs := make([]nfs3.FH, files)
	for k := range fhs {
		lk, err := r.conn.Lookup(dir, fmt.Sprintf("f%d", k))
		if err != nil || lk.Status != nfs3.OK {
			t.Fatalf("lookup f%d: %v %v", k, err, lk.Status)
		}
		fhs[k] = lk.FH
	}
	for pass := 0; pass < passes; pass++ {
		for k, fh := range fhs {
			for bn := 0; bn < blocks; bn++ {
				r.read(fh, bn, content[k])
			}
		}
	}
	// Every boundary of the second and third pass but the one the second began
	// with, which is where the ring's wrap was learned.
	if got, want := series(d, "gvfs_client_readahead_spills_total"), int64((passes-1)*files-1); got != want {
		t.Errorf("%d file boundaries crossed on a spill, want %d", got, want)
	}
	if miss, wasted := series(d, "gvfs_client_readahead_successor_misses_total"), series(d, "gvfs_client_readahead_wasted_total"); miss != 0 || wasted != 0 {
		t.Errorf("%d successor misses, %d prefetched blocks wasted on a ring read in order", miss, wasted)
	}
	// The last spill, over the wrap into a fourth pass nobody reads, is in
	// flight or landed — at most a window, which a quarter of the cache caps at
	// half a file: the only blocks asked for beyond one per block per pass.
	if got, most := r.wanBlocks(), int64(passes*files*blocks+blocks/2); got < passes*files*blocks || got > most {
		t.Errorf("READs asked for %d blocks in %d passes over %d blocks", got, passes, files*blocks)
	}
}

// TestRealTimeWriteBackFlush runs write-back over sockets, in both models: a
// kernel writes 2 MiB block by block, UNSTABLE, and commits. The proxy client
// absorbs the WRITEs; the COMMIT flushes them as two coalesced 1 MiB WRITEs,
// each written to the socket out of the run staged under the cache lock and
// relayed by the proxy server out of the frame it arrived in, and is then
// answered here. Under -race a staged run is poisoned once it is given back,
// so every byte the server holds is also a use-after-release check on both
// hops.
func TestRealTimeWriteBackFlush(t *testing.T) {
	const blocks = 64
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			d := newRealTimeDeployment(t)
			if _, err := d.FS.WriteFile("wb", nil); err != nil {
				t.Fatal(err)
			}
			m := realTimeMount(t, realTimeSession(t, d, core.Config{Model: model, WriteBack: true, FlushInterval: time.Hour}), "A")
			// The bootstrap poll's force-invalidate would drop the attributes
			// the first WRITE is absorbed against.
			for deadline := time.Now().Add(10 * time.Second); model == core.ModelPolling && clientCount(d, m, "gvfs_client_force_invalidations_total") == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("timed out waiting for the bootstrap poll")
				}
			}
			w := &streamReader{t: t, d: d, m: m, conn: m.Client.Conn()}
			fh := w.lookup("wb")
			content := streamData(70, blocks)
			for bn := 0; bn < blocks; bn++ {
				res, err := w.conn.Write(fh, uint64(bn)*streamBS, content[bn*streamBS:(bn+1)*streamBS], nfs3.Unstable)
				if err != nil || res.Status != nfs3.OK || res.Count != streamBS {
					t.Fatalf("write block %d: %v status %v count %d", bn, err, res.Status, res.Count)
				}
			}
			if got := m.WANCounts()["WRITE"]; got != 0 {
				t.Errorf("%d WRITEs crossed before the COMMIT: the proxy absorbed %d of %d blocks", got, blocks-int(got), blocks)
			}
			if cm, err := w.conn.Commit(fh, 0, 0); err != nil || cm.Status != nfs3.OK {
				t.Fatalf("commit: %v status %v", err, cm.Status)
			}
			if sent := m.WANCounts(); sent["WRITE"] != 2 || sent["COMMIT"] != 0 {
				t.Errorf("the COMMIT sent %d WRITEs and %d COMMITs upstream, want 2 coalesced WRITEs and none", sent["WRITE"], sent["COMMIT"])
			}
			if got := readServerFile(t, d, "wb", len(content)); !bytes.Equal(got, content) {
				t.Errorf("the server holds %d bytes that differ from the %d committed", len(got), len(content))
			}
		})
	}
}

// TestRealTimeHandoffReread runs the re-read after a remote write over
// sockets, in both models: a producer rewrites a file block by block, and the
// consumer — once the news has reached it — revalidates with a GETATTR and
// reads the file back. Every GETATTR carries the file's head behind it, the
// consumer's READs join those, each block crosses once a round, and every byte
// is the producer's latest; under -race the re-read's blocks are decoded out
// of pooled frames by actors started beside the GETATTR, so each comparison is
// also a use-after-release check.
func TestRealTimeHandoffReread(t *testing.T) {
	const blocks, rounds = 8, 4
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			d := newRealTimeDeployment(t)
			content := streamData(60, blocks)
			if _, err := d.FS.WriteFile("shared", content); err != nil {
				t.Fatal(err)
			}
			sess := realTimeSession(t, d, core.Config{Model: model, FlushInterval: time.Hour, PollPeriod: 20 * time.Millisecond})
			pm, cm := realTimeMount(t, sess, "P"), realTimeMount(t, sess, "C")
			until := func(what string, done func() bool) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
				}
			}
			// The bootstrap poll's force-invalidate would take the attributes the
			// first read needs mid-pass.
			until("the bootstrap poll", func() bool {
				return model == core.ModelDelegation || clientCount(d, cm, "gvfs_client_force_invalidations_total") > 0
			})
			p := &streamReader{t: t, d: d, m: pm, conn: pm.Client.Conn()}
			c := &streamReader{t: t, d: d, m: cm, conn: cm.Client.Conn()}
			pfh, fh := p.lookup("shared"), c.lookup("shared")
			for bn := 0; bn < blocks; bn++ {
				c.read(fh, bn, content)
			}
			for round := 1; round <= rounds; round++ {
				content = streamData(60+round, blocks)
				p.writeBlocks(pfh, content, 0, blocks)
				if model == core.ModelPolling {
					written := d.Clock.Now()
					until("the consumer's poll to cover the writes", func() bool { return cm.Proxy.PollHorizon() > written })
				}
				fetched := c.wanBlocks()
				if ga, err := c.conn.Getattr(fh); err != nil || ga.Status != nfs3.OK {
					t.Fatalf("round %d: getattr: %v %v", round, err, ga.Status)
				}
				for bn := 0; bn < blocks; bn++ {
					c.read(fh, bn, content)
				}
				if got := c.wanBlocks() - fetched; got != blocks {
					t.Errorf("round %d: READs asked the WAN for %d blocks of %d", round, got, blocks)
				}
			}
			if got := series(d, "gvfs_client_readahead_reopens_total"); got != rounds {
				t.Errorf("%d GETATTRs carried a re-read, want one a round (%d)", got, rounds)
			}
			if v := d.PublishMetrics().SumCounters("gvfs_staleness_violations_total"); v != 0 {
				t.Errorf("staleness violations = %d, want 0", v)
			}
		})
	}
}
