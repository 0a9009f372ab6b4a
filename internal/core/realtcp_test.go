package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/gvfs"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsclient"
	"repro/internal/sunrpc"
	"repro/internal/tcpnet"
	"repro/internal/vclock"
)

// tcpSession stands up NFS server -> proxy server on loopback TCP sockets
// with the real clock through the middleware's one assembly (a RealTime
// deployment calls the functions the cmd/ daemons call). Proxy clients are
// mounted on it per test; everything is torn down when the test ends.
func tcpSession(t *testing.T, cfg core.Config) (*gvfs.Deployment, *gvfs.Session) {
	t.Helper()
	d, err := gvfs.NewDeployment(gvfs.Config{RealTime: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	sess, err := d.NewSession("tcp-test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, sess
}

// tcpProxy starts a proxy client of the session under a kernel client with
// the given options.
func tcpProxy(t *testing.T, sess *gvfs.Session, host string, kopts nfsclient.Options) *gvfs.Mount {
	t.Helper()
	m, err := sess.Mount(host, kopts)
	if err != nil {
		t.Fatalf("mount through proxy chain: %v", err)
	}
	return m
}

// proxyCount reads m's proxy-client series of family fam from the
// deployment's registry, where the proxy client's node is host/session.
func proxyCount(d *gvfs.Deployment, sess *gvfs.Session, m *gvfs.Mount, fam string) int64 {
	return d.Obs.Registry().Snapshot().Sum(fam, "node", m.Host()+"/"+sess.Name)
}

// tcpMount opens one more bare kernel-side connection to a proxy client —
// no kernel caches, no tracing on the caller's side — and mounts.
func tcpMount(t *testing.T, clk *vclock.Clock, kernelAddr string) (*nfscall.Conn, nfs3.FH) {
	t.Helper()
	var tn tcpnet.Net
	c, err := tn.Dial(kernelAddr)
	if err != nil {
		t.Fatal(err)
	}
	nc := nfscall.New(sunrpc.NewClient(clk, c, sunrpc.SysCred("workstation", 0, 0)))
	t.Cleanup(func() { nc.Close() })
	root, err := nc.Mount("/export")
	if err != nil {
		t.Fatalf("mount through proxy chain: %v", err)
	}
	return nc, root
}

// TestFullChainOverRealTCP wires the complete GVFS chain — kernel client ->
// proxy client -> proxy server -> NFS server — over real TCP sockets with
// the real clock, the deployment shape of the cmd/ daemons. It proves the
// protocol stack is not simulator-only.
func TestFullChainOverRealTCP(t *testing.T) {
	d, sess := tcpSession(t, core.Config{Model: core.ModelPolling, PollPeriod: time.Second})
	fs := d.FS
	if _, err := fs.WriteFile("exported/hello.txt", []byte("over real sockets")); err != nil {
		t.Fatal(err)
	}

	// Kernel client mounting through the proxy.
	m := tcpProxy(t, sess, "workstation", nfsclient.Options{})
	kc, proxy := m.Client, m.Proxy

	// Read through the whole chain.
	got, err := kc.ReadFile("exported/hello.txt")
	if err != nil || string(got) != "over real sockets" {
		t.Fatalf("read = %q, %v", got, err)
	}

	// Write through it and verify server-side.
	payload := bytes.Repeat([]byte("tcp"), 30_000)
	if err := kc.WriteFile("exported/out.bin", payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	attr, err := fs.LookupPath("exported/out.bin")
	if err != nil || attr.Size != uint64(len(payload)) {
		t.Fatalf("server-side size = %d, %v", attr.Size, err)
	}

	// Repeated stats are absorbed by the proxy's cache, over real TCP too.
	kc.Stat("exported/hello.txt")
	before := proxy.UpstreamCounts()
	for i := 0; i < 25; i++ {
		// noac-free kernel cache could absorb; force traffic to the proxy
		// by statting many distinct cold paths once, then re-statting.
		if _, err := kc.Stat("exported/hello.txt"); err != nil {
			t.Fatal(err)
		}
	}
	after := proxy.UpstreamCounts()
	var grew int64
	for k, v := range after {
		grew += v - before[k]
	}
	if grew > 2 {
		t.Fatalf("25 warm stats leaked %d upstream RPCs over TCP", grew)
	}

	// Namespace operations through the chain.
	if err := kc.Mkdir("exported/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := kc.WriteFile(fmt.Sprintf("exported/dir/f%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	names, err := kc.ReadDir("exported/dir")
	if err != nil || len(names) != 10 {
		t.Fatalf("readdir = %d entries, %v", len(names), err)
	}
}

// TestInvalidationOverRealTCP runs the invalidation-polling protocol between
// two proxy clients and one proxy server over real sockets with the real
// clock: an update by one client must reach the other through GETINV within
// its (short) polling window.
func TestInvalidationOverRealTCP(t *testing.T) {
	d, sess := tcpSession(t, core.Config{Model: core.ModelPolling, PollPeriod: 50 * time.Millisecond})
	d.FS.WriteFile("shared/doc", []byte("v1"))
	readerM := tcpProxy(t, sess, "tcp-reader", nfsclient.Options{NoAC: true})
	reader, writer := readerM.Client, tcpProxy(t, sess, "tcp-writer", nfsclient.Options{NoAC: true}).Client

	if got, err := reader.ReadFile("shared/doc"); err != nil || string(got) != "v1" {
		t.Fatalf("read v1 = %q, %v", got, err)
	}
	if err := writer.WriteFile("shared/doc", []byte("v2")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Within a few polling windows the reader's proxy must invalidate and
	// serve the fresh version.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := reader.ReadFile("shared/doc")
		if err == nil && string(got) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader still stale after 5s: %q, %v", got, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if proxyCount(d, sess, readerM, "gvfs_client_invalidations_total") == 0 && proxyCount(d, sess, readerM, "gvfs_client_force_invalidations_total") == 0 {
		t.Error("no invalidations processed over TCP")
	}
}

// tcpLookup walks names down from root.
func tcpLookup(t *testing.T, nc *nfscall.Conn, root nfs3.FH, names ...string) nfs3.FH {
	t.Helper()
	fh := root
	for _, name := range names {
		res, err := nc.Lookup(fh, name)
		if err != nil || res.Status != nfs3.OK {
			t.Fatalf("lookup %s: %v %v", name, res.Status, err)
		}
		fh = res.FH
	}
	return fh
}

// blockOf is block bn of the test file: every byte depends on the block and
// on its position, so a reply assembled from the wrong buffer cannot pass.
func blockOf(bn, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(bn*131 + i*7 + i>>8)
	}
	return b
}

func bigFile(t *testing.T, fs *memfs.FS, path string, blocks, blockSize int) {
	t.Helper()
	var content []byte
	for bn := 0; bn < blocks; bn++ {
		content = append(content, blockOf(bn, blockSize)...)
	}
	if _, err := fs.WriteFile(path, content); err != nil {
		t.Fatal(err)
	}
}

// TestColdReadsOverRealTCPByteForByte drives random READs of a file eight
// times the proxy client's cache through proxyc -> proxyd -> nfsd on real
// sockets, four readers at once with readahead on, and checks every reply
// byte for byte. Every miss hands its upstream reply frame back to the pool
// at two hops while other requests are taking frames out of it, so a frame
// released while anything still reads it shows as wrong content — loudly in a
// race build, where a recycled buffer is overwritten (bufpool's poison).
func TestColdReadsOverRealTCPByteForByte(t *testing.T) {
	const blocks, bs = 64, 32 << 10
	cfg := core.Config{Model: core.ModelPolling, PollPeriod: time.Second, BlockSize: bs, CacheBytes: blocks * bs / 8}
	d, sess := tcpSession(t, cfg)
	bigFile(t, d.FS, "exported/big", blocks, bs)
	m := tcpProxy(t, sess, "workstation", nfsclient.Options{})
	clk, kernelAddr := d.Clock, m.Addr()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		nc, root := tcpMount(t, clk, kernelAddr)
		file := tcpLookup(t, nc, root, "exported", "big")
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 1))
			for i := 0; i < 300; i++ {
				bn := rng.Intn(blocks)
				if i%10 < 3 {
					bn = (i + r*16) % blocks // a sequential stretch: readahead joins in
				}
				res, err := nc.Read(file, uint64(bn)*bs, bs)
				if err != nil || res.Status != nfs3.OK {
					t.Errorf("reader %d: READ block %d: %v %v", r, bn, res.Status, err)
					return
				}
				if !bytes.Equal(res.Data, blockOf(bn, bs)) {
					t.Errorf("reader %d: READ %d returned block %d with wrong content", r, i, bn)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if forwards, hits := proxyCount(d, sess, m, "gvfs_client_forwards_total"), proxyCount(d, sess, m, "gvfs_client_local_hits_total"); forwards == 0 || hits == 0 {
		t.Errorf("want both misses and hits, got %d forwards, %d hits", forwards, hits)
	}
}

// TestWarmReadAllocatesLittle is the gate on the hit path's memory: a 32 KiB
// READ served from the proxy client's cache, through its RPC server with the
// duplicate-request cache on and over a real socket, allocates under 2 KiB
// all told — the caller's side of the call included — and no buffer of the
// payload's size: not a retained reply, not a staging copy, not a frame.
func TestWarmReadAllocatesLittle(t *testing.T) {
	const blocks, bs = 8, 32 << 10
	d, sess := tcpSession(t, core.Config{Model: core.ModelPolling, PollPeriod: time.Hour, BlockSize: bs})
	bigFile(t, d.FS, "exported/big", blocks, bs)
	m := tcpProxy(t, sess, "workstation", nfsclient.Options{})
	nc, root := tcpMount(t, d.Clock, m.Addr())
	file := tcpLookup(t, nc, root, "exported", "big")
	want := make([][]byte, blocks)
	for bn := range want {
		want[bn] = blockOf(bn, bs)
	}
	read := func(bn int) {
		e := bufpool.GetEncoder()
		(&nfs3.ReadArgs{FH: file, Offset: uint64(bn) * bs, Count: bs}).Encode(e)
		rep, err := nc.RPC().CallParts(0, nfs3.Program, nfs3.Version, nfs3.ProcRead, e.Bytes(), nil, time.Minute)
		bufpool.PutEncoder(e)
		if err != nil {
			t.Fatal(err)
		}
		var res nfs3.ReadRes
		if err := res.Decode(rep.Body); err != nil || !bytes.Equal(res.Data, want[bn]) {
			t.Fatalf("READ block %d: wrong content (%v)", bn, err)
		}
		rep.Release()
	}
	for bn := 0; bn < blocks; bn++ {
		read(bn) // warm the cache, the pools and the encoders
	}
	const n = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		read(i % blocks)
	}
	runtime.ReadMemStats(&m1)
	perOp := (m1.TotalAlloc - m0.TotalAlloc) / n
	t.Logf("%d bytes allocated per warm READ", perOp)
	if perOp >= 2<<10 && !bufpool.RaceBuild {
		t.Errorf("a warm 32 KiB READ allocates %d bytes, want under 2 KiB", perOp)
	}
}
