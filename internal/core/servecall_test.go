package core_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/gvfs"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsclient"
	"repro/internal/sunrpc"
	"repro/internal/tcpnet"
	"repro/internal/xdr"
)

// TestServeCallAllocs is the gate on the warm paths' memory: the proxy
// client's dispatch (ProxyClient.ServeCall: XDR decode, cache serve, XDR
// reply encode) serving READs from its cache, absorbing write-back WRITEs and
// answering the metadata calls a kernel keeps issuing, with span retention
// off as a production server would run it. Each path stays within its
// allocation budget, never crosses the wide area, and leaves the buffer pool
// as it found it — a nonzero Outstanding delta over a steady-state loop is a
// buffer leaked or recycled twice. The ladder times the same dispatch
// (core.servecall_*_ns in BENCHMARK.json); this holds what it must not grow.
func TestServeCallAllocs(t *testing.T) {
	const blocks, bs, ops = 64, 32 << 10, 2000
	d, err := gvfs.NewDeployment(gvfs.Config{RealTime: true, TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.FS.WriteFile("hot", make([]byte, blocks*bs)); err != nil {
		t.Fatal(err)
	}
	// Hour-long periods keep the poll and flush actors quiet, so the deltas
	// below are the dispatch alone.
	sess, err := d.NewSession("hot", core.Config{
		Model: core.ModelPolling, PollPeriod: time.Hour,
		WriteBack: true, FlushInterval: time.Hour, ReadAhead: -1, BlockSize: bs,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Client.Open("hot")
	if err != nil {
		t.Fatal(err)
	}
	fh, conn := f.FH(), m.Client.Conn()
	block := make([]byte, bs)
	for i := range block {
		block[i] = byte(i)
	}
	// Warm every block through the whole chain, and the metadata entries.
	for bn := uint64(0); bn < blocks; bn++ {
		if res, err := conn.Read(fh, bn*bs, bs); err != nil || res.Status != nfs3.OK {
			t.Fatalf("warm block %d: %v %v", bn, res.Status, err)
		}
	}
	if _, err := m.Client.Stat("hot"); err != nil {
		t.Fatal(err)
	}
	if res, err := conn.Access(fh, nfs3.AccessRead); err != nil || res.Status != nfs3.OK {
		t.Fatalf("warm ACCESS: %v %v", res.Status, err)
	}

	type request struct {
		proc uint32
		args interface{ Encode(*xdr.Encoder) }
	}
	var reads, writes []request
	for bn := uint64(0); bn < blocks; bn++ {
		reads = append(reads, request{nfs3.ProcRead, &nfs3.ReadArgs{FH: fh, Offset: bn * bs, Count: bs}})
		writes = append(writes, request{nfs3.ProcWrite, &nfs3.WriteArgs{FH: fh, Offset: bn * bs, Count: bs, Stable: nfs3.Unstable, Data: block}})
	}
	for _, tc := range []struct {
		name   string
		reqs   []request
		budget float64 // allocs/op
	}{
		{"read", reads, 2},
		{"meta", []request{
			{nfs3.ProcGetattr, &nfs3.GetattrArgs{FH: fh}},
			{nfs3.ProcLookup, &nfs3.DirOpArgs{Dir: m.Client.Root(), Name: "hot"}},
			{nfs3.ProcAccess, &nfs3.AccessArgs{FH: fh, Access: nfs3.AccessRead}},
		}, 3.5},
		{"write", writes, 2}, // last: it leaves every block dirty
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := make([][]byte, len(tc.reqs))
			for i, r := range tc.reqs {
				e := xdr.NewEncoder()
				r.args.Encode(e)
				wire[i] = e.Bytes()
			}
			dec, res := xdr.NewDecoder(nil), xdr.NewDecoder(nil)
			call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version}
			dispatch := func(i int) {
				dec.Reset(wire[i%len(wire)])
				enc := bufpool.GetEncoder()
				call.Proc, call.Args, call.Reply = tc.reqs[i%len(wire)].proc, dec, enc
				if st := m.Proxy.ServeCall(call); st != sunrpc.Success {
					t.Fatalf("%s op %d: %v", tc.name, i, st)
				}
				res.Reset(enc.Bytes())
				if st, err := res.Uint32(); err != nil || nfs3.Status(st) != nfs3.OK {
					t.Fatalf("%s op %d: status %v, %v", tc.name, i, nfs3.Status(st), err)
				}
				bufpool.PutEncoder(enc)
			}
			for i := 0; i < 2*len(wire); i++ {
				dispatch(i) // the first pass dirties (write) and fills the pools
			}
			forwards := m.Proxy.Stats().Forwards
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			outstanding := bufpool.Outstanding()
			for i := 0; i < ops; i++ {
				dispatch(i)
			}
			leaked := bufpool.Outstanding() - outstanding
			runtime.ReadMemStats(&after)
			perOp := float64(after.Mallocs-before.Mallocs) / ops
			t.Logf("%.2f allocs/op, %d bytes/op", perOp, (after.TotalAlloc-before.TotalAlloc)/ops)
			if n := m.Proxy.Stats().Forwards - forwards; n != 0 {
				t.Errorf("%d of %d warm calls crossed the wide area", n, ops)
			}
			if leaked != 0 {
				t.Errorf("pool outstanding moved by %d over %d steady-state calls", leaked, ops)
			}
			// sync.Pool drops entries at random under the race detector.
			if perOp > tc.budget && !bufpool.RaceBuild {
				t.Errorf("%.2f allocs/op, want at most %.1f", perOp, tc.budget)
			}
		})
	}
}

// TestHitReadsBesideAbsorbedWrites is the regression test for a data race on a
// cached block: a READ hit encodes its reply out of the cached block after the
// cache lock is released, and a write-back WRITE of the whole block used to
// copy into that same slice meanwhile. One kernel connection reads block 0 from
// the cache while another overwrites it, over loopback TCP, for the race
// detector; every reply holds one WRITE's block whole, never a mix of two.
func TestHitReadsBesideAbsorbedWrites(t *testing.T) {
	const bs, rounds = 32 << 10, 300
	d, err := gvfs.NewDeployment(gvfs.Config{RealTime: true, TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.FS.WriteFile("hot", make([]byte, bs)); err != nil {
		t.Fatal(err)
	}
	sess, err := d.NewSession("hot", core.Config{
		Model: core.ModelPolling, PollPeriod: time.Hour,
		WriteBack: true, FlushInterval: time.Hour, ReadAhead: -1, BlockSize: bs,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
	if err != nil {
		t.Fatal(err)
	}
	// The bootstrap poll's force-invalidate would send a READ or a WRITE
	// across in the middle.
	for deadline := time.Now().Add(10 * time.Second); m.Proxy.Stats().ForceInvalidations == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the bootstrap poll")
		}
	}
	f, err := m.Client.Open("hot")
	if err != nil {
		t.Fatal(err)
	}
	fh, reader := f.FH(), m.Client.Conn()
	conn, err := tcpnet.Net{}.Dial(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	writer := nfscall.New(sunrpc.NewClient(d.Clock, conn, sunrpc.SysCred("kernel", 0, 0)))
	defer writer.Close()
	if res, err := reader.Read(fh, 0, bs); err != nil || res.Status != nfs3.OK {
		t.Fatalf("warm block 0: %v %v", res.Status, err)
	}
	forwards := m.Proxy.Stats().Forwards

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			if res, err := writer.Write(fh, 0, bytes.Repeat([]byte{byte(i)}, bs), nfs3.Unstable); err != nil || res.Status != nfs3.OK {
				t.Errorf("write %d: %v %v", i, res.Status, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			res, err := reader.Read(fh, 0, bs)
			if err != nil || res.Status != nfs3.OK || res.Count != bs {
				t.Errorf("read %d: %v %v, %d bytes", i, res.Status, err, res.Count)
				return
			}
			if n := bytes.Count(res.Data, res.Data[:1]); n != bs {
				t.Errorf("read %d: %d of %d bytes are %#x: a reply mixed two WRITEs", i, n, bs, res.Data[0])
				return
			}
		}
	}()
	wg.Wait()
	if n := m.Proxy.Stats().Forwards - forwards; n != 0 {
		t.Errorf("%d READs and WRITEs of a cached, write-back block crossed the wide area", n)
	}
}

// TestServeCallMissAllocs is TestServeCallAllocs for the READ miss: a cache of
// four blocks cycling through a 64-block file, so every READ the proxy client
// serves crosses to the proxy server and on to the NFS server over loopback
// TCP, is cached, and evicts a block. The whole chain's allocations per READ —
// the three servers', the upstream clients' and the cache's — stay within
// budget, and the buffer pool ends where it started: the buffer of every
// evicted block, never lent to a reader, goes back to it.
func TestServeCallMissAllocs(t *testing.T) {
	const blocks, bs, ops = 64, 32 << 10, 1000
	const missBudget, missBytes = 20, 4 << 10 // a block is 32 KiB
	d, err := gvfs.NewDeployment(gvfs.Config{RealTime: true, TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.FS.WriteFile("cold", make([]byte, blocks*bs)); err != nil {
		t.Fatal(err)
	}
	sess, err := d.NewSession("cold", core.Config{
		Model: core.ModelPolling, PollPeriod: time.Hour,
		ReadAhead: -1, BlockSize: bs, CacheBytes: 4 * bs,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Client.Open("cold")
	if err != nil {
		t.Fatal(err)
	}
	wire := make([][]byte, blocks)
	for bn := range wire {
		e := xdr.NewEncoder()
		(&nfs3.ReadArgs{FH: f.FH(), Offset: uint64(bn) * bs, Count: bs}).Encode(e)
		wire[bn] = e.Bytes()
	}
	dec, res := xdr.NewDecoder(nil), xdr.NewDecoder(nil)
	call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcRead}
	read := func(i int) {
		dec.Reset(wire[i%blocks])
		enc := bufpool.GetEncoder()
		call.Args, call.Reply = dec, enc
		if st := m.Proxy.ServeCall(call); st != sunrpc.Success {
			t.Fatalf("READ %d: %v", i, st)
		}
		res.Reset(enc.Bytes())
		if st, err := res.Uint32(); err != nil || nfs3.Status(st) != nfs3.OK {
			t.Fatalf("READ %d: status %v, %v", i, nfs3.Status(st), err)
		}
		bufpool.PutEncoder(enc)
	}
	for i := 0; i < 2*blocks; i++ {
		read(i) // fills the cache, the pools and the servers' connections
	}
	forwards := m.Proxy.Stats().Forwards
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	outstanding := bufpool.Outstanding()
	for i := 0; i < ops; i++ {
		read(i)
	}
	runtime.ReadMemStats(&after)
	perOp, bytesPerOp := float64(after.Mallocs-before.Mallocs)/ops, (after.TotalAlloc-before.TotalAlloc)/ops
	t.Logf("%.2f allocs/op, %d bytes/op", perOp, bytesPerOp)
	if n := m.Proxy.Stats().Forwards - forwards; n != ops {
		t.Errorf("%d of %d READs crossed the wide area, want every one", n, ops)
	}
	// A server releases a request's frame just after sending its reply: give
	// the last ones the moment they need.
	leaked := bufpool.Outstanding() - outstanding
	for deadline := time.Now().Add(time.Second); leaked != 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		leaked = bufpool.Outstanding() - outstanding
	}
	if leaked != 0 {
		t.Errorf("pool outstanding moved by %d over %d steady-state misses", leaked, ops)
	}
	// sync.Pool drops entries at random under the race detector.
	if !bufpool.RaceBuild && (perOp > missBudget || bytesPerOp > missBytes) {
		t.Errorf("%.2f allocs and %d bytes per READ, want at most %d and %d", perOp, bytesPerOp, missBudget, missBytes)
	}
}
