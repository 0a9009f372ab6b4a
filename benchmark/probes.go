package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/secure"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// Probes time single layers through their public functions at a fixed
// iteration count, so an end-to-end change can be walked down to the layer
// that caused it. They do not depend on the workload.

// timeOp calls fn n times on this goroutine and returns the mean time and
// the allocations per call.
func timeOp(n int, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// pipeConn is an in-memory transport.Conn: one end of a pair of channels.
// Like tcpnet it hands the receiver a pooled copy of each message.
type pipeConn struct {
	in   <-chan []byte
	out  chan<- []byte
	done chan struct{}
	once *sync.Once
}

func newPipe() (a, b *pipeConn) {
	// Depth 16 lets one goroutine Send and then Recv on the other end, and
	// is more than any probe keeps in flight.
	ab, ba := make(chan []byte, 16), make(chan []byte, 16)
	done, once := make(chan struct{}), new(sync.Once)
	return &pipeConn{in: ba, out: ab, done: done, once: once}, &pipeConn{in: ab, out: ba, done: done, once: once}
}

func (c *pipeConn) Send(msg []byte) error {
	cp := bufpool.Get(len(msg))
	copy(cp, msg)
	select {
	case c.out <- cp:
		return nil
	case <-c.done:
		return transport.ErrClosed
	}
}

func (c *pipeConn) Recv() ([]byte, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.done:
		return nil, transport.ErrClosed
	}
}

func (c *pipeConn) Close() error       { c.once.Do(func() { close(c.done) }); return nil }
func (c *pipeConn) LocalAddr() string  { return "pipe" }
func (c *pipeConn) RemoteAddr() string { return "pipe" }

// oneConnListener accepts exactly one connection, then blocks until closed.
type oneConnListener struct {
	conn chan transport.Conn
	done chan struct{}
	once sync.Once
}

func listenOne(c transport.Conn) *oneConnListener {
	l := &oneConnListener{conn: make(chan transport.Conn, 1), done: make(chan struct{})}
	l.conn <- c
	return l
}

func (l *oneConnListener) Accept() (transport.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}
func (l *oneConnListener) Close() error { l.once.Do(func() { close(l.done) }); return nil }
func (l *oneConnListener) Addr() string { return "pipe" }

const (
	probeProg  = 0x20000099 // a program number of the benchmark's own
	probeNull  = 0
	probeEcho  = 1
	probeIters = 3000 // RPC-sized probes; codec probes run 10x this, fsync probes 1/60
)

// runProbes returns every probe metric. small shrinks the iteration counts
// for the smoke test.
func runProbes(p params) map[string]float64 {
	n := probeIters
	if p.small {
		n = 30
	}
	v := make(map[string]float64)
	block := make([]byte, blockSize)
	fillBlock(block, 1, 2, 3)

	probeCodecs(v, 10*n, block)
	probeSunrpc(v, n, block)
	probeTCP(v, n, block)
	probeMisc(v, 10*n, block)
	probeVirtual(v, 10*n)
	if err := probeDiskcache(v, max(n/60, 4), p.tmpRoot, block); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: diskcache probe:", err)
	}
	if err := probeCore(v, n, p, block); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: core probe:", err)
	}
	return v
}

func probeCodecs(v map[string]float64, n int, block []byte) {
	e := xdr.NewEncoder()
	v["xdr.enc_opaque32k_ns"], _ = timeOp(n, func() { e.Reset(); e.Opaque(block) })
	wire := append([]byte(nil), e.Bytes()...)
	d := xdr.NewDecoder(nil)
	v["xdr.dec_opaque32k_ns"], _ = timeOp(n, func() { d.Reset(wire); d.Opaque(nfs3.MaxIOSize) })

	attr := nfs3.Fattr{Type: 1, Mode: 0o644, Nlink: 1, Size: 1 << 20, FileID: 42}
	rr := nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: attr}, Count: blockSize, Data: block}
	v["nfs3.readres32k_enc_ns"], _ = timeOp(n, func() { e.Reset(); rr.Encode(e) })
	wire = append(wire[:0], e.Bytes()...)
	var got nfs3.ReadRes
	v["nfs3.readres32k_dec_ns"], _ = timeOp(n, func() { d.Reset(wire); got.Decode(d) })
	ga := nfs3.GetattrRes{Status: nfs3.OK, Attr: attr}
	var gotGA nfs3.GetattrRes
	v["nfs3.getattrres_rt_ns"], _ = timeOp(n, func() { e.Reset(); ga.Encode(e); d.Reset(e.Bytes()); gotGA.Decode(d) })
}

// probeSunrpc times Client.Call against a Server over the in-memory pipe:
// framing, duplicate-request cache and dispatch, with the scheduler off and on.
func probeSunrpc(v map[string]float64, n int, block []byte) {
	clk := vclock.NewReal()
	serve := func(sched bool) (*sunrpc.Client, func()) {
		srv := sunrpc.NewServer(clk)
		srv.Register(probeProg, 1, func(call *sunrpc.Call) sunrpc.AcceptStat {
			if call.Proc == probeEcho {
				b, err := call.Args.OpaqueRef(nfs3.MaxIOSize)
				if err != nil {
					return sunrpc.GarbageArgs
				}
				call.Reply.Opaque(b)
			}
			return sunrpc.Success
		})
		if sched {
			srv.SetSched(sunrpc.SchedConfig{Workers: serverWorkers})
		}
		a, b := newPipe()
		l := listenOne(b)
		srv.Serve(l)
		cl := sunrpc.NewClient(clk, a, sunrpc.NoneCred())
		return cl, func() { cl.Close(); srv.Close() }
	}
	cl, stop := serve(false)
	v["sunrpc.null_pipe_ns"], v["sunrpc.null_pipe_allocs"] = timeOp(n, func() { cl.Call(probeProg, 1, probeNull, nil) })
	e := xdr.NewEncoder()
	e.Opaque(block)
	v["sunrpc.echo32k_pipe_ns"], _ = timeOp(n, func() { cl.Call(probeProg, 1, probeEcho, e.Bytes()) })
	stop()
	cl, stop = serve(true)
	v["sunrpc.null_pipe_sched_ns"], _ = timeOp(n, func() { cl.Call(probeProg, 1, probeNull, nil) })
	stop()
}

// probeTCP times a framed message there and back over loopback TCP.
func probeTCP(v map[string]float64, n int, block []byte) {
	var tn tcpnet.Net
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		return
	}
	defer l.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil || c.Send(m) != nil {
				return
			}
			bufpool.Put(m)
		}
	}()
	c, err := tn.Dial(l.Addr())
	if err != nil {
		return
	}
	pingpong := func(msg []byte) func() {
		return func() {
			if c.Send(msg) == nil {
				if m, err := c.Recv(); err == nil {
					bufpool.Put(m)
				}
			}
		}
	}
	ns, allocs := timeOp(n, pingpong(block[:128]))
	v["tcpnet.pingpong128_us"], v["tcpnet.allocs_per_msg"] = ns/1e3, allocs/2
	ns, _ = timeOp(n, pingpong(block))
	v["tcpnet.pingpong32k_us"] = ns / 1e3
	c.Close()
	<-echoed
}

func probeMisc(v map[string]float64, n int, block []byte) {
	v["bufpool.getput32k_ns"], _ = timeOp(n, func() { bufpool.Put(bufpool.Get(blockSize)) })

	a, b := newPipe()
	key := secure.KeyFromSession("bench")
	ca, errA := secure.Client(a, key)
	sb, errB := secure.Server(b, key)
	if errA == nil && errB == nil {
		v["secure.seal_open32k_ns"], _ = timeOp(n/10, func() {
			if ca.Send(block) == nil {
				sb.Recv()
			}
		})
	}
	a.Close()

	node := obs.New(func() time.Duration { return 0 }, 4096).Node("probe")
	sp := obs.Span{Req: 1, Op: "READ", Bytes: blockSize}
	v["obs.record_span_ns"], _ = timeOp(n, func() { node.Record(sp) })
}

// probeVirtual measures the wall cost of one virtual event: a timer firing
// on the virtual clock and a message crossing the simulated network. It
// bounds how large a chaos or soak run can be and moves nothing end to end.
func probeVirtual(v map[string]float64, n int) {
	clk := vclock.NewVirtual()
	done := make(chan time.Duration)
	clk.Go("probe-timer", func() {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			clk.Sleep(time.Millisecond)
		}
		done <- time.Since(t0)
	})
	v["vclock.timer_ns"] = float64(<-done) / float64(n)

	clk = vclock.NewVirtual()
	net := simnet.New(clk, simnet.Params{RTT: time.Millisecond})
	clk.Go("probe-simnet", func() {
		l, err := net.Host("s").Listen(":1")
		if err != nil {
			done <- 0
			return
		}
		clk.Go("probe-simnet-echo", func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			for {
				m, err := c.Recv()
				if err != nil || c.Send(m) != nil {
					return
				}
			}
		})
		c, err := net.Host("c").Dial("s:1")
		if err != nil {
			done <- 0
			return
		}
		msg := make([]byte, 128)
		t0 := time.Now()
		for i := 0; i < n/2; i++ {
			if c.Send(msg) != nil {
				break
			}
			if _, err := c.Recv(); err != nil {
				break
			}
		}
		el := time.Since(t0)
		c.Close()
		l.Close()
		done <- el
	})
	v["simnet.msg_ns"] = float64(<-done) / float64(n)
	clk.Stop()
}

// probeDiskcache times the on-disk store's mutations under the shipped sync
// policy and without fsync (the difference is the fsync), a checkpoint, and
// reopening a store of 4096 blocks.
func probeDiskcache(v map[string]float64, n int, tmpRoot string, block []byte) error {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	st, _, err := diskcache.Open(dir+"/sync", 0, diskcache.SyncDirty)
	if err != nil {
		return err
	}
	i := uint64(0)
	ns, _ := timeOp(n, func() { i++; st.PutBlock("f", i, block, true, i) })
	v["diskcache.put_dirty_us"] = ns / 1e3
	i = 0
	ns, _ = timeOp(n, func() { i++; st.MarkClean("f", i, i) })
	v["diskcache.markclean_us"] = ns / 1e3
	ns, _ = timeOp(10*n, func() { i++; st.PutBlock("f", i, block, false, 0) })
	v["diskcache.put_clean_us"] = ns / 1e3
	t0 := time.Now()
	err = st.Checkpoint()
	v["diskcache.checkpoint_ms"] = float64(time.Since(t0)) / 1e6
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	st, _, err = diskcache.Open(dir+"/nosync", 0, diskcache.SyncNone)
	if err != nil {
		return err
	}
	i = 0
	ns, _ = timeOp(10*n, func() { i++; st.PutBlock("f", i, block, true, i) })
	v["diskcache.put_dirty_nosync_us"] = ns / 1e3
	if err := st.Close(); err != nil {
		return err
	}

	blocks := 4096
	if n < 10 {
		blocks = 64
	}
	st, _, err = diskcache.Open(dir+"/replay", 0, diskcache.SyncNone)
	if err != nil {
		return err
	}
	for bn := 0; bn < blocks; bn++ {
		st.PutBlock(fmt.Sprintf("f%d", bn%16), uint64(bn), block[:512], bn%2 == 0, uint64(bn+1))
	}
	st.Abandon() // a crash: replay must read the journal, not a final checkpoint
	t0 = time.Now()
	st, _, err = diskcache.Open(dir+"/replay", 0, diskcache.SyncNone)
	v["diskcache.open_replay_ms_4k"] = float64(time.Since(t0)) / 1e6
	if err != nil {
		return err
	}
	return st.Close()
}

// probeCore drives the proxy client's real dispatch directly (ServeCall),
// without a transport, on a warm cache; and the NFS server over TCP without
// any proxy, which is the baseline the proxies' overhead is measured against.
func probeCore(v map[string]float64, n int, p params, block []byte) error {
	const blocks = 64
	build := func(diskDir string, ring int) (*stack, nfs3.FH, error) {
		clk := vclock.NewReal()
		fs := memfs.New(clk.Now)
		if _, err := fs.WriteFile("p/f", fileContent(1, blocks)); err != nil {
			return nil, nfs3.FH{}, err
		}
		cfg := core.Config{WriteBack: true, FlushInterval: time.Hour, DiskCacheDir: diskDir}
		st, err := newStack(fs, clk, stackOpts{cfg: cfg, ring: ring}, nil)
		if err != nil {
			return nil, nfs3.FH{}, err
		}
		nc, root, err := st.dialGen(st.kernel[0])
		var fh nfs3.FH
		if err == nil {
			fh, err = lookupPath(nc, root, "p/f")
		}
		for bn := uint64(0); bn < blocks && err == nil; bn++ {
			_, err = nc.Read(fh, bn*blockSize, blockSize)
		}
		if err != nil {
			st.close()
			return nil, nfs3.FH{}, err
		}
		return st, fh, nil
	}
	// dispatcher returns a function that serves one pre-marshalled call.
	dispatcher := func(pc *core.ProxyClient, proc uint32, frames [][]byte) func() {
		dec := xdr.NewDecoder(nil)
		call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: proc}
		i := 0
		return func() {
			dec.Reset(frames[i%len(frames)])
			i++
			enc := bufpool.GetEncoder()
			call.Args, call.Reply = dec, enc
			pc.ServeCall(call)
			bufpool.PutEncoder(enc)
		}
	}
	marshal := func(args interface{ Encode(*xdr.Encoder) }) []byte {
		e := xdr.NewEncoder()
		args.Encode(e)
		return e.Bytes()
	}

	st, fh, err := build("", -1)
	if err != nil {
		return err
	}
	defer st.close()
	var reads, writes [][]byte
	for bn := uint64(0); bn < blocks; bn++ {
		reads = append(reads, marshal(&nfs3.ReadArgs{FH: fh, Offset: bn * blockSize, Count: blockSize}))
		writes = append(writes, marshal(&nfs3.WriteArgs{FH: fh, Offset: bn * blockSize, Count: blockSize, Stable: nfs3.Unstable, Data: block}))
	}
	pc := st.proxyc[0]
	v["core.servecall_read_ns"], v["core.servecall_read_allocs"] = timeOp(10*n, dispatcher(pc, nfs3.ProcRead, reads))
	v["core.servecall_getattr_ns"], _ = timeOp(10*n, dispatcher(pc, nfs3.ProcGetattr, [][]byte{marshal(&nfs3.GetattrArgs{FH: fh})}))
	// Two goroutines on the one cache: against the single-goroutine figure,
	// the extra time per call is waiting for the cache mutex.
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timeOp(10*n, dispatcher(pc, nfs3.ProcRead, reads))
		}()
	}
	wg.Wait()
	v["core.servecall_read_ns_2g"] = float64(time.Since(t0)) / float64(10*n)
	v["core.servecall_write_ns"], _ = timeOp(10*n, dispatcher(pc, nfs3.ProcWrite, writes))

	// What the span ring the cmd/gvfs-* daemons ship (4096 per node) costs the
	// same READ dispatch, against retention off, in alternating chunks. The
	// end-to-end rate cannot resolve it here: two warm_read beds differ by
	// +-10 % before the ring does.
	rst, rfh, err := build("", 4096)
	if err != nil {
		return err
	}
	defer rst.close()
	var ringReads [][]byte
	for bn := uint64(0); bn < blocks; bn++ {
		ringReads = append(ringReads, marshal(&nfs3.ReadArgs{FH: rfh, Offset: bn * blockSize, Count: blockSize}))
	}
	off, on := dispatcher(pc, nfs3.ProcRead, reads), dispatcher(rst.proxyc[0], nfs3.ProcRead, ringReads)
	var offNs, onNs float64
	for chunk := 0; chunk < 10; chunk++ {
		ns, _ := timeOp(n, off)
		offNs += ns
		ns, _ = timeOp(n, on)
		onNs += ns
	}
	v["obs.tracing_overhead_share"] = 1 - offNs/onNs

	// The no-proxy baseline: the generator straight to the NFS server.
	nc, root, err := st.dialGen(st.nfsdAt)
	if err != nil {
		return err
	}
	nfh, err := lookupPath(nc, root, "p/f")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	ns, _ := timeOp(n, func() { nc.Read(nfh, uint64(rng.Intn(blocks))*blockSize, blockSize) })
	v["nfsd.read32k_us"] = ns / 1e3
	ns, _ = timeOp(n, func() { nc.Getattr(nfh) })
	v["nfsd.getattr_us"] = ns / 1e3

	// The same absorbed WRITE with the on-disk cache behind it.
	if err := os.MkdirAll(p.tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.tmpRoot, "probe-core-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dst, dfh, err := build(dir, -1)
	if err != nil {
		return err
	}
	defer dst.close()
	writes = writes[:0]
	for bn := uint64(0); bn < blocks; bn++ {
		writes = append(writes, marshal(&nfs3.WriteArgs{FH: dfh, Offset: bn * blockSize, Count: blockSize, Stable: nfs3.Unstable, Data: block}))
	}
	ns, _ = timeOp(max(n/60, 4), dispatcher(dst.proxyc[0], nfs3.ProcWrite, writes))
	v["core.servecall_write_disk_us"] = ns / 1e3
	return nil
}
