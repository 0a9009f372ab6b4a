package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsserver"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

const (
	blockSize     = 32 * 1024
	serverWorkers = 8
	// callTimeout bounds a generator call so a wedged daemon fails the run
	// instead of hanging it.
	callTimeout = 30 * time.Second
)

// stackOpts is what a workload chooses about its test bed; everything else
// is the fixed configuration every workload shares.
type stackOpts struct {
	cfg     core.Config // the session's model and cache settings
	clients int         // proxy clients; 0 means 1
	wan     *linkModel  // nil: the wide-area hop is plain loopback
	ring    int         // obs span ring per node; 0 means -1 (retention off)
}

// stack is nfsd -> proxyd -> proxyc(s) in one process on loopback TCP with
// the real clock: the wiring of internal/core/realtcp_test.go and cmd/gvfs-*.
type stack struct {
	clk    *vclock.Clock
	obs    *obs.Obs
	nfsd   *sunrpc.Server
	nfsdAt string
	proxyd *core.ProxyServer
	proxyc []*core.ProxyClient
	kernel []string   // each proxy client's kernel-facing address
	links  []*wanLink // per proxy client; nil entries without a WAN
	tr     *tracer
	gens   []*nfscall.Conn
	closed bool
}

// fixedConfig fills in the configuration shared by every workload: 32 KiB
// blocks, the scheduler on with eight workers, a live but negligible poll.
func fixedConfig(cfg core.Config, o *obs.Obs) core.Config {
	cfg.BlockSize = blockSize
	cfg.ServerWorkers = serverWorkers
	if cfg.Model == 0 {
		cfg.Model = core.ModelPolling
	}
	if cfg.PollPeriod == 0 {
		cfg.PollPeriod = time.Second
	}
	cfg.Obs = o
	return cfg
}

// newStack stands the daemons up. fs is populated by the caller beforehand or
// afterwards; tr may be nil.
func newStack(fs *memfs.FS, clk *vclock.Clock, opts stackOpts, tr *tracer) (*stack, error) {
	var tn tcpnet.Net
	ring := opts.ring
	if ring == 0 {
		ring = -1
	}
	o := obs.New(clk.Now, ring)
	cfg := fixedConfig(opts.cfg, o)
	s := &stack{clk: clk, obs: o, tr: tr}
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}

	// NFS server, as cmd/gvfs-nfsd runs it.
	s.nfsd = sunrpc.NewServer(clk)
	nfsserver.New(fs, 1).Register(s.nfsd)
	s.nfsd.SetObs(o.Node("nfsd"), core.RPCName)
	s.nfsd.SetSched(sunrpc.SchedConfig{Workers: serverWorkers})
	nfsL, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	s.nfsdAt = nfsL.Addr()
	s.nfsd.Serve(tr.listener(nfsL, hopN))

	// Proxy server. Its callback dialler crosses the calling client's link.
	n := opts.clients
	if n == 0 {
		n = 1
	}
	s.links = make([]*wanLink, n)
	var cbMu sync.Mutex
	cbLink := make(map[string]*wanLink) // callback address -> that client's link
	up, err := tn.Dial(s.nfsdAt)
	if err != nil {
		return fail(err)
	}
	dialCB := func(addr string) (transport.Conn, error) {
		c, err := tn.Dial(addr)
		if err != nil {
			return nil, err
		}
		cbMu.Lock()
		l := cbLink[addr]
		cbMu.Unlock()
		if l != nil {
			c = newDelayConn(c, l, dirDown)
		}
		return tr.conn(c, hopB, false), nil
	}
	s.proxyd = core.NewProxyServer(clk, cfg,
		sunrpc.NewClient(clk, tr.conn(up, hopN, false), sunrpc.SysCred("proxyd", 0, 0)),
		dialCB, &core.MemStateStore{})
	psL, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	s.proxyd.Serve(tr.listener(psL, hopW))

	// Proxy clients.
	for i := 0; i < n; i++ {
		var c transport.Conn
		if c, err = tn.Dial(psL.Addr()); err != nil {
			return fail(err)
		}
		cbL, err := tn.Listen("127.0.0.1:0")
		if err != nil {
			c.Close()
			return fail(err)
		}
		if opts.wan != nil {
			s.links[i] = &wanLink{model: *opts.wan}
			c = newDelayConn(c, s.links[i], dirUp)
			cbMu.Lock()
			cbLink[cbL.Addr()] = s.links[i]
			cbMu.Unlock()
		}
		id := fmt.Sprintf("bench-client-%d", i)
		pc := core.NewProxyClient(clk, cfg,
			sunrpc.NewClient(clk, tr.conn(c, hopW, false), sunrpc.NoneCred()),
			core.SessionCred{SessionKey: "bench", ClientID: id, CallbackAddr: cbL.Addr()})
		s.proxyc = append(s.proxyc, pc)
		localL, err := tn.Listen("127.0.0.1:0")
		if err != nil {
			cbL.Close()
			return fail(err)
		}
		s.kernel = append(s.kernel, localL.Addr())
		pc.Serve(tr.listener(localL, hopK), tr.listener(cbL, hopB))
	}
	return s, nil
}

// dialGen opens one generator connection to addr — a proxy client's kernel
// address or, for the no-proxy baseline, the NFS server — and mounts.
// It speaks what a kernel client puts on the wire once its own caches miss.
func (s *stack) dialGen(addr string) (*nfscall.Conn, nfs3.FH, error) {
	var tn tcpnet.Net
	c, err := tn.Dial(addr)
	if err != nil {
		return nil, nfs3.FH{}, err
	}
	rpc := sunrpc.NewClient(s.clk, s.tr.conn(&recvReuse{Conn: c}, hopK, false), sunrpc.SysCred("bench-gen", 0, 0))
	if s.tr != nil {
		// Mint a request ID per call so the taps can link the hops; the
		// node's ring is off, so nothing is recorded inside the program.
		rpc.SetObs(s.obs.Node("gen"), core.RPCName)
	}
	nc := nfscall.New(rpc)
	nc.Timeout = callTimeout
	s.gens = append(s.gens, nc)
	root, err := nc.Mount("/export")
	if err != nil {
		return nil, nfs3.FH{}, fmt.Errorf("mount %s: %w", addr, err)
	}
	return nc, root, nil
}

// recvReuse gives a generator connection a kernel client's habit of reusing
// its receive buffers. A generator connection has one caller with one call
// in flight, so when it sends its next call every frame received before is
// dead and goes back to the pool the transport took it from. Without this
// the generator's 32 KiB reply frames are the process's main source of
// garbage, and the collector's share of the two CPUs is charged to the
// daemons under test.
type recvReuse struct {
	transport.Conn
	mu   sync.Mutex
	held [][]byte
}

func (c *recvReuse) Recv() ([]byte, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.mu.Lock()
		c.held = append(c.held, m)
		c.mu.Unlock()
	}
	return m, err
}

func (c *recvReuse) Send(msg []byte) error {
	c.mu.Lock()
	for _, m := range c.held {
		bufpool.Put(m)
	}
	c.held = c.held[:0]
	c.mu.Unlock()
	return c.Conn.Send(msg)
}

// close stops every daemon and connection the stack started.
func (s *stack) close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, g := range s.gens {
		g.Close()
	}
	for _, pc := range s.proxyc {
		pc.Stop()
	}
	if s.proxyd != nil {
		s.proxyd.Stop()
	}
	if s.nfsd != nil {
		s.nfsd.Close()
	}
}

// upstreamRPCs sums the RPCs every proxy client has sent upstream, per
// (prog<<32 | proc).
func (s *stack) upstreamRPCs() map[uint64]int64 {
	out := make(map[uint64]int64)
	for _, pc := range s.proxyc {
		for k, v := range pc.UpstreamCounts() {
			out[k] += v
		}
	}
	return out
}

func (s *stack) linkUsage() linkUsage {
	var u linkUsage
	for _, l := range s.links {
		if l == nil {
			continue
		}
		lu := l.usage()
		u.bytes += lu.bytes
		if lu.busy > u.busy {
			u.busy = lu.busy
		}
	}
	return u
}
