// Package gvfs is the public middleware API of this repository: it plays
// the role the paper assigns to Grid middleware, dynamically establishing
// Grid-wide Virtual File System (GVFS) sessions with application-tailored
// cache consistency over unmodified NFS clients and servers.
//
// A Deployment stands up a file server (an in-memory filesystem exported
// over real NFSv3 messages) and a network — by default a simulated wide
// area network driven by deterministic virtual time, mirroring the paper's
// NIST Net testbed (40 ms RTT, 4 Mbps); with Config.RealTime, loopback TCP
// on the wall clock, the shape the cmd/gvfs-* daemons run. Either way the
// pieces are built by the same three functions (assembly.go), which the
// daemons call too. Sessions are then created per application, each with
// its own proxy server, and mounted on client hosts through per-session
// proxy clients with disk caching and the chosen consistency model:
//
//	d, _ := gvfs.NewDeployment(gvfs.Config{})
//	defer d.Close()
//	d.Run("app", func() {
//	    sess, _ := d.NewSession("repo", core.Config{Model: core.ModelPolling})
//	    m, _ := sess.Mount("C1", nfsclient.Options{})
//	    data, _ := m.Client.ReadFile("dataset/input0")
//	    ...
//	})
//
// Everything a workload observes — RPC counts by procedure, bytes on each
// link, virtual runtimes — is exposed for the evaluation harness.
package gvfs

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsclient"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/secure"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Config parameterizes a Deployment.
type Config struct {
	// RealTime runs the deployment the way the daemons run: the wall clock
	// and loopback TCP sockets (tcpnet) in place of virtual time and the
	// simulated network. Host names are then labels only, every address is
	// the one a listener actually bound, Deployment.Net is nil and WAN is
	// ignored. Virtual time (the default) makes wide-area experiments
	// deterministic and fast.
	RealTime bool
	// WAN is the default link between distinct hosts. Defaults to the
	// paper's 40 ms RTT / 4 Mbps profile.
	WAN simnet.Params
	// TraceRing bounds each node's span ring buffer (default 4096 spans).
	// Negative disables span retention entirely; hot paths then skip
	// building span labels (allocation benchmarks use this to measure the
	// block path as a tracing-off production server would run it).
	TraceRing int
}

// Deployment is a file server plus a network that sessions and mounts are
// created on.
type Deployment struct {
	Clock *vclock.Clock
	// Net is the simulated network (links, partitions, faults); nil for a
	// RealTime deployment, which runs on the host's loopback.
	Net *simnet.Net
	// FS is the filesystem backing the NFS export; tests and workload
	// setup may populate it directly (that models local activity on the
	// server, not wide-area traffic).
	FS *memfs.FS
	// Obs is the deployment-wide observability spine: request IDs minted at
	// the emulated kernel clients flow through every proxy hop, and all
	// components share one metrics registry.
	Obs *obs.Obs
	// Staleness is the deployment-global staleness oracle behind the
	// consistency observatory: proxy servers record commits into it, proxy
	// clients report cache-served reads against it. It lives here (not per
	// session) so it survives proxy restarts and spans every writer.
	Staleness *obs.StalenessOracle

	attrObs *attr.Observatory

	nfsAddr string
	rpcSrv  *sunrpc.Server

	mu       sync.Mutex
	portSeq  int
	sessions []*Session
	mounts   []*Mount
	closed   bool
	release  chan struct{} // wakes the keeper actor pinning the virtual clock
}

// NewDeployment builds the server side: filesystem, NFS server, and
// network. It does not block.
func NewDeployment(cfg Config) (*Deployment, error) {
	if cfg.WAN == (simnet.Params{}) {
		cfg.WAN = simnet.WAN
	}
	if cfg.TraceRing == 0 {
		cfg.TraceRing = 4096
	}
	clk := vclock.NewVirtual()
	var net *simnet.Net
	if cfg.RealTime {
		clk = vclock.NewReal()
	} else {
		net = simnet.New(clk, cfg.WAN)
	}
	o := obs.New(clk.Now, cfg.TraceRing)
	if net != nil {
		net.SetObs(o.Registry())
	}
	d := &Deployment{
		Clock:     clk,
		Net:       net,
		FS:        memfs.New(clk.Now),
		Obs:       o,
		Staleness: obs.NewStalenessOracle(clk.Now, o.Registry()),
		attrObs:   attr.NewObservatory(o.Registry()),
		portSeq:   5000,
	}
	var err error
	d.rpcSrv, d.nfsAddr, err = ServeNFS(clk, d.network(serverHost), d.listenAddr(2049), d.FS, o, sunrpc.SchedConfig{})
	if err != nil {
		return nil, fmt.Errorf("gvfs: %w", err)
	}
	d.park()
	return d, nil
}

// network is the deployment's network as host sees it — the one place the
// transport under every session is chosen.
func (d *Deployment) network(host string) transport.Network {
	if d.Net == nil {
		return tcpnet.Net{}
	}
	return d.Net.Host(host)
}

// listenAddr is where a new listener asks to bind: the given port of the
// simulated host (the simulator hands ports out in a fixed order, so traces
// repeat), any free loopback port on real sockets. Callers use the address
// the listener reports back, never this one.
func (d *Deployment) listenAddr(simPort int) string {
	if d.Net == nil {
		return "127.0.0.1:0"
	}
	return fmt.Sprintf(":%d", simPort)
}

// park pins the virtual clock: it spawns a keeper actor that blocks on a
// plain channel, so the clock counts it as runnable and never advances to
// the next timer. Without it, the moment the last workload actor exits the
// clock free-runs session daemons (polling, flush ticks) at CPU speed —
// and the calling goroutine, which is not a managed actor, can be starved
// out of ever reaching Close by the resulting actor churn. The keeper is
// held whenever control is outside Run/Close.
func (d *Deployment) park() {
	if !d.Clock.Virtual() {
		return
	}
	release := make(chan struct{})
	d.mu.Lock()
	d.release = release
	d.mu.Unlock()
	d.Clock.Go("gvfs-keeper", func() { <-release })
}

// unpark releases the keeper so virtual time can run for a workload.
func (d *Deployment) unpark() {
	if !d.Clock.Virtual() {
		return
	}
	d.mu.Lock()
	release := d.release
	d.release = nil
	d.mu.Unlock()
	if release != nil {
		close(release)
	}
}

// Run executes fn as a managed workload actor and waits for it to finish.
// All session creation, mounting, and file access must happen inside Run
// (or Go) so the virtual clock can account for blocking.
func (d *Deployment) Run(name string, fn func()) {
	done := make(chan struct{})
	ack := make(chan struct{})
	d.Clock.Go(name, func() {
		// Stay counted as runnable until the caller has re-parked the
		// keeper, so the runnable count never touches zero and daemon
		// timers cannot free-run between workload actors.
		defer func() { close(done); <-ack }()
		fn()
	})
	d.unpark()
	<-done
	d.park()
	close(ack)
}

// Go spawns a concurrent workload actor; join with a Group from NewGroup.
func (d *Deployment) Go(name string, fn func()) { d.Clock.Go(name, fn) }

// NewGroup returns a clock-aware join point for concurrent workload actors.
func (d *Deployment) NewGroup() *vclock.Group { return d.Clock.NewGroup() }

// ServerCounts reports NFS RPCs that reached the kernel NFS server, keyed
// by procedure name — the server-load metric of the paper's evaluation.
func (d *Deployment) ServerCounts() map[string]int64 {
	return translateCounts(d.rpcSrv.Counts())
}

// Close shuts everything down.
func (d *Deployment) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	sessions := append([]*Session(nil), d.sessions...)
	mounts := append([]*Mount(nil), d.mounts...)
	d.mu.Unlock()
	// Unmounting flushes dirty blocks and stopping proxies issues upstream
	// RPCs — clock-blocking work, so it must run as a managed actor (Close,
	// like Run, is called from outside the simulation).
	done := make(chan struct{})
	ack := make(chan struct{})
	d.Clock.Go("gvfs-close", func() {
		defer func() { close(done); <-ack }()
		for _, m := range mounts {
			m.close()
		}
		for _, s := range sessions {
			s.close()
		}
	})
	d.unpark()
	<-done
	d.park()
	close(ack)
	d.rpcSrv.Close()
	d.Clock.Stop()
	// The clock is stopped; nothing can advance. Let the keeper exit
	// rather than leak a goroutine per deployment.
	d.unpark()
}

func (d *Deployment) nextPort() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.portSeq++
	return d.portSeq
}

// Session is one GVFS session: a dynamically created proxy server bound to
// a consistency configuration, plus the proxy clients mounted through it.
type Session struct {
	Name string
	Cfg  core.Config

	d     *Deployment
	addr  string
	srv   *core.ProxyServer
	store *core.MemStateStore

	mu      sync.Mutex
	proxies []*core.ProxyClient
}

// NewSession creates and configures a session proxy server on the server
// host. Call within Run/Go.
func (d *Deployment) NewSession(name string, cfg core.Config) (*Session, error) {
	// Every session component shares the deployment's observability spine;
	// s.Cfg keeps the wiring so RestartProxyServer inherits it.
	cfg.Obs = d.Obs
	cfg.ObsName = name
	cfg.Staleness = d.Staleness
	s := &Session{
		Name:  name,
		Cfg:   cfg,
		d:     d,
		addr:  d.listenAddr(d.nextPort()), // where to bind; then what was bound
		store: &core.MemStateStore{},
	}
	if err := s.startProxyServer(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.sessions = append(d.sessions, s)
	d.mu.Unlock()
	return s, nil
}

// wan is the session's wide-area network as host sees it (proxy client <->
// proxy server, callbacks included): the deployment's own, sealed with the
// session key when Cfg.Encrypt is set. Loopback traffic and the proxy
// server's connection to the NFS server stay on the plain network.
func (s *Session) wan(host string) transport.Network {
	nw := s.d.network(host)
	if s.Cfg.Encrypt {
		return sealed{nw, secure.KeyFromSession(s.Name)}
	}
	return nw
}

// startProxyServer starts a proxy server over the session's state store on
// the session's address — a new session's first instance, and every instance
// after a restart, which binds the address the first one was given.
func (s *Session) startProxyServer() error {
	d := s.d
	srv, addr, err := StartProxyServer(d.Clock, s.wan(serverHost), d.network(serverHost), s.addr, d.nfsAddr, s.Cfg, s.store)
	if err != nil {
		return fmt.Errorf("gvfs: session %s: %w", s.Name, err)
	}
	s.srv, s.addr = srv, addr
	return nil
}

// ProxyServer exposes the session's proxy server (state size, calls in flight).
func (s *Session) ProxyServer() *core.ProxyServer { return s.srv }

// Addr returns the proxy server's listen address.
func (s *Session) Addr() string { return s.addr }

// StateStore returns the session's persistent client-list store, used to
// model proxy-server restarts.
func (s *Session) StateStore() *core.MemStateStore { return s.store }

// RestartProxyServer models a proxy-server crash and restart (Section
// 4.3.4): the old instance dies with its in-memory state; a new one starts
// on the same address, loads the persisted client list, and reconstructs
// the session via whole-cache callbacks. Proxy clients reconnect and retry
// transparently. Call within Run/Go.
func (s *Session) RestartProxyServer() error {
	s.srv.Stop()
	return s.startProxyServer()
}

// RemountFromDisk models a client-machine power loss and restart: the proxy
// process dies abruptly (no final flush, no checkpoint) and its memory — the
// kernel client's caches, the session cache — dies with it. The new proxy
// instance rebuilds its cache solely from the crash-consistent persistent
// store under the session's DiskCacheDir and runs crash recovery (Section
// 4.3.4) as it starts (StartProxyClient has the order); a fresh kernel client
// then mounts through it: surviving clean blocks are revalidated through the
// model's normal channel instead of refetched, and dirty blocks re-enter
// write-back with their saved generations. The session must have been
// configured with DiskCacheDir for anything to survive. The returned Mount
// replaces m. Call within Run/Go.
func (s *Session) RemountFromDisk(m *Mount, kopts nfsclient.Options) (*Mount, error) {
	m.Proxy.Crash() // abandons the disk store mid-state, SIGKILL-style
	m.conn.Close()
	return s.Mount(m.host, kopts)
}

func (s *Session) close() {
	s.mu.Lock()
	proxies := append([]*core.ProxyClient(nil), s.proxies...)
	s.mu.Unlock()
	for _, p := range proxies {
		p.Stop()
	}
	s.srv.Stop()
}

// Mount is a kernel NFS client attached either through a session proxy
// client (GVFS) or directly to the NFS server (the paper's NFS baseline).
type Mount struct {
	// Client is the emulated kernel NFS client workloads run against.
	Client *nfsclient.Client
	// Proxy is the GVFS proxy client, nil for direct mounts.
	Proxy *core.ProxyClient

	host string
	node string // the proxy client's trace and metrics node, host/session
	addr string
	conn *nfscall.Conn
}

// Mount attaches a new client host to the session: it creates a proxy
// client with the session's cache/consistency configuration, wires the
// kernel client to it over the host loopback, and mounts the export. Call
// within Run/Go.
func (s *Session) Mount(hostname string, kopts nfsclient.Options) (*Mount, error) {
	d := s.d
	// The client ID is session-scoped, so concurrent mounts never collide in
	// the server's client list or in the trace.
	cred := core.SessionCred{SessionKey: s.Name, ClientID: hostname + "/" + s.Name}
	pcfg := s.Cfg
	if pcfg.DiskCacheDir != "" {
		// Each mount persists under its own subdirectory: a remount of the
		// same host recovers exactly its predecessor's store.
		pcfg.DiskCacheDir = filepath.Join(s.Cfg.DiskCacheDir, hostname)
	}
	cbListen, nfsListen := d.listenAddr(d.nextPort()), d.listenAddr(d.nextPort())
	proxy, kernelAddr, err := StartProxyClient(d.Clock, s.wan(hostname), d.network(hostname), s.addr, nfsListen, cbListen, pcfg, cred)
	if err != nil {
		return nil, fmt.Errorf("gvfs: mount on %s: %w", hostname, err)
	}
	s.mu.Lock()
	s.proxies = append(s.proxies, proxy)
	s.mu.Unlock()

	m, err := attachKernelClient(d, hostname, kernelAddr, kopts)
	if err != nil {
		return nil, err
	}
	m.Proxy, m.node = proxy, cred.ClientID
	d.mu.Lock()
	d.mounts = append(d.mounts, m)
	d.mu.Unlock()
	return m, nil
}

// DirectMount attaches a kernel NFS client straight to the NFS server over
// the wide area: the kernel-NFS baseline of every experiment. Call within
// Run/Go.
func (d *Deployment) DirectMount(hostname string, kopts nfsclient.Options) (*Mount, error) {
	m, err := attachKernelClient(d, hostname, d.nfsAddr, kopts)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.mounts = append(d.mounts, m)
	d.mu.Unlock()
	return m, nil
}

func attachKernelClient(d *Deployment, hostname, addr string, kopts nfsclient.Options) (*Mount, error) {
	conn, err := d.network(hostname).Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("gvfs: mount on %s: %w", hostname, err)
	}
	rpc := sunrpc.NewClient(d.Clock, conn, sunrpc.SysCred(hostname, 0, 0))
	// Request IDs are minted here, at the emulated kernel client: every RPC
	// it issues gets a fresh ID that the proxies propagate downstream.
	rpc.SetObs(d.Obs.Node("kern:"+hostname), core.RPCName)
	nc := nfscall.New(rpc)
	root, err := nc.Mount("/export")
	if err != nil {
		return nil, fmt.Errorf("gvfs: mount on %s: %w", hostname, err)
	}
	return &Mount{
		Client: nfsclient.New(d.Clock, nc, root, kopts),
		host:   hostname,
		addr:   addr,
		conn:   nc,
	}, nil
}

// Host returns the mount's host name.
func (m *Mount) Host() string { return m.host }

// Addr returns the address the kernel client mounted: its proxy client's
// kernel-facing listener, or the NFS server for a direct mount.
func (m *Mount) Addr() string { return m.addr }

// WANCounts reports this mount's RPCs that crossed the wide-area link,
// keyed by procedure name (GETINV appears as its own row). For direct
// mounts that is every kernel RPC; for GVFS mounts it is only the traffic
// the proxy could not serve from its disk cache.
func (m *Mount) WANCounts() map[string]int64 {
	if m.Proxy != nil {
		return translateCounts(m.Proxy.UpstreamCounts())
	}
	return translateCounts(m.conn.RPC().Counts())
}

func (m *Mount) close() {
	m.conn.Close()
	if m.Proxy != nil {
		m.Proxy.Stop()
	}
}

// translateCounts converts prog<<32|proc keys into readable names.
func translateCounts(in map[uint64]int64) map[string]int64 {
	out := make(map[string]int64, len(in))
	for k, v := range in {
		prog := uint32(k >> 32)
		proc := uint32(k)
		switch prog {
		case nfs3.Program:
			out[nfs3.ProcName(proc)] += v
		case core.InvProgram:
			out["GETINV"] += v
		case core.CallbackProgram:
			out["CALLBACK"] += v
		case nfs3.MountProgram:
			out["MOUNT"] += v
		default:
			out[fmt.Sprintf("PROG%d.%d", prog, proc)] += v
		}
	}
	return out
}

// SumConsistency sums the consistency-related calls the paper's figures
// track: attribute revalidations (GETATTR), name revalidations (LOOKUP),
// invalidation polls (GETINV) and delegation callbacks (CALLBACK).
func SumConsistency(counts map[string]int64) int64 {
	return counts["GETATTR"] + counts["LOOKUP"] + counts["GETINV"] + counts["CALLBACK"]
}

// SumAll totals every RPC in a count map.
func SumAll(counts map[string]int64) int64 {
	var total int64
	for _, v := range counts {
		total += v
	}
	return total
}

// FHForPath resolves a server-side path to the NFS file handle the whole
// pipeline stamps on its spans, for trace queries.
func (d *Deployment) FHForPath(path string) (nfs3.FH, error) {
	attr, err := d.FS.LookupPath(path)
	if err != nil {
		return nfs3.FH{}, fmt.Errorf("gvfs: trace lookup %s: %w", path, err)
	}
	return nfs3.MakeFH(1, uint64(attr.ID)), nil
}

// TraceForFH reconstructs the causal trace touching one file: every
// retained span stamped with the handle, plus every span sharing a request
// ID with one of those (the kernel call that triggered a forward, the
// upstream leg, a recall fan-out, readahead children). Spans are returned
// in canonical order; cap with max <= 0 for all.
func (d *Deployment) TraceForFH(fh nfs3.FH, max int) []obs.Span {
	key := fh.String()
	all := d.Obs.Spans()
	reqs := make(map[uint64]bool)
	for _, s := range all {
		if s.FH != key {
			continue
		}
		if s.Req != 0 {
			reqs[s.Req] = true
		}
		if s.Parent != 0 {
			reqs[s.Parent] = true
		}
	}
	var out []obs.Span
	for _, s := range all {
		if s.FH == key || (s.Req != 0 && reqs[s.Req]) || (s.Parent != 0 && reqs[s.Parent]) {
			out = append(out, s)
		}
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// TraceForPath is TraceForFH keyed by server-side path.
func (d *Deployment) TraceForPath(path string, max int) ([]obs.Span, error) {
	fh, err := d.FHForPath(path)
	if err != nil {
		return nil, err
	}
	return d.TraceForFH(fh, max), nil
}

// PublishMetrics refreshes every sampled gauge (cache occupancy,
// invalidation-buffer depth, open delegations, scheduler state) so a
// snapshot taken right after reflects current state, and returns the
// snapshot.
func (d *Deployment) PublishMetrics() obs.Snapshot {
	d.mu.Lock()
	sessions := append([]*Session(nil), d.sessions...)
	mounts := append([]*Mount(nil), d.mounts...)
	d.mu.Unlock()
	for _, s := range sessions {
		s.srv.PublishMetrics()
	}
	for _, m := range mounts {
		if m.Proxy != nil {
			m.Proxy.PublishMetrics()
		}
	}
	// Fold newly completed kernel requests into the critical-path
	// attribution histograms (gvfs_attr_seconds); the observatory's seen-set
	// makes repeated publishes idempotent.
	d.attrObs.Harvest(d.Obs.Spans())
	diag := d.Clock.Diag()
	reg := d.Obs.Registry()
	reg.Gauge("vclock_now_ns").Set(int64(diag.Now))
	reg.Gauge("vclock_actors").Set(int64(diag.Actors))
	reg.Gauge("vclock_runnable").Set(int64(diag.Runnable))
	reg.Gauge("vclock_timers").Set(int64(diag.Timers))
	return reg.Snapshot()
}

// Attribution decomposes every retained kernel request's wall time into
// critical-path segments (client cache service, queue wait, wire transit,
// retransmit stalls, shed backoff, recall blocking, server handler). The
// segments of each request sum exactly to its end-to-end latency.
func (d *Deployment) Attribution() []attr.Breakdown {
	return attr.Analyze(d.Obs.Spans())
}

// WriteTraceDump publishes metrics and writes the deployment's full
// observatory state — spans, ring-drop count, metrics snapshot — as the JSON
// container cmd/gvfs-trace consumes offline.
func (d *Deployment) WriteTraceDump(w io.Writer) error {
	snap := d.PublishMetrics()
	return d.Obs.DumpWith(snap).Write(w)
}

// WriteMetrics publishes and writes the unified registry in Prometheus
// text exposition format.
func (d *Deployment) WriteMetrics(w io.Writer) error {
	return d.PublishMetrics().WriteProm(w)
}

// Elapsed is a convenience for timing a workload in the deployment's clock.
func (d *Deployment) Elapsed(fn func()) time.Duration {
	start := d.Clock.Now()
	fn()
	return d.Clock.Now() - start
}
