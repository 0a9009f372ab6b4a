package gvfs

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"

	"repro/internal/core"
	"repro/internal/memfs"
	"repro/internal/nfsserver"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/secure"
	"repro/internal/sunrpc"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// A GVFS session is an assembly: an NFS export, a proxy server in front of it
// and a proxy client under each kernel client. The three functions below are
// the only code that builds those pieces. The simulator calls them with
// simnet host handles, the cmd/gvfs-* daemons and RealTime deployments with
// tcpnet.Net — what the chaos harness proves about the wiring is therefore
// true of the daemons. Each takes the wide-area network (wan: proxy client <->
// proxy server, callbacks included; a session may hand in a sealing one) and
// the host-local one (local: the kernel client's and the NFS server's hop,
// never sealed), and returns once the piece is serving.

// serverHost names the host of the NFS server and the proxy servers. It is
// also the machine name the proxy server's AUTH_SYS credential carries
// upstream: every assembly presents the same root@server to the export.
const serverHost = "server"

// ServeNFS exports fs over NFSv3 and MOUNT on nw at addr, as node "nfsd" of o,
// and returns the RPC server with the address actually bound. sched is the
// export's worker pool; the zero value dispatches unbounded, which an export
// facing clients without a retransmission policy must (it can never shed).
func ServeNFS(clk *vclock.Clock, nw transport.Network, addr string, fs *memfs.FS, o *obs.Obs, sched sunrpc.SchedConfig) (*sunrpc.Server, string, error) {
	l, err := nw.Listen(addr)
	if err != nil {
		return nil, "", fmt.Errorf("export NFS server: %w", err)
	}
	srv := sunrpc.NewServer(clk)
	nfsserver.New(fs, 1).Register(srv)
	srv.SetObs(o.Node("nfsd"), core.RPCName)
	srv.SetSched(sched)
	srv.Serve(l)
	return srv, l.Addr(), nil
}

// StartProxyServer starts a session's proxy server: it dials the NFS server
// at nfsAddr over local, serves proxy clients on wan at listen and calls them
// back over wan. store holds the client list; a store a previous instance
// filled makes this one a restart that rebuilds the session by RECALL_ALL
// (Section 4.3.4). It returns the address bound, which a restart passes back
// as listen.
func StartProxyServer(clk *vclock.Clock, wan, local transport.Network, listen, nfsAddr string, cfg core.Config, store core.StateStore) (*core.ProxyServer, string, error) {
	conn, err := local.Dial(nfsAddr)
	if err != nil {
		return nil, "", fmt.Errorf("dial NFS server %s: %w", nfsAddr, err)
	}
	up := sunrpc.NewClient(clk, conn, sunrpc.SysCred(serverHost, 0, 0))
	l, err := wan.Listen(listen)
	if err != nil {
		up.Close()
		return nil, "", err
	}
	srv := core.NewProxyServer(clk, cfg, up, wan.Dial, store)
	srv.Serve(l)
	return srv, l.Addr(), nil
}

// StartProxyClient starts a proxy client: upstream to the proxy server (or,
// for pass-through, an NFS server) over wan, callbacks accepted on wan at
// cbListen, the kernel client served on local at listen. It returns the
// kernel-facing address bound.
//
// The trace node is named by cred.ClientID. An empty cred.CallbackAddr is
// worked out: the host the upstream connection leaves from — an address the
// proxy server's host has just been shown to reach — with the port the
// callback listener bound. Set it only where that is not routable (NAT).
//
// If the store under cfg.DiskCacheDir recovered a predecessor's blocks, crash
// recovery (Section 4.3.4) runs here, after both listeners serve and before
// the function returns: a callback that recovery's own write-back provokes —
// a restarting proxy server's RECALL_ALL — finds this client listening, and a
// kernel client that is attached once the function has returned, as a
// session's mounts are, never races recovery.
func StartProxyClient(clk *vclock.Clock, wan, local transport.Network, upstream, listen, cbListen string, cfg core.Config, cred core.SessionCred) (*core.ProxyClient, string, error) {
	conn, err := wan.Dial(upstream)
	if err != nil {
		return nil, "", fmt.Errorf("dial upstream %s: %w", upstream, err)
	}
	up := sunrpc.NewClient(clk, conn, sunrpc.NoneCred())
	cbL, err := wan.Listen(cbListen)
	if err == nil && cred.CallbackAddr == "" {
		cred.CallbackAddr, err = callbackAddr(conn.LocalAddr(), cbL.Addr())
	}
	var nfsL transport.Listener
	if err == nil {
		nfsL, err = local.Listen(listen)
	}
	if err != nil {
		up.Close()
		if cbL != nil {
			cbL.Close()
		}
		return nil, "", err
	}
	cfg.ObsName = cred.ClientID
	proxy := core.NewProxyClient(clk, cfg, up, cred)
	proxy.SetRedial(func() (*sunrpc.Client, error) {
		c, err := wan.Dial(upstream)
		if err != nil {
			return nil, err
		}
		return sunrpc.NewClient(clk, c, sunrpc.NoneCred()), nil
	})
	proxy.Serve(nfsL, cbL)
	if proxy.Stats().RecoveredBlocks > 0 {
		proxy.RecoverAfterCrash()
	}
	return proxy, nfsL.Addr(), nil
}

// callbackAddr joins the host of the upstream connection's local address
// with the port of the bound callback listener.
func callbackAddr(upstreamLocal, cbBound string) (string, error) {
	host, _, err := net.SplitHostPort(upstreamLocal)
	if err != nil {
		return "", fmt.Errorf("callback address: %w", err)
	}
	_, port, err := net.SplitHostPort(cbBound)
	if err != nil {
		return "", fmt.Errorf("callback address: %w", err)
	}
	return net.JoinHostPort(host, port), nil
}

// sealed is a Network whose every connection, dialled or accepted, is sealed
// with key: a session's private wide-area channel (Config.Encrypt).
type sealed struct {
	transport.Network
	key [32]byte
}

func (n sealed) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	sc, err := secure.Client(c, n.key)
	if err != nil {
		c.Close()
		return nil, err
	}
	return sc, nil
}

func (n sealed) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return secure.NewListener(l, n.key), nil
}

// ServeMetrics serves o's /metrics, /metrics.json, /spans, /trace and /attr
// over HTTP at addr for the life of the process — the daemons' scrape
// endpoint — with the Go runtime's own gauges in /metrics (publishRuntime) and
// its profiles under /debug/pprof/. publish, if not nil, refreshes the sampled
// gauges before each scrape. An empty addr serves nothing.
func ServeMetrics(daemon, addr string, o *obs.Obs, publish func()) {
	if addr == "" {
		return
	}
	mux := metricsMux(o, publish)
	go func() {
		log.Printf("%s: metrics on http://%s/metrics", daemon, addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("%s: metrics server: %v", daemon, err)
		}
	}()
}

// metricsMux is what ServeMetrics serves.
func metricsMux(o *obs.Obs, publish func()) *http.ServeMux {
	reg := o.Registry()
	mux := o.Handler(func() {
		publishRuntime(reg)
		if publish != nil {
			publish()
		}
	})
	mux.HandleFunc("/attr", attr.Handler(o.Spans))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Runtime gauges: the series publishRuntime sets, each from one
// runtime/metrics sample. GC CPU is the share of the process's CPU time the
// collector has taken since start, in parts per million (gauges are integers).
const (
	goHeapBytes     = "go_heap_bytes"
	goGCCycles      = "go_gc_cycles"
	goGCCPUFraction = "go_gc_cpu_fraction_ppm"
	goGoroutines    = "go_goroutines"
)

var runtimeHelp = map[string]string{
	goHeapBytes:     "Bytes of heap memory occupied by live objects and by dead ones not yet collected.",
	goGCCycles:      "Garbage-collection cycles completed since the process started.",
	goGCCPUFraction: "Share of the process's CPU time spent collecting garbage since it started, in parts per million.",
	goGoroutines:    "Live goroutines.",
}

// publishRuntime reads the Go runtime's measurements into reg's gauges:
// runtime/metrics reads them without stopping the world, so a scrape costs the
// daemon nothing it would notice. A sample this runtime does not support
// leaves its gauge alone.
func publishRuntime(reg *obs.Registry) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	for name, help := range runtimeHelp {
		reg.SetHelp(name, help)
	}
	for i, name := range []string{goHeapBytes, goGCCycles, goGoroutines} {
		if v := samples[i].Value; v.Kind() == metrics.KindUint64 {
			reg.Gauge(name).Set(int64(v.Uint64()))
		}
	}
	gc, total := samples[3].Value, samples[4].Value
	if gc.Kind() == metrics.KindFloat64 && total.Kind() == metrics.KindFloat64 && total.Float64() > 0 {
		reg.Gauge(goGCCPUFraction).Set(int64(gc.Float64() / total.Float64() * 1e6))
	}
}
