package gvfs

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// tap is a Network that logs, in order, what a piece of the assembly does on
// it: listeners bound, connections dialled, frames sent on them, and the
// first frame each accepted connection receives.
type tap struct {
	transport.Network
	who string
	log *tapLog
}

type tapEvent struct{ who, what, arg string }

type tapLog struct {
	mu     sync.Mutex
	events []tapEvent
}

func (l *tapLog) add(who, what, arg string) {
	l.mu.Lock()
	l.events = append(l.events, tapEvent{who, what, arg})
	l.mu.Unlock()
}

// since returns who's events from index mark on.
func (l *tapLog) since(mark int, who string) []tapEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []tapEvent
	for _, e := range l.events[mark:] {
		if e.who == who {
			out = append(out, e)
		}
	}
	return out
}

func (l *tapLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

func (n tap) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	n.log.add(n.who, "listen", l.Addr())
	return tapListener{l, n}, nil
}

func (n tap) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.log.add(n.who, "dial", c.LocalAddr())
	return &tapConn{Conn: c, n: n}, nil
}

type tapListener struct {
	transport.Listener
	n tap
}

func (l tapListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, n: l.n, accepted: true}, nil
}

type tapConn struct {
	transport.Conn
	n        tap
	accepted bool
	once     sync.Once
}

func (c *tapConn) Send(msg []byte) error {
	if !c.accepted {
		c.n.log.add(c.n.who, "send", "")
	}
	return c.Conn.Send(msg)
}

func (c *tapConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil && c.accepted {
		c.once.Do(func() { c.n.log.add(c.n.who, "recv", string(msg)) })
	}
	return msg, err
}

// authSysMachine parses an RPC call frame down to the machine name of its
// AUTH_SYS credential.
func authSysMachine(t *testing.T, frame string) string {
	t.Helper()
	d := xdr.NewDecoder([]byte(frame))
	for i := 0; i < 6; i++ { // xid, CALL, rpcvers, prog, vers, proc
		if _, err := d.Uint32(); err != nil {
			t.Fatalf("call header: %v", err)
		}
	}
	flavor, _ := d.Uint32()
	body, err := d.Opaque(400)
	if err != nil || flavor != sunrpc.AuthSys {
		t.Fatalf("credential flavor %d, %v; want AUTH_SYS", flavor, err)
	}
	bd := xdr.NewDecoder(body)
	bd.Uint32() // stamp
	machine, err := bd.String(255)
	if err != nil {
		t.Fatalf("AUTH_SYS body: %v", err)
	}
	return machine
}

// assemblyFacts is what the three start functions decide, in a form that
// does not depend on the network they were handed.
type assemblyFacts struct {
	// Nodes are the trace nodes the pieces registered under.
	Nodes []string
	// NFSMachine is the AUTH_SYS machine name the export sees from the proxy
	// server.
	NFSMachine string
	// ClientID and CallbackRule are what the proxy server learns of the proxy
	// client: its ID, and whether the callback address it advertised is the
	// host its upstream connection left from with the port its callback
	// listener bound.
	ClientID     string
	CallbackRule bool
	// Redialled: the proxy client reconnected to a proxy server restarted on
	// the address the first instance bound.
	Redialled bool
	// WarmStart is what a proxy client starting over a warm disk cache does
	// on its network up to recovery's first upstream frame.
	WarmStart []string
	// RecoveredInStart: recovery's write-back had landed when the start
	// function returned.
	RecoveredInStart bool
}

// standUp assembles export -> proxy server -> proxy client by calling the
// three start functions directly on d's network — what a session does and
// what the three daemons do — and reports what they decided.
func standUp(t *testing.T, d *Deployment) assemblyFacts {
	t.Helper()
	var f assemblyFacts
	log := &tapLog{}
	payload := bytes.Repeat([]byte("p"), 3*32<<10)
	if _, err := d.FS.WriteFile("par/f", nil); err != nil {
		t.Fatal(err)
	}
	d.Run("parity", func() {
		cfg := core.Config{
			Model: core.ModelDelegation, FlushInterval: time.Hour, DiskCacheDir: t.TempDir(),
			Obs: d.Obs, ObsName: "par", Staleness: d.Staleness,
		}
		nfsd, nfsAddr, err := ServeNFS(d.Clock, tap{d.network(serverHost), "nfsd", log}, d.listenAddr(3049), d.FS, d.Obs, sunrpc.SchedConfig{})
		if err != nil {
			t.Error(err)
			return
		}
		defer nfsd.Close()
		srvNet := tap{d.network(serverHost), "proxyd", log}
		store := &core.MemStateStore{}
		ps, psAddr, err := StartProxyServer(d.Clock, srvNet, srvNet, d.listenAddr(d.nextPort()), nfsAddr, cfg, store)
		if err != nil {
			t.Error(err)
			return
		}
		defer func() { ps.Stop() }()

		cNet := tap{d.network("A"), "A", log}
		start := func() (m *Mount, atReturn []tapEvent) {
			mark := log.len()
			pc, kernelAddr, err := StartProxyClient(d.Clock, cNet, cNet, psAddr, d.listenAddr(d.nextPort()), d.listenAddr(d.nextPort()),
				cfg, core.SessionCred{SessionKey: "par", ClientID: "A/par"})
			if err != nil {
				t.Error(err)
				return nil, nil
			}
			atReturn = log.since(mark, "A")
			if m, err = attachKernelClient(d, "A", kernelAddr, kernelNoac()); err != nil {
				pc.Stop()
				t.Error(err)
				return nil, nil
			}
			m.Proxy = pc
			return m, atReturn
		}
		m, cold := start()
		if m == nil {
			return
		}
		if err := m.Client.WriteFile("par/f", payload); err != nil {
			t.Errorf("write: %v", err)
			return
		}

		// What each side learned of the other.
		if seen := log.since(0, "nfsd"); len(seen) > 1 {
			f.NFSMachine = authSysMachine(t, seen[1].arg) // [0] is the listen
		}
		for _, rec := range store.LoadClients() {
			f.ClientID = rec.ID
			if len(cold) >= 2 && cold[0].what == "dial" && cold[1].what == "listen" {
				host, _, _ := net.SplitHostPort(cold[0].arg)
				_, port, _ := net.SplitHostPort(cold[1].arg)
				f.CallbackRule = rec.CallbackAddr == net.JoinHostPort(host, port)
			}
		}

		// The proxy server dies and comes back on its address.
		ps.Stop()
		again, _, err := StartProxyServer(d.Clock, srvNet, srvNet, psAddr, nfsAddr, cfg, store)
		if err != nil {
			t.Error(err)
			return
		}
		ps = again
		// A CREATE cannot be answered from the cache: it needs the new
		// instance, over a connection the client has to dial.
		if err := m.Client.WriteFile("par/after", []byte("restarted")); err != nil {
			t.Errorf("create after the proxy server restart: %v", err)
		}
		f.Redialled = m.Proxy.Stats().UpstreamRetries > 0

		// The proxy client dies dirty and comes back over its disk cache.
		m.Proxy.Crash()
		m.conn.Close()
		m, warm := start()
		if m == nil {
			return
		}
		defer m.close()
		for _, e := range warm {
			f.WarmStart = append(f.WarmStart, e.what)
			if e.what == "send" {
				break
			}
		}
		f.RecoveredInStart = m.Proxy.Stats().RecoveredDirty > 0 && m.Proxy.Stats().FlushedBlocks > 0
		if got, err := m.Client.ReadFile("par/f"); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("read after the proxy client restart: %d bytes, %v", len(got), err)
		}
	})
	nodes := map[string]bool{}
	for _, s := range d.Obs.Spans() {
		nodes[s.Node] = true
	}
	for n := range nodes {
		f.Nodes = append(f.Nodes, n)
	}
	sort.Strings(f.Nodes)
	return f
}

// TestAssemblyParity stands the same chain up on the simulated network and
// on loopback TCP and requires the assembly to have decided the same things
// on both — the point of having one: what chaos proves in the simulator is
// the wiring the daemons ship.
func TestAssemblyParity(t *testing.T) {
	want := assemblyFacts{
		Nodes:            []string{"kern:A", "nfsd", "proxyc:A/par", "proxyd:par"},
		NFSMachine:       serverHost,
		ClientID:         "A/par",
		CallbackRule:     true,
		Redialled:        true,
		WarmStart:        []string{"dial", "listen", "listen", "send"},
		RecoveredInStart: true,
	}
	sim, tcp := standUp(t, newDeployment(t)), standUp(t, newRealTimeDeployment(t))
	if !reflect.DeepEqual(sim, want) {
		t.Errorf("simnet assembly decided\n %+v, want\n %+v", sim, want)
	}
	if !reflect.DeepEqual(tcp, want) {
		t.Errorf("tcpnet assembly decided\n %+v, want\n %+v", tcp, want)
	}
}

// TestMetricsEndpointServesRuntime: the daemons' metrics listener serves the
// Go runtime's profiles under /debug/pprof/, and /metrics carries the
// runtime's gauges — heap bytes, GC cycles, GC CPU share, goroutines — next to
// the daemon's own series, in a well-formed exposition.
func TestMetricsEndpointServesRuntime(t *testing.T) {
	o := obs.New(vclock.NewReal().Now, -1)
	published := false
	mux := metricsMux(o, func() { published = true })
	get := func(path string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	if index := get("/debug/pprof/"); !strings.Contains(index, "goroutine") || !strings.Contains(index, "heap") {
		t.Errorf("/debug/pprof/ lists no goroutine and heap profiles:\n%s", index)
	}
	runtime.GC() // at least one cycle to count
	body := get("/metrics")
	if !published {
		t.Error("the daemon's own gauges were not refreshed for the scrape")
	}
	for _, name := range []string{goHeapBytes, goGCCycles, goGCCPUFraction, goGoroutines} {
		if !strings.Contains(body, "\n"+name+" ") {
			t.Errorf("/metrics has no %s sample", name)
		}
	}
	if g := o.Registry().Gauge(goGCCycles).Value(); g < 1 {
		t.Errorf("%s = %d after a collection", goGCCycles, g)
	}
	if g := o.Registry().Gauge(goGoroutines).Value(); g < 1 {
		t.Errorf("%s = %d", goGoroutines, g)
	}
	if _, err := obs.ParseProm(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics is not a well-formed exposition: %v", err)
	}
}
