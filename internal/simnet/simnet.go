// Package simnet is a simulated wide-area network: the repository's
// substitute for the NIST Net emulator used in the paper's testbed. Links
// between hosts carry a configurable round-trip latency and bandwidth;
// message transmission occupies the link (bandwidth serialization), and
// partitions can be injected and healed at any time. All delays are paid in
// the clock's time, so experiments run in deterministic virtual time.
package simnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Params describes one host-to-host link.
type Params struct {
	// RTT is the round-trip propagation delay; each message pays RTT/2.
	RTT time.Duration
	// Bandwidth in bytes per second; 0 means unlimited.
	Bandwidth int64
	// Overhead is added to every message's size for transmission-delay
	// accounting (framing/headers). Defaults to zero.
	Overhead int
}

// LAN and WAN are the link profiles used throughout the paper's evaluation:
// a 100 Mbps local network and a 40 ms / 4 Mbps wide-area path (Section 5).
var (
	LAN = Params{RTT: 500 * time.Microsecond, Bandwidth: 100_000_000 / 8}
	WAN = Params{RTT: 40 * time.Millisecond, Bandwidth: 4_000_000 / 8}
)

// Stats aggregates traffic counters for a directed host pair or the whole
// network. The Fault* counters record injected faults (see Faults); Dropped
// counts partition drops and FaultDrops counts probabilistic ones, so a test
// can tell the two loss mechanisms apart.
type Stats struct {
	Messages int64
	Bytes    int64
	Dropped  int64

	FaultDrops    int64
	FaultDups     int64
	FaultReorders int64
	FaultJitters  int64
}

type hostPair struct{ from, to string }

// Net is a simulated network of named hosts.
type Net struct {
	clk *vclock.Clock

	mu          sync.Mutex
	def         Params
	defFaults   *Faults
	links       map[hostPair]Params // symmetric: stored both ways
	faults      map[hostPair]*linkFaults
	partitioned map[hostPair]bool
	busyUntil   map[hostPair]time.Duration
	listeners   map[string]*listener
	stats       map[hostPair]*Stats
	events      []Event
	portSeq     int

	reg      *obs.Registry
	obsLinks map[hostPair]*linkMetrics
}

// linkMetrics caches the registry series for one directed link so the send
// path does not rebuild label strings per message.
type linkMetrics struct {
	msgs, bytes, drops                             *obs.Counter
	faultDrop, faultDup, faultReorder, faultJitter *obs.Counter
	queue                                          *obs.Histogram
}

// SetObs mirrors per-link traffic into reg: message/byte/drop counters,
// fault-injection counters by kind, and a histogram of bandwidth queueing
// delay (how long a message waited for the link to go idle, in virtual
// time). Safe to call once before traffic flows.
func (n *Net) SetObs(reg *obs.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg = reg
	n.obsLinks = make(map[hostPair]*linkMetrics)
}

func (n *Net) linkMetricsLocked(key hostPair) *linkMetrics {
	if n.reg == nil {
		return nil
	}
	lm := n.obsLinks[key]
	if lm == nil {
		link := key.from + "->" + key.to
		lm = &linkMetrics{
			msgs:         n.reg.Counter(obs.Label("simnet_messages_total", "link", link)),
			bytes:        n.reg.Counter(obs.Label("simnet_bytes_total", "link", link)),
			drops:        n.reg.Counter(obs.Label("simnet_drops_total", "link", link)),
			faultDrop:    n.reg.Counter(obs.Label(obs.Label("simnet_faults_total", "link", link), "kind", "drop")),
			faultDup:     n.reg.Counter(obs.Label(obs.Label("simnet_faults_total", "link", link), "kind", "dup")),
			faultReorder: n.reg.Counter(obs.Label(obs.Label("simnet_faults_total", "link", link), "kind", "reorder")),
			faultJitter:  n.reg.Counter(obs.Label(obs.Label("simnet_faults_total", "link", link), "kind", "jitter")),
			queue:        n.reg.Histogram(obs.Label("simnet_queue_delay", "link", link), obs.DurationBuckets),
		}
		n.obsLinks[key] = lm
	}
	return lm
}

// New creates a network whose unspecified links use def.
func New(clk *vclock.Clock, def Params) *Net {
	return &Net{
		clk:         clk,
		def:         def,
		links:       make(map[hostPair]Params),
		faults:      make(map[hostPair]*linkFaults),
		partitioned: make(map[hostPair]bool),
		busyUntil:   make(map[hostPair]time.Duration),
		listeners:   make(map[string]*listener),
		stats:       make(map[hostPair]*Stats),
	}
}

// SetLink sets the symmetric link parameters between hosts a and b.
func (n *Net) SetLink(a, b string, p Params) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[hostPair{a, b}] = p
	n.links[hostPair{b, a}] = p
}

// Partition drops all future traffic between a and b until Heal.
func (n *Net) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[hostPair{a, b}] = true
	n.partitioned[hostPair{b, a}] = true
	n.events = append(n.events, Event{At: n.clk.Now(), Kind: "partition", A: a, B: b})
}

// Heal removes a partition between a and b.
func (n *Net) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, hostPair{a, b})
	delete(n.partitioned, hostPair{b, a})
	n.events = append(n.events, Event{At: n.clk.Now(), Kind: "heal", A: a, B: b})
}

// LinkStats returns a copy of the directed traffic counters from host a to b.
func (n *Net) LinkStats(a, b string) Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s := n.stats[hostPair{a, b}]; s != nil {
		return *s
	}
	return Stats{}
}

// TotalStats sums counters over all directed host pairs.
func (n *Net) TotalStats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total Stats
	for _, s := range n.stats {
		total.Messages += s.Messages
		total.Bytes += s.Bytes
		total.Dropped += s.Dropped
		total.FaultDrops += s.FaultDrops
		total.FaultDups += s.FaultDups
		total.FaultReorders += s.FaultReorders
		total.FaultJitters += s.FaultJitters
	}
	return total
}

// Loopback is the default link for traffic between endpoints on the same
// host (e.g. a kernel NFS client talking to its local GVFS proxy).
var Loopback = Params{RTT: 100 * time.Microsecond, Bandwidth: 1_000_000_000}

func (n *Net) paramsLocked(from, to string) Params {
	if p, ok := n.links[hostPair{from, to}]; ok {
		return p
	}
	if from == to {
		return Loopback
	}
	return n.def
}

func (n *Net) statLocked(from, to string) *Stats {
	key := hostPair{from, to}
	s := n.stats[key]
	if s == nil {
		s = &Stats{}
		n.stats[key] = s
	}
	return s
}

// Host returns a per-host handle implementing transport.Network. All Dials
// and Listens through the handle originate at the named host.
func (n *Net) Host(name string) *Host { return &Host{net: n, name: name} }

// Host is a named endpoint on the simulated network.
type Host struct {
	net  *Net
	name string
}

var _ transport.Network = (*Host)(nil)

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Listen binds addr, which must be of the form "host:port" with host equal to
// the handle's host name, or ":port" (shorthand for the handle's host).
func (h *Host) Listen(addr string) (transport.Listener, error) {
	full, err := h.qualify(addr)
	if err != nil {
		return nil, err
	}
	n := h.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[full]; exists {
		return nil, fmt.Errorf("%w: %s", transport.ErrAddrInUse, full)
	}
	l := &listener{net: n, addr: full, inbox: vclock.NewMailbox[*conn](n.clk)}
	n.listeners[full] = l
	return l, nil
}

// Dial connects to a listener at addr, paying one RTT of connection setup.
func (h *Host) Dial(addr string) (transport.Conn, error) {
	n := h.net
	remoteHost := hostOf(addr)
	n.mu.Lock()
	l := n.listeners[addr]
	part := n.partitioned[hostPair{h.name, remoteHost}]
	p := n.paramsLocked(h.name, remoteHost)
	n.portSeq++
	localAddr := fmt.Sprintf("%s:e%d", h.name, n.portSeq)
	n.mu.Unlock()

	if l == nil || part {
		// Connection refused / timed out still costs a round trip.
		n.clk.Sleep(p.RTT)
		return nil, fmt.Errorf("%w: %s", transport.ErrUnreachable, addr)
	}

	client := newConn(n, h.name, remoteHost, localAddr, addr)
	server := newConn(n, remoteHost, h.name, addr, localAddr)
	client.peer, server.peer = server, client

	// The server learns of the connection after half an RTT; the dialer
	// proceeds after a full RTT (SYN / SYN-ACK).
	n.clk.AfterFunc(p.RTT/2, func() {
		if !l.inbox.Put(server) {
			// Listener closed while the SYN was in flight.
			client.Close()
		}
	})
	n.clk.Sleep(p.RTT)
	return client, nil
}

func (h *Host) qualify(addr string) (string, error) {
	host := hostOf(addr)
	switch host {
	case "":
		return h.name + addr, nil
	case h.name:
		return addr, nil
	default:
		return "", fmt.Errorf("simnet: host %q cannot listen on %q", h.name, addr)
	}
}

func hostOf(addr string) string {
	for i := 0; i < len(addr); i++ {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}

type listener struct {
	net   *Net
	addr  string
	inbox *vclock.Mailbox[*conn]

	mu     sync.Mutex
	closed bool
}

func (l *listener) Accept() (transport.Conn, error) {
	c, ok := l.inbox.Get()
	if !ok {
		return nil, transport.ErrClosed
	}
	return c, nil
}

func (l *listener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	n := l.net
	n.mu.Lock()
	delete(n.listeners, l.addr)
	n.mu.Unlock()
	l.inbox.Close()
	return nil
}

func (l *listener) Addr() string { return l.addr }

type conn struct {
	net        *Net
	localHost  string
	remoteHost string
	localAddr  string
	remoteAddr string
	inbox      *vclock.Mailbox[[]byte]
	peer       *conn

	mu     sync.Mutex
	closed bool
}

var _ transport.Conn = (*conn)(nil)

func newConn(n *Net, localHost, remoteHost, localAddr, remoteAddr string) *conn {
	return &conn{
		net:        n,
		localHost:  localHost,
		remoteHost: remoteHost,
		localAddr:  localAddr,
		remoteAddr: remoteAddr,
		inbox:      vclock.NewMailbox[[]byte](n.clk),
	}
}

func (c *conn) Send(msg []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return transport.ErrClosed
	}

	n := c.net
	n.mu.Lock()
	key := hostPair{c.localHost, c.remoteHost}
	st := n.statLocked(c.localHost, c.remoteHost)
	lm := n.linkMetricsLocked(key)
	if n.partitioned[key] {
		st.Dropped++
		if lm != nil {
			lm.drops.Inc()
		}
		n.mu.Unlock()
		// Partitioned links silently drop; senders discover via timeouts,
		// as with a real blackhole.
		return nil
	}
	p := n.paramsLocked(c.localHost, c.remoteHost)
	lf := n.faultsLocked(c.localHost, c.remoteHost)
	if lf != nil && lf.rng.Float64() < lf.policy.DropProb {
		st.FaultDrops++
		if lm != nil {
			lm.faultDrop.Inc()
		}
		n.mu.Unlock()
		// Like partition drops: silent loss, discovered via timeouts.
		return nil
	}
	now := n.clk.Now()
	depart := now
	if bu := n.busyUntil[key]; bu > depart {
		depart = bu
	}
	if lm != nil {
		lm.queue.ObserveDuration(depart - now)
	}
	var xmit time.Duration
	if p.Bandwidth > 0 {
		bits := time.Duration(len(msg) + p.Overhead)
		xmit = bits * time.Second / time.Duration(p.Bandwidth)
	}
	n.busyUntil[key] = depart + xmit
	arrival := depart + xmit + p.RTT/2
	var dupArrival time.Duration // zero: no duplicate
	if lf != nil {
		window := lf.policy.ReorderWindow
		if window <= 0 {
			window = p.RTT
		}
		if lf.policy.JitterMax > 0 {
			arrival += time.Duration(lf.rng.Int63n(int64(lf.policy.JitterMax)))
			st.FaultJitters++
			if lm != nil {
				lm.faultJitter.Inc()
			}
		}
		if lf.rng.Float64() < lf.policy.ReorderProb {
			// Hold the message back so later sends can overtake it.
			arrival += time.Duration(lf.rng.Int63n(int64(window))) + 1
			st.FaultReorders++
			if lm != nil {
				lm.faultReorder.Inc()
			}
		}
		if lf.rng.Float64() < lf.policy.DupProb {
			dupArrival = arrival + time.Duration(lf.rng.Int63n(int64(window))) + 1
			st.FaultDups++
			if lm != nil {
				lm.faultDup.Inc()
			}
		}
	}
	st.Messages++
	st.Bytes += int64(len(msg))
	if lm != nil {
		lm.msgs.Inc()
		lm.bytes.Add(int64(len(msg)))
	}
	n.mu.Unlock()

	// The in-flight copy comes from the frame pool; ownership transfers to
	// the receiver at inbox.Put, and the server side recycles it once the
	// request is terminal (client-received frames are never recycled).
	buf := bufpool.Get(len(msg))
	copy(buf, msg)
	peer := c.peer
	n.clk.AfterFunc(arrival-now, func() {
		if !peer.inbox.Put(buf) {
			// The receiver closed while the frame was in flight; ownership
			// never transferred, so the sender's copy recycles here.
			bufpool.Put(buf)
		}
	})
	if dupArrival > 0 {
		dup := bufpool.Get(len(buf))
		copy(dup, buf)
		n.clk.AfterFunc(dupArrival-now, func() {
			if !peer.inbox.Put(dup) {
				bufpool.Put(dup)
			}
		})
	}
	return nil
}

func (c *conn) Recv() ([]byte, error) {
	msg, ok := c.inbox.Get()
	if !ok {
		return nil, transport.ErrClosed
	}
	return msg, nil
}

func (c *conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.inbox.Close()
	// Propagate a FIN to the peer after the propagation delay, unless the
	// link is partitioned (then the peer only notices via timeouts).
	n := c.net
	n.mu.Lock()
	p := n.paramsLocked(c.localHost, c.remoteHost)
	part := n.partitioned[hostPair{c.localHost, c.remoteHost}]
	n.mu.Unlock()
	if !part && c.peer != nil {
		peer := c.peer
		n.clk.AfterFunc(p.RTT/2, func() {
			peer.inbox.Close()
		})
	}
	return nil
}

func (c *conn) LocalAddr() string  { return c.localAddr }
func (c *conn) RemoteAddr() string { return c.remoteAddr }
