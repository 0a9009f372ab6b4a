package core

import (
	"errors"
	"sync"
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// ClientRecord identifies a session participant: its ID and the address the
// server can call back. The record list is the state the paper stores
// "directly in disk" so a restarted server can reconstruct the session
// (Section 4.3.4).
type ClientRecord struct {
	ID           string
	CallbackAddr string
}

// StateStore persists the client list across proxy-server restarts.
type StateStore interface {
	SaveClients([]ClientRecord)
	LoadClients() []ClientRecord
}

// MemStateStore is an in-process StateStore, standing in for the proxy
// server's on-disk state file.
type MemStateStore struct {
	mu      sync.Mutex
	clients []ClientRecord
}

// SaveClients records the client list.
func (m *MemStateStore) SaveClients(cs []ClientRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clients = append([]ClientRecord(nil), cs...)
}

// LoadClients returns the recorded client list.
func (m *MemStateStore) LoadClients() []ClientRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]ClientRecord(nil), m.clients...)
}

// Dialer opens a connection to a callback address; it is how the proxy
// server reaches back across the wide area to its clients.
type Dialer func(addr string) (transport.Conn, error)

// ProxyServerStats is the pinned benchmark's view (benchmark/run.go) of one
// proxy-server counter, gvfs_server_callbacks_sent_total: recall RPCs issued.
// The counter lives in the obs registry, where every other reader reads it.
type ProxyServerStats struct {
	CallbacksSent int64
}

// ProxyServer is the GVFS user-level proxy in front of the kernel NFS
// server. It forwards NFS traffic upstream, tracks modifications in
// per-client invalidation buffers (polling model), and runs the
// delegation/callback state machine (strong model).
type ProxyServer struct {
	clk  *vclock.Clock
	cfg  Config
	up   *sunrpc.Client
	srv  *sunrpc.Server
	dial Dialer

	mu       sync.Mutex
	clients  map[string]*clientState
	creds    map[string]ClientRecord // session credential body -> what it decodes to
	invTS    uint64
	files    map[string]*fileState // the sharer table (proxyserver_nfs.go)
	lru      ring[fileState]       // files, most recently accessed first
	grace    bool
	grantSeq uint64
	graceW   []*vclock.Waiter
	store    StateStore
	stopped  bool

	// node records this proxy's trace spans; met holds its registry series.
	// Counters are the single source of truth — ProxyServerStats is a view
	// assembled from them (see Stats).
	node *obs.Node
	met  *serverMetrics
}

type clientState struct {
	rec ClientRecord
	cb  *sunrpc.Client
	buf *invBuffer
}

// fileState is one row of the sharer table (proxyserver_nfs.go).
type fileState struct {
	fh      nfs3.FH
	sharers map[string]*sharer
	link    link[fileState] // on ProxyServer.lru: the order MaxOpenFiles evicts in
}

type sharer struct {
	c     *clientState
	deleg DelegType
	// lastAccess is the idle clock DelegExpiry runs on: the sharer's last
	// access, or the settling of a recall that left it owing something.
	lastAccess time.Duration
	// closing: the sweep speculated it gone and asked for its delegation. It
	// leaves when that settles, unless an access of its own came first.
	closing bool
	// recall is the callback on the wire to it, nil when there is none: an
	// access that conflicts with it meanwhile waits for that to settle rather
	// than calling it back again.
	recall  *recallFlight
	pending map[uint64]bool // dirty byte offsets awaiting write-back
	// lostRecall is set when a recall callback to this sharer failed: its
	// delegation was revoked without acknowledgement, so dirty data it
	// buffered may predate writes by others that the revocation admitted.
	// The first write-back it sends afterwards is rejected, making it
	// discard the suspect blocks (Section 4.3.4's discard semantics)
	// instead of clobbering newer data.
	lostRecall bool
}

// NewProxyServer wraps an upstream connection to the kernel NFS server.
// dial is used for callback connections; store persists the client list
// (pass a fresh MemStateStore for a new session, or the old one to model a
// restart).
func NewProxyServer(clk *vclock.Clock, cfg Config, upstream *sunrpc.Client, dial Dialer, store StateStore) *ProxyServer {
	cfg = cfg.withDefaults()
	s := &ProxyServer{
		clk:     clk,
		cfg:     cfg,
		up:      upstream,
		srv:     sunrpc.NewServer(clk),
		dial:    dial,
		clients: make(map[string]*clientState),
		creds:   make(map[string]ClientRecord),
		files:   make(map[string]*fileState),
		store:   store,
	}
	s.lru.init()
	o := cfg.Obs
	if o == nil {
		o = obs.New(clk.Now, 1024)
	}
	name := cfg.ObsName
	if name == "" {
		name = "server"
	}
	s.node = o.Node("proxyd:" + name)
	s.met = newServerMetrics(o.Registry(), name)
	// Generic serve spans for every program the proxy server hosts; handlers
	// enrich them through the call's Span* annotations. Upstream (loopback)
	// forwards and callback recalls record their own call spans at this node.
	s.srv.SetObs(s.node, RPCName)
	s.up.SetObs(s.node, RPCName)
	upstream.SetRetransmit(cfg.retransmitPolicy())
	s.srv.SetSched(cfg.schedConfig())
	s.srv.Register(nfs3.Program, nfs3.Version, s.dispatchNFS)
	s.srv.SetReadOnly(nfs3.Program, nfs3.Version, nfs3.ReadOnlyProcs()...)
	s.srv.Register(nfs3.MountProgram, nfs3.MountVersion, s.forwardRaw(nfs3.MountProgram, nfs3.MountVersion))
	s.srv.Register(InvProgram, InvVersion, s.dispatchInv)
	return s
}

// Serve begins accepting proxy-client connections. If the state store holds
// client records (server restart), incoming requests block for a grace
// period while the session state is reconstructed via whole-cache callbacks
// (Section 4.3.4).
func (s *ProxyServer) Serve(l transport.Listener) {
	recovered := s.store.LoadClients()
	if len(recovered) > 0 {
		s.mu.Lock()
		s.grace = true
		for _, rec := range recovered {
			s.clients[rec.ID] = &clientState{rec: rec, buf: newInvBuffer(s.cfg.InvBufferEntries)}
		}
		s.mu.Unlock()
		s.clk.Go("gvfs-recover", s.recover)
	}
	s.srv.Serve(l)
	if s.cfg.Model == ModelDelegation {
		s.clk.GoDaemon("gvfs-expiry", s.expiryLoop)
	}
}

// Stop shuts the proxy server down.
func (s *ProxyServer) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	cbs := make([]*sunrpc.Client, 0, len(s.clients))
	for _, c := range s.clients {
		if c.cb != nil {
			cbs = append(cbs, c.cb)
		}
	}
	s.mu.Unlock()
	for _, cb := range cbs {
		cb.Close()
	}
	s.srv.Close()
	s.up.Close()
}

// Stats returns the pinned benchmark's view of the registry's counter.
func (s *ProxyServer) Stats() ProxyServerStats {
	return ProxyServerStats{CallbacksSent: s.met.callbacksSent.Value()}
}

// PublishMetrics folds point-in-time state (delegation table size,
// invalidation-buffer occupancy) into the obs registry gauges. Deployments
// call it before scraping a snapshot.
func (s *ProxyServer) PublishMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	buffered := 0
	for _, c := range s.clients {
		buffered += len(c.buf.order)
	}
	s.met.invBufferOcc.Set(int64(buffered))
	s.met.openFiles.Set(int64(len(s.files)))
}

// Inflight reports the proxy server's current and peak concurrently
// executing request handlers (zero when Config leaves ServerWorkers
// unbounded).
func (s *ProxyServer) Inflight() (running, peak int) {
	return s.srv.Inflight()
}

// StateSize reports the delegation table's size (files, sharer entries).
func (s *ProxyServer) StateSize() (files, sharers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	files = len(s.files)
	for _, f := range s.files {
		sharers += len(f.sharers)
	}
	return files, sharers
}

// recover reconstructs session state after a restart: one multicast round of
// whole-cache callbacks; clients holding dirty data are re-granted write
// delegations so they can reconcile.
func (s *ProxyServer) recover() {
	s.mu.Lock()
	clients := make([]*clientState, 0, len(s.clients))
	for _, id := range sortedKeys(s.clients) { // the rebuild round is traced
		clients = append(clients, s.clients[id])
	}
	s.mu.Unlock()
	rid := s.node.Mint()
	for _, c := range clients {
		dirty, err := s.callbackRecallAll(rid, c)
		s.mu.Lock()
		if err != nil {
			delete(s.clients, c.rec.ID) // unreachable: out of the session
		}
		for _, fh := range dirty {
			s.rebuildLocked(c, fh, s.clk.Now())
		}
		s.mu.Unlock()
	}
	s.persistClients()

	s.mu.Lock()
	s.grace = false
	ws := s.graceW
	s.graceW = nil
	s.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}

func (s *ProxyServer) waitGrace() {
	s.mu.Lock()
	if !s.grace {
		s.mu.Unlock()
		return
	}
	w := s.clk.NewWaiter()
	s.graceW = append(s.graceW, w)
	s.mu.Unlock()
	s.clk.WaitAs(w, "gvfs-grace")
}

// expiryLoop is the table's background sweep: every quarter of DelegExpiry it
// speculates files closed by sharers idle that long (Section 4.3.3), then
// sheds the least recently accessed files beyond MaxOpenFiles. The sweep only
// decides; what it wants back goes through recall like any other delegation.
func (s *ProxyServer) expiryLoop() {
	period := s.cfg.DelegExpiry / 4
	if period <= 0 {
		period = time.Minute
	}
	for {
		s.clk.Sleep(period)
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		reqs := s.sweepLocked(s.clk.Now())
		s.mu.Unlock()
		if len(reqs) > 0 {
			s.recall(s.node.Mint(), reqs)
		}
	}
}

// --- client registry ------------------------------------------------------

func (s *ProxyServer) ensureClient(cred sunrpc.Cred) *clientState {
	s.mu.Lock()
	rec := s.sessionLocked(cred)
	c, ok := s.clients[rec.ID]
	if !ok {
		c = &clientState{rec: rec, buf: newInvBuffer(s.cfg.InvBufferEntries)}
		s.clients[rec.ID] = c
		s.mu.Unlock()
		s.persistClients()
		return c
	}
	if rec.CallbackAddr != "" && rec.CallbackAddr != c.rec.CallbackAddr {
		c.rec.CallbackAddr = rec.CallbackAddr
		c.cb = nil
	}
	s.mu.Unlock()
	return c
}

// maxSessionCreds bounds ProxyServer.creds: a peer may send any bytes as its
// credential.
const maxSessionCreds = 1024

// sessionLocked returns the client record a call's credential names,
// "anonymous" for a call without a valid session credential. Each session
// credential is decoded once and remembered: a client sends the same one on
// every call.
func (s *ProxyServer) sessionLocked(cred sunrpc.Cred) ClientRecord {
	if cred.Flavor != sunrpc.AuthGVFS {
		return ClientRecord{ID: "anonymous"}
	}
	if rec, ok := s.creds[string(cred.Body)]; ok {
		return rec
	}
	sc, err := DecodeSessionCred(cred)
	if err != nil {
		return ClientRecord{ID: "anonymous"}
	}
	rec := ClientRecord{ID: sc.ClientID, CallbackAddr: sc.CallbackAddr}
	if len(s.creds) >= maxSessionCreds {
		clear(s.creds)
	}
	s.creds[string(cred.Body)] = rec
	return rec
}

func (s *ProxyServer) persistClients() {
	s.mu.Lock()
	recs := make([]ClientRecord, 0, len(s.clients))
	for _, c := range s.clients {
		recs = append(recs, c.rec)
	}
	s.mu.Unlock()
	s.store.SaveClients(recs)
}

// callbackClient lazily dials the client's callback service.
func (s *ProxyServer) callbackClient(c *clientState) (*sunrpc.Client, error) {
	s.mu.Lock()
	cb, addr := c.cb, c.rec.CallbackAddr
	s.mu.Unlock()
	if cb != nil {
		return cb, nil
	}
	conn, err := s.dial(addr)
	if err != nil {
		return nil, err
	}
	cb = sunrpc.NewClient(s.clk, conn, sunrpc.NoneCred())
	cb.SetObs(s.node, RPCName)
	cb.SetRetransmit(s.cfg.retransmitPolicy())
	s.mu.Lock()
	if c.cb == nil {
		c.cb = cb
	} else {
		cb.Close()
		cb = c.cb
	}
	s.mu.Unlock()
	return cb, nil
}

// callbackCall issues one RPC on the client's callback channel. The lazily
// dialed callback connection can be stale (the proxy client restarted, or an
// earlier partition killed it); ErrClosed therefore invalidates the cached
// client and redials once before giving up. Message loss on a live channel
// is already covered underneath by same-XID retransmission, and the proxy
// client's DRC keeps the extra recall copies from executing twice.
func (s *ProxyServer) callbackCall(rid uint64, c *clientState, proc uint32, args []byte) (*xdr.Decoder, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cb, err := s.callbackClient(c)
		if err != nil {
			return nil, err
		}
		d, err := cb.CallTraced(rid, CallbackProgram, CallbackVersion, proc, args, s.cfg.CallTimeout)
		if err == nil {
			return d, nil
		}
		lastErr = err
		s.mu.Lock()
		if c.cb == cb {
			c.cb = nil
		}
		stopped := s.stopped
		s.mu.Unlock()
		cb.Close()
		if stopped || !errors.Is(err, sunrpc.ErrClosed) {
			break // a timed-out channel already had its retransmissions
		}
	}
	return nil, lastErr
}

// callbackRecall issues one recall RPC for recall, its only caller; nil means
// the client never answered. rid is the trace request ID of the conflicting
// request (or the sweep) that forced the recall, so the whole causal chain
// shares one ID in the trace.
func (s *ProxyServer) callbackRecall(rid uint64, c *clientState, args RecallArgs) *RecallRes {
	s.met.callbacksSent.Inc()
	s.met.delegRecalls.Inc()
	e := xdr.NewEncoder()
	args.Encode(e)
	d, err := s.callbackCall(rid, c, ProcRecall, e.Bytes())
	if err != nil {
		return nil
	}
	var res RecallRes
	if res.Decode(d) != nil {
		return nil
	}
	return &res
}

// callbackRecallAll asks a client which files it holds dirty data for.
func (s *ProxyServer) callbackRecallAll(rid uint64, c *clientState) ([]nfs3.FH, error) {
	s.met.callbacksSent.Inc()
	d, err := s.callbackCall(rid, c, ProcRecallAll, nil)
	if err != nil {
		return nil, err
	}
	var res RecallAllRes
	if err := res.Decode(d); err != nil {
		return nil, err
	}
	return res.DirtyFiles, nil
}

// --- invalidation buffers (Section 4.2) ------------------------------------

type invBuffer struct {
	max        int
	order      []string // FH keys, oldest first
	member     map[string]bool
	overflowed bool
	// lastSentTS is the timestamp returned by the previous GETINV reply;
	// the client must echo it to prove it is in sync.
	lastSentTS   uint64
	bootstrapped bool
}

func newInvBuffer(max int) *invBuffer {
	return &invBuffer{max: max, member: make(map[string]bool)}
}

// add records an invalidation, coalescing duplicates and wrapping the
// circular queue on overflow. It reports whether this add wrapped the queue
// (losing the oldest entry).
func (b *invBuffer) add(key string) (wrapped bool) {
	if b.member[key] {
		// Coalesce in place: the entry keeps its original queue position.
		// Moving it to the back would break the client's count-based
		// freshness-horizon accounting (GetInvRes.Remaining): an entry
		// re-touched after a GETINV round would slip behind newer entries,
		// so delivering "Remaining" more handles would no longer guarantee
		// that every pre-round invalidation has been applied. The original
		// position still invalidates every commit up to its delivery time.
		return false
	}
	if len(b.order) >= b.max {
		// Circular queue wrap-around: the oldest entry is lost and the
		// client must be force-invalidated.
		oldest := b.order[0]
		b.order = b.order[1:]
		delete(b.member, oldest)
		b.overflowed = true
		wrapped = true
	}
	b.member[key] = true
	b.order = append(b.order, key)
	return wrapped
}

func (b *invBuffer) flush() {
	b.order = nil
	b.member = make(map[string]bool)
	b.overflowed = false
}

// dispatchInv serves the GETINV program (server-side algorithm of Section
// 4.2.1).
func (s *ProxyServer) dispatchInv(call *sunrpc.Call) sunrpc.AcceptStat {
	if call.Proc != ProcGetInv {
		return sunrpc.ProcUnavail
	}
	var args GetInvArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	c := s.ensureClient(call.Cred)

	s.met.getInvServed.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	b := c.buf
	res := GetInvRes{Timestamp: s.invTS}

	switch {
	case !b.bootstrapped:
		// 1) First GETINV from this client (or after a server restart):
		// initialize the buffer and force-invalidate.
		b.bootstrapped = true
		b.flush()
		res.ForceInvalidate = true
		s.met.forceReplies.Inc()
		call.SpanDetail = "force"
	case args.Timestamp != b.lastSentTS || b.overflowed:
		// 2) The client has not kept up (crash, lost reply, or buffer
		// wrap-around): flush and force-invalidate.
		b.flush()
		res.ForceInvalidate = true
		s.met.forceReplies.Inc()
		call.SpanDetail = "force"
	default:
		// 3) Return buffer contents (bounded by one reply) and clear them.
		// A client-requested batch of 0 (or one beyond what fits under
		// MaxIOSize) is clamped to the server's ceiling so a reply frame
		// stays bounded no matter what the peer asks for.
		n := len(b.order)
		max := int(args.MaxHandles)
		if ceil := nfs3.MaxIOSize / (nfs3.MaxFHSize + 8); max <= 0 || max > ceil {
			max = ceil
		}
		if n > max {
			n = max
			res.PollAgain = true
		}
		for _, key := range b.order[:n] {
			if fh, err := nfs3.FHFromBytes([]byte(key)); err == nil {
				res.Handles = append(res.Handles, fh)
			}
			delete(b.member, key)
		}
		b.order = b.order[n:]
		res.Remaining = uint32(len(b.order))
	}
	b.lastSentTS = s.invTS
	res.Timestamp = s.invTS
	s.met.getinvBatch.Observe(int64(len(res.Handles)))
	return encodeReply(call, &res)
}

// queueInvalidations records modified handles in every other client's
// buffer with a fresh logical timestamp.
func (s *ProxyServer) queueInvalidations(from string, fhs []nfs3.FH) {
	if len(fhs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invTS++
	for id, c := range s.clients {
		if id == from {
			continue
		}
		for _, fh := range fhs {
			if c.buf.add(fh.Key()) {
				s.met.invOverflows.Inc()
			}
			s.met.invQueued.Inc()
		}
	}
}
