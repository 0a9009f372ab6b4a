package sunrpc

import (
	"bytes"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// DispatchFunc handles one procedure call for a registered program. It
// decodes arguments from call.Args, writes results to call.Reply, and
// returns the accept status. Dispatch functions run concurrently (the
// server is multithreaded, as the paper's proxies are).
type DispatchFunc func(call *Call) AcceptStat

type progVers struct{ prog, vers uint32 }

// defaultDRCEntries bounds each connection's duplicate-request cache.
const defaultDRCEntries = 512

// procSlots is how many procedures of a program are counted with atomics and
// can be declared read-only; NFSv3, the largest program here, has 22.
const procSlots = 64

// program is one registered (prog, vers).
type program struct {
	fn DispatchFunc
	// readOnly has bit p set when procedure p was declared read-only
	// (SetReadOnly): the duplicate-request cache does not retain its replies.
	readOnly uint64
}

func (p program) isReadOnly(proc uint32) bool {
	return proc < procSlots && p.readOnly&(1<<proc) != 0
}

// dispatchTable is everything a request needs from the server to be
// dispatched. It is immutable: Register, SetReadOnly, SetSched and SetObs
// swap in an edited copy, so connections dispatch without a server-wide lock.
type dispatchTable struct {
	programs map[progVers]program
	// calls counts calls served per procedure of each registered program
	// number. The counter arrays are shared by every copy of the table.
	calls map[uint32]*[procSlots]atomic.Int64
	sched *sched

	node     *obs.Node
	procName ProcNameFunc

	metDRCHits *obs.Counter
	metDRCBusy *obs.Counter
}

// Server accepts connections from a listener and dispatches RPC calls to
// registered programs.
type Server struct {
	clk *vclock.Clock

	table atomic.Pointer[dispatchTable]

	// workers serves the calls the scheduler dispatches.
	workers workerPool

	mu         sync.Mutex // guards the fields below and serialises table edits
	ls         []transport.Listener
	conns      map[transport.Conn]*drc // live connections, each with its duplicate-request cache
	closed     bool
	otherCalls map[uint64]int64 // prog<<32|proc -> calls the table has no counter for
}

// edit swaps in a copy of the dispatch table that fn has changed. fn must
// replace, not modify, any map it touches.
func (s *Server) edit(fn func(t *dispatchTable)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := *s.table.Load()
	fn(&t)
	s.table.Store(&t)
}

// SetObs attaches a trace node: every dispatched call records a
// "serve <PROC>" span carrying the caller's request ID and any annotations
// the dispatch function left on the Call.
func (s *Server) SetObs(node *obs.Node, procName ProcNameFunc) {
	s.edit(func(t *dispatchTable) {
		t.node = node
		t.procName = procName
		if reg := node.Registry(); reg != nil {
			t.metDRCHits = reg.Counter(obs.Label("gvfs_rpc_drc_hits_total", "node", node.Name()))
			t.metDRCBusy = reg.Counter(obs.Label("gvfs_rpc_drc_busy_total", "node", node.Name()))
		}
		t.sched.setObs(node)
	})
}

// SetSched replaces the server's scheduler (worker pool, per-client DRR
// queues, token-bucket admission — see sched.go), through which every call
// reaches its handler. The zero SchedConfig bounds nothing: every call is
// admitted and dispatched, never queued or shed. Takes effect for requests
// received after the call.
func (s *Server) SetSched(cfg SchedConfig) {
	s.edit(func(t *dispatchTable) {
		t.sched = newSched(s.clk, s, cfg)
		t.sched.setObs(t.node)
	})
}

// NewServer returns an empty server with the zero SchedConfig's scheduler;
// register programs before Serve. Every connection it accepts gets a
// duplicate-request cache.
func NewServer(clk *vclock.Clock) *Server {
	s := &Server{
		clk:        clk,
		workers:    workerPool{clk: clk},
		conns:      make(map[transport.Conn]*drc),
		otherCalls: make(map[uint64]int64),
	}
	s.table.Store(&dispatchTable{
		programs: make(map[progVers]program),
		calls:    make(map[uint32]*[procSlots]atomic.Int64),
		sched:    newSched(clk, s, SchedConfig{}),
	})
	return s
}

// Register installs the dispatch function for (prog, vers).
func (s *Server) Register(prog, vers uint32, fn DispatchFunc) {
	s.edit(func(t *dispatchTable) {
		t.programs = maps.Clone(t.programs)
		t.programs[progVers{prog, vers}] = program{fn: fn}
		if t.calls[prog] == nil {
			t.calls = maps.Clone(t.calls)
			t.calls[prog] = new([procSlots]atomic.Int64)
		}
	})
}

// SetReadOnly declares procedures of the registered (prog, vers) that change
// nothing when executed twice. It is for the package that implements the
// program to call next to Register — a property of the protocol, not a
// setting. The duplicate-request cache exists so that a retransmitted call
// does not take effect a second time; for a read-only procedure there is no
// effect to protect, so its reply is not retained: a duplicate that arrives
// while the original executes is still dropped, one that arrives afterwards
// executes again. Every procedure not declared here keeps its reply for
// replay.
func (s *Server) SetReadOnly(prog, vers uint32, procs ...uint32) {
	s.edit(func(t *dispatchTable) {
		p, ok := t.programs[progVers{prog, vers}]
		if !ok {
			panic(fmt.Sprintf("sunrpc: SetReadOnly of unregistered program %d version %d", prog, vers))
		}
		for _, proc := range procs {
			if proc >= procSlots {
				panic(fmt.Sprintf("sunrpc: SetReadOnly of procedure %d, limit is %d", proc, procSlots))
			}
			p.readOnly |= 1 << proc
		}
		t.programs = maps.Clone(t.programs)
		t.programs[progVers{prog, vers}] = p
	})
}

// Serve starts an accept loop on l. It returns immediately; connection and
// request handling run as clock actors. Serve may be called for multiple
// listeners.
func (s *Server) Serve(l transport.Listener) {
	s.mu.Lock()
	s.ls = append(s.ls, l)
	s.mu.Unlock()
	s.clk.GoDaemon("sunrpc-accept:"+l.Addr(), func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			cache := newDRC(defaultDRCEntries)
			s.conns[conn] = cache
			s.mu.Unlock()
			s.clk.GoDaemon("sunrpc-conn:"+conn.RemoteAddr(), func() { s.serveConn(conn, cache) })
		}
	})
}

// count records one call of (prog, proc): an atomic add for the procedures
// of registered programs, the locked map for anything else a peer may send.
func (s *Server) count(t *dispatchTable, prog, proc uint32) {
	if c := t.calls[prog]; c != nil && proc < procSlots {
		c[proc].Add(1)
		return
	}
	s.mu.Lock()
	s.otherCalls[uint64(prog)<<32|uint64(proc)]++
	s.mu.Unlock()
}

// Counts returns a snapshot of calls served, keyed by prog<<32|proc.
func (s *Server) Counts() map[uint64]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := maps.Clone(s.otherCalls)
	for prog, c := range s.table.Load().calls {
		for proc := range c {
			if n := c[proc].Load(); n > 0 {
				out[uint64(prog)<<32|uint64(proc)] = n
			}
		}
	}
	return out
}

// Close stops all listeners, closes all connections and ends the parked
// workers; a busy worker ends once its call is done.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ls := s.ls
	s.ls = nil
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = make(map[transport.Conn]*drc)
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.workers.close()
}

// request is one received call from arrival to its terminal state — replayed
// or dropped by the duplicate-request cache, shed, or handled — with what the
// server and its scheduler keep about it and the Call its dispatch function
// sees, in one pooled allocation: a steady-state server allocates nothing of
// its own per call. release recycles it with its frame.
type request struct {
	parsedMsg
	srv   *Server
	conn  transport.Conn
	cache *drc
	call  Call
	// Scheduler state (sched.go): the fairness key, arrival order and DRR
	// cost; the queue it waits in; pool, the scheduler whose worker slot it
	// holds while handled (nil: none), with the time it waited for the slot;
	// and wake, what a yielding handler parks on to get a slot back.
	key    string
	seq    uint64
	cost   int
	enq    time.Duration
	q      *clientQueue
	pool   *sched
	queued time.Duration
	wake   vclock.Waiter
}

var requests sync.Pool

func newRequest() *request {
	r, _ := requests.Get().(*request)
	if r == nil {
		r = new(request)
	}
	return r
}

// release recycles the request and its frame. Nothing may touch either
// afterwards: the arguments, the credential and the Call all alias them.
func (r *request) release() {
	bufpool.Put(r.raw)
	*r = request{}
	requests.Put(r)
}

// serve handles the request, then gives back the worker slot it was
// dispatched into, if any. It returns the queued call the worker takes on
// next in that slot (sched.release), or nil.
func (r *request) serve() *request {
	srv, pool := r.srv, r.pool
	srv.handle(r)
	if pool != nil {
		return pool.release(true)
	}
	return nil
}

// workerPool is a server's workers: clock actors that serve the calls the
// scheduler dispatches, one after another, and park in between. A call is
// handed to the most recently parked worker — the one whose stack is most
// likely still grown and warm in cache — and a worker is started only when
// none is parked, so a server starts no more workers than the calls it has
// had in hand at once. A parked worker waits idle (vclock.Clock.WaitIdle):
// it lets a simulation quiesce, while one blocked inside a call counts toward
// a virtual deadlock, whose dump names it.
type workerPool struct {
	clk *vclock.Clock

	mu sync.Mutex
	// parked is a stack: the last parked is the first handed a call.
	parked []*worker
	closed bool
	// busy counts workers in hand of a call, from the hand-off until they
	// park again; peak is its maximum and started the workers ever started,
	// which it bounds.
	busy, peak, started int
}

// worker is one parked worker's hand-off: the call it is given, nil being the
// pool's word to end, and the waiter it parks on.
type worker struct {
	r    *request
	wake vclock.Waiter
}

// hand gives r to a parked worker, or starts one for it: the one place a call
// is given an actor.
func (p *workerPool) hand(r *request) {
	p.mu.Lock()
	if p.busy++; p.busy > p.peak {
		p.peak = p.busy
	}
	if n := len(p.parked); n > 0 {
		w := p.parked[n-1]
		p.parked[n-1] = nil
		p.parked = p.parked[:n-1]
		w.r = r
		p.mu.Unlock()
		w.wake.Wake()
		return
	}
	p.started++
	p.mu.Unlock()
	p.clk.Go("sunrpc-worker", func() { p.work(r) })
}

// work is a worker's life: serve r and whatever it is handed next until the
// pool is closed.
func (p *workerPool) work(r *request) {
	w := new(worker)
	for r != nil {
		if r = r.serve(); r == nil {
			r = p.park(w)
		}
	}
}

// park waits for the next call, or returns nil once the pool is closed.
func (p *workerPool) park(w *worker) *request {
	p.mu.Lock()
	p.busy--
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.clk.InitWaiter(&w.wake)
	p.parked = append(p.parked, w)
	p.mu.Unlock()
	p.clk.WaitIdle(&w.wake, "sunrpc worker parked")
	r := w.r
	w.r = nil
	return r
}

// close ends the parked workers, and every worker that parks from now on.
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	parked := p.parked
	p.parked = nil
	p.mu.Unlock()
	for _, w := range parked {
		w.wake.Wake()
	}
}

// drcEntry tracks one XID on a connection: in progress until the handler
// finishes, then holding the reply bytes for replay. It is a link of the
// drcList it is on.
type drcEntry struct {
	xid        uint32
	done       bool
	reply      []byte
	prev, next *drcEntry
}

// drcList is an intrusive FIFO of entries with O(1) push, front and unlink.
// The zero value is an empty list.
type drcList struct{ root drcEntry }

func (l *drcList) front() *drcEntry {
	if l.root.next == nil || l.root.next == &l.root {
		return nil
	}
	return l.root.next
}

func (l *drcList) pushBack(e *drcEntry) {
	if l.root.next == nil {
		l.root.prev, l.root.next = &l.root, &l.root
	}
	e.prev, e.next = l.root.prev, &l.root
	e.prev.next = e
	l.root.prev = e
}

func (e *drcEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// drcState is what the cache knows about an arriving XID.
type drcState int

const (
	drcNew  drcState = iota // first sight: now recorded as in progress
	drcBusy                 // duplicate of a call still executing
	drcDone                 // duplicate of a completed call whose reply is retained
)

// drc is the classic NFS duplicate-request cache, scoped to one connection
// identity. At-least-once clients retransmit under the same XID; the cache
// turns those duplicates into replays of the original reply (or silence
// while the original is still executing) instead of re-executed handlers,
// which is what makes non-idempotent procedures — REMOVE, RENAME, CREATE,
// the GETINV queue drain, callback recalls — safe under message loss.
// Replies of procedures declared read-only are not kept (Server.SetReadOnly).
type drc struct {
	mu      sync.Mutex
	max     int
	entries map[uint32]*drcEntry
	busy    drcList   // in progress, in arrival order
	done    drcList   // completed and retained, in completion order
	free    *drcEntry // removed entries for admit to reuse, linked by next
}

func newDRC(max int) *drc {
	return &drc{max: max, entries: make(map[uint32]*drcEntry)}
}

// admit looks xid up and, when it is new, records it as in progress. For a
// duplicate of a completed call it returns the reply to replay. Past the
// bound a new entry evicts the oldest completed one; an in-progress one only
// when nothing else is left, since that lets a still pending duplicate
// re-execute.
func (d *drc) admit(xid uint32) (drcState, []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.entries[xid]; e != nil {
		if e.done {
			return drcDone, e.reply
		}
		return drcBusy, nil
	}
	if len(d.entries) >= d.max {
		victim := d.done.front()
		if victim == nil {
			victim = d.busy.front()
		}
		victim.unlink()
		delete(d.entries, victim.xid)
		d.recycle(victim)
	}
	e := d.free
	if e != nil {
		d.free = e.next
		*e = drcEntry{xid: xid}
	} else {
		e = &drcEntry{xid: xid}
	}
	d.entries[xid] = e
	d.busy.pushBack(e)
	return drcNew, nil
}

// recycle keeps an entry that has left the cache for admit to reuse. The
// reply it held stays with whoever admit handed it to.
func (d *drc) recycle(e *drcEntry) {
	e.reply, e.next = nil, d.free
	d.free = e
}

// remove forgets xid entirely: when the scheduler sheds a queued request the
// shed reply must leave no trace, so that the client's retransmission under
// the same XID executes the handler (exactly once); and when a read-only
// procedure completes there is nothing a replay would protect.
func (d *drc) remove(xid uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.entries[xid]; e != nil {
		e.unlink()
		delete(d.entries, xid)
		d.recycle(e)
	}
}

// complete stores the reply bytes for later replay. The cache owns them from
// here on; nobody may write to them again.
func (d *drc) complete(xid uint32, reply []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.entries[xid]; e != nil && !e.done {
		e.done = true
		e.reply = reply
		e.unlink()
		d.done.pushBack(e)
	}
}

func (s *Server) serveConn(conn transport.Conn, cache *drc) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// What does not change from call to call is worked out once per
	// connection: the peer's address (formatting a TCP address allocates)
	// and the fairness key of the credential its calls carry.
	remote := conn.RemoteAddr()
	var keys connKey
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		// The frame is recycled with the request once it reaches its
		// terminal state: discarded or replayed here, shed, or handled.
		// Client connections recycle theirs only when the caller releases the
		// reply — see parsedMsg.raw.
		r := newRequest()
		r.raw = raw
		if err := r.parse(raw); err != nil || r.mtype != msgCall {
			r.release()
			continue
		}
		r.srv, r.conn, r.cache = s, conn, cache
		t := s.table.Load()
		// Retransmitted XID: replay the cached reply, or stay silent while
		// the original execution is still in flight (the client will
		// retransmit again if the eventual reply is lost).
		state, reply := cache.admit(r.xid)
		if state != drcNew {
			if state == drcDone {
				t.metDRCHits.Inc()
				conn.Send(reply)
			} else {
				t.metDRCBusy.Inc()
			}
			r.release()
			continue
		}
		// The scheduler admits the request and drains on this actor; each
		// admitted request is served on a worker apart from the
		// connection's actor, so slow handlers (e.g. a proxy server blocked
		// issuing a callback) do not stall the connection — the
		// multithreading the paper requires to avoid deadlock between NFS
		// RPCs and GVFS callbacks. If the scheduler sheds this request it
		// removes the DRC entry begun above, so the client's retransmission
		// executes it fresh.
		sc := t.sched
		sc.submit(keys.of(sc, r.cred, remote), r, len(raw))
	}
}

// connKey remembers the fairness key of the credential a connection's calls
// last carried: deriving it (SchedConfig.ClientName) decodes the credential,
// and a connection's calls carry the same one call after call.
type connKey struct {
	sc     *sched
	flavor uint32
	body   []byte
	key    string
}

func (k *connKey) of(sc *sched, cred Cred, remote string) string {
	if sc != k.sc || cred.Flavor != k.flavor || !bytes.Equal(cred.Body, k.body) {
		k.sc, k.flavor, k.body = sc, cred.Flavor, append(k.body[:0], cred.Body...)
		k.key = sc.clientKey(cred, remote)
	}
	return k.key
}

// shed answers a request with TryLater instead of executing it, recording
// the decision as a span (Detail "shed=<reason>") and a per-reason
// gvfs_server_shed_total counter, and releases it. The reply deliberately
// bypasses the DRC: the retransmission must execute, not replay the shed.
func (s *Server) shed(r *request, reason string) {
	t := s.table.Load()
	t.sched.shedCounter(reason).Inc()
	if t.node != nil {
		now := t.node.Now()
		t.node.Record(obs.Span{
			Req:    r.reqID,
			Op:     "serve " + procLabel(t.procName, r.prog, r.proc),
			Detail: "shed=" + reason,
			Err:    TryLater.String(),
			Start:  now,
			End:    now,
		})
	}
	r.conn.Send(marshalReply(r.xid, TryLater, nil))
	r.release()
}

// reply finishes a call the server answers itself: the wire reply is
// recorded in the connection's duplicate-request cache before it is sent, so
// a retransmission that races the reply still replays identical bytes.
func (s *Server) reply(conn transport.Conn, cache *drc, xid uint32, stat AcceptStat, results []byte) {
	raw := marshalReply(xid, stat, results)
	cache.complete(xid, raw)
	conn.Send(raw)
}

// handle executes one admitted request and releases it. A request dispatched
// into a worker slot (r.pool) records the time it waited for the slot as a
// "queued=" span detail.
func (s *Server) handle(r *request) {
	t := s.table.Load()
	s.count(t, r.prog, r.proc)
	p, ok := t.programs[progVers{r.prog, r.vers}]
	if !ok {
		stat := ProgUnavail
		if t.calls[r.prog] != nil {
			stat = ProgMismatch
		}
		s.reply(r.conn, r.cache, r.xid, stat, nil)
		r.release()
		return
	}
	node := t.node

	// The reply is encoded once, in place: the header goes into a pooled
	// encoder first and the dispatch function appends its results directly
	// after it, so Success replies need no results-to-message copy and, at
	// steady state, no allocation at all.
	enc := bufpool.GetEncoder()
	beginReply(enc, r.xid)
	call := &r.call
	*call = Call{
		XID:    r.xid,
		Prog:   r.prog,
		Vers:   r.vers,
		Proc:   r.proc,
		Cred:   r.cred,
		ReqID:  r.reqID,
		Args:   &r.body,
		Reply:  enc,
		Traced: node.Tracing(),
		req:    r,
	}
	start := node.Now()
	stat := p.fn(call)
	if stat != Success {
		// Discard whatever the handler half-encoded and patch the stat slot.
		enc.Truncate(replyHeaderLen)
		enc.SetUint32At(replyStatOff, uint32(stat))
	}
	if node.Tracing() {
		sp := obs.Span{
			Req:    call.ReqID,
			Op:     "serve " + procLabel(t.procName, r.prog, r.proc),
			FH:     call.SpanFH,
			Detail: call.SpanDetail,
			Bytes:  call.SpanBytes,
			Start:  start,
			End:    node.Now(),
		}
		if r.pool != nil {
			q := "queued=" + r.queued.String()
			if sp.Detail != "" {
				sp.Detail += " " + q
			} else {
				sp.Detail = q
			}
		}
		if stat != Success {
			sp.Err = stat.String()
		}
		node.Record(sp)
	}
	raw := enc.Bytes()
	if p.isReadOnly(r.proc) {
		// Nothing a replay would protect. The in-progress entry has kept
		// duplicates silent while the handler ran and does so until the
		// reply is out; one that arrives later executes again.
		r.conn.Send(raw)
		r.cache.remove(r.xid)
	} else {
		// The cache keeps a copy — raw is the pooled encoder's, about to be
		// written over — recorded before Send, so that a retransmission
		// racing the reply replays identical bytes.
		r.cache.complete(r.xid, append([]byte(nil), raw...))
		r.conn.Send(raw)
	}
	bufpool.PutEncoder(enc)
	r.release()
}
