package sunrpc

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// ProcNameFunc renders (prog, proc) as a human-readable operation name for
// trace spans. A nil func falls back to numeric formatting.
type ProcNameFunc func(prog, proc uint32) string

func procLabel(fn ProcNameFunc, prog, proc uint32) string {
	if fn != nil {
		return fn(prog, proc)
	}
	return fmt.Sprintf("%d/%d", prog, proc)
}

// RetransmitPolicy configures same-XID retransmission for calls issued with a
// timeout. The client resends the identical call message when no reply has
// arrived after Initial, doubling the interval up to Max on each attempt,
// until the call's overall timeout expires. Because every attempt carries the
// same XID, a reply to any of them completes the call, and the server's
// duplicate-request cache keeps the extra copies from re-executing the
// handler — together giving at-least-once transmission with exactly-once
// effects.
type RetransmitPolicy struct {
	// Initial is the wait before the first retransmission. Values <= 0
	// default to 1s.
	Initial time.Duration
	// Max caps the exponentially growing wait. Zero defaults to 8*Initial;
	// values below Initial are clamped to Initial.
	Max time.Duration
	// PerByte stretches the first wait by the request frame's size, a tail
	// sent by reference included, and by the reply's expected size
	// (ReplyBytes): the effective initial timeout is Initial +
	// (len(frame)+reply)*PerByte. Large coalesced WRITEs spend real transfer
	// time on bandwidth-limited links; a fixed timeout sized for small calls
	// would retransmit them while the first copy is still in flight, doubling
	// exactly the traffic the coalescing saved. Zero leaves the timeout
	// size-independent.
	PerByte time.Duration
	// ReplyBytes, when set, is what a call's reply is expected to carry, from
	// its program, procedure and arguments (args, then tail, as StartParts
	// sends them); the first wait is stretched by it at PerByte too. A READ
	// is a small call with a large reply: sized by its request frame alone it
	// would be given none of its own transfer time, and a multi-block READ on
	// a slow link would be sent again while its reply is still crossing.
	ReplyBytes func(prog, proc uint32, args, tail []byte) int
	// Jitter bounds the deterministic per-attempt jitter added to each wait.
	// The jitter is a hash of (Seed, XID, attempt), not a draw from a shared
	// PRNG, so simulations stay reproducible regardless of actor scheduling.
	Jitter time.Duration
	// Seed perturbs the jitter hash so different runs (or nodes) can desynchronize.
	Seed int64
}

func (p RetransmitPolicy) withDefaults() RetransmitPolicy {
	if p.Initial <= 0 {
		p.Initial = time.Second
	}
	if p.Max == 0 {
		p.Max = 8 * p.Initial
	}
	if p.Max < p.Initial {
		p.Max = p.Initial
	}
	return p
}

// jitterFor derives the deterministic jitter for one retransmission attempt.
func (p RetransmitPolicy) jitterFor(xid uint32, attempt int) time.Duration {
	if p.Jitter <= 0 {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	put64 := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put64(uint64(p.Seed))
	put64(uint64(xid))
	put64(uint64(attempt))
	return time.Duration(h.Sum64() % uint64(p.Jitter))
}

// Client issues RPC calls over a single connection. Calls may be issued
// concurrently from many actors; replies are matched by XID. The client owns
// a demux actor reading the connection.
type Client struct {
	clk  *vclock.Clock
	conn transport.Conn
	cred Cred

	mu      sync.Mutex
	xid     uint32
	pending map[uint32]*pendingCall
	closed  bool
	counts  map[uint64]int64 // prog<<32|proc -> calls sent
	retr    *RetransmitPolicy

	node     *obs.Node
	procName ProcNameFunc

	metRetransmits *obs.Counter
	metBackoff     *obs.Histogram
	metShedRetries *obs.Counter
}

type pendingCall struct {
	w     *vclock.Waiter // current attempt's waiter; swapped under Client.mu on retransmit
	first vclock.Waiter  // the first attempt's, w until a retransmission
	body  xdr.Decoder    // reply.Body
	reply Reply
	stat  AcceptStat
	err   error
	done  bool
	// retryable marks calls whose retransmit loop is armed (policy + timeout):
	// for those a TryLater reply is swallowed like a lost reply — the backoff
	// timer drives the retry under the same XID. Single-send calls surface
	// TryLater as *Error instead.
	retryable bool
	shed      int // TryLater replies swallowed
}

// NewClient wraps conn as an RPC client using cred for every call. The
// client starts a demux actor on the clock.
func NewClient(clk *vclock.Clock, conn transport.Conn, cred Cred) *Client {
	c := &Client{
		clk:     clk,
		conn:    conn,
		cred:    cred,
		pending: make(map[uint32]*pendingCall),
		counts:  make(map[uint64]int64),
	}
	clk.GoDaemon("sunrpc-client-demux", c.demux)
	return c
}

// SetObs attaches a trace node: every call records a "call <PROC>" span at
// that node, and calls issued without an explicit request ID mint a fresh
// one there — this is how the emulated kernel client stamps each RPC.
func (c *Client) SetObs(node *obs.Node, procName ProcNameFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.node = node
	c.procName = procName
	if reg := node.Registry(); reg != nil {
		reg.SetHelp("gvfs_rpc_retransmits_total", "Same-XID retransmissions sent after an unanswered wait.")
		reg.SetHelp("gvfs_rpc_retransmit_backoff", "Backoff waits preceding each retransmission, in virtual nanoseconds.")
		reg.SetHelp("gvfs_rpc_shed_retries_total", "TRY_LATER replies swallowed and left to the retransmission timer.")
		c.metRetransmits = reg.Counter(obs.Label("gvfs_rpc_retransmits_total", "node", node.Name()))
		c.metBackoff = reg.Histogram(obs.Label("gvfs_rpc_retransmit_backoff", "node", node.Name()), obs.DurationBuckets)
		c.metShedRetries = reg.Counter(obs.Label("gvfs_rpc_shed_retries_total", "node", node.Name()))
	}
}

// SetRetransmit enables same-XID retransmission for timed calls. Calls with
// timeout 0 (wait forever) still send only once — they have no timer to drive
// resends. Without a policy the client keeps its single-send behavior.
func (c *Client) SetRetransmit(p RetransmitPolicy) {
	p = p.withDefaults()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retr = &p
}

// SetCred replaces the credential used for subsequent calls.
func (c *Client) SetCred(cred Cred) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cred = cred
}

// Call invokes (prog, vers, proc) with pre-encoded args and blocks for the
// reply body. A non-Success accept status is returned as *Error.
func (c *Client) Call(prog, vers, proc uint32, args []byte) (*xdr.Decoder, error) {
	return c.CallTimeout(prog, vers, proc, args, 0)
}

// CallTimeout is Call with a deadline; timeout 0 means wait forever. On
// timeout the pending entry is abandoned (a late reply is dropped), matching
// at-least-once RPC semantics where the caller simply retries. The frame the
// returned decoder reads is never recycled: the caller may keep what it
// decodes by reference for as long as it likes.
func (c *Client) CallTimeout(prog, vers, proc uint32, args []byte, timeout time.Duration) (*xdr.Decoder, error) {
	rep, err := c.CallParts(0, prog, vers, proc, args, nil, timeout)
	return rep.Body, err
}

// Reply is a completed call's result: the body, and the received frame the
// body decodes from. Whatever is decoded from Body by reference (OpaqueRef,
// Rest, a READ result's Data) aliases that frame.
type Reply struct {
	Body  *xdr.Decoder
	frame []byte
}

// Release hands the reply's frame back to the buffer pool. The caller must be
// done with Body and with every slice decoded from it by reference. Releasing
// is optional — a frame never released is collected, which is always safe —
// and releasing the same Reply again does nothing; what is never safe is
// touching the frame's bytes afterwards.
func (r *Reply) Release() {
	if r.frame != nil {
		bufpool.Put(r.frame)
		r.frame, r.Body = nil, nil
	}
}

// CallParts is StartParts then Wait. A forwarding proxy passes the traced
// call's reqID on; zero mints a fresh one when a trace node is attached. The
// caller owns the reply's frame: released once copied out of, a forwarded
// READ's 32 KiB frame cycles through the pool instead of being reallocated.
func (c *Client) CallParts(reqID uint64, prog, vers, proc uint32, args, tail []byte, timeout time.Duration) (Reply, error) {
	p := c.StartParts(reqID, prog, vers, proc, args, tail, timeout)
	return p.Wait()
}

// Pending is a call that StartParts has sent and Wait has not yet collected.
type Pending struct {
	c   *Client
	pc  *pendingCall // nil: the client was already closed and nothing was sent
	err error        // the first transmission failed
	// The call message is built once in a pooled encoder and re-sent verbatim,
	// tail behind it, on every retransmission; nothing retains msg or tail
	// past a send (transports either copy or write synchronously), so Wait
	// recycles the encoder as soon as the attempt loop is over.
	enc  *xdr.Encoder
	msg  []byte
	tail []byte

	xid, prog, proc uint32
	reqID           uint64
	argBytes        int
	replyBytes      int // what the retransmit policy expects the reply to carry
	timeout         time.Duration
	start           time.Duration // trace time at StartParts
	firstSend       time.Duration
}

// StartParts sends the call and returns without waiting for its reply; Wait,
// which must follow exactly once, collects it. Starting apart from waiting is
// for a burst of calls whose order on the wire matters — readahead's chunk of
// READs comes back in the order it went out, and the reader wants the blocks
// in theirs: started one after another they leave in that order, while
// started from as many goroutines they leave in whatever order the scheduler
// ran those. The arguments come in two parts: args, encoded by the caller,
// and tail (may be empty), the bytes that follow them on the wire — a WRITE's
// data, a relayed call's arguments — XDR padding included. The tail is not
// copied into the call message: a transport that gathers
// (transport.SendParts) writes it from where it lies, on the first
// transmission and on every retransmission, so it belongs to the call until
// Wait returns and must not change or be recycled before then. The
// retransmission timeout's size stretch and the call span's byte count
// include it.
func (c *Client) StartParts(reqID uint64, prog, vers, proc uint32, args, tail []byte, timeout time.Duration) Pending {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Pending{err: ErrClosed}
	}
	// Skip XID 0 and any XID still pending: after a uint32 wrap (or with
	// long-abandoned timeout-0 calls parked in the map) reusing a live XID
	// would hand one call's reply to another.
	for {
		c.xid++
		if c.xid == 0 {
			continue
		}
		if _, busy := c.pending[c.xid]; !busy {
			break
		}
	}
	xid := c.xid
	pc := &pendingCall{retryable: c.retr != nil && timeout > 0}
	pc.w = c.clk.InitWaiter(&pc.first)
	c.pending[xid] = pc
	c.counts[uint64(prog)<<32|uint64(proc)]++
	cred := c.cred
	node := c.node
	retr := c.retr
	c.mu.Unlock()

	if reqID == 0 {
		reqID = node.Mint() // nil node mints 0: call stays untraced
	}
	p := Pending{
		c: c, pc: pc, xid: xid, prog: prog, proc: proc, reqID: reqID, tail: tail,
		argBytes: len(args) + len(tail), timeout: timeout, start: node.Now(),
	}
	if retr != nil && retr.ReplyBytes != nil {
		p.replyBytes = retr.ReplyBytes(prog, proc, args, tail)
	}
	p.enc = bufpool.GetEncoder()
	p.msg = marshalCall(p.enc, xid, prog, vers, proc, cred, reqID, args)
	p.firstSend = c.clk.Now()
	if err := transport.SendParts(c.conn, p.msg, tail); err != nil {
		c.mu.Lock()
		delete(c.pending, xid)
		c.mu.Unlock()
		p.err = ErrClosed
	}
	return p
}

// Wait blocks for the call's completion and returns its reply, whose frame
// the caller owns (see CallParts).
func (p *Pending) Wait() (Reply, error) {
	if p.pc == nil {
		return Reply{}, p.err
	}
	c := p.c
	rep, retrans, stall, err := p.await()
	bufpool.PutEncoder(p.enc)
	p.enc, p.msg, p.tail = nil, nil, nil

	c.mu.Lock()
	node, procName := c.node, c.procName
	shed := p.pc.shed
	c.mu.Unlock()
	if node.Tracing() {
		sp := obs.Span{
			Req:         p.reqID,
			Op:          "call " + procLabel(procName, p.prog, p.proc),
			Retransmits: retrans,
			Sheds:       shed,
			Stall:       stall,
			Bytes:       int64(p.argBytes),
			Start:       p.start,
			End:         node.Now(),
		}
		if rep.Body != nil {
			sp.Bytes += int64(rep.Body.Remaining())
		}
		if err != nil {
			sp.Err = err.Error()
		}
		node.Record(sp)
	}
	return rep, err
}

// await blocks for the started call's completion, retransmitting under the
// same XID when a policy is installed. It returns the reply, how many
// retransmissions were sent, and the stall — virtual time between the first
// and the last transmission, i.e. the extra latency retransmission waits added
// to this call.
func (p *Pending) await() (Reply, int, time.Duration, error) {
	if p.err != nil {
		return Reply{}, 0, 0, p.err
	}
	c, xid, pc, msg, tail, timeout := p.c, p.xid, p.pc, p.msg, p.tail, p.timeout

	c.mu.Lock()
	policy := c.retr
	c.mu.Unlock()

	if policy == nil || timeout <= 0 {
		// Single-send path: one wait, bounded by the timeout if there is one.
		if timeout <= 0 {
			c.clk.WaitAs(pc.w, "rpc call")
		} else {
			c.clk.WaitFor(pc.w, timeout, "rpc call")
			c.mu.Lock()
			if !pc.done && !c.clk.Stopped() {
				pc.err = ErrTimeout
				pc.done = true
				delete(c.pending, xid)
			}
			c.mu.Unlock()
		}
		rep, err := c.finish(xid, pc)
		return rep, 0, 0, err
	}

	deadline := c.clk.Now() + timeout
	rto := policy.Initial
	if policy.PerByte > 0 {
		rto += time.Duration(len(msg)+len(tail)+p.replyBytes) * policy.PerByte
	}
	// A size-stretched initial may exceed the configured cap; the cap bounds
	// backoff growth, never the transfer-time floor.
	effMax := policy.Max
	if effMax < rto {
		effMax = rto
	}
	retrans := 0
	lastSend := p.firstSend
	for attempt := 0; ; attempt++ {
		wait := rto + policy.jitterFor(xid, attempt)
		last := false
		if remaining := deadline - c.clk.Now(); remaining <= wait {
			wait = remaining
			last = true
		}

		c.mu.Lock()
		if pc.done {
			c.mu.Unlock()
			break
		}
		w := pc.w
		c.mu.Unlock()
		c.clk.WaitFor(w, wait, "rpc call")

		c.mu.Lock()
		if pc.done {
			c.mu.Unlock()
			break
		}
		if stopped := c.clk.Stopped(); last || stopped {
			pc.err = ErrTimeout
			if stopped {
				pc.err = ErrClosed
			}
			pc.done = true
			delete(c.pending, xid)
			c.mu.Unlock()
			break
		}
		// This attempt timed out: install a fresh waiter for the next one
		// before releasing the lock, so the demux hands a late reply to the
		// waiter we are about to block on.
		pc.w = c.clk.NewWaiter()
		c.mu.Unlock()

		if err := transport.SendParts(c.conn, msg, tail); err != nil {
			c.mu.Lock()
			if !pc.done {
				pc.err = ErrClosed
				pc.done = true
				delete(c.pending, xid)
			}
			c.mu.Unlock()
			break
		}
		retrans++
		lastSend = c.clk.Now()
		c.metRetransmits.Inc()
		c.metBackoff.ObserveDuration(wait)
		rto *= 2
		if rto > effMax {
			rto = effMax
		}
	}
	rep, err := c.finish(xid, pc)
	return rep, retrans, lastSend - p.firstSend, err
}

// finish evaluates a completed (or shutdown-released) call under the lock.
func (c *Client) finish(xid uint32, pc *pendingCall) (Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !pc.done {
		// Woken without a completion: the clock is shutting down and
		// released all waiters.
		delete(c.pending, xid)
		return Reply{}, ErrClosed
	}
	if pc.err != nil {
		return Reply{}, pc.err
	}
	if pc.stat != Success {
		// The body of a refusal is of no use to anyone.
		pc.reply.Release()
		return Reply{}, &Error{Stat: pc.stat}
	}
	return pc.reply, nil
}

// Counts returns a snapshot of calls sent, keyed by prog<<32|proc.
func (c *Client) Counts() map[uint64]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64]int64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Close tears down the connection and fails all pending calls with
// ErrClosed.
func (c *Client) Close() error {
	return c.conn.Close() // demux observes the close and fails pending calls
}

func (c *Client) demux() {
	for {
		raw, err := c.conn.Recv()
		if err != nil {
			c.failAll()
			return
		}
		var m parsedMsg
		if err := m.parse(raw); err != nil || m.mtype != msgReply {
			// Garbage or a stray call on a client connection: the frame was
			// never handed to a caller, so ownership stays here — recycle.
			bufpool.Put(raw)
			continue
		}
		c.mu.Lock()
		pc, ok := c.pending[m.xid]
		if ok && m.acceptStat == TryLater && pc.retryable && !pc.done {
			// The server shed this request under load. Treat it exactly like
			// a lost reply: leave the call pending so the armed backoff timer
			// retransmits the same XID — no tight retry loop, and the
			// operation still completes (or times out) rather than failing.
			pc.shed++
			c.mu.Unlock()
			c.metShedRetries.Inc()
			// The shed reply carried no body anyone retained; recycle it.
			bufpool.Put(raw)
			continue
		}
		var w *vclock.Waiter
		if ok {
			delete(c.pending, m.xid)
			pc.body = m.body
			pc.reply = Reply{Body: &pc.body, frame: raw}
			pc.stat = m.acceptStat
			pc.done = true
			w = pc.w // read under the lock: retransmission swaps waiters
		}
		c.mu.Unlock()
		if w != nil {
			w.Wake()
		} else if !ok {
			// A duplicate (retransmitted XID already completed) or very late
			// reply: no pending call will ever read this frame — recycle.
			// A completed reply's frame (ok) went to the caller with the body
			// that aliases it; only the caller can know when it is dead.
			bufpool.Put(raw)
		}
	}
}

// failAll fails every pending call with ErrClosed and wakes their callers in
// XID order: under the virtual clock woken actors run in wake order, so map
// order here would make a seeded run's schedule vary.
func (c *Client) failAll() {
	c.mu.Lock()
	c.closed = true
	xids := make([]uint32, 0, len(c.pending))
	for xid := range c.pending {
		xids = append(xids, xid)
	}
	slices.Sort(xids)
	ws := make([]*vclock.Waiter, len(xids))
	for i, xid := range xids {
		pc := c.pending[xid]
		pc.err, pc.done = ErrClosed, true
		ws[i] = pc.w
		delete(c.pending, xid)
	}
	c.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}
