package sunrpc

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// This file is the server's scheduling layer, the only way a call reaches its
// handler. Its zero SchedConfig bounds nothing: every call is admitted and
// dispatched as it arrives. Left so, a heavy fan-in of proxy clients means
// unbounded concurrent handlers and no back-pressure — the server-side
// metadata overload that concentrates on a handful of proxy servers in the
// paper's architecture. A configured scheduler bounds the damage three ways:
//
//   - a worker pool of W actors fed from per-client FIFO queues drained by
//     deficit round-robin (byte-costed, so one hot mount streaming jumbo
//     WRITEs cannot starve clients issuing tiny GETATTRs);
//   - a token-bucket admission controller (global rate + burst, optional
//     per-client buckets) that sheds excess load with TryLater, which the
//     at-least-once client treats as a lost reply and retransmits;
//   - bounded per-client queue depth with oldest-drop overflow: the
//     dropped request's DRC entry is removed and TryLater sent in its
//     place, so the client's retransmission re-executes it exactly once.
//
// Handlers that block on RPCs that must come back through the same pool
// (a proxy server recalling a delegation the client can only release
// after flushing WRITEs through that very server) wrap the blocking
// section in Call.Yield, which parks the handler off-pool and re-admits
// it with priority over queued work.
//
// One drain, under either clock. The actor that changes the scheduler's
// state — a connection submitting a call, a worker finishing one, a handler
// yielding — takes the first decision in the same critical section and then
// runs the drain itself, outside the mutex, taking every action it can; a
// worker whose call is done serves the next queued call itself before it
// parks. A call goes to a worker of its server (workerPool), a clock actor
// under either clock.
//
// Determinism. The virtual clock runs one actor at a time, and starts the
// actors readied meanwhile — the workers a drain hands calls to or wakes —
// in the order they were readied, once the running one blocks. Every
// decision is therefore taken in an order fixed by the simulation's inputs,
// and same-seed runs make identical shed/dispatch decisions, which the chaos
// harness asserts by diffing span traces.

// Scheduler sizes.
const (
	// defaultQueueDepth bounds each client's FIFO when SchedConfig leaves
	// QueueDepth zero.
	defaultQueueDepth = 256
	// quantum is the DRR byte allowance added to a client's deficit each
	// round: a shade over one maximal WRITE, so a bulk writer gets one large
	// request per round while metadata clients drain several small ones.
	quantum = 40 << 10
)

// SchedConfig parameterizes the server's scheduling layer. The zero value
// bounds nothing: every call is admitted and dispatched, never queued or shed
// — what a server whose callers cannot be told to retry needs. Workers bounds
// execution and RateLimit or ClientRate admission, each on its own.
type SchedConfig struct {
	// Workers bounds concurrently executing handlers. <= 0 means unbounded.
	Workers int
	// QueueDepth bounds each client's FIFO queue; when a queue is full the
	// oldest request is shed (TryLater) to make room. <= 0 selects the
	// default (256).
	QueueDepth int
	// RateLimit is the global admission rate in requests/second; 0 disables
	// the global bucket.
	RateLimit float64
	// RateBurst is the global bucket capacity; <= 0 defaults to one
	// second's worth (RateLimit), floored at 1.
	RateBurst float64
	// ClientRate/ClientBurst configure an identical bucket per client.
	ClientRate  float64
	ClientBurst float64
	// ClientName derives the fairness key from a request's credential and
	// connection address. Nil keys queues by remote address — one queue per
	// connection.
	ClientName func(cred Cred, remote string) string
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.RateLimit > 0 && c.RateBurst <= 0 {
		c.RateBurst = c.RateLimit
	}
	if c.RateLimit > 0 && c.RateBurst < 1 {
		c.RateBurst = 1
	}
	if c.ClientRate > 0 && c.ClientBurst <= 0 {
		c.ClientBurst = c.ClientRate
	}
	if c.ClientRate > 0 && c.ClientBurst < 1 {
		c.ClientBurst = 1
	}
	return c
}

// bucket is a virtual-time token bucket. Refill is computed from elapsed
// virtual time on each take, so there is no refill actor and the arithmetic
// is deterministic under the simulated clock.
type bucket struct {
	rate   float64 // tokens per second; <= 0 means unlimited
	burst  float64
	tokens float64
	last   time.Duration
}

func newBucket(rate, burst float64, now time.Duration) bucket {
	return bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

func (b *bucket) take(now time.Duration) bool {
	if b.rate <= 0 {
		return true
	}
	if now > b.last {
		b.tokens += (now - b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// clientQueue is one client's FIFO plus its DRR and rate-limit state.
type clientQueue struct {
	key     string
	items   []*request
	deficit int
	inRound bool // queued in sched.round
	visited bool // quantum already granted for the current round visit
	bucket  bucket
	served  *obs.Counter
}

// sched is the per-server scheduler instance.
type sched struct {
	clk *vclock.Clock
	srv *Server
	cfg SchedConfig

	// The slices below are queues popped at the front (popFront), so each
	// keeps its backing array.
	mu       sync.Mutex
	seq      uint64 // arrival order
	queues   map[string]*clientQueue
	round    []*clientQueue // DRR visiting order; only queues with items
	running  int
	peak     int
	queued   int        // total items across all queues
	yielders []*request // parked handlers awaiting re-acquire
	global   bucket

	// Metrics (nil-safe when no registry is attached).
	reg           *obs.Registry
	nodeName      string
	metInflight   *obs.Gauge
	metPeak       *obs.Gauge
	metQueued     *obs.Gauge
	metQueueWait  *obs.Histogram
	metQueueDepth *obs.Histogram
	metShed       map[obs.Note]*obs.Counter
}

func newSched(clk *vclock.Clock, srv *Server, cfg SchedConfig) *sched {
	sc := &sched{
		clk:     clk,
		srv:     srv,
		cfg:     cfg.withDefaults(),
		queues:  make(map[string]*clientQueue),
		metShed: make(map[obs.Note]*obs.Counter),
	}
	sc.global = newBucket(sc.cfg.RateLimit, sc.cfg.RateBurst, clk.Now())
	return sc
}

// popFront removes and returns s[0], moving the rest down so the slice keeps
// its backing array: a queue re-sliced from the front and appended at the back
// would reallocate as it goes.
func popFront[T any](s []T) (T, []T) {
	v := s[0]
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	return v, s[:n]
}

// byArrival orders requests by (client, arrival sequence): the order in which
// yielders waiting together are granted slots back.
func byArrival(a, b *request) int {
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// setObs (re)binds the scheduler's metric series to a registry. Called under
// Server.mu from SetObs/SetSched.
func (sc *sched) setObs(node *obs.Node) {
	reg := node.Registry()
	if reg == nil {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.reg = reg
	sc.nodeName = node.Name()
	sc.metInflight = reg.Gauge(obs.Label("gvfs_server_inflight", "node", sc.nodeName))
	sc.metPeak = reg.Gauge(obs.Label("gvfs_server_inflight_peak", "node", sc.nodeName))
	sc.metQueued = reg.Gauge(obs.Label("gvfs_server_queued", "node", sc.nodeName))
	sc.metQueueWait = reg.Histogram(obs.Label("gvfs_server_queue_wait", "node", sc.nodeName), obs.DurationBuckets)
	sc.metQueueDepth = reg.Histogram(obs.Label("gvfs_server_queue_depth", "node", sc.nodeName), obs.CountBuckets)
	sc.metShed = make(map[obs.Note]*obs.Counter)
	for _, q := range sc.queues {
		q.served = sc.servedCounterLocked(q.key)
	}
}

func (sc *sched) servedCounterLocked(client string) *obs.Counter {
	if sc.reg == nil {
		return nil
	}
	name := obs.Label("gvfs_server_client_served_total", "node", sc.nodeName)
	return sc.reg.Counter(obs.Label(name, "client", client))
}

func (sc *sched) shedCounter(reason obs.Note) *obs.Counter {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	c, ok := sc.metShed[reason]
	if !ok && sc.reg != nil {
		name := obs.Label("gvfs_server_shed_total", "node", sc.nodeName)
		c = sc.reg.Counter(obs.Label(name, "reason", string(reason)))
		sc.metShed[reason] = c
	}
	return c
}

// clientKey derives the fairness/bucket key for a request from its
// credential and its connection's remote address.
func (sc *sched) clientKey(cred Cred, remote string) string {
	if sc.cfg.ClientName != nil {
		if k := sc.cfg.ClientName(cred, remote); k != "" {
			return k
		}
	}
	return remote
}

func (sc *sched) queueLocked(key string) *clientQueue {
	q, ok := sc.queues[key]
	if !ok {
		q = &clientQueue{
			key:    key,
			bucket: newBucket(sc.cfg.ClientRate, sc.cfg.ClientBurst, sc.clk.Now()),
			served: sc.servedCounterLocked(key),
		}
		sc.queues[key] = q
	}
	return q
}

// submit admits a request as it arrives — a TryLater owed to it or to a
// request its queue overflows, an admission-only dispatch, or a place in its
// client's queue — and takes the first decision in the same critical section,
// then drains.
func (sc *sched) submit(key string, r *request, cost int) {
	sc.mu.Lock()
	sc.seq++
	r.key, r.seq, r.cost, r.enq = key, sc.seq, cost, sc.clk.Now()
	a := sc.admitLocked(r)
	if a.kind == actNone {
		a = sc.nextActionLocked()
	}
	sc.mu.Unlock()
	sc.drain(a, false)
}

// admitLocked runs the token buckets for an arriving request, then queues it
// when workers are bounded. It returns the action the arrival itself calls
// for, if any: r shed, r dispatched admission-only, or the oldest request of
// r's full queue shed to make room. Pure state transformation: nothing is
// dispatched or sent here.
func (sc *sched) admitLocked(r *request) action {
	var reason obs.Note
	switch {
	case !sc.global.take(r.enq):
		reason = obs.NoteShedRate
	case sc.cfg.ClientRate > 0 && !sc.queueLocked(r.key).bucket.take(r.enq):
		reason = obs.NoteShedClientRate
	}
	if reason != "" {
		// The shed reply must leave no DRC entry: the client's
		// retransmission under the same XID re-executes the request.
		r.cache.remove(r.xid)
		return action{kind: actShed, r: r, reason: reason}
	}
	if sc.cfg.Workers <= 0 {
		// Admission-only mode: execution stays unbounded.
		return action{kind: actDispatch, r: r}
	}
	var a action
	q := sc.queueLocked(r.key)
	if len(q.items) >= sc.cfg.QueueDepth {
		// Queue overflow: shed the oldest queued request to make room —
		// its retransmission will find a shorter queue.
		var dropped *request
		dropped, q.items = popFront(q.items)
		sc.queued--
		dropped.cache.remove(dropped.xid)
		a = action{kind: actShed, r: dropped, reason: obs.NoteShedOverflow}
	}
	r.q = q
	q.items = append(q.items, r)
	sc.queued++
	if !q.inRound {
		q.inRound = true
		sc.round = append(sc.round, q)
	}
	sc.metQueued.Set(int64(sc.queued))
	sc.metQueueDepth.Observe(int64(sc.queued))
	return a
}

// action is one scheduling decision, taken under sc.mu and carried out by
// drain once it is released.
type action struct {
	kind   actionKind
	r      *request
	reason obs.Note // actShed: why
}

type actionKind int

const (
	actNone     actionKind = iota
	actShed                // answer r with TryLater
	actDispatch            // run r on a worker: admission-only, or into a slot it now holds
	actWake                // r is a yielder granted its slot back
)

// nextActionLocked takes the next decision a free worker slot allows: a slot
// granted back to a yielder, else one pooled dispatch.
func (sc *sched) nextActionLocked() action {
	if sc.cfg.Workers <= 0 || sc.running >= sc.cfg.Workers {
		return action{}
	}
	// Freed slots go to handlers returning from Yield first — a parked
	// handler cannot be starved by new arrivals — in deterministic order.
	if len(sc.yielders) > 0 {
		slices.SortFunc(sc.yielders, byArrival)
		var y *request
		y, sc.yielders = popFront(sc.yielders)
		sc.acquireLocked()
		return action{kind: actWake, r: y}
	}
	it := sc.nextLocked()
	if it == nil {
		return action{}
	}
	sc.acquireLocked()
	it.pool, it.queued = sc, sc.clk.Now()-it.enq
	sc.metQueueWait.ObserveDuration(it.queued)
	it.q.served.Inc()
	return action{kind: actDispatch, r: it}
}

// drain carries out a, then every action the scheduler can take after it,
// each outside sc.mu. It runs in the actor that changed the scheduler's
// state. With keep set, the caller is a worker whose call has just finished,
// and the first pooled dispatch is returned for it to serve itself rather
// than handed to another worker.
func (sc *sched) drain(a action, keep bool) (own *request) {
	for a.kind != actNone {
		switch {
		case keep && own == nil && a.kind == actDispatch && a.r.pool != nil:
			own = a.r
		case a.kind == actShed:
			sc.srv.shed(a.r, a.reason)
		case a.kind == actDispatch:
			sc.srv.workers.hand(a.r)
		default:
			a.r.wake.Wake()
		}
		if sc.cfg.Workers <= 0 {
			// Unbounded: admission was the only decision to take.
			return own
		}
		sc.mu.Lock()
		a = sc.nextActionLocked()
		sc.mu.Unlock()
	}
	return own
}

// acquireLocked takes one worker slot for a running handler.
func (sc *sched) acquireLocked() {
	sc.running++
	if sc.running > sc.peak {
		sc.peak = sc.running
		sc.metPeak.Set(int64(sc.peak))
	}
	sc.metInflight.Set(int64(sc.running))
}

// nextLocked picks the next request by byte-costed deficit round-robin: a
// queue arriving at the front of the round is granted one quantum of byte
// credit, drains requests while the credit lasts, then rotates to the back.
// A bulk writer's jumbo requests thus cost it round-share, while a metadata
// client's whole backlog of tiny calls drains in a single visit.
func (sc *sched) nextLocked() *request {
	for len(sc.round) > 0 {
		q := sc.round[0]
		if !q.visited {
			q.visited = true
			q.deficit += quantum
		}
		if head := q.items[0]; head.cost <= q.deficit {
			q.deficit -= head.cost
			_, q.items = popFront(q.items)
			sc.queued--
			sc.metQueued.Set(int64(sc.queued))
			if len(q.items) == 0 {
				// Empty queues leave the round and forfeit their deficit,
				// per classic DRR — an idle client cannot bank credit.
				q.deficit = 0
				q.inRound = false
				q.visited = false
				_, sc.round = popFront(sc.round)
			}
			return head
		}
		// Credit exhausted for this round (or a jumbo head needs several
		// quanta): rotate so other queues drain meanwhile.
		q.visited = false
		_, sc.round = popFront(sc.round)
		sc.round = append(sc.round, q)
	}
	return nil
}

// release frees a worker slot and drains. With keep set (a worker whose call
// has finished) it returns the queued call the worker takes on itself, if any.
func (sc *sched) release(keep bool) *request {
	sc.mu.Lock()
	sc.running--
	sc.metInflight.Set(int64(sc.running))
	a := sc.nextActionLocked()
	sc.mu.Unlock()
	return sc.drain(a, keep)
}

// yield implements Call.Yield for pooled handlers: release the slot, run fn
// off-pool, then park until a drain grants a slot back — ahead of freshly
// queued requests, so a parked handler cannot be starved. The handler keeps
// its worker throughout; the slot goes to another worker.
func (sc *sched) yield(r *request, fn func()) {
	sc.release(false)
	defer func() {
		sc.mu.Lock()
		// Only a drain wakes it, and a Wake is done with the waiter once
		// this Wait has returned: it can be readied again for the handler's
		// next yield, or the request's next use.
		w := sc.clk.InitWaiter(&r.wake)
		sc.yielders = append(sc.yielders, r)
		a := sc.nextActionLocked()
		sc.mu.Unlock()
		sc.drain(a, false)
		sc.clk.WaitAs(w, "sched reacquire")
		// The grant incremented running on our behalf.
	}()
	fn()
}

// Inflight returns the current and peak number of handlers holding a worker
// slot (zero for a server whose SchedConfig leaves Workers unbounded).
func (s *Server) Inflight() (running, peak int) {
	sc := s.table.Load().sched
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.running, sc.peak
}
