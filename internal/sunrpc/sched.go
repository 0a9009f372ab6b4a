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

// This file is the server's bounded scheduling layer. Without it every
// accepted request runs on its own actor, so a heavy fan-in of proxy
// clients means unbounded concurrent handlers and no back-pressure — the
// server-side metadata overload that concentrates on a handful of proxy
// servers in the paper's architecture. The scheduler bounds the damage
// three ways:
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
// Determinism. Under the virtual clock, actors that are runnable at the
// same virtual instant execute as real goroutines, so the order in which
// they would reach this scheduler's mutex is real scheduling, not
// simulation state. Every scheduling decision — bucket charge, queue
// insert, slot grant — therefore happens in drain(), a zero-delay timer
// callback: vclock fires it only after every actor runnable at the
// current instant has blocked, and it processes the batch of arrivals in
// sorted (client, arrival-sequence) order. Same-seed runs thus make
// identical shed/dispatch decisions regardless of goroutine interleaving,
// which the chaos harness asserts by diffing span traces.

// Scheduler defaults.
const (
	// defaultQueueDepth bounds each client's FIFO when SchedConfig leaves
	// QueueDepth zero.
	defaultQueueDepth = 256
	// defaultQuantum is the per-round DRR byte allowance: a shade over one
	// maximal WRITE, so a bulk writer gets one large request per round while
	// metadata clients drain several small ones.
	defaultQuantum = 40 << 10
)

// SchedConfig parameterizes the server's scheduling layer. The zero value
// disables it (legacy unbounded per-request actors). Any of Workers,
// RateLimit, or ClientRate enables it; Workers <= 0 with a rate limit set
// gives admission control with unbounded execution.
type SchedConfig struct {
	// Workers bounds concurrently executing handlers. <= 0 means unbounded.
	Workers int
	// QueueDepth bounds each client's FIFO queue; when a queue is full the
	// oldest request is shed (TryLater) to make room. <= 0 selects the
	// default (256).
	QueueDepth int
	// Quantum is the DRR byte allowance added to a client's deficit each
	// round. <= 0 selects the default (40 KiB).
	Quantum int
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

func (c SchedConfig) active() bool {
	return c.Workers > 0 || c.RateLimit > 0 || c.ClientRate > 0
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.Quantum <= 0 {
		c.Quantum = defaultQuantum
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

	// drainFn is sc.drain bound once, so arming a drain allocates nothing.
	drainFn func()

	// The slices below are queues popped at the front (popFront), so each
	// keeps its backing array.
	mu         sync.Mutex
	seq        uint64     // arrival order; within a key (one connection) deterministic
	arrivals   []*request // awaiting the next drain
	drainArmed bool
	sheds      []shedAction // TryLater replies owed, sent one per drain step
	spawns     []*request   // admission-only dispatches owed
	queues     map[string]*clientQueue
	round      []*clientQueue // DRR visiting order; only queues with items
	running    int
	peak       int
	queued     int        // total items across all queues
	yielders   []*request // parked handlers awaiting re-acquire
	global     bucket

	// Metrics (nil-safe when no registry is attached).
	reg           *obs.Registry
	nodeName      string
	metInflight   *obs.Gauge
	metPeak       *obs.Gauge
	metQueued     *obs.Gauge
	metQueueWait  *obs.Histogram
	metQueueDepth *obs.Histogram
	metShed       map[string]*obs.Counter
}

func newSched(clk *vclock.Clock, srv *Server, cfg SchedConfig) *sched {
	sc := &sched{
		clk:     clk,
		srv:     srv,
		cfg:     cfg.withDefaults(),
		queues:  make(map[string]*clientQueue),
		metShed: make(map[string]*obs.Counter),
	}
	sc.drainFn = sc.drain
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

// byArrival orders requests by (client, arrival sequence): the order every
// same-instant decision is taken in, whatever order the actors that submitted
// them ran in.
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
	sc.metShed = make(map[string]*obs.Counter)
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

func (sc *sched) shedCounter(reason string) *obs.Counter {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	c, ok := sc.metShed[reason]
	if !ok && sc.reg != nil {
		name := obs.Label("gvfs_server_shed_total", "node", sc.nodeName)
		c = sc.reg.Counter(obs.Label(name, "reason", reason))
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

// armDrainLocked schedules a drain at the current virtual instant, once
// (vclock.Clock.Soon). Under the virtual clock it runs only after every
// currently runnable actor has blocked, so the drain sees the complete batch
// of same-instant arrivals; under the real clock it starts at once.
func (sc *sched) armDrainLocked() {
	if sc.drainArmed {
		return
	}
	sc.drainArmed = true
	sc.clk.Soon(sc.drainFn)
}

// submit records a request's arrival and arms the drain. All decisions —
// admission, queueing, dispatch — are deferred to drain() so they cannot
// depend on the order in which concurrent connection actors reach this
// method.
func (sc *sched) submit(key string, r *request, cost int) {
	sc.mu.Lock()
	sc.seq++
	r.key, r.seq, r.cost, r.enq = key, sc.seq, cost, sc.clk.Now()
	sc.arrivals = append(sc.arrivals, r)
	sc.armDrainLocked()
	sc.mu.Unlock()
}

// shedAction is a TryLater reply owed after a drain, sent outside sc.mu.
type shedAction struct {
	r      *request
	reason string
}

// admitLocked runs the token buckets for one request. It returns "" to
// admit, or the shed reason ("rate", "client-rate").
func (sc *sched) admitLocked(key string, now time.Duration) string {
	if !sc.global.take(now) {
		return "rate"
	}
	if sc.cfg.ClientRate > 0 {
		if !sc.queueLocked(key).bucket.take(now) {
			return "client-rate"
		}
	}
	return ""
}

// admitArrivalsLocked runs admission over the accumulated arrivals in
// sorted (client, sequence) order — deterministic regardless of how the
// submitting actors interleaved — filling the owed-shed and owed-spawn
// lists and the per-client queues. Pure state transformation: no actors
// are spawned and no messages sent here.
func (sc *sched) admitArrivalsLocked(now time.Duration) {
	slices.SortFunc(sc.arrivals, byArrival)
	for _, it := range sc.arrivals {
		if reason := sc.admitLocked(it.key, now); reason != "" {
			// The shed reply must leave no DRC entry: the client's
			// retransmission under the same XID re-executes the request.
			it.cache.remove(it.xid)
			sc.sheds = append(sc.sheds, shedAction{it, reason})
			continue
		}
		if sc.cfg.Workers <= 0 {
			// Admission-only mode: execution stays unbounded.
			sc.spawns = append(sc.spawns, it)
			continue
		}
		q := sc.queueLocked(it.key)
		if len(q.items) >= sc.cfg.QueueDepth {
			// Queue overflow: shed the oldest queued request to make room —
			// its retransmission will find a shorter queue.
			var dropped *request
			dropped, q.items = popFront(q.items)
			sc.queued--
			dropped.cache.remove(dropped.xid)
			sc.sheds = append(sc.sheds, shedAction{dropped, "overflow"})
		}
		it.q = q
		q.items = append(q.items, it)
		sc.queued++
		if !q.inRound {
			q.inRound = true
			sc.round = append(sc.round, q)
		}
		sc.metQueued.Set(int64(sc.queued))
		sc.metQueueDepth.Observe(int64(sc.queued))
	}
	clear(sc.arrivals)
	sc.arrivals = sc.arrivals[:0]
}

// drain is the scheduler's single decision point, run by Clock.Soon — under
// the virtual clock only once every actor runnable at the current instant has
// blocked. It admits accumulated arrivals, then performs at
// most ONE action (a shed reply, an unbounded dispatch, a yielder grant, or
// one pooled dispatch) and re-arms itself. One action per micro-step
// matters for determinism beyond this scheduler: actors released in the
// same instant race for shared simulated links (bandwidth serialization is
// granted in Send order), so each granted actor must run to its blocking
// point before the next grant.
func (sc *sched) drain() {
	sc.mu.Lock()
	sc.drainArmed = false
	sc.admitArrivalsLocked(sc.clk.Now())
	// Owed TryLater replies first: fixed, deterministic order.
	if len(sc.sheds) > 0 {
		var sh shedAction
		sh, sc.sheds = popFront(sc.sheds)
		sc.armDrainLocked()
		sc.mu.Unlock()
		sc.srv.shed(sh.r, sh.reason)
		return
	}
	// Admission-only dispatches (Workers <= 0): unbounded execution.
	if len(sc.spawns) > 0 {
		var it *request
		it, sc.spawns = popFront(sc.spawns)
		sc.armDrainLocked()
		sc.mu.Unlock()
		sc.clk.Go("sunrpc-req", it.serve)
		return
	}
	// Freed slots go to handlers returning from Yield first — a parked
	// handler cannot be starved by new arrivals — in deterministic order.
	if sc.cfg.Workers > 0 && sc.running < sc.cfg.Workers && len(sc.yielders) > 0 {
		slices.SortFunc(sc.yielders, byArrival)
		var y *request
		y, sc.yielders = popFront(sc.yielders)
		sc.acquireLocked()
		sc.armDrainLocked()
		y.wake.Wake()
		sc.mu.Unlock()
		return
	}
	// Finally one pooled dispatch, if a slot and a queued request exist.
	if sc.cfg.Workers > 0 && sc.running < sc.cfg.Workers {
		if it := sc.nextLocked(); it != nil {
			sc.acquireLocked()
			it.pool, it.queued = sc, sc.clk.Now()-it.enq
			sc.metQueueWait.ObserveDuration(it.queued)
			it.q.served.Inc()
			sc.armDrainLocked()
			sc.clk.Go("sunrpc-req", it.serve)
		}
	}
	sc.mu.Unlock()
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
			q.deficit += sc.cfg.Quantum
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

// release frees a worker slot and arms a drain if anything is waiting for
// it. The slot is granted by the drain, never here, so a release racing
// other same-instant events cannot influence who runs next.
func (sc *sched) release() {
	sc.mu.Lock()
	sc.running--
	sc.metInflight.Set(int64(sc.running))
	if len(sc.yielders) > 0 || sc.queued > 0 {
		sc.armDrainLocked()
	}
	sc.mu.Unlock()
}

// yield implements Call.Yield for pooled handlers: release the slot, run fn
// off-pool, then park until the drain grants a slot back — ahead of freshly
// queued requests, so a parked handler cannot be starved.
func (sc *sched) yield(r *request, fn func()) {
	sc.release()
	defer func() {
		sc.mu.Lock()
		if sc.cfg.Workers <= 0 {
			sc.mu.Unlock()
			return
		}
		// Only the drain wakes it, and a Wake is done with the waiter once
		// this Wait has returned: it can be readied again for the handler's
		// next yield, or the request's next use.
		w := sc.clk.InitWaiter(&r.wake)
		sc.yielders = append(sc.yielders, r)
		sc.armDrainLocked()
		sc.mu.Unlock()
		sc.clk.WaitAs(w, "sched reacquire")
		// The drain's grant incremented running on our behalf.
	}()
	fn()
}

// Inflight returns the current and peak number of concurrently executing
// handlers (zero for an unscheduled server).
func (s *Server) Inflight() (running, peak int) {
	sc := s.table.Load().sched
	if sc == nil {
		return 0, 0
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.running, sc.peak
}
