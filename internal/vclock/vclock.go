// Package vclock provides a clock abstraction that runs in one of two modes:
//
//   - Real mode: thin wrappers around the time package, for running the stack
//     over real networks (the cmd/ daemons and examples).
//   - Virtual mode: a discrete-event simulated clock, for deterministic and
//     fast wide-area experiments. One managed actor runs at a time: an actor
//     woken or spawned while another runs starts once every actor readied
//     before it has blocked, in that order. Time advances only when every
//     actor is blocked in a clock primitive, jumping straight to the next
//     timer.
//
// All blocking coordination between simulated components must go through the
// clock's primitives (Sleep, Waiter, Mailbox, AfterFunc) so that the virtual
// scheduler can account for runnable actors. Goroutines participating in a
// virtual simulation must be spawned with Clock.Go. With no timer pending and
// every actor blocked, the simulation has quiesced if each of them is a daemon
// (GoDaemon) or waits idle for work (WaitIdle), such as a server's parked
// worker; any other blocked actor makes it a deadlock, which panics.
package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a real or virtual time source. The zero value is not usable; use
// NewReal or NewVirtual.
type Clock struct {
	virtual bool
	start   time.Time // real mode: origin for Now

	mu       sync.Mutex
	now      time.Duration // virtual mode: current virtual time
	runnable int           // virtual mode: actors not blocked in the clock
	timers   timerHeap
	seq      uint64
	stopped  bool

	actorSeq int
	actors   map[int]*actorState
	ready    []*Waiter // virtual mode: actors to run, in order, before any timer
	idle     int       // virtual mode: actors blocked in WaitIdle
}

type actorState struct {
	name   string
	state  string // "running" or a description of the blocking point
	daemon bool
}

// NewReal returns a Clock backed by the wall clock.
func NewReal() *Clock {
	return &Clock{start: time.Now()}
}

// NewVirtual returns a discrete-event virtual Clock starting at time zero
// with no actors. Spawn actors with Go before relying on time advancing.
func NewVirtual() *Clock {
	return &Clock{virtual: true, actors: make(map[int]*actorState)}
}

// Virtual reports whether the clock is a virtual (simulated) clock.
func (c *Clock) Virtual() bool { return c.virtual }

// Stopped reports whether a virtual clock has been stopped.
func (c *Clock) Stopped() bool {
	if !c.virtual {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

// Now returns the time elapsed since the clock's origin.
func (c *Clock) Now() time.Duration {
	if !c.virtual {
		return time.Since(c.start)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Go spawns fn as a managed actor. In real mode it is a plain goroutine. In
// virtual mode the actor is counted as runnable until it exits, and its
// blocking points are tracked for deadlock diagnostics. name is used only in
// diagnostics.
func (c *Clock) Go(name string, fn func()) { c.spawn(name, fn, false) }

// GoDaemon spawns fn as a daemon actor: one that is expected to block
// indefinitely waiting for work (accept loops, connection readers, reply
// demultiplexers). When only daemon actors remain blocked with no pending
// timers, the simulation quiesces instead of reporting a deadlock.
func (c *Clock) GoDaemon(name string, fn func()) { c.spawn(name, fn, true) }

func (c *Clock) spawn(name string, fn func(), daemon bool) {
	if !c.virtual {
		go fn()
		return
	}
	// The new actor starts as one woken from a wait: at once when no actor
	// runs, else in its turn.
	start := &Waiter{c: c, ch: make(chan struct{}, 1), waiting: true}
	c.mu.Lock()
	c.actorSeq++
	id := c.actorSeq
	c.actors[id] = &actorState{name: name, state: "running", daemon: daemon}
	c.wakeLocked(start)
	c.mu.Unlock()
	go func() {
		<-start.ch
		defer c.actorExit(id)
		fn()
	}()
}

func (c *Clock) actorExit(id int) {
	c.mu.Lock()
	delete(c.actors, id)
	// No defer: decRunnableLocked may panic on true deadlock, and that path
	// releases the mutex itself before panicking.
	c.decRunnableLocked()
	c.mu.Unlock()
}

// Stop halts a virtual clock: pending and future timers never fire, and
// blocked actors are woken (their Wait calls return). Components should
// observe their own shutdown signals; Stop is a backstop so that tests do not
// leak goroutines blocked in the simulator. No-op in real mode.
func (c *Clock) Stop() {
	if !c.virtual {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	for _, t := range c.timers {
		if t.w != nil {
			c.wakeLocked(t.w)
		}
	}
	c.timers = nil
	for _, w := range c.ready {
		c.runnable++
		w.ch <- struct{}{}
	}
	c.ready = nil
}

// Sleep blocks the calling actor for d. In virtual mode this may advance
// virtual time if every other actor is blocked.
func (c *Clock) Sleep(d time.Duration) {
	if !c.virtual {
		if d > 0 {
			time.Sleep(d)
		}
		return
	}
	if d <= 0 {
		return
	}
	w := c.NewWaiter()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.scheduleLocked(c.now+d, nil, w)
	c.mu.Unlock()
	c.WaitAs(w, fmt.Sprintf("sleep %v", d))
}

// Timer is a cancelable scheduled callback created by AfterFunc.
type Timer struct {
	c *Clock
	// virtual mode
	t *timer
	// real mode
	rt *time.Timer
}

// Stop cancels the timer. It reports whether the timer was canceled before
// firing.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	if t.rt != nil {
		return t.rt.Stop()
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.t.canceled || t.t.fired {
		return false
	}
	t.t.canceled = true
	// Remove the entry from the heap immediately instead of leaving it to be
	// popped and skipped when virtual time reaches it: a workload that arms
	// and cancels timers faster than time passes them (every successful RPC
	// with a timeout does) would otherwise accumulate dead heap entries
	// without bound.
	if i := t.t.index; i >= 0 && i < len(t.c.timers) && t.c.timers[i] == t.t {
		heap.Remove(&t.c.timers, i)
	}
	return true
}

// AfterFunc schedules fn to run after d. In virtual mode fn runs as a
// transient actor; it may use clock primitives but should not block
// indefinitely.
func (c *Clock) AfterFunc(d time.Duration, fn func()) *Timer {
	if !c.virtual {
		return &Timer{c: c, rt: time.AfterFunc(d, fn)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.scheduleLocked(c.now+d, fn, nil)
	if c.runnable == 0 && !c.stopped {
		// Scheduled from outside the simulation (or from a quiesced state):
		// kick the event loop so the timer is not stranded.
		c.advanceLocked()
	}
	return &Timer{c: c, t: t}
}

// Waiter is a one-shot wake-up point. Exactly one actor may Wait on it; any
// number of actors or timers may Wake it, but only the first Wake has effect.
type Waiter struct {
	c *Clock
	// ch carries the one wake-up, and is kept when the waiter is readied
	// again (InitWaiter).
	ch chan struct{}
	// woken, waiting and idle are guarded by c.mu in virtual mode; in real
	// mode sent picks the one Wake that sends on ch.
	woken   bool
	waiting bool
	idle    bool // its actor waits in WaitIdle
	sent    atomic.Bool
}

// NewWaiter returns a fresh waiter bound to the clock.
func (c *Clock) NewWaiter() *Waiter {
	return c.InitWaiter(new(Waiter))
}

// InitWaiter readies w, a Waiter its owner embeds in a value of its own so as
// not to allocate one apart, as NewWaiter would, and returns it. An owner may
// ready the same Waiter again once its Wait has returned and nothing else will
// Wake it: a Wake touches the waiter no more once it has sent on the channel
// the Wait returned from. The waiter keeps that channel, so readying it again
// allocates nothing.
func (c *Clock) InitWaiter(w *Waiter) *Waiter {
	ch := w.ch
	if ch == nil {
		ch = make(chan struct{}, 1)
	} else {
		select {
		case <-ch: // the wake-up of a WaitFor that timed out
		default:
		}
	}
	*w = Waiter{c: c, ch: ch}
	return w
}

// Wake unblocks the waiter's Wait call. Safe to call multiple times and from
// timer callbacks; only the first call has effect.
func (w *Waiter) Wake() {
	if !w.c.virtual {
		if w.sent.CompareAndSwap(false, true) {
			w.ch <- struct{}{}
		}
		return
	}
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	w.c.wakeLocked(w)
}

func (c *Clock) wakeLocked(w *Waiter) {
	if w.woken {
		return
	}
	w.woken = true
	if w.idle {
		w.idle = false
		c.idle--
	}
	switch {
	case !w.waiting:
		// Not yet waited: there is no blocked actor to count runnable.
	case c.runnable > 0 && !c.stopped:
		// Another actor runs: this one runs in its turn (advanceLocked).
		c.ready = append(c.ready, w)
		return
	default:
		c.runnable++
	}
	w.ch <- struct{}{}
}

// Wait blocks the calling actor until the waiter is woken.
func (c *Clock) Wait(w *Waiter) { c.WaitAs(w, "wait") }

// WaitAs is Wait with a diagnostic label describing the blocking point.
func (c *Clock) WaitAs(w *Waiter, label string) { c.wait(w, label, false) }

// WaitIdle is WaitAs for an actor that waits for work rather than for
// progress, such as a server's parked worker: under the virtual clock, while
// it waits it no more keeps the simulation from quiescing than a daemon does.
// The same actor blocked anywhere else still counts toward a deadlock. Only an
// actor started with Go waits idle; a daemon's every wait already is.
func (c *Clock) WaitIdle(w *Waiter, label string) { c.wait(w, label, true) }

func (c *Clock) wait(w *Waiter, label string, idle bool) {
	if !c.virtual {
		<-w.ch
		return
	}
	c.mu.Lock()
	if w.woken {
		// Woken before we blocked: nothing to account for.
		c.mu.Unlock()
		<-w.ch
		return
	}
	if c.stopped {
		// Shutting down: do not park actors forever.
		c.wakeLocked(w)
		c.mu.Unlock()
		<-w.ch
		return
	}
	w.waiting = true
	if idle {
		w.idle = true
		c.idle++
	}
	c.blockLocked(label)
	c.mu.Unlock()
	<-w.ch
	// The waker incremented runnable on our behalf.
}

// WaitFor is WaitAs bounded by d: it returns once w is woken or d has passed,
// whichever comes first, and the caller tells which from its own state. A
// timeout does not wake w under the real clock; under the virtual one it does
// (a callback timer, as AfterFunc(d, w.Wake) would). The real clock's timers
// are pooled, so a timed wait allocates nothing at steady state.
func (c *Clock) WaitFor(w *Waiter, d time.Duration, label string) {
	if c.virtual {
		t := c.AfterFunc(d, w.Wake)
		c.WaitAs(w, label)
		t.Stop()
		return
	}
	t, _ := realTimers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	select {
	case <-w.ch:
		if !t.Stop() {
			// It fired meanwhile, and its tick may still be on the way to t.C:
			// a later wait must not receive it.
			return
		}
	case <-t.C:
	}
	realTimers.Put(t)
}

// realTimers holds stopped or drained real-clock timers for WaitFor.
var realTimers sync.Pool

// blockLocked marks the calling actor blocked and advances virtual time if it
// was the last runnable actor.
func (c *Clock) blockLocked(label string) {
	c.setState(label)
	c.decRunnableLocked()
}

// setState is a placeholder for per-actor diagnostic state; per-goroutine
// tracking would require goroutine-local storage, so only aggregate
// diagnostics are kept (see dumpLocked).
func (c *Clock) setState(string) {}

func (c *Clock) decRunnableLocked() {
	c.runnable--
	if c.runnable < 0 {
		if c.stopped {
			// After a deadlock panic or Stop, accounting may be off for
			// actors unwinding; clamp instead of cascading panics.
			c.runnable = 0
			return
		}
		panic("vclock: runnable count went negative")
	}
	if c.runnable == 0 && !c.stopped {
		c.advanceLocked()
	}
}

// advanceLocked runs the next ready actor or, with none, fires timers until
// one actor is runnable again. Called with c.mu held and runnable == 0.
func (c *Clock) advanceLocked() {
	for c.runnable == 0 {
		if c.stopped {
			return
		}
		if len(c.ready) > 0 {
			w := c.ready[0]
			c.ready[0] = nil
			c.ready = c.ready[1:]
			c.runnable++
			w.ch <- struct{}{}
			return
		}
		if len(c.timers) == 0 {
			if c.idleLocked() {
				// Every remaining actor is a daemon or waits idle for work:
				// the simulation has quiesced, not deadlocked.
				return
			}
			// Mark stopped so unwinding actors do not re-enter advance or
			// trip the negative-runnable check, then release the lock before
			// panicking so cleanup paths can still acquire it.
			c.stopped = true
			msg := "vclock: virtual deadlock — all actors blocked and no timers pending\n" + c.dumpLocked()
			c.mu.Unlock()
			panic(msg)
		}
		t := heap.Pop(&c.timers).(*timer)
		if t.canceled {
			continue
		}
		t.fired = true
		if t.when > c.now {
			c.now = t.when
		}
		if t.w != nil {
			c.wakeLocked(t.w)
			continue
		}
		// Callback timer: run as a transient actor, tracked like any other.
		c.actorSeq++
		id := c.actorSeq
		c.actors[id] = &actorState{name: "timer-callback", state: "running"}
		c.runnable++
		fn := t.fn
		go func() {
			defer c.actorExit(id)
			fn()
		}()
	}
}

// idleLocked reports whether every actor that is not a daemon waits idle.
func (c *Clock) idleLocked() bool {
	busy := 0
	for _, a := range c.actors {
		if !a.daemon {
			busy++
		}
	}
	return busy == c.idle
}

// Diag is a point-in-time view of the scheduler, suitable for metrics
// gauges and debug dumps.
type Diag struct {
	Virtual  bool
	Now      time.Duration
	Actors   int
	Runnable int
	Timers   int
}

// Diag reports scheduler state. Safe to call from any goroutine, including
// non-actors such as a metrics exposition handler.
func (c *Clock) Diag() Diag {
	if !c.virtual {
		return Diag{Now: c.Now()}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pending := 0
	for _, t := range c.timers {
		if !t.canceled && !t.fired {
			pending++
		}
	}
	return Diag{Virtual: true, Now: c.now, Actors: len(c.actors), Runnable: c.runnable, Timers: pending}
}

func (c *Clock) dumpLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time %v, %d actors:\n", c.now, len(c.actors))
	names := make([]string, 0, len(c.actors))
	for _, a := range c.actors {
		names = append(names, a.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  actor %s\n", n)
	}
	return b.String()
}

// timer is a scheduled event: either wakes a waiter or runs a callback.
type timer struct {
	when     time.Duration
	seq      uint64
	fn       func()
	w        *Waiter
	canceled bool
	fired    bool
	index    int
}

func (c *Clock) scheduleLocked(when time.Duration, fn func(), w *Waiter) *timer {
	c.seq++
	t := &timer{when: when, seq: c.seq, fn: fn, w: w}
	heap.Push(&c.timers, t)
	return t
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
