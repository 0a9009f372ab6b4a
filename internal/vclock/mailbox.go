package vclock

import (
	"sync"
	"time"
)

// Mailbox is an unbounded FIFO queue whose receive side blocks through the
// clock, so that virtual simulations account for waiting receivers. It is the
// building block for simulated network connections and RPC reply matching.
type Mailbox[T any] struct {
	c *Clock

	mu      sync.Mutex
	q       []T
	closed  bool
	waiters []*Waiter
}

// NewMailbox returns an empty open mailbox bound to the clock.
func NewMailbox[T any](c *Clock) *Mailbox[T] {
	return &Mailbox[T]{c: c}
}

// Put appends v and wakes one blocked receiver, if any. Put on a closed
// mailbox is a no-op and reports false.
func (m *Mailbox[T]) Put(v T) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.q = append(m.q, v)
	// Wake every blocked receiver: a waiter may already have been woken by a
	// timeout and abandoned, so waking just one could strand a live receiver.
	// Receivers loop and re-register, so extra wakes are harmless.
	ws := m.waiters
	m.waiters = nil
	m.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
	return true
}

// Get blocks until a value is available or the mailbox is closed. ok is false
// only when the mailbox is closed and drained (or the clock has stopped and
// no more deliveries can happen).
func (m *Mailbox[T]) Get() (v T, ok bool) {
	for {
		m.mu.Lock()
		if len(m.q) > 0 {
			v = m.q[0]
			m.q = m.q[1:]
			m.mu.Unlock()
			return v, true
		}
		if m.closed {
			m.mu.Unlock()
			return v, false
		}
		if m.c.Stopped() {
			// A stopped clock releases waiters immediately; treat the
			// mailbox as closed rather than spinning.
			m.mu.Unlock()
			return v, false
		}
		w := m.c.NewWaiter()
		m.waiters = append(m.waiters, w)
		m.mu.Unlock()
		m.c.WaitAs(w, "mailbox.Get")
	}
}

// GetTimeout is Get with a deadline of d from now. timedOut reports that the
// deadline elapsed with no value available.
func (m *Mailbox[T]) GetTimeout(d time.Duration) (v T, ok, timedOut bool) {
	deadline := m.c.Now() + d
	for {
		m.mu.Lock()
		if len(m.q) > 0 {
			v = m.q[0]
			m.q = m.q[1:]
			m.mu.Unlock()
			return v, true, false
		}
		if m.closed {
			m.mu.Unlock()
			return v, false, false
		}
		remaining := deadline - m.c.Now()
		if remaining <= 0 || m.c.Stopped() {
			m.mu.Unlock()
			return v, false, true
		}
		w := m.c.NewWaiter()
		m.waiters = append(m.waiters, w)
		m.mu.Unlock()
		t := m.c.AfterFunc(remaining, w.Wake)
		m.c.WaitAs(w, "mailbox.GetTimeout")
		t.Stop()
	}
}

// Len reports the number of queued values.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q)
}

// Close marks the mailbox closed and wakes all blocked receivers. Queued
// values remain retrievable.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	ws := m.waiters
	m.waiters = nil
	m.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}
