package main

import (
	"sync"
	"time"

	"repro/internal/transport"
)

// linkModel is the injected wide-area link: every message waits its turn on a
// serialising pipe of the given rate, then the one-way latency. Traffic still
// crosses the host's loopback interface; only the delay is modelled.
type linkModel struct {
	oneWay     time.Duration
	bitsPerSec float64
}

// paperWAN is the paper's 40 ms RTT. The paper's 4 Mbit/s would make every
// run bandwidth-bound and hide round-trip optimisations in a ten-second
// window, so the pipe is 100 Mbit/s.
var paperWAN = linkModel{oneWay: 20 * time.Millisecond, bitsPerSec: 100e6}

const (
	dirUp   = 0 // proxy client -> proxy server
	dirDown = 1 // proxy server -> proxy client, callbacks included
)

// wanLink is one client site's access link. Every connection that crosses it
// (the session's upstream connection and the server's callback connection)
// shares the per-direction pipe, and the byte and busy counters.
type wanLink struct {
	model linkModel

	mu    sync.Mutex
	free  [2]time.Time // when each direction's pipe is next idle
	bytes [2]int64
	busy  [2]time.Duration
}

// admit books n bytes onto direction dir and returns when they arrive.
func (l *wanLink) admit(dir, n int) time.Time {
	tx := time.Duration(float64(n) * 8 / l.model.bitsPerSec * float64(time.Second))
	now := time.Now()
	l.mu.Lock()
	start := l.free[dir]
	if start.Before(now) {
		start = now
	}
	l.free[dir] = start.Add(tx)
	l.bytes[dir] += int64(n)
	l.busy[dir] += tx
	l.mu.Unlock()
	return start.Add(tx + l.model.oneWay)
}

// linkUsage is a snapshot of a link's counters.
type linkUsage struct {
	bytes int64
	busy  time.Duration // of the busier direction
}

func (l *wanLink) usage() linkUsage {
	l.mu.Lock()
	defer l.mu.Unlock()
	u := linkUsage{bytes: l.bytes[dirUp] + l.bytes[dirDown], busy: l.busy[dirUp]}
	if l.busy[dirDown] > u.busy {
		u.busy = l.busy[dirDown]
	}
	return u
}

type timedMsg struct {
	data []byte
	due  time.Time
}

// delayConn carries one connection across a wanLink, preserving order in
// both directions. sendDir is the direction of this end's Sends.
type delayConn struct {
	transport.Conn
	link    *wanLink
	sendDir int

	// out and in hold messages in flight on the link. Their depth is the
	// most messages one direction can have under way before Send applies
	// back-pressure like a full socket buffer; the session never pipelines
	// more than a few dozen (readahead, flush parallelism, callers).
	out  chan timedMsg
	in   chan timedMsg
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func newDelayConn(inner transport.Conn, link *wanLink, sendDir int) *delayConn {
	c := &delayConn{
		Conn: inner, link: link, sendDir: sendDir,
		out: make(chan timedMsg, 256), in: make(chan timedMsg, 256),
		done: make(chan struct{}),
	}
	c.wg.Add(2)
	go c.pumpOut()
	go c.pumpIn()
	return c
}

func (c *delayConn) Send(msg []byte) error {
	// The caller may reuse msg as soon as Send returns.
	m := timedMsg{data: append([]byte(nil), msg...), due: c.link.admit(c.sendDir, len(msg))}
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return transport.ErrClosed
	}
}

func (c *delayConn) pumpOut() {
	defer c.wg.Done()
	for {
		select {
		case m := <-c.out:
			time.Sleep(time.Until(m.due))
			if c.Conn.Send(m.data) != nil {
				return
			}
		case <-c.done:
			return
		}
	}
}

func (c *delayConn) pumpIn() {
	defer c.wg.Done()
	defer close(c.in)
	for {
		b, err := c.Conn.Recv()
		if err != nil {
			return
		}
		m := timedMsg{data: b, due: c.link.admit(1-c.sendDir, len(b))}
		select {
		case c.in <- m:
		case <-c.done:
			return
		}
	}
}

func (c *delayConn) Recv() ([]byte, error) {
	m, ok := <-c.in
	if !ok {
		return nil, transport.ErrClosed
	}
	time.Sleep(time.Until(m.due))
	return m.data, nil
}

// Close tears the connection down and waits for both pumps to exit.
func (c *delayConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { close(c.done) })
	c.wg.Wait()
	return err
}
