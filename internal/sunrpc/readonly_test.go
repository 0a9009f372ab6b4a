package sunrpc

import (
	"sync"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// pipeConn is an in-memory transport.Conn, one end of a pair of channels.
// Like tcpnet it hands the receiver a pooled copy of each message, and like
// tcpnet it gathers: a message in two parts is copied straight from both.
type pipeConn struct {
	in   <-chan []byte
	out  chan<- []byte
	done chan struct{}
	once *sync.Once
}

func newPipe() (a, b *pipeConn) {
	// Depth 1 is all a caller with one call in flight needs.
	ab, ba := make(chan []byte, 1), make(chan []byte, 1)
	done, once := make(chan struct{}), new(sync.Once)
	return &pipeConn{in: ba, out: ab, done: done, once: once}, &pipeConn{in: ab, out: ba, done: done, once: once}
}

func (c *pipeConn) Send(msg []byte) error { return c.SendGather(msg, nil) }

func (c *pipeConn) SendGather(head, tail []byte) error {
	cp := bufpool.Get(len(head) + len(tail))
	copy(cp[copy(cp, head):], tail)
	select {
	case c.out <- cp:
		return nil
	case <-c.done:
		return transport.ErrClosed
	}
}

func (c *pipeConn) Recv() ([]byte, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.done:
		return nil, transport.ErrClosed
	}
}

func (c *pipeConn) Close() error       { c.once.Do(func() { close(c.done) }); return nil }
func (c *pipeConn) LocalAddr() string  { return "pipe" }
func (c *pipeConn) RemoteAddr() string { return "pipe" }

// pipeListener accepts the one connection it was made with.
type pipeListener struct {
	conn chan transport.Conn
	done chan struct{}
	once sync.Once
}

func (l *pipeListener) Accept() (transport.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}
func (l *pipeListener) Close() error { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() string { return "pipe" }

// joinedConn hides the SendGather of the connection it wraps: a call's parts
// reach it joined, as they reach simnet, secure and every wrapper that embeds
// a transport.Conn.
type joinedConn struct{ transport.Conn }

// Procedures of pipePair's program: each of NULL and a 32 KiB READ, once
// retained by the duplicate-request cache (the default) and once declared
// read-only; and a WRITE of an opaque of up to 1 MiB, answered with its
// length.
const (
	pipeNull = iota
	pipeRead
	pipeNullRO
	pipeReadRO
	pipeWrite
)

// pipePair returns a server with the default duplicate-request cache and a
// client connected to it through an in-memory pipe, on the real clock.
func pipePair(tb testing.TB) (*Server, *Client) { return pipePairOver(tb, nil) }

// pipePairOver is pipePair with the client's end of the pipe wrapped by wrap,
// when it is not nil.
func pipePairOver(tb testing.TB, wrap func(transport.Conn) transport.Conn) (*Server, *Client) {
	tb.Helper()
	clk := vclock.NewReal()
	block := make([]byte, 32<<10)
	for i := range block {
		block[i] = byte(i * 31)
	}
	srv := NewServer(clk)
	srv.Register(testProg, testVers, func(call *Call) AcceptStat {
		switch call.Proc {
		case pipeNull, pipeNullRO:
		case pipeRead, pipeReadRO:
			call.Reply.Opaque(block)
		case pipeWrite:
			data, err := call.Args.OpaqueRef(1 << 20)
			if err != nil {
				return GarbageArgs
			}
			call.Reply.Uint32(uint32(len(data)))
		default:
			return ProcUnavail
		}
		return Success
	})
	srv.SetReadOnly(testProg, testVers, pipeNullRO, pipeReadRO)
	a, b := newPipe()
	l := &pipeListener{conn: make(chan transport.Conn, 1), done: make(chan struct{})}
	l.conn <- b
	srv.Serve(l)
	var conn transport.Conn = a
	if wrap != nil {
		conn = wrap(a)
	}
	cli := NewClient(clk, conn, NoneCred())
	tb.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return srv, cli
}

// retainedBytes sums the reply bytes every connection's cache holds.
func retainedBytes(s *Server) (entries, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.conns {
		d.mu.Lock()
		entries += len(d.entries)
		for _, e := range d.entries {
			bytes += cap(e.reply)
		}
		d.mu.Unlock()
	}
	return entries, bytes
}

// TestReadOnlyRepliesAreNotRetained: ten thousand READs on a connection leave
// nothing in its duplicate-request cache — not 512 copies of 32 KiB — while
// the same calls through a procedure that was not declared read-only fill it
// to its bound.
func TestReadOnlyRepliesAreNotRetained(t *testing.T) {
	srv, cli := pipePair(t)
	// One worker: the server runs the calls one at a time, each to its end,
	// in the order they came.
	srv.SetSched(SchedConfig{Workers: 1})
	for i := 0; i < 10000; i++ {
		rep, err := cli.CallParts(0, testProg, testVers, pipeReadRO, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep.Release()
	}
	// The last READ's in-progress entry goes once its reply is out, after the
	// send that let the client return. The reply to a call sent after it is
	// the server's word that it has: with one worker that call's handler
	// starts only when the READ's has returned. It is retained, so its small
	// reply is the one entry left.
	rep, err := cli.CallParts(0, testProg, testVers, pipeNull, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()
	if entries, bytes := retainedBytes(srv); entries != 1 || bytes >= 1<<10 {
		t.Errorf("after 10000 read-only READs and a NULL the cache holds %d entries, %d reply bytes; want the NULL's alone", entries, bytes)
	}
	for i := 0; i < 2*defaultDRCEntries; i++ {
		rep, err := cli.CallParts(0, testProg, testVers, pipeRead, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep.Release()
	}
	entries, bytes := retainedBytes(srv)
	if entries != defaultDRCEntries || bytes < entries*32<<10 {
		t.Errorf("retained READs: %d entries holding %d bytes, want %d entries of a reply each", entries, bytes, defaultDRCEntries)
	}
}

// TestReleasedFrameIsReused: a reply frame given back with Release is the
// buffer the next reply arrives in, and Release twice is harmless.
func TestReleasedFrameIsReused(t *testing.T) {
	_, cli := pipePair(t)
	before := bufpool.Outstanding()
	for i := 0; i < 100; i++ {
		rep, err := cli.CallParts(0, testProg, testVers, pipeReadRO, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := rep.Body.OpaqueRef(0); err != nil || len(b) != 32<<10 || b[1] != 31 {
			t.Fatalf("call %d: reply damaged: %d bytes, %v", i, len(b), err)
		}
		rep.Release()
		rep.Release()
	}
	if d := bufpool.Outstanding() - before; d > 2 {
		t.Errorf("100 released replies left %d buffers checked out", d)
	}
	// The pinned API never recycles: its caller may keep the bytes.
	d, err := cli.Call(testProg, testVers, pipeReadRO, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := d.OpaqueRef(0)
	for i := 0; i < 10; i++ {
		rep, _ := cli.CallParts(0, testProg, testVers, pipeReadRO, nil, nil, 0)
		rep.Release()
	}
	if len(kept) != 32<<10 || kept[1] != 31 || kept[len(kept)-1] != byte((len(kept)-1)*31) {
		t.Error("a reply obtained through Call was overwritten by later traffic")
	}
}

func benchCall(b *testing.B, proc uint32, size int) {
	_, cli := pipePair(b)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := cli.CallParts(0, testProg, testVers, proc, nil, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Body.Remaining() < size {
			b.Fatalf("reply of %d bytes, want at least %d", rep.Body.Remaining(), size)
		}
		rep.Release()
	}
}

// BenchmarkNullCall is one empty call and reply through client, in-memory
// pipe and server with the duplicate-request cache on: the RPC layer's
// per-message cost without a socket.
func BenchmarkNullCall(b *testing.B) {
	b.Run("retained", func(b *testing.B) { benchCall(b, pipeNull, 0) })
	b.Run("read-only", func(b *testing.B) { benchCall(b, pipeNullRO, 0) })
}

// BenchmarkRead32K is the same with a 32 KiB result: what the cache's copy of
// a READ reply costs (retained) and what is left without it (read-only).
func BenchmarkRead32K(b *testing.B) {
	b.Run("retained", func(b *testing.B) { benchCall(b, pipeRead, 32<<10) })
	b.Run("read-only", func(b *testing.B) { benchCall(b, pipeReadRO, 32<<10) })
}
