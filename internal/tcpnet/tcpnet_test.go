package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/transport"
)

func TestSendRecvOverLoopback(t *testing.T) {
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for {
			msg, err := c.Recv()
			if err != nil {
				done <- nil
				return
			}
			if err := c.Send(msg); err != nil {
				done <- err
				return
			}
		}
	}()

	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for _, payload := range [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 1<<16),
	} {
		if err := c.Send(payload); err != nil {
			t.Fatalf("send %d bytes: %v", len(payload), err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("echo mismatch: got %d bytes, want %d", len(got), len(payload))
		}
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestRecvAfterPeerClose(t *testing.T) {
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
	}()
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Recv err = %v, want ErrClosed", err)
	}
}

func TestDialRefused(t *testing.T) {
	var n Net
	// Port 1 on loopback is almost certainly closed.
	if _, err := n.Dial("127.0.0.1:1"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go l.Accept()
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(make([]byte, MaxMessage+1)); err == nil {
		t.Fatal("oversize Send succeeded")
	}
}

// echoPair returns a connection whose peer echoes every frame back, recycling
// the received frame as the RPC server does.
func echoPair(tb testing.TB) transport.Conn {
	tb.Helper()
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil || c.Send(m) != nil {
				return
			}
			bufpool.Put(m)
		}
	}()
	c, err := n.Dial(l.Addr())
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	tb.Cleanup(func() {
		c.Close()
		l.Close()
		<-done
	})
	return c
}

func benchPingPong(b *testing.B, size int) {
	c := echoPair(b)
	msg := bytes.Repeat([]byte{0x5A}, size)
	b.SetBytes(int64(2 * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(msg); err != nil {
			b.Fatal(err)
		}
		m, err := c.Recv()
		if err != nil {
			b.Fatal(err)
		}
		if len(m) != size {
			b.Fatalf("echo of %d bytes, want %d", len(m), size)
		}
		bufpool.Put(m)
	}
}

// BenchmarkPingPong128 is a small RPC's framing cost there and back over
// loopback: one writev and one read per frame each way.
func BenchmarkPingPong128(b *testing.B) { benchPingPong(b, 128) }

// BenchmarkPingPong32K is a READ reply's: the payload is read straight into
// the pooled frame.
func BenchmarkPingPong32K(b *testing.B) { benchPingPong(b, 32*1024) }

// rawPeer returns a framed connection and the bare TCP socket at its other
// end, through which a test puts bytes on the wire exactly as it likes.
func rawPeer(t *testing.T) (transport.Conn, net.Conn) {
	t.Helper()
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c, err := l.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() {
		raw.Close()
		c.Close()
	})
	return c, raw
}

// frame returns the wire form of one message.
func frame(msg []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(msg))), msg...)
}

// pattern returns n bytes that depend on every index and on seed.
func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func recvWant(t *testing.T, c transport.Conn, want []byte) []byte {
	t.Helper()
	got, err := c.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame of %d bytes differs from the %d sent", len(got), len(want))
	}
	return got
}

// TestRecvDribbledFrames: however the stream is cut into segments — here one
// byte each — Recv delivers exactly the frames that were sent.
func TestRecvDribbledFrames(t *testing.T) {
	c, raw := rawPeer(t)
	msgs := [][]byte{pattern(1, 5), {}, pattern(2, 300), pattern(3, 2*readBufSize+3)}
	go func() {
		for _, m := range msgs {
			for _, b := range frame(m) {
				if _, err := raw.Write([]byte{b}); err != nil {
					return
				}
			}
		}
	}()
	for _, m := range msgs {
		recvWant(t, c, m)
	}
}

// TestRecvPackedFrames: several small frames, empty ones among them, and the
// head of a large one arrive in a single segment; the large frame's tail
// follows. The read buffer must hand each its own bytes and no more.
func TestRecvPackedFrames(t *testing.T) {
	c, raw := rawPeer(t)
	big := pattern(9, 3*readBufSize)
	msgs := [][]byte{pattern(1, 40), {}, pattern(2, 128), {}, pattern(3, 1), big}
	var wire []byte
	for _, m := range msgs {
		wire = append(wire, frame(m)...)
	}
	cut := len(wire) - len(big) + 100 // 100 bytes into the large payload
	if _, err := raw.Write(wire[:cut]); err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[:len(msgs)-1] {
		recvWant(t, c, m)
	}
	if _, err := raw.Write(wire[cut:]); err != nil {
		t.Fatal(err)
	}
	recvWant(t, c, big)
	// A prefix split across two segments, after the buffer has been in use.
	last := frame(pattern(4, 10))
	raw.Write(last[:2])
	raw.Write(last[2:])
	recvWant(t, c, last[4:])
}

// connPair returns the two framed ends of one loopback connection.
func connPair(t *testing.T) (dialled, accepted *conn) {
	t.Helper()
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	d, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	a, err := l.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() {
		d.Close()
		a.Close()
	})
	return d.(*conn), a.(*conn)
}

// shrinkBuffers sets a 4 KiB send buffer on c, so a large writev comes back
// short many times over before its frame is out.
func shrinkBuffers(t *testing.T, c *conn) {
	t.Helper()
	if err := c.nc.(*net.TCPConn).SetWriteBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSendersDoNotInterleave: eight goroutines send frames over one
// connection, some far larger than a socket buffer so that a writev comes back
// short; every frame arrives whole, its prefix with its own payload. "send"
// sends frames of assorted sizes in one part; "gathered" sends 1 MiB frames as
// a head and a tail through a 4 KiB send buffer, the shape of a coalesced
// WRITE relayed by reference.
func TestConcurrentSendersDoNotInterleave(t *testing.T) {
	const senders = 8
	t.Run("send", func(t *testing.T) {
		const each = 40
		sizes := []int{0, 1, 90, 4096, 33000, 1 << 20}
		total := make(map[int]int)
		interleave(t, senders, each, false, func(c *conn, s, i int) error {
			// Byte 0 names the sender, the rest is its constant fill.
			return c.Send(bytes.Repeat([]byte{byte(s + 1)}, sizes[(s+i)%len(sizes)]))
		}, func(i int, m []byte) {
			if !slices.Contains(sizes, len(m)) {
				t.Fatalf("frame %d has a length nobody sent: %d", i, len(m))
			}
			total[len(m)]++
		})
		for _, sz := range sizes {
			// Each size is sent senders*each/len(sizes) times, give or take the
			// remainder of the division.
			if got, want := total[sz], senders*each/len(sizes); got < want-senders || got > want+senders {
				t.Errorf("%d frames of %d bytes, want about %d", got, sz, want)
			}
		}
	})
	t.Run("gathered", func(t *testing.T) {
		const each = 1
		heads, tails := make([][]byte, senders), make([][]byte, senders)
		for s := range heads {
			// The frame's length names its sender as well as its fill does.
			heads[s] = bytes.Repeat([]byte{byte(s + 1)}, 100+s)
			tails[s] = bytes.Repeat([]byte{byte(s + 1)}, 1<<20)
		}
		got := make([]int, senders)
		interleave(t, senders, each, true, func(c *conn, s, _ int) error {
			return c.SendGather(heads[s], tails[s])
		}, func(i int, m []byte) {
			s := int(m[0]) - 1
			if s < 0 || s >= senders || len(m) != len(heads[s])+len(tails[s]) {
				t.Fatalf("frame %d: %d bytes from sender %d, which sent no such frame", i, len(m), s)
			}
			got[s]++
		})
		for s, n := range got {
			if n != each {
				t.Errorf("sender %d: %d frames arrived, want %d", s, n, each)
			}
		}
	})
}

// interleave runs send on senders goroutines, each times, over one connection
// — with a 4 KiB send buffer if small — and hands every frame the other end
// receives to check after making sure no two senders' bytes are mixed in it.
func interleave(t *testing.T, senders, each int, small bool, send func(c *conn, s, i int) error, check func(i int, m []byte)) {
	t.Helper()
	tx, rx := connPair(t)
	if small {
		shrinkBuffers(t, tx)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := send(tx, s, i); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	defer func() {
		if t.Failed() {
			tx.Close() // release senders stuck on a receiver that gave up
		}
		wg.Wait()
	}()
	for i := 0; i < senders*each; i++ {
		m, err := rx.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(m) > 0 && !bytes.Equal(m, bytes.Repeat(m[:1], len(m))) {
			t.Fatalf("frame %d mixes two senders' bytes", i)
		}
		check(i, m)
		bufpool.Put(m)
	}
}

// TestCloseMidWritevDeliversNoShortFrame closes a connection while a gathered
// 1 MiB frame is stuck half-way into a 4 KiB send buffer: the sender gets
// ErrClosed, and the peer, which has part of the frame, gets ErrClosed too —
// never a short frame.
func TestCloseMidWritevDeliversNoShortFrame(t *testing.T) {
	tx, rx := connPair(t)
	shrinkBuffers(t, tx)
	if err := rx.nc.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- tx.SendGather(pattern(1, 64), pattern(2, 1<<20)) }()
	// Nobody reads rx, so the writev fills both buffers and waits; what is
	// left of 1 MiB does not fit in them however long it is given.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-sent:
		t.Fatalf("a 1 MiB frame went into 4 KiB buffers before anyone read: %v", err)
	default:
	}
	tx.Close()
	if err := <-sent; !errors.Is(err, transport.ErrClosed) {
		t.Errorf("sender: %v, want ErrClosed", err)
	}
	if m, err := rx.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("receiver: a frame of %d bytes and %v, want ErrClosed", len(m), err)
	}
}

// TestOversizeGatherRejectedBeforeWrite: a head and tail that together exceed
// MaxMessage are refused without a byte reaching the wire, so the frame after
// them is the first the peer sees.
func TestOversizeGatherRejectedBeforeWrite(t *testing.T) {
	tx, rx := connPair(t)
	if err := tx.SendGather(pattern(1, 8), make([]byte, MaxMessage)); err == nil || errors.Is(err, transport.ErrClosed) {
		t.Fatalf("oversize SendGather: %v, want a size error", err)
	}
	after := pattern(3, 40)
	if err := tx.SendGather(after[:16], after[16:]); err != nil {
		t.Fatal(err)
	}
	recvWant(t, rx, after)
}

// TestOversizePrefixRejectedBeforeAllocation: a corrupt or hostile length
// prefix costs an error, not a buffer of the size it claims.
func TestOversizePrefixRejectedBeforeAllocation(t *testing.T) {
	c, raw := rawPeer(t)
	if _, err := raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xF0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	out := bufpool.Outstanding()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := c.Recv()
	runtime.ReadMemStats(&m1)
	if err == nil || errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Recv err = %v, want a frame-size error", err)
	}
	if d := m1.TotalAlloc - m0.TotalAlloc; d > 64<<10 {
		t.Errorf("rejecting the prefix allocated %d bytes", d)
	}
	if bufpool.Outstanding() != out {
		t.Error("rejecting the prefix took a buffer from the pool")
	}
}

// TestRecvFrameIsOwnedByCaller: a frame Recv returned shares nothing with the
// connection — it can be scribbled on, recycled and handed out again while
// the next Recv is under way, as the RPC layers and the benchmark's generator
// do, and the next frame still arrives intact.
func TestRecvFrameIsOwnedByCaller(t *testing.T) {
	c, raw := rawPeer(t)
	a, b := pattern(1, 200), pattern(2, 700)
	wire := append(frame(a), frame(b)...)
	cut := len(frame(a)) + 4 + 300 // A, B's prefix and part of B: all in the read buffer
	if _, err := raw.Write(wire[:cut]); err != nil {
		t.Fatal(err)
	}
	gotA := recvWant(t, c, a)
	next := make(chan []byte)
	go func() {
		m, err := c.Recv() // blocks for the rest of B
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		next <- m
	}()
	for i := range gotA[:cap(gotA)] {
		gotA[:cap(gotA)][i] = 0xEE
	}
	bufpool.Put(gotA)
	again := bufpool.Get(len(a)) // very likely the same buffer
	copy(again, bytes.Repeat([]byte{0x11}, len(a)))
	if _, err := raw.Write(wire[cut:]); err != nil {
		t.Fatal(err)
	}
	if gotB := <-next; !bytes.Equal(gotB, b) {
		t.Fatal("the next frame was damaged by reuse of the previous one")
	}
	bufpool.Put(again)
}
