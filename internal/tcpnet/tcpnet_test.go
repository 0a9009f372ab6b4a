package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"

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

// TestConcurrentSendersDoNotInterleave: eight goroutines send frames of
// assorted sizes, some far larger than a socket buffer so that a writev comes
// back short; every frame arrives whole, its prefix with its own payload.
func TestConcurrentSendersDoNotInterleave(t *testing.T) {
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	const senders, each = 8, 40
	sizes := []int{0, 1, 90, 4096, 33000, 1 << 20}
	go func() {
		c, err := n.Dial(l.Addr())
		if err != nil {
			return
		}
		defer c.Close()
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					// Byte 0 names the sender, the rest is its constant fill.
					msg := bytes.Repeat([]byte{byte(s + 1)}, sizes[(s+i)%len(sizes)])
					if c.Send(msg) != nil {
						return
					}
				}
			}(s)
		}
		wg.Wait()
	}()
	c, err := l.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer c.Close()
	total := make(map[int]int)
	for i := 0; i < senders*each; i++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		ok := false
		for _, sz := range sizes {
			ok = ok || sz == len(m)
		}
		if !ok {
			t.Fatalf("frame %d has a length nobody sent: %d", i, len(m))
		}
		if len(m) > 0 && !bytes.Equal(m, bytes.Repeat(m[:1], len(m))) {
			t.Fatalf("frame %d mixes two senders' bytes", i)
		}
		total[len(m)]++
		bufpool.Put(m)
	}
	for _, sz := range sizes {
		// Each size is sent senders*each/len(sizes) times, give or take the
		// remainder of the division.
		if got, want := total[sz], senders*each/len(sizes); got < want-senders || got > want+senders {
			t.Errorf("%d frames of %d bytes, want about %d", got, sz, want)
		}
	}
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
