package secure

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// pipePair builds a connected plain conn pair over simnet and wraps it.
func pipePair(t *testing.T, key [32]byte) (clk *vclock.Clock, client, server transport.Conn, cleanup func()) {
	t.Helper()
	clk = vclock.NewVirtual()
	n := simnet.New(clk, simnet.Params{RTT: time.Millisecond})
	done := make(chan struct{})
	clk.Go("setup", func() {
		defer close(done)
		l, err := n.Host("s").Listen(":1")
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		accepted := vclock.NewMailbox[transport.Conn](clk)
		clk.GoDaemon("accept", func() {
			c, err := l.Accept()
			if err == nil {
				accepted.Put(c)
			}
		})
		raw, err := n.Host("c").Dial("s:1")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		rawSrv, _ := accepted.Get()
		if client, err = Client(raw, key); err != nil {
			t.Errorf("client wrap: %v", err)
		}
		if server, err = Server(rawSrv, key); err != nil {
			t.Errorf("server wrap: %v", err)
		}
	})
	<-done
	if client == nil || server == nil {
		t.Fatal("setup failed")
	}
	return clk, client, server, func() { clk.Stop() }
}

func TestSealedRoundTrip(t *testing.T) {
	key := KeyFromSession("sess-1")
	clk, client, server, cleanup := pipePair(t, key)
	defer cleanup()

	result := make(chan error, 2)
	clk.Go("server", func() {
		msg, err := server.Recv()
		if err != nil {
			result <- err
			return
		}
		if string(msg) != "confidential" {
			t.Errorf("server got %q", msg)
		}
		result <- server.Send(append(msg, '!'))
	})
	clk.Go("client", func() {
		if err := client.Send([]byte("confidential")); err != nil {
			result <- err
			return
		}
		reply, err := client.Recv()
		if err == nil && string(reply) != "confidential!" {
			err = transport.ErrClosed
		}
		result <- err
	})
	for i := 0; i < 2; i++ {
		if err := <-result; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWrongKeyFailsAuthentication(t *testing.T) {
	// A receiver keyed with session B must reject session A's frames.
	keyA := KeyFromSession("sess-A")
	keyB := KeyFromSession("sess-B")
	wire := &queueConn{}
	snd, _ := Client(wire, keyA)
	rcv, _ := Server(wire, keyB)
	snd.Send([]byte("secret"))
	if _, err := rcv.Recv(); err == nil {
		t.Fatal("mismatched keys authenticated")
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	key := KeyFromSession("s")
	// Use an in-memory capture conn to inspect the wire bytes.
	cap := &captureConn{}
	c, err := Client(cap, key)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("top-secret "), 10)
	if err := c.Send(payload); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(cap.sent, []byte("top-secret")) {
		t.Fatal("plaintext visible on the wire")
	}
	if len(cap.sent) <= len(payload) {
		t.Fatal("no authentication tag appended")
	}
}

func TestReplayRejected(t *testing.T) {
	key := KeyFromSession("s")
	capC := &captureConn{}
	c, _ := Client(capC, key)
	c.Send([]byte("frame-0"))
	frame0 := append([]byte(nil), capC.sent...)

	// Server that receives frame0 twice: the second must fail (nonce
	// counter advanced).
	replay := &replayConn{frames: [][]byte{frame0, frame0}}
	s, _ := Server(replay, key)
	if _, err := s.Recv(); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if _, err := s.Recv(); err == nil {
		t.Fatal("replayed frame accepted")
	}
}

func TestKeyDerivationDeterministicAndDistinct(t *testing.T) {
	if KeyFromSession("a") != KeyFromSession("a") {
		t.Fatal("derivation not deterministic")
	}
	if KeyFromSession("a") == KeyFromSession("b") {
		t.Fatal("distinct sessions share a key")
	}
}

func TestPropertySealOpenRoundTrip(t *testing.T) {
	key := KeyFromSession("prop")
	f := func(msgs [][]byte) bool {
		wire := &queueConn{}
		snd, _ := Client(wire, key)
		rcv, _ := Server(wire, key)
		for _, m := range msgs {
			if err := snd.Send(m); err != nil {
				return false
			}
			got, err := rcv.Recv()
			if err != nil || !bytes.Equal(got, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- test doubles -----------------------------------------------------------

type captureConn struct{ sent []byte }

func (c *captureConn) Send(m []byte) error   { c.sent = append([]byte(nil), m...); return nil }
func (c *captureConn) Recv() ([]byte, error) { return nil, transport.ErrClosed }
func (c *captureConn) Close() error          { return nil }
func (c *captureConn) LocalAddr() string     { return "cap" }
func (c *captureConn) RemoteAddr() string    { return "cap" }

type replayConn struct{ frames [][]byte }

func (c *replayConn) Send(m []byte) error { return nil }
func (c *replayConn) Recv() ([]byte, error) {
	if len(c.frames) == 0 {
		return nil, transport.ErrClosed
	}
	f := c.frames[0]
	c.frames = c.frames[1:]
	return f, nil
}
func (c *replayConn) Close() error       { return nil }
func (c *replayConn) LocalAddr() string  { return "replay" }
func (c *replayConn) RemoteAddr() string { return "replay" }

// queueConn loops sends back as receives (one direction).
type queueConn struct{ q [][]byte }

func (c *queueConn) Send(m []byte) error { c.q = append(c.q, append([]byte(nil), m...)); return nil }
func (c *queueConn) Recv() ([]byte, error) {
	if len(c.q) == 0 {
		return nil, transport.ErrClosed
	}
	m := c.q[0]
	c.q = c.q[1:]
	return m, nil
}
func (c *queueConn) Close() error       { return nil }
func (c *queueConn) LocalAddr() string  { return "q" }
func (c *queueConn) RemoteAddr() string { return "q" }

// chanConn is an in-order message pipe for tests that need real goroutines
// rather than clock actors.
type chanConn struct{ out, in chan []byte }

func (c chanConn) Send(msg []byte) error { c.out <- append([]byte(nil), msg...); return nil }
func (c chanConn) Recv() ([]byte, error) { return <-c.in, nil }
func (chanConn) Close() error            { return nil }
func (chanConn) LocalAddr() string       { return "a" }
func (chanConn) RemoteAddr() string      { return "b" }

// TestConcurrentSendsAuthenticate is the transport.Conn contract an RPC
// server's pipelined replies rely on: Sends from several goroutines at once
// all open at the peer. A nonce taken outside the step that puts the frame on
// the wire reorders them, and the peer rejects the stream (run with -race).
func TestConcurrentSendsAuthenticate(t *testing.T) {
	const senders, each = 8, 200
	key := KeyFromSession("pipelined")
	wire := make(chan []byte, senders*each)
	client, err := Client(chanConn{out: wire}, key)
	if err != nil {
		t.Fatal(err)
	}
	server, err := Server(chanConn{in: wire}, key)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := client.Send([]byte("reply")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < senders*each; i++ {
		if msg, err := server.Recv(); err != nil || string(msg) != "reply" {
			t.Fatalf("frame %d: %q, %v", i, msg, err)
		}
	}
}
