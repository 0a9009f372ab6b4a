package sunrpc

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// TestDRCReplayUnaffectedByEncoderReuse pins the pooled-reply aliasing
// contract: the duplicate-request cache must store a COPY of the reply
// bytes, because the encoder that produced them is recycled and reused for
// later replies on the same connection. Client A's reply is dropped; while
// A waits to retransmit, client B hammers the server with different-sized
// echoes, forcing the pooled encoder through many reuse cycles. The replay
// A eventually receives must still carry A's payload. Before the server
// copied into the DRC, this returned B's bytes (or garbage) to A.
func TestDRCReplayUnaffectedByEncoderReuse(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	n := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	srv := NewServer(clk)
	defer srv.Close()
	srv.Register(testProg, testVers, func(call *Call) AcceptStat {
		if call.Proc != procEcho {
			return ProcUnavail
		}
		b, err := call.Args.Opaque(0)
		if err != nil {
			return GarbageArgs
		}
		call.Reply.Opaque(b)
		return Success
	})

	var cliA, cliB *Client
	var fc *faultyConn
	setup := make(chan struct{})
	clk.Go("setup", func() {
		defer close(setup)
		l, err := n.Host("server").Listen(":111")
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		srv.Serve(l)
		connA, err := n.Host("a").Dial("server:111")
		if err != nil {
			t.Errorf("dial a: %v", err)
			return
		}
		fc = &faultyConn{Conn: connA}
		cliA = NewClient(clk, fc, NoneCred())
		cliA.SetRetransmit(RetransmitPolicy{Initial: 50 * time.Millisecond, Max: 400 * time.Millisecond})
		connB, err := n.Host("b").Dial("server:111")
		if err != nil {
			t.Errorf("dial b: %v", err)
			return
		}
		cliB = NewClient(clk, connB, NoneCred())
	})
	<-setup
	if cliA == nil || cliB == nil {
		t.Fatal("setup failed")
	}
	defer cliA.Close()
	defer cliB.Close()

	payloadA := []byte(strings.Repeat("A", 300))
	var wg sync.WaitGroup
	wg.Add(2)
	clk.Go("spam-b", func() {
		defer wg.Done()
		// Different sizes walk the encoder through growth and truncation so
		// a stored alias of A's reply would be visibly clobbered.
		for i := 0; i < 20; i++ {
			args := xdr.NewEncoder()
			args.Opaque(bytes.Repeat([]byte{0xBB}, 50+i*40))
			if _, err := cliB.Call(testProg, testVers, procEcho, args.Bytes()); err != nil {
				t.Errorf("spam call %d: %v", i, err)
				return
			}
		}
	})
	clk.Go("call-a", func() {
		defer wg.Done()
		fc.mu.Lock()
		fc.dropRecvs = 1 // lose A's first reply; the retransmit replays from the DRC
		fc.mu.Unlock()
		reply, err := cliA.CallTimeout(testProg, testVers, procEcho,
			func() []byte { e := xdr.NewEncoder(); e.Opaque(payloadA); return e.Bytes() }(), 2*time.Second)
		if err != nil {
			t.Errorf("call a: %v", err)
			return
		}
		got, err := reply.Opaque(0)
		if err != nil || !bytes.Equal(got, payloadA) {
			t.Errorf("replayed reply corrupted: err=%v len=%d (want %d bytes of 'A')", err, len(got), len(payloadA))
		}
	})
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simulation hung")
	}
}
