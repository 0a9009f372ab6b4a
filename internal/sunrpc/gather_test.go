package sunrpc

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// mibTail returns a pooled 1 MiB tail whose every byte depends on its index,
// and the head that makes it procEcho's opaque argument.
func mibTail() (head, tail []byte) {
	tail = bufpool.Get(1 << 20)
	for i := range tail {
		tail[i] = byte(i*7 + i>>10)
	}
	e := xdr.NewEncoder()
	e.Uint32(uint32(len(tail)))
	return e.Bytes(), tail
}

// TestGatheredCallUnderLoss sends a call whose 1 MiB of arguments is a tail
// over links that lose a reply, duplicate the request, or take seconds to
// carry it. Every transmission is the same bytes, head and tail; the handler
// runs once, the duplicate-request cache answering the copies; and the
// retransmission timeout is stretched by the whole frame, tail included, so a
// slow link sends it once. Under -race the tail is given back to the pool —
// and poisoned — as soon as the call returns, so a send after that would not
// be byte-identical.
func TestGatheredCallUnderLoss(t *testing.T) {
	for _, tc := range []struct {
		name        string
		inject      func(*faultyConn)
		wantRetrans int64
		wantReplays int64 // DRC hits + DRC busy drops at the server
	}{
		{"drop-reply", func(f *faultyConn) { f.dropRecvs = 1 }, 1, 1},
		{"duplicate-request", func(f *faultyConn) { f.dupSends = 1 }, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk, o, cli, fc, execs, cleanup := replaySim(t)
			defer cleanup()
			inSim(t, clk, func() {
				tc.inject(fc)
				head, tail := mibTail()
				want := append([]byte(nil), tail...)
				reply, err := cli.CallParts(0, testProg, testVers, procEcho, head, tail, 5*time.Second)
				bufpool.Put(tail)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if b, err := reply.Body.Opaque(0); err != nil || !bytes.Equal(b, want) {
					t.Errorf("echo of %d bytes (%v), want the %d sent", len(b), err, len(want))
				}
				clk.Sleep(time.Second) // let stragglers drain
				if *execs != 1 {
					t.Errorf("handler executed %d times, want once", *execs)
				}
				fc.mu.Lock()
				sent := fc.sent
				fc.mu.Unlock()
				if len(sent) != 2 {
					t.Errorf("%d transmissions, want the call and its copy", len(sent))
					return
				}
				if !bytes.Equal(sent[0], sent[1]) || !bytes.HasSuffix(sent[0], want) {
					t.Error("the copies on the wire differ from each other or from the tail")
				}
				if got := counterSum(o, "gvfs_rpc_retransmits_total"); got != tc.wantRetrans {
					t.Errorf("retransmits = %d, want %d", got, tc.wantRetrans)
				}
				if got := counterSum(o, "gvfs_rpc_drc_hits_total") + counterSum(o, "gvfs_rpc_drc_busy_total"); got != tc.wantReplays {
					t.Errorf("DRC replayed or absorbed %d, want %d", got, tc.wantReplays)
				}
			})
		})
	}
	t.Run("slow-link-stretch-counts-tail", func(t *testing.T) {
		// 1 MiB each way at 4 Mbit/s is 4.2 s of transfer; 5 µs a byte of the
		// whole request covers it, 5 µs a byte of the head alone does not.
		clk := vclock.NewVirtual()
		n := simnet.New(clk, simnet.Params{RTT: 40 * time.Millisecond, Bandwidth: 4_000_000 / 8})
		srv := NewServer(clk)
		srv.Register(testProg, testVers, testDispatch(clk))
		inSim(t, clk, func() {
			l, _ := n.Host("server").Listen(":111")
			srv.Serve(l)
			conn, _ := n.Host("client").Dial("server:111")
			cli := NewClient(clk, &faultyConn{Conn: conn}, NoneCred())
			cli.SetRetransmit(RetransmitPolicy{Initial: 100 * time.Millisecond, PerByte: 5 * time.Microsecond})
			head, tail := mibTail()
			_, err := cli.CallParts(0, testProg, testVers, procEcho, head, tail, 30*time.Second)
			bufpool.Put(tail)
			if err != nil {
				t.Errorf("call: %v", err)
			}
			if sent := n.LinkStats("client", "server").Messages; sent != 1 {
				t.Errorf("client sent %d copies, want 1: the timeout must cover the tail's transfer", sent)
			}
			cli.Close()
			srv.Close()
		})
		clk.Stop()
	})
}

// TestJoinedCallAllocatesNoPayload: over a connection that does not gather,
// a call with a 1 MiB tail costs the one join into a pooled buffer that
// building the message in one piece would — and no allocation of the
// payload's size, at either end.
func TestJoinedCallAllocatesNoPayload(t *testing.T) {
	_, cli := pipePairOver(t, func(c transport.Conn) transport.Conn { return joinedConn{c} })
	head, tail := mibTail()
	defer bufpool.Put(tail)
	call := func() {
		rep, err := cli.CallParts(0, testProg, testVers, pipeWrite, head, tail, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := rep.Body.Uint32(); err != nil || n != 1<<20 {
			t.Fatalf("the server saw %d bytes (%v), want 1 MiB", n, err)
		}
		rep.Release()
	}
	for i := 0; i < 5; i++ {
		call() // fill the pools
	}
	// The least of five windows of a hundred calls: a garbage collection
	// empties the pools, and a goroutine that wakes on another processor
	// misses a buffer the first one holds, so a window may pay for the odd
	// refill. One allocation of the payload's size per call shows in all.
	const windows, calls = 5, 100
	least := ^uint64(0)
	for w := 0; w < windows; w++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.ReadMemStats(&m1)
		least = min(least, (m1.TotalAlloc-m0.TotalAlloc)/calls)
	}
	t.Logf("%d bytes allocated per 1 MiB call", least)
	// sync.Pool drops entries at random under the race detector.
	if least >= 64<<10 && !bufpool.RaceBuild {
		t.Errorf("a call with a 1 MiB tail allocates %d bytes, want under 64 KiB", least)
	}
}

func benchWrite(b *testing.B, wrap func(transport.Conn) transport.Conn) {
	_, cli := pipePairOver(b, wrap)
	head, tail := mibTail()
	defer bufpool.Put(tail)
	b.SetBytes(int64(len(tail)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := cli.CallParts(0, testProg, testVers, pipeWrite, head, tail, 0)
		if err != nil {
			b.Fatal(err)
		}
		rep.Release()
	}
}

// BenchmarkWrite1M is a call whose 1 MiB of arguments is its tail, through
// client, pipe and server with the duplicate-request cache on: "gathered" over
// a pipe that copies the parts straight into the receiver's frame (tcpnet's
// writev), "joined" over one that takes the message in one piece and so is
// handed the pooled join (simnet, secure, every wrapper). Neither allocates a
// buffer of the payload's size.
func BenchmarkWrite1M(b *testing.B) {
	b.Run("gathered", func(b *testing.B) { benchWrite(b, nil) })
	b.Run("joined", func(b *testing.B) {
		benchWrite(b, func(c transport.Conn) transport.Conn { return joinedConn{c} })
	})
}
