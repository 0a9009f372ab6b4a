package sunrpc

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

const (
	testProg = 400100
	testVers = 1

	procEcho   = 1
	procAdd    = 2
	procSlow   = 3
	procWhoAmI = 4
)

func testDispatch(clk *vclock.Clock) DispatchFunc {
	return func(call *Call) AcceptStat {
		switch call.Proc {
		case procEcho:
			b, err := call.Args.Opaque(0)
			if err != nil {
				return GarbageArgs
			}
			call.Reply.Opaque(b)
			return Success
		case procAdd:
			a, err1 := call.Args.Uint32()
			b, err2 := call.Args.Uint32()
			if err1 != nil || err2 != nil {
				return GarbageArgs
			}
			call.Reply.Uint32(a + b)
			return Success
		case procSlow:
			clk.Sleep(time.Second)
			call.Reply.Uint32(1)
			return Success
		case procWhoAmI:
			call.Reply.Uint32(call.Cred.Flavor)
			call.Reply.Opaque(call.Cred.Body)
			return Success
		default:
			return ProcUnavail
		}
	}
}

// simPair builds a server and connected client over a 10ms-RTT simulated
// link, returning them plus the clock.
func simPair(t *testing.T) (*vclock.Clock, *Server, *Client, func()) {
	t.Helper()
	clk := vclock.NewVirtual()
	n := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	srv := NewServer(clk)
	srv.Register(testProg, testVers, testDispatch(clk))

	var cli *Client
	setup := make(chan struct{})
	clk.Go("setup", func() {
		defer close(setup)
		l, err := n.Host("server").Listen(":111")
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		srv.Serve(l)
		conn, err := n.Host("client").Dial("server:111")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		cli = NewClient(clk, conn, NoneCred())
	})
	<-setup
	if cli == nil {
		t.Fatal("setup failed")
	}
	return clk, srv, cli, func() {
		cli.Close()
		srv.Close()
		clk.Stop()
	}
}

// inSim runs fn as a sim actor and waits for completion.
func inSim(t *testing.T, clk *vclock.Clock, fn func()) {
	t.Helper()
	done := make(chan struct{})
	clk.Go("test", func() {
		defer close(done)
		fn()
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simulation hung")
	}
}

func TestCallRoundTripAndLatency(t *testing.T) {
	clk, _, cli, cleanup := simPair(t)
	defer cleanup()
	inSim(t, clk, func() {
		args := xdr.NewEncoder()
		args.Opaque([]byte("ping"))
		start := clk.Now()
		reply, err := cli.Call(testProg, testVers, procEcho, args.Bytes())
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		if got := clk.Now() - start; got != 10*time.Millisecond {
			t.Errorf("call latency %v, want one 10ms RTT", got)
		}
		b, err := reply.Opaque(0)
		if err != nil || string(b) != "ping" {
			t.Errorf("echo = %q, %v", b, err)
		}
	})
}

func TestConcurrentCallsShareConnection(t *testing.T) {
	clk, _, cli, cleanup := simPair(t)
	defer cleanup()
	inSim(t, clk, func() {
		results := vclock.NewMailbox[uint32](clk)
		for i := uint32(0); i < 8; i++ {
			i := i
			clk.Go("caller", func() {
				args := xdr.NewEncoder()
				args.Uint32(i)
				args.Uint32(100)
				reply, err := cli.Call(testProg, testVers, procAdd, args.Bytes())
				if err != nil {
					t.Errorf("call %d: %v", i, err)
					results.Put(0)
					return
				}
				v, _ := reply.Uint32()
				results.Put(v)
			})
		}
		sum := uint32(0)
		for i := 0; i < 8; i++ {
			v, _ := results.Get()
			sum += v
		}
		// 8 calls of i+100 for i=0..7: 800 + 28.
		if sum != 828 {
			t.Errorf("sum = %d, want 828", sum)
		}
	})
}

func TestSlowHandlerDoesNotBlockOthers(t *testing.T) {
	clk, _, cli, cleanup := simPair(t)
	defer cleanup()
	inSim(t, clk, func() {
		done := vclock.NewMailbox[time.Duration](clk)
		clk.Go("slow", func() {
			cli.Call(testProg, testVers, procSlow, nil)
			done.Put(clk.Now())
		})
		clk.Go("fast", func() {
			clk.Sleep(time.Millisecond) // let the slow call go first
			args := xdr.NewEncoder()
			args.Uint32(1)
			args.Uint32(2)
			cli.Call(testProg, testVers, procAdd, args.Bytes())
			done.Put(clk.Now())
		})
		first, _ := done.Get()
		second, _ := done.Get()
		if first >= second {
			t.Errorf("fast call finished at %v, after slow call at %v", first, second)
		}
		if second < time.Second {
			t.Errorf("slow call finished at %v, want >= 1s", second)
		}
	})
}

func TestProgAndProcErrors(t *testing.T) {
	clk, _, cli, cleanup := simPair(t)
	defer cleanup()
	inSim(t, clk, func() {
		var rpcErr *Error
		_, err := cli.Call(999999, 1, 1, nil)
		if !errors.As(err, &rpcErr) || rpcErr.Stat != ProgUnavail {
			t.Errorf("unknown prog err = %v, want PROG_UNAVAIL", err)
		}
		_, err = cli.Call(testProg, 42, 1, nil)
		if !errors.As(err, &rpcErr) || rpcErr.Stat != ProgMismatch {
			t.Errorf("bad vers err = %v, want PROG_MISMATCH", err)
		}
		_, err = cli.Call(testProg, testVers, 99, nil)
		if !errors.As(err, &rpcErr) || rpcErr.Stat != ProcUnavail {
			t.Errorf("bad proc err = %v, want PROC_UNAVAIL", err)
		}
		_, err = cli.Call(testProg, testVers, procAdd, nil)
		if !errors.As(err, &rpcErr) || rpcErr.Stat != GarbageArgs {
			t.Errorf("bad args err = %v, want GARBAGE_ARGS", err)
		}
	})
}

func TestCredentialPassedThrough(t *testing.T) {
	clk, _, cli, cleanup := simPair(t)
	defer cleanup()
	inSim(t, clk, func() {
		cli.SetCred(SysCred("hostA", 1001, 100))
		reply, err := cli.Call(testProg, testVers, procWhoAmI, nil)
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		flavor, _ := reply.Uint32()
		if flavor != AuthSys {
			t.Errorf("flavor = %d, want AUTH_SYS", flavor)
		}
		body, _ := reply.Opaque(0)
		d := xdr.NewDecoder(body)
		d.Uint32() // stamp
		machine, _ := d.String(0)
		uid, _ := d.Uint32()
		if machine != "hostA" || uid != 1001 {
			t.Errorf("cred = machine %q uid %d", machine, uid)
		}
	})
}

func TestCallTimeoutOnPartition(t *testing.T) {
	clk := vclock.NewVirtual()
	n := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	srv := NewServer(clk)
	srv.Register(testProg, testVers, testDispatch(clk))
	inSim(t, clk, func() {
		l, _ := n.Host("server").Listen(":111")
		srv.Serve(l)
		conn, _ := n.Host("client").Dial("server:111")
		cli := NewClient(clk, conn, NoneCred())
		n.Partition("client", "server")
		start := clk.Now()
		_, err := cli.CallTimeout(testProg, testVers, procEcho, nil, 100*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if got := clk.Now() - start; got != 100*time.Millisecond {
			t.Errorf("timed out after %v, want 100ms", got)
		}
		cli.Close()
		srv.Close()
	})
	clk.Stop()
}

func TestClosedConnectionFailsPendingCalls(t *testing.T) {
	clk, srv, cli, cleanup := simPair(t)
	defer cleanup()
	inSim(t, clk, func() {
		errs := vclock.NewMailbox[error](clk)
		clk.Go("caller", func() {
			_, err := cli.Call(testProg, testVers, procSlow, nil)
			errs.Put(err)
		})
		clk.Sleep(10 * time.Millisecond)
		srv.Close()
		err, _ := errs.Get()
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
		if _, err := cli.Call(testProg, testVers, procEcho, nil); !errors.Is(err, ErrClosed) {
			t.Errorf("call after close err = %v, want ErrClosed", err)
		}
	})
}

// TestCloseFailsPendingInXIDOrder: a client closed with calls pending fails
// them in XID order. The virtual clock runs woken actors in wake order, so
// waking them in map order would let a seeded run's schedule vary.
func TestCloseFailsPendingInXIDOrder(t *testing.T) {
	for round := 0; round < 4; round++ {
		clk, _, cli, cleanup := simPair(t)
		var order []uint32
		inSim(t, clk, func() {
			g := clk.NewGroup()
			for i := 0; i < 8; i++ {
				p := cli.StartParts(0, testProg, testVers, procSlow, nil, nil, 0)
				g.Go("caller", func() {
					if _, err := p.Wait(); !errors.Is(err, ErrClosed) {
						t.Errorf("pending call ended with %v, want ErrClosed", err)
					}
					order = append(order, p.xid)
				})
			}
			clk.Sleep(10 * time.Millisecond) // every caller is waiting
			cli.Close()
			g.Wait()
		})
		cleanup()
		if len(order) != 8 || !slices.IsSorted(order) {
			t.Fatalf("round %d: pending calls completed in XID order %v, want 8 ascending", round, order)
		}
	}
}

func TestCountsTrackCalls(t *testing.T) {
	clk, srv, cli, cleanup := simPair(t)
	defer cleanup()
	inSim(t, clk, func() {
		for i := 0; i < 3; i++ {
			args := xdr.NewEncoder()
			args.Opaque(nil)
			cli.Call(testProg, testVers, procEcho, args.Bytes())
		}
		key := uint64(testProg)<<32 | uint64(procEcho)
		if got := cli.Counts()[key]; got != 3 {
			t.Errorf("client count = %d, want 3", got)
		}
		if got := srv.Counts()[key]; got != 3 {
			t.Errorf("server count = %d, want 3", got)
		}
	})
}

func TestOverRealTCP(t *testing.T) {
	clk := vclock.NewReal()
	srv := NewServer(clk)
	srv.Register(testProg, testVers, testDispatch(clk))
	var tn tcpnet.Net
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv.Serve(l)
	defer srv.Close()

	var conn transport.Conn
	conn, err = tn.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cli := NewClient(clk, conn, SysCred("realhost", 0, 0))
	defer cli.Close()

	args := xdr.NewEncoder()
	args.Uint32(20)
	args.Uint32(22)
	reply, err := cli.Call(testProg, testVers, procAdd, args.Bytes())
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if v, _ := reply.Uint32(); v != 42 {
		t.Fatalf("add = %d, want 42", v)
	}
}
