package sunrpc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// procHold is a test procedure that yields its worker slot until the test
// lets it go.
const procHold = 60

// workerGoroutines counts the goroutines running a worker of any server in
// this process.
func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sunrpc.(*workerPool).work") {
			n++
		}
	}
	return n
}

// started reports how many workers the server has ever started, and the most
// calls it has had in hand at once.
func (s *Server) started() (started, peak int) {
	s.workers.mu.Lock()
	defer s.workers.mu.Unlock()
	return s.workers.started, s.workers.peak
}

// checkStarted fails the test if the server has started more workers than it
// has had calls in hand at once, or more than max.
func checkStarted(t *testing.T, srv *Server, calls, max int) {
	t.Helper()
	started, peak := srv.started()
	if started > peak {
		t.Errorf("%d workers started for at most %d calls in hand", started, peak)
	}
	if started < 1 || started > max {
		t.Errorf("%d calls started %d workers, want 1 to %d", calls, started, max)
	}
}

// workerServer serves testDispatch, plus procHold, which runs hold yielded,
// and dials n clients to it: over a simulated 10ms-RTT link when sim is set
// (clk is virtual), else over loopback TCP (clk is real).
func workerServer(t *testing.T, clk *vclock.Clock, sim bool, cfg SchedConfig, hold func(), n int) (*Server, []*Client) {
	t.Helper()
	srv := NewServer(clk)
	echo := testDispatch(clk)
	srv.Register(testProg, testVers, func(call *Call) AcceptStat {
		if call.Proc == procHold {
			call.Yield(hold)
			return Success
		}
		return echo(call)
	})
	srv.SetSched(cfg)
	var listen func(string) (transport.Listener, error)
	var dial func(i int, addr string) (transport.Conn, error)
	if sim {
		net := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
		listen = net.Host("server").Listen
		dial = func(i int, addr string) (transport.Conn, error) {
			return net.Host(fmt.Sprintf("c%d", i)).Dial(addr)
		}
	} else {
		var tn tcpnet.Net
		listen = func(string) (transport.Listener, error) { return tn.Listen("127.0.0.1:0") }
		dial = func(_ int, addr string) (transport.Conn, error) { return tn.Dial(addr) }
	}
	clis := make([]*Client, n)
	inClock(t, clk, sim, func() {
		l, err := listen(":111")
		if err != nil {
			t.Error(err)
			return
		}
		srv.Serve(l)
		for i := range clis {
			conn, err := dial(i, l.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			clis[i] = NewClient(clk, conn, NoneCred())
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return srv, clis
}

// inClock runs fn as an actor of clk and waits for it when sim is set (clk
// is virtual); else it just calls fn.
func inClock(t *testing.T, clk *vclock.Clock, sim bool, fn func()) {
	t.Helper()
	if sim {
		inSim(t, clk, fn)
		return
	}
	fn()
}

// TestServerWorkersAreReused pins the worker pool, over loopback TCP under the
// real clock and over a simulated link under the virtual one: a call is
// handed to a parked worker whenever there is one, so a server starts no more
// workers than the calls it has had in hand at once, however many it serves;
// a handler that yields keeps its worker while its slot serves another call;
// and Close leaves no worker parked or running. A call is in hand from its
// dispatch until its worker parks again, just after the reply is sent, so
// over TCP the next call on a connection can arrive while the worker that
// answered the last one is still on its way back: on a loaded host a
// client's concurrency c meets a few more than c calls in hand, never one
// worker a call. The virtual clock runs one actor at a time, so there a
// worker has always parked again before the next call arrives.
func TestServerWorkersAreReused(t *testing.T) {
	const sequential, perCaller, callers = 2000, 250, 8
	for _, clock := range []struct {
		prefix           string
		sim              bool
		new              func() *vclock.Clock
		seqMax, parallel int // most workers the sequential, concurrent calls may start
	}{
		{"", false, vclock.NewReal, 8, 4 * callers},
		{"simnet/", true, vclock.NewVirtual, 1, callers},
	} {
		for _, tc := range []struct {
			name string
			cfg  SchedConfig
		}{
			{"unscheduled", SchedConfig{}},
			{"Workers=2", SchedConfig{Workers: 2}},
		} {
			t.Run(clock.prefix+tc.name, func(t *testing.T) {
				clk := clock.new()
				defer clk.Stop()
				srv, clis := workerServer(t, clk, clock.sim, tc.cfg, nil, callers)
				args := echoArgs("reuse")
				inClock(t, clk, clock.sim, func() {
					for i := 0; i < sequential; i++ {
						if _, err := clis[0].Call(testProg, testVers, procEcho, args); err != nil {
							t.Errorf("sequential call %d: %v", i, err)
							return
						}
					}
				})
				checkStarted(t, srv, sequential, clock.seqMax)

				inClock(t, clk, clock.sim, func() {
					g := clk.NewGroup()
					for _, cli := range clis {
						g.Go("caller", func() {
							for i := 0; i < perCaller; i++ {
								if _, err := cli.Call(testProg, testVers, procEcho, args); err != nil {
									t.Errorf("concurrent call: %v", err)
									return
								}
							}
						})
					}
					g.Wait()
				})
				checkStarted(t, srv, sequential+callers*perCaller, clock.parallel)
				closeAll(t, clk, clock.sim, srv, clis)
			})
		}

		t.Run(clock.prefix+"Yield", func(t *testing.T) {
			clk := clock.new()
			defer clk.Stop()
			yielded, release := clk.NewWaiter(), clk.NewWaiter()
			srv, clis := workerServer(t, clk, clock.sim, SchedConfig{Workers: 1}, func() {
				yielded.Wake()
				clk.Wait(release)
			}, 2)
			inClock(t, clk, clock.sim, func() {
				held := vclock.NewMailbox[error](clk)
				clk.Go("held", func() {
					_, err := clis[0].Call(testProg, testVers, procHold, nil)
					held.Put(err)
				})
				// The held call took the only slot and gave it up: the echo
				// runs in it, on a worker of its own, while the held call's
				// worker waits.
				clk.Wait(yielded)
				if _, err := clis[1].CallTimeout(testProg, testVers, procEcho, echoArgs("queued"), 5*time.Second); err != nil {
					t.Errorf("call queued behind a yielded handler: %v", err)
				}
				if held.Len() > 0 {
					t.Error("held call returned before it was let go")
				}
				release.Wake()
				if err, _ := held.Get(); err != nil {
					t.Errorf("held call: %v", err)
				}
			})
			if n, _ := srv.started(); n != 2 {
				t.Errorf("started %d workers, want 2: the yielder keeps its own", n)
			}
			if _, peak := srv.Inflight(); peak != 1 {
				t.Errorf("inflight peak %d with one slot", peak)
			}
			closeAll(t, clk, clock.sim, srv, clis)
		})
	}
}

// closeAll closes the clients and the server, and fails the test unless no
// worker is left parked and every worker has ended within 3 s.
func closeAll(t *testing.T, clk *vclock.Clock, sim bool, srv *Server, clis []*Client) {
	t.Helper()
	inClock(t, clk, sim, func() {
		for _, cli := range clis {
			cli.Close()
		}
		srv.Close()
	})
	srv.workers.mu.Lock()
	parked := len(srv.workers.parked)
	srv.workers.mu.Unlock()
	if parked > 0 {
		t.Errorf("%d workers parked after Close", parked)
	}
	deadline := time.Now().Add(3 * time.Second)
	for workerGoroutines() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := workerGoroutines(); n > 0 {
		t.Errorf("%d workers outlive Close", n)
	}
}
