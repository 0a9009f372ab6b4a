package sunrpc

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tcpnet"
	"repro/internal/vclock"
)

// procHold is a test procedure that yields its worker slot until the test
// lets it go.
const procHold = 60

// workerGoroutines counts the goroutines running a real-clock worker of any
// server in this process.
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

// tcpServer serves testDispatch, plus procHold, which runs hold yielded, on
// loopback TCP under the real clock, and dials n clients to it.
func tcpServer(t *testing.T, cfg SchedConfig, hold func(), n int) (*Server, []*Client) {
	t.Helper()
	clk := vclock.NewReal()
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
	var tn tcpnet.Net
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	clis := make([]*Client, n)
	for i := range clis {
		conn, err := tn.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clis[i] = NewClient(clk, conn, NoneCred())
	}
	return srv, clis
}

// TestServerWorkersAreReused pins the real clock's worker pool: a call is
// handed to a parked worker whenever there is one, so a server starts no more
// workers than the calls it has had in hand at once, however many it serves;
// a handler that yields keeps its goroutine while its slot serves another
// call; and Close leaves no worker behind. A call is in hand from its
// dispatch until its worker parks again, just after the reply is sent, so
// the next call on a connection can arrive while the worker that answered the
// last one is still on its way back: on a loaded host a client's concurrency
// c meets a few more than c calls in hand, never one worker a call.
func TestServerWorkersAreReused(t *testing.T) {
	const sequential, perCaller, callers = 2000, 250, 8
	for _, tc := range []struct {
		name string
		cfg  SchedConfig
	}{
		{"unscheduled", SchedConfig{}},
		{"Workers=2", SchedConfig{Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, clis := tcpServer(t, tc.cfg, nil, callers)
			args := echoArgs("reuse")
			for i := 0; i < sequential; i++ {
				if _, err := clis[0].Call(testProg, testVers, procEcho, args); err != nil {
					t.Fatalf("sequential call %d: %v", i, err)
				}
			}
			checkStarted(t, srv, sequential, 8)

			var wg sync.WaitGroup
			for _, cli := range clis {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perCaller; i++ {
						if _, err := cli.Call(testProg, testVers, procEcho, args); err != nil {
							t.Errorf("concurrent call: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			checkStarted(t, srv, sequential+callers*perCaller, 4*callers)

			for _, cli := range clis {
				cli.Close()
			}
			srv.Close()
			waitNoWorkers(t)
		})
	}

	t.Run("Yield", func(t *testing.T) {
		yielded, hold := make(chan struct{}), make(chan struct{})
		srv, clis := tcpServer(t, SchedConfig{Workers: 1}, func() {
			close(yielded)
			<-hold
		}, 2)
		held := make(chan error, 1)
		go func() {
			_, err := clis[0].Call(testProg, testVers, procHold, nil)
			held <- err
		}()
		// The held call took the only slot and gave it up: the echo runs in
		// it, on a worker of its own, while the held call's worker waits.
		<-yielded
		if _, err := clis[1].CallTimeout(testProg, testVers, procEcho, echoArgs("queued"), 5*time.Second); err != nil {
			t.Fatalf("call queued behind a yielded handler: %v", err)
		}
		select {
		case err := <-held:
			t.Fatalf("held call returned before it was let go: %v", err)
		default:
		}
		close(hold)
		if err := <-held; err != nil {
			t.Fatalf("held call: %v", err)
		}
		if n, _ := srv.started(); n != 2 {
			t.Errorf("started %d workers, want 2: the yielder keeps its own", n)
		}
		if _, peak := srv.Inflight(); peak != 1 {
			t.Errorf("inflight peak %d with one slot", peak)
		}
		for _, cli := range clis {
			cli.Close()
		}
		srv.Close()
		waitNoWorkers(t)
	})
}

// waitNoWorkers fails the test unless every worker has ended within 3 s.
func waitNoWorkers(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for workerGoroutines() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := workerGoroutines(); n > 0 {
		t.Errorf("%d workers outlive Close", n)
	}
}
