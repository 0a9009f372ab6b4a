package sunrpc

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// schedSim builds a scheduled server and n clients on separate hosts over a
// 10ms-RTT link, each client with observability and a fast deterministic
// retransmission policy (50ms initial) so shed requests are retried quickly.
func schedSim(t *testing.T, cfg SchedConfig, n int, dispatch DispatchFunc) (*vclock.Clock, *obs.Obs, *Server, []*Client, func()) {
	t.Helper()
	clk := vclock.NewVirtual()
	net := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	o := obs.New(clk.Now, 4096)
	srv := NewServer(clk)
	srv.SetObs(o.Node("server"), nil)
	srv.SetSched(cfg)
	srv.Register(testProg, testVers, dispatch)
	srv.SetReadOnly(testProg, testVers, procPeek)

	clis := make([]*Client, n)
	setup := make(chan struct{})
	clk.Go("setup", func() {
		defer close(setup)
		l, err := net.Host("server").Listen(":111")
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		srv.Serve(l)
		for i := range clis {
			conn, err := net.Host(fmt.Sprintf("c%d", i)).Dial("server:111")
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			cli := NewClient(clk, conn, NoneCred())
			cli.SetObs(o.Node(fmt.Sprintf("c%d", i)), nil)
			cli.SetRetransmit(RetransmitPolicy{Initial: 50 * time.Millisecond, Max: 400 * time.Millisecond})
			clis[i] = cli
		}
	})
	<-setup
	for _, c := range clis {
		if c == nil {
			t.Fatal("setup failed")
		}
	}
	return clk, o, srv, clis, func() {
		for _, c := range clis {
			c.Close()
		}
		srv.Close()
		clk.Stop()
	}
}

// countingDispatch counts executions per echo payload, optionally sleeping
// per call, so tests can assert both the exactly-once property and that the
// pool actually serializes work.
func countingDispatch(clk *vclock.Clock, delay time.Duration) (DispatchFunc, func() map[string]int) {
	var mu sync.Mutex
	execs := make(map[string]int)
	fn := func(call *Call) AcceptStat {
		if call.Proc != procEcho && call.Proc != procPeek {
			return ProcUnavail
		}
		b, err := call.Args.Opaque(0)
		if err != nil {
			return GarbageArgs
		}
		mu.Lock()
		execs[string(b)]++
		mu.Unlock()
		if delay > 0 {
			clk.Sleep(delay)
		}
		call.Reply.Opaque(b)
		return Success
	}
	snap := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int, len(execs))
		for k, v := range execs {
			out[k] = v
		}
		return out
	}
	return fn, snap
}

func echoArgs(payload string) []byte {
	e := xdr.NewEncoder()
	e.Opaque([]byte(payload))
	return e.Bytes()
}

// TestSchedInflightBound is the heart of the worker-pool story: whatever the
// fan-in, concurrently executing handlers never exceed W, every request
// still completes, and the pool's runtime reflects the serialization.
func TestSchedInflightBound(t *testing.T) {
	const clients, perClient = 6, 2
	const delay = 100 * time.Millisecond
	for _, w := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			dispatch, execs := countingDispatch(nil, 0)
			_ = dispatch
			var clk *vclock.Clock
			// The dispatch needs the clock, which schedSim creates; bind late.
			var dmu sync.Mutex
			var realDispatch DispatchFunc
			indirect := func(call *Call) AcceptStat {
				dmu.Lock()
				fn := realDispatch
				dmu.Unlock()
				return fn(call)
			}
			clkOut, o, srv, clis, cleanup := schedSim(t, SchedConfig{Workers: w}, clients, indirect)
			defer cleanup()
			clk = clkOut
			dispatch, execs = countingDispatch(clk, delay)
			dmu.Lock()
			realDispatch = dispatch
			dmu.Unlock()

			inSim(t, clk, func() {
				start := clk.Now()
				done := vclock.NewMailbox[error](clk)
				for i, cli := range clis {
					for j := 0; j < perClient; j++ {
						i, j, cli := i, j, cli
						clk.Go("caller", func() {
							_, err := cli.CallTimeout(testProg, testVers, procEcho,
								echoArgs(fmt.Sprintf("c%d-%d", i, j)), 30*time.Second)
							done.Put(err)
						})
					}
				}
				for i := 0; i < clients*perClient; i++ {
					if err, _ := done.Get(); err != nil {
						t.Errorf("call: %v", err)
					}
				}
				elapsed := clk.Now() - start

				_, peak := srv.Inflight()
				if peak > w {
					t.Errorf("inflight peak %d exceeds pool of %d", peak, w)
				}
				if peak == 0 {
					t.Error("inflight peak is 0; scheduler never dispatched")
				}
				// ceil(total/W) serialized handler delays is the floor.
				total := clients * perClient
				rounds := (total + w - 1) / w
				if minRun := time.Duration(rounds) * delay; elapsed < minRun {
					t.Errorf("elapsed %v < %v: pool of %d cannot run %d handlers that fast", elapsed, minRun, w, total)
				}
				for k, n := range execs() {
					if n != 1 {
						t.Errorf("payload %s executed %d times, want 1", k, n)
					}
				}
				if len(execs()) != total {
					t.Errorf("executed %d distinct payloads, want %d", len(execs()), total)
				}
				// The peak gauge is exported for harness assertions.
				gauges := o.Registry().Snapshot().Gauges
				if g := gauges[`gvfs_server_inflight_peak{node="server"}`]; g != int64(peak) {
					t.Errorf("gvfs_server_inflight_peak gauge = %d, want %d", g, peak)
				}
			})
		})
	}
}

// TestSchedDRRFairness pins the byte-costed round-robin: while a bulk client
// drains jumbo requests, a metadata client's whole backlog of tiny requests
// completes within the bulk client's first round.
func TestSchedDRRFairness(t *testing.T) {
	const bulkCalls, metaCalls = 6, 6
	var dmu sync.Mutex
	var realDispatch DispatchFunc
	indirect := func(call *Call) AcceptStat {
		dmu.Lock()
		fn := realDispatch
		dmu.Unlock()
		return fn(call)
	}
	cfg := SchedConfig{Workers: 1}
	clk, o, _, clis, cleanup := schedSim(t, cfg, 3, indirect)
	defer cleanup()
	// The plug call holds the only worker slot for 100ms so both backlogs
	// finish queueing before the DRR drain starts; real work takes 2ms.
	dmu.Lock()
	realDispatch = func(call *Call) AcceptStat {
		b, err := call.Args.Opaque(0)
		if err != nil {
			return GarbageArgs
		}
		if strings.HasPrefix(string(b), "p") {
			clk.Sleep(100 * time.Millisecond)
		} else {
			clk.Sleep(2 * time.Millisecond)
		}
		call.Reply.Opaque(b)
		return Success
	}
	dmu.Unlock()
	plug, bulk, meta := clis[0], clis[1], clis[2]

	inSim(t, clk, func() {
		type doneAt struct {
			who string
			at  time.Duration
		}
		done := vclock.NewMailbox[doneAt](clk)
		// Plug the single worker slot so both backlogs queue up behind it.
		clk.Go("plug", func() {
			plug.CallTimeout(testProg, testVers, procEcho, echoArgs(strings.Repeat("p", 10)), 30*time.Second)
			done.Put(doneAt{"plug", clk.Now()})
		})
		clk.Sleep(7 * time.Millisecond) // plug is executing (RTT/2 + handler)
		for i := 0; i < bulkCalls; i++ {
			i := i
			clk.Go("bulk", func() {
				payload := fmt.Sprintf("B%d|", i) + strings.Repeat("x", quantum-196)
				if _, err := bulk.CallTimeout(testProg, testVers, procEcho, echoArgs(payload), 60*time.Second); err != nil {
					t.Errorf("bulk %d: %v", i, err)
				}
				done.Put(doneAt{"bulk", clk.Now()})
			})
		}
		clk.Sleep(2 * time.Millisecond) // bulk queued first
		for i := 0; i < metaCalls; i++ {
			i := i
			clk.Go("meta", func() {
				if _, err := meta.CallTimeout(testProg, testVers, procEcho, echoArgs(fmt.Sprintf("m%d", i)), 60*time.Second); err != nil {
					t.Errorf("meta %d: %v", i, err)
				}
				done.Put(doneAt{"meta", clk.Now()})
			})
		}
		var lastMeta, lastBulk time.Duration
		bulkBeforeLastMeta := 0
		bulkSeen := 0
		for i := 0; i < 1+bulkCalls+metaCalls; i++ {
			d, _ := done.Get()
			switch d.who {
			case "meta":
				if d.at > lastMeta {
					lastMeta = d.at
					bulkBeforeLastMeta = bulkSeen
				}
			case "bulk":
				bulkSeen++
				if d.at > lastBulk {
					lastBulk = d.at
				}
			}
		}
		// Each bulk request costs nearly a whole quantum, so the meta queue
		// (total cost ≈ 100 bytes) drains in its first DRR visit: at most one
		// bulk request may complete before the last tiny one.
		if bulkBeforeLastMeta > 1 {
			t.Errorf("%d bulk requests completed before the meta backlog drained, want <= 1", bulkBeforeLastMeta)
		}
		if lastMeta >= lastBulk {
			t.Errorf("meta backlog finished at %v, after bulk backlog at %v", lastMeta, lastBulk)
		}
		// Per-client fairness counters cover every dispatched request.
		snap := o.Registry().Snapshot()
		if got := snap.SumCounters("gvfs_server_client_served_total"); got != 1+bulkCalls+metaCalls {
			t.Errorf("client served counters sum to %d, want %d", got, 1+bulkCalls+metaCalls)
		}
	})
}

// TestSchedShedThenRetransmitExactlyOnce is the DRC-interaction regression:
// a queued request shed by oldest-drop overflow must leave no DRC entry, so
// the client's same-XID retransmission executes it exactly once — not zero
// times (replayed shed) and not twice. That holds for a procedure whose
// reply the cache would retain and for a read-only one alike.
func TestSchedShedThenRetransmitExactlyOnce(t *testing.T) {
	t.Run("retained", func(t *testing.T) { shedThenRetransmit(t, procEcho) })
	t.Run("read-only", func(t *testing.T) { shedThenRetransmit(t, procPeek) })
}

func shedThenRetransmit(t *testing.T, proc uint32) {
	var dmu sync.Mutex
	var realDispatch DispatchFunc
	indirect := func(call *Call) AcceptStat {
		dmu.Lock()
		fn := realDispatch
		dmu.Unlock()
		return fn(call)
	}
	cfg := SchedConfig{Workers: 1, QueueDepth: 1}
	clk, o, _, clis, cleanup := schedSim(t, cfg, 2, indirect)
	defer cleanup()
	dispatch, execs := countingDispatch(clk, 100*time.Millisecond)
	dmu.Lock()
	realDispatch = dispatch
	dmu.Unlock()
	plugC, b := clis[0], clis[1]

	inSim(t, clk, func() {
		done := vclock.NewMailbox[error](clk)
		clk.Go("plug", func() {
			_, err := plugC.CallTimeout(testProg, testVers, proc, echoArgs("plug"), 30*time.Second)
			done.Put(err)
		})
		clk.Sleep(7 * time.Millisecond) // plug occupies the only worker
		clk.Go("b1", func() {
			_, err := b.CallTimeout(testProg, testVers, proc, echoArgs("b1"), 30*time.Second)
			done.Put(err)
		})
		clk.Sleep(2 * time.Millisecond) // b1 sits queued (depth 1)
		clk.Go("b2", func() {
			// Overflows b's queue: b1 is shed oldest-first to make room.
			_, err := b.CallTimeout(testProg, testVers, proc, echoArgs("b2"), 30*time.Second)
			done.Put(err)
		})
		for i := 0; i < 3; i++ {
			if err, _ := done.Get(); err != nil {
				t.Errorf("call: %v", err)
			}
		}
		clk.Sleep(time.Second) // drain stragglers
		for _, k := range []string{"plug", "b1", "b2"} {
			if n := execs()[k]; n != 1 {
				t.Errorf("payload %s executed %d times, want exactly 1", k, n)
			}
		}
		// With depth 1 the two outstanding calls displace each other until
		// the worker frees, so several overflow sheds can occur; the
		// invariants are that every shed was swallowed and retried by the
		// client (never surfaced, never replayed) and each payload ran once.
		snap := o.Registry().Snapshot()
		sheds := snap.Counters[`gvfs_server_shed_total{node="server",reason="overflow"}`]
		if sheds < 1 {
			t.Errorf("overflow shed counter = %d, want >= 1", sheds)
		}
		if got := snap.SumCounters("gvfs_server_shed_total"); got != sheds {
			t.Errorf("gvfs_server_shed_total = %d, want %d (overflow only)", got, sheds)
		}
		if got := snap.SumCounters("gvfs_rpc_shed_retries_total"); got != sheds {
			t.Errorf("gvfs_rpc_shed_retries_total = %d, want %d (every shed swallowed)", got, sheds)
		}
	})
}

// TestSchedRateLimitSheds drives a burst into a tight global token bucket:
// excess requests are shed with TryLater, retransmitting clients absorb the
// sheds and every call still completes — load shedding degrades latency,
// never correctness.
func TestSchedRateLimitSheds(t *testing.T) {
	var dmu sync.Mutex
	var realDispatch DispatchFunc
	indirect := func(call *Call) AcceptStat {
		dmu.Lock()
		fn := realDispatch
		dmu.Unlock()
		return fn(call)
	}
	// 10 req/s, burst 2: a burst of 6 concurrent calls sheds at least 4.
	cfg := SchedConfig{Workers: 4, RateLimit: 10, RateBurst: 2}
	clk, o, _, clis, cleanup := schedSim(t, cfg, 6, indirect)
	defer cleanup()
	dispatch, execs := countingDispatch(clk, 0)
	dmu.Lock()
	realDispatch = dispatch
	dmu.Unlock()

	inSim(t, clk, func() {
		done := vclock.NewMailbox[error](clk)
		for i, cli := range clis {
			i, cli := i, cli
			clk.Go("burst", func() {
				_, err := cli.CallTimeout(testProg, testVers, procEcho, echoArgs(fmt.Sprintf("r%d", i)), 30*time.Second)
				done.Put(err)
			})
		}
		for i := 0; i < len(clis); i++ {
			if err, _ := done.Get(); err != nil {
				t.Errorf("call: %v", err)
			}
		}
		for k, n := range execs() {
			if n != 1 {
				t.Errorf("payload %s executed %d times, want 1", k, n)
			}
		}
		snap := o.Registry().Snapshot()
		sheds := snap.Counters[`gvfs_server_shed_total{node="server",reason="rate"}`]
		if sheds < 4 {
			t.Errorf("rate sheds = %d, want >= 4 (burst 6 into bucket of 2)", sheds)
		}
		if got := snap.SumCounters("gvfs_rpc_shed_retries_total"); got != sheds {
			t.Errorf("client shed retries = %d, want %d (every shed swallowed and retried)", got, sheds)
		}
		// Shed decisions are visible in the trace.
		found := false
		for _, sp := range o.Spans() {
			if sp.Note == obs.NoteShedRate && sp.Err == "TRY_LATER" {
				found = true
			}
		}
		if !found {
			t.Errorf("no serve span noting a rate shed in:\n%s", obs.FormatSpans(o.Spans()))
		}
	})
}

// TestSchedTryLaterWithoutRetransmit: a client with no retransmission policy
// sees a shed as a plain RPC error carrying the private TRY_LATER status.
func TestSchedTryLaterWithoutRetransmit(t *testing.T) {
	clk := vclock.NewVirtual()
	net := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	srv := NewServer(clk)
	srv.Register(testProg, testVers, testDispatch(clk))
	// Bucket of exactly one token that effectively never refills.
	srv.SetSched(SchedConfig{RateLimit: 0.001, RateBurst: 1})
	inSim(t, clk, func() {
		l, _ := net.Host("server").Listen(":111")
		srv.Serve(l)
		conn, _ := net.Host("client").Dial("server:111")
		cli := NewClient(clk, conn, NoneCred())
		if _, err := cli.Call(testProg, testVers, procEcho, echoArgs("ok")); err != nil {
			t.Errorf("first call (bucket has a token): %v", err)
		}
		var rpcErr *Error
		_, err := cli.Call(testProg, testVers, procEcho, echoArgs("no"))
		if !errors.As(err, &rpcErr) || rpcErr.Stat != TryLater {
			t.Errorf("second call err = %v, want TRY_LATER", err)
		}
		cli.Close()
		srv.Close()
	})
	clk.Stop()
}

// TestSchedYield: a handler that parks its slot with Call.Yield lets queued
// work run in the meantime — with one worker, a fast call completes inside
// the slow handler's yielded window, while the running bound still holds.
func TestSchedYield(t *testing.T) {
	const procYield = 50
	clk := vclock.NewVirtual()
	net := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	srv := NewServer(clk)
	srv.SetSched(SchedConfig{Workers: 1})
	srv.Register(testProg, testVers, func(call *Call) AcceptStat {
		switch call.Proc {
		case procYield:
			call.Yield(func() { clk.Sleep(200 * time.Millisecond) })
			call.Reply.Uint32(1)
			return Success
		case procEcho:
			b, err := call.Args.Opaque(0)
			if err != nil {
				return GarbageArgs
			}
			call.Reply.Opaque(b)
			return Success
		default:
			return ProcUnavail
		}
	})
	inSim(t, clk, func() {
		l, _ := net.Host("server").Listen(":111")
		srv.Serve(l)
		connA, _ := net.Host("a").Dial("server:111")
		connB, _ := net.Host("b").Dial("server:111")
		a := NewClient(clk, connA, NoneCred())
		b := NewClient(clk, connB, NoneCred())
		done := vclock.NewMailbox[time.Duration](clk)
		clk.Go("yielder", func() {
			if _, err := a.Call(testProg, testVers, procYield, nil); err != nil {
				t.Errorf("yield call: %v", err)
			}
			done.Put(clk.Now())
		})
		clk.Sleep(7 * time.Millisecond) // yielder holds, then parks, the slot
		start := clk.Now()
		if _, err := b.Call(testProg, testVers, procEcho, echoArgs("fast")); err != nil {
			t.Errorf("fast call: %v", err)
		}
		fastDone := clk.Now()
		slowDone, _ := done.Get()
		if fastDone-start > 50*time.Millisecond {
			t.Errorf("fast call took %v; should have run inside the 200ms yielded window", fastDone-start)
		}
		if slowDone <= fastDone {
			t.Errorf("yielding call finished at %v, before fast call at %v", slowDone, fastDone)
		}
		if _, peak := srv.Inflight(); peak > 1 {
			t.Errorf("inflight peak %d with one worker; yield must not leak slots", peak)
		}
		a.Close()
		b.Close()
		srv.Close()
	})
	clk.Stop()
}

// TestSchedYieldersResumeByArrival pins the order in which handlers that
// finished their Yield while the pool was full get slots back: by client
// (the scheduler's key), then by arrival, whatever order their yields ended
// in. One worker; c1's call arrives first, then two of c0's; all three
// yield, and a plug from c2 holds the slot until every yield has ended, the
// second of c0's first. They resume c0's in arrival order, then c1's.
func TestSchedYieldersResumeByArrival(t *testing.T) {
	const procYield = 50
	clk := vclock.NewVirtual()
	net := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	srv := NewServer(clk)
	srv.SetSched(SchedConfig{Workers: 1})
	var mu sync.Mutex
	var resumed []string
	yieldFor := map[string]time.Duration{"c1": 60 * time.Millisecond, "c0a": 80 * time.Millisecond, "c0b": 40 * time.Millisecond}
	srv.Register(testProg, testVers, func(call *Call) AcceptStat {
		b, err := call.Args.Opaque(0)
		if err != nil {
			return GarbageArgs
		}
		name := string(b)
		if call.Proc == procYield {
			call.Yield(func() { clk.Sleep(yieldFor[name]) })
			mu.Lock()
			resumed = append(resumed, name)
			mu.Unlock()
		} else {
			clk.Sleep(300 * time.Millisecond) // the plug: holds the slot, never yields
		}
		call.Reply.Opaque(b)
		return Success
	})
	inSim(t, clk, func() {
		l, _ := net.Host("server").Listen(":111")
		srv.Serve(l)
		clis := map[string]*Client{}
		for _, h := range []string{"c0", "c1", "c2"} {
			conn, _ := net.Host(h).Dial("server:111")
			clis[h] = NewClient(clk, conn, NoneCred())
		}
		g := clk.NewGroup()
		call := func(cli *Client, proc uint32, name string) {
			g.Go(name, func() {
				if _, err := cli.Call(testProg, testVers, proc, echoArgs(name)); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			})
			clk.Sleep(time.Millisecond) // arrivals one millisecond apart
		}
		call(clis["c1"], procYield, "c1")
		call(clis["c0"], procYield, "c0a")
		call(clis["c0"], procYield, "c0b")
		call(clis["c2"], procEcho, "plug")
		g.Wait()
		mu.Lock()
		if want := []string{"c0a", "c0b", "c1"}; !slices.Equal(resumed, want) {
			t.Errorf("yielders resumed in order %v, want %v (by client, then arrival)", resumed, want)
		}
		mu.Unlock()
		for _, cli := range clis {
			cli.Close()
		}
		srv.Close()
	})
	clk.Stop()
}

// TestDRCRemove covers the scheduler's shed path into the duplicate-request
// cache: a removed entry is forgotten entirely, so the XID's retransmission
// begins fresh, while other entries and the eviction order stay intact.
func TestDRCRemove(t *testing.T) {
	d := newDRC(4)
	d.admit(1)
	d.admit(2)
	d.admit(3)
	d.remove(2)
	if d.peek(2) != nil {
		t.Error("removed entry still present")
	}
	d.remove(99) // unknown XID: no-op
	checkDRC(t, d, []uint32{1, 3}, nil)
	// The freed slot is genuinely free: filling to the bound evicts nothing
	// that was begun after the removal.
	d.admit(4)
	d.admit(5)
	checkDRC(t, d, []uint32{1, 3, 4, 5}, nil)
	// Re-begun XID after remove executes fresh (no stale done state), at the
	// back of the arrival order.
	d.complete(3, []byte{3})
	d.remove(3)
	if st, _ := d.admit(3); st != drcNew {
		t.Error("re-begun XID should be a fresh in-progress entry")
	}
	checkDRC(t, d, []uint32{1, 4, 5, 3}, nil)
	// Removing the head, the tail and a completed entry keeps the lists
	// whole while they turn over.
	for xid := uint32(10); xid < 40; xid++ {
		d.admit(xid)
		switch xid % 3 {
		case 0:
			d.remove(xid) // the tail of busy
		case 1:
			d.complete(xid, nil)
		}
		if e := d.busy.front(); e != nil && xid%5 == 0 {
			d.remove(e.xid) // the head of busy
		}
		if e := d.done.front(); e != nil && xid%4 == 0 {
			d.remove(e.xid) // a completed entry
		}
	}
	d.mu.Lock()
	n := len(d.entries)
	d.mu.Unlock()
	if n > 4 {
		t.Errorf("cache holds %d entries, bound is 4", n)
	}
	var busy, done []uint32
	for e := d.busy.front(); e != nil && e != &d.busy.root; e = e.next {
		busy = append(busy, e.xid)
	}
	for e := d.done.front(); e != nil && e != &d.done.root; e = e.next {
		done = append(done, e.xid)
	}
	checkDRC(t, d, busy, done)
}

// TestBucketRefill pins the token bucket's virtual-time arithmetic.
func TestBucketRefill(t *testing.T) {
	now := time.Duration(0)
	b := newBucket(10, 3, now) // 10 tokens/s, burst 3
	for i := 0; i < 3; i++ {
		if !b.take(now) {
			t.Fatalf("take %d from full burst failed", i)
		}
	}
	if b.take(now) {
		t.Fatal("take from empty bucket succeeded")
	}
	// 100ms refills exactly one token.
	now += 100 * time.Millisecond
	if !b.take(now) {
		t.Fatal("take after one refill interval failed")
	}
	if b.take(now) {
		t.Fatal("second take after one refill interval succeeded")
	}
	// A long idle period caps at burst, not unbounded credit.
	now += time.Hour
	for i := 0; i < 3; i++ {
		if !b.take(now) {
			t.Fatalf("take %d from recapped burst failed", i)
		}
	}
	if b.take(now) {
		t.Fatal("burst cap not enforced after idle")
	}
	// Unlimited bucket always admits.
	u := newBucket(0, 0, now)
	if !u.take(now) {
		t.Fatal("unlimited bucket refused")
	}
}
