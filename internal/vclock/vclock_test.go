package vclock

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesTime(t *testing.T) {
	c := NewVirtual()
	done := make(chan time.Duration, 1)
	c.Go("sleeper", func() {
		c.Sleep(40 * time.Millisecond)
		done <- c.Now()
	})
	got := <-done
	if got != 40*time.Millisecond {
		t.Fatalf("Now after Sleep(40ms) = %v, want 40ms", got)
	}
}

func TestVirtualSleepIsInstantInRealTime(t *testing.T) {
	c := NewVirtual()
	start := time.Now()
	done := make(chan struct{})
	c.Go("sleeper", func() {
		c.Sleep(10 * time.Hour)
		close(done)
	})
	<-done
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("virtual 10h sleep took %v of real time", elapsed)
	}
}

func TestVirtualMultipleSleepersOrdered(t *testing.T) {
	c := NewVirtual()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		wg.Add(1)
		i, d := i, d
		c.Go("sleeper", func() {
			defer wg.Done()
			c.Sleep(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	wg.Wait()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestAfterFuncFiresAtScheduledTime(t *testing.T) {
	c := NewVirtual()
	fired := make(chan time.Duration, 1)
	done := make(chan struct{})
	c.Go("main", func() {
		c.AfterFunc(5*time.Millisecond, func() { fired <- c.Now() })
		c.Sleep(10 * time.Millisecond)
		close(done)
	})
	<-done
	if got := <-fired; got != 5*time.Millisecond {
		t.Fatalf("AfterFunc fired at %v, want 5ms", got)
	}
}

func TestAfterFuncStop(t *testing.T) {
	c := NewVirtual()
	var fired atomic.Bool
	done := make(chan struct{})
	c.Go("main", func() {
		tm := c.AfterFunc(5*time.Millisecond, func() { fired.Store(true) })
		if !tm.Stop() {
			t.Error("Stop before fire reported false")
		}
		c.Sleep(10 * time.Millisecond)
		close(done)
	})
	<-done
	if fired.Load() {
		t.Fatal("canceled AfterFunc fired")
	}
}

func TestWaiterWakeBeforeWait(t *testing.T) {
	c := NewVirtual()
	done := make(chan struct{})
	c.Go("main", func() {
		w := c.NewWaiter()
		w.Wake()
		c.Wait(w) // must not block or corrupt accounting
		c.Sleep(time.Millisecond)
		close(done)
	})
	<-done
}

func TestWaiterCrossActor(t *testing.T) {
	c := NewVirtual()
	done := make(chan time.Duration, 1)
	w := c.NewWaiter()
	// Spawned from outside the simulation, the waiter could block before
	// the waker exists, and that is a deadlock.
	c.Go("spawner", func() {
		c.Go("waiter", func() {
			c.Wait(w)
			done <- c.Now()
		})
		c.Go("waker", func() {
			c.Sleep(7 * time.Millisecond)
			w.Wake()
		})
	})
	if got := <-done; got != 7*time.Millisecond {
		t.Fatalf("woken at %v, want 7ms", got)
	}
}

func TestMailboxPutGet(t *testing.T) {
	c := NewVirtual()
	m := NewMailbox[int](c)
	got := make(chan int, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	// Spawned from outside the simulation, the receiver could block before
	// the sender exists, and that is a deadlock.
	c.Go("spawner", func() {
		c.Go("receiver", func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				v, ok := m.Get()
				if !ok {
					t.Error("Get returned !ok on open mailbox")
					return
				}
				got <- v
			}
		})
		c.Go("sender", func() {
			for i := 1; i <= 3; i++ {
				c.Sleep(time.Millisecond)
				m.Put(i)
			}
		})
	})
	wg.Wait()
	for want := 1; want <= 3; want++ {
		if v := <-got; v != want {
			t.Fatalf("got %d, want %d", v, want)
		}
	}
}

func TestMailboxGetTimeout(t *testing.T) {
	c := NewVirtual()
	type result struct {
		v       int
		ok, to  bool
		elapsed time.Duration
	}
	res := make(chan result, 1)
	m := NewMailbox[int](c)
	c.Go("receiver", func() {
		start := c.Now()
		v, ok, to := m.GetTimeout(25 * time.Millisecond)
		res <- result{v, ok, to, c.Now() - start}
	})
	r := <-res
	if !r.to || r.ok {
		t.Fatalf("GetTimeout = (%v, ok=%v, timedOut=%v), want timeout", r.v, r.ok, r.to)
	}
	if r.elapsed != 25*time.Millisecond {
		t.Fatalf("timeout elapsed %v, want 25ms", r.elapsed)
	}
}

func TestMailboxTimeoutThenPutDelivers(t *testing.T) {
	c := NewVirtual()
	m := NewMailbox[int](c)
	done := make(chan bool, 1)
	c.Go("receiver", func() {
		if _, _, to := m.GetTimeout(time.Millisecond); !to {
			t.Error("first GetTimeout should time out")
		}
		// A stale woken waiter must not swallow the next Put.
		v, ok := m.Get()
		done <- ok && v == 42
	})
	c.Go("sender", func() {
		c.Sleep(10 * time.Millisecond)
		m.Put(42)
	})
	if !<-done {
		t.Fatal("value not delivered after a prior timeout")
	}
}

func TestMailboxClose(t *testing.T) {
	c := NewVirtual()
	m := NewMailbox[int](c)
	m.Put(1)
	m.Close()
	if v, ok := m.Get(); !ok || v != 1 {
		t.Fatalf("drain after close = (%d, %v), want (1, true)", v, ok)
	}
	if _, ok := m.Get(); ok {
		t.Fatal("Get on closed drained mailbox reported ok")
	}
	if m.Put(2) {
		t.Fatal("Put on closed mailbox reported success")
	}
}

func TestMailboxCloseWakesBlockedReceiver(t *testing.T) {
	c := NewVirtual()
	m := NewMailbox[int](c)
	done := make(chan bool, 1)
	// Both actors are spawned from inside the simulation: spawned from
	// outside, the receiver could block before the closer exists, and that
	// is a deadlock.
	c.Go("spawner", func() {
		c.Go("receiver", func() {
			_, ok := m.Get()
			done <- ok
		})
		c.Go("closer", func() {
			c.Sleep(time.Millisecond)
			m.Close()
		})
	})
	if ok := <-done; ok {
		t.Fatal("Get on closed mailbox reported ok")
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	if c.Virtual() {
		t.Fatal("NewReal().Virtual() = true")
	}
	t0 := c.Now()
	c.Sleep(5 * time.Millisecond)
	if c.Now()-t0 < 4*time.Millisecond {
		t.Fatal("real Sleep returned too early")
	}
	w := c.NewWaiter()
	c.AfterFunc(time.Millisecond, w.Wake)
	c.Wait(w)

	m := NewMailbox[string](c)
	go m.Put("hi")
	if v, ok := m.Get(); !ok || v != "hi" {
		t.Fatalf("real mailbox Get = (%q, %v)", v, ok)
	}
}

// TestVirtualDeadlockPanics: an actor blocked for good in a plain wait is a
// deadlock, and panics. Actors parked in WaitIdle are not: once every other
// actor has exited, the simulation quiesces, and they can still be woken from
// outside it. But one of them, woken and then blocked for good in a plain
// wait, is a deadlock again.
func TestVirtualDeadlockPanics(t *testing.T) {
	t.Run("wait", func(t *testing.T) {
		c := NewVirtual()
		panicked := make(chan bool, 1)
		c.Go("stuck", func() {
			defer func() { panicked <- recover() != nil }()
			w := c.NewWaiter()
			c.Wait(w) // nothing will ever wake this
		})
		wantDeadlock(t, panicked)
	})

	// parkers starts n actors that wait idle for work, each on its own
	// waiter, run work when woken, and end when woken with stop set.
	const n = 3
	parkers := func(c *Clock, ws []Waiter, stop *atomic.Bool, work func(), ended chan<- struct{}) {
		for i := range n {
			c.Go("parker", func() {
				defer func() { ended <- struct{}{} }()
				for {
					c.InitWaiter(&ws[i])
					c.WaitIdle(&ws[i], "parked")
					if stop.Load() {
						return
					}
					work()
				}
			})
		}
	}

	t.Run("idle", func(t *testing.T) {
		c := NewVirtual()
		ws := make([]Waiter, n)
		var stop atomic.Bool
		var served atomic.Int32
		ended := make(chan struct{}, n)
		done := make(chan struct{})
		c.Go("main", func() {
			defer close(done)
			parkers(c, ws, &stop, func() {
				c.Sleep(time.Millisecond)
				served.Add(1)
			}, ended)
			c.Sleep(time.Millisecond) // every parker is parked
			ws[1].Wake()
			c.Sleep(5 * time.Millisecond) // it served, and parked again
		})
		<-done
		deadline := time.Now().Add(5 * time.Second)
		for c.Diag() != (Diag{Virtual: true, Now: 6 * time.Millisecond, Actors: n}) {
			if time.Now().After(deadline) {
				t.Fatalf("no quiescence with every actor parked: %+v", c.Diag())
			}
			time.Sleep(time.Millisecond)
		}
		if served.Load() != 1 {
			t.Fatalf("%d calls served, want 1", served.Load())
		}
		stop.Store(true)
		for i := range ws {
			ws[i].Wake()
		}
		for range n {
			<-ended
		}
		if d := c.Diag(); d.Actors != 0 || d.Runnable != 0 {
			t.Fatalf("after waking every parker: %+v", d)
		}
	})

	t.Run("busy", func(t *testing.T) {
		c := NewVirtual()
		ws := make([]Waiter, n)
		var stop atomic.Bool
		ended := make(chan struct{}, n)
		panicked := make(chan bool, 1)
		c.Go("main", func() {
			parkers(c, ws, &stop, func() {
				// The panic stops the clock, so this parker's next wait
				// returns at once, and it ends.
				defer func() {
					stop.Store(true)
					panicked <- recover() != nil
				}()
				c.Wait(c.NewWaiter()) // a call that never completes
			}, ended)
			c.Sleep(time.Millisecond)
			ws[0].Wake()
		})
		wantDeadlock(t, panicked)
		for i := 1; i < n; i++ {
			ws[i].Wake()
		}
		for range n {
			<-ended
		}
	})
}

// wantDeadlock fails the test unless an actor reports, within 5 s, that it
// recovered the virtual-deadlock panic.
func wantDeadlock(t *testing.T, panicked <-chan bool) {
	t.Helper()
	select {
	case p := <-panicked:
		if !p {
			t.Fatal("expected virtual-deadlock panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no virtual-deadlock panic: a blocked actor was taken for idle")
	}
}

// TestRealWaiterReadiedAgain: a real-clock Waiter readied again after its Wait
// keeps its channel, so parking on it allocates nothing; and a wake-up that
// arrived after a timed-out WaitFor does not satisfy the next Wait.
func TestRealWaiterReadiedAgain(t *testing.T) {
	c := NewReal()
	var w Waiter
	c.InitWaiter(&w)
	if allocs := testing.AllocsPerRun(100, func() {
		c.InitWaiter(&w)
		w.Wake()
		c.Wait(&w)
	}); allocs != 0 {
		t.Errorf("readying, waking and waiting on a waiter: %v allocations, want 0", allocs)
	}

	c.InitWaiter(&w)
	c.WaitFor(&w, time.Millisecond, "timed out")
	w.Wake() // late: nobody waits any more
	c.InitWaiter(&w)
	start := time.Now()
	c.WaitFor(&w, 20*time.Millisecond, "readied again")
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Errorf("a readied waiter returned after %v: the late wake-up carried over", waited)
	}
}

func TestStopWakesSleepers(t *testing.T) {
	c := NewVirtual()
	released := make(chan struct{})
	started := make(chan struct{})
	c.Go("sleeper", func() {
		close(started)
		c.Sleep(time.Hour)
		close(released)
	})
	// A second actor keeps the sim from advancing to the hour mark.
	c.Go("spinner", func() {
		<-started
		c.Stop()
	})
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release sleeping actor")
	}
}

func TestGroupWaitsForAllActors(t *testing.T) {
	c := NewVirtual()
	done := make(chan time.Duration, 1)
	c.Go("main", func() {
		g := c.NewGroup()
		for i := 1; i <= 4; i++ {
			d := time.Duration(i) * 10 * time.Millisecond
			g.Go("worker", func() { c.Sleep(d) })
		}
		g.Wait()
		done <- c.Now()
	})
	if got := <-done; got != 40*time.Millisecond {
		t.Fatalf("group finished at %v, want 40ms (slowest worker)", got)
	}
}

func TestGroupWaitOnEmptyGroup(t *testing.T) {
	c := NewVirtual()
	done := make(chan struct{})
	c.Go("main", func() {
		g := c.NewGroup()
		g.Wait() // must not block
		close(done)
	})
	<-done
}

func TestGroupMultipleWaiters(t *testing.T) {
	c := NewVirtual()
	results := NewMailbox[int](c)
	g := c.NewGroup()
	c.Go("spawn", func() {
		g.Go("worker", func() { c.Sleep(5 * time.Millisecond) })
		for i := 0; i < 3; i++ {
			i := i
			c.Go("waiter", func() {
				g.Wait()
				results.Put(i)
			})
		}
	})
	seen := map[int]bool{}
	collect := make(chan bool, 1)
	c.Go("collect", func() {
		for i := 0; i < 3; i++ {
			v, ok := results.Get()
			if !ok {
				collect <- false
				return
			}
			seen[v] = true
		}
		collect <- true
	})
	if !<-collect || len(seen) != 3 {
		t.Fatalf("waiters woken: %v", seen)
	}
}

// TestOneActorRunsAtATime pins the virtual clock's sequencing: actors woken or
// spawned while another runs start one at a time, in the order they were
// readied, each once the one before it has blocked or exited — so same-instant
// actors can never race for shared state, whatever the Go scheduler does.
func TestOneActorRunsAtATime(t *testing.T) {
	const n = 8
	c := NewVirtual()
	var running, overlaps atomic.Int32
	var order []int // appended by one actor at a time, so unlocked
	run := func(i int) {
		if running.Add(1) > 1 {
			overlaps.Add(1)
		}
		for range 100 {
			runtime.Gosched()
		}
		order = append(order, i)
		running.Add(-1)
	}
	done := make(chan struct{})
	c.Go("waker", func() {
		ws := make([]*Waiter, n)
		g := c.NewGroup()
		for i := range ws {
			ws[i] = c.NewWaiter()
			g.Go("woken", func() {
				c.Wait(ws[i])
				run(i)
			})
		}
		g.Go("blocker", func() { c.Sleep(time.Millisecond) })
		c.Sleep(time.Microsecond) // every woken actor is now blocked in Wait
		for i := range ws {
			ws[n-1-i].Wake()
		}
		for i := range n {
			g.Go("spawned", func() { run(n + i) })
		}
		run(-1)
		g.Wait()
		close(done)
	})
	<-done
	if k := overlaps.Load(); k > 0 {
		t.Errorf("%d times an actor ran beside another", k)
	}
	want := []int{-1}
	for i := range n {
		want = append(want, n-1-i)
	}
	for i := range n {
		want = append(want, n+i)
	}
	if !slices.Equal(order, want) {
		t.Errorf("run order %v, want %v: readied actors run in turn", order, want)
	}
}
