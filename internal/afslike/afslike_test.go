package afslike

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

type env struct {
	clk     *vclock.Clock
	fs      *memfs.FS
	srv     *Server
	clients []*Client
}

func setup(t *testing.T, nclients int) (*env, func()) {
	t.Helper()
	clk := vclock.NewVirtual()
	n := simnet.New(clk, simnet.Params{RTT: 40 * time.Millisecond})
	fs := memfs.New(clk.Now)
	e := &env{clk: clk, fs: fs}
	done := make(chan struct{})
	clk.Go("setup", func() {
		defer close(done)
		serverHost := n.Host("server")
		e.srv = NewServer(clk, fs, serverHost.Dial)
		l, err := serverHost.Listen(":7000")
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		e.srv.Serve(l)
		for i := 0; i < nclients; i++ {
			host := n.Host(fmt.Sprintf("C%d", i+1))
			cbAddr := fmt.Sprintf("C%d:7100", i+1)
			cbL, err := host.Listen(":7100")
			if err != nil {
				t.Errorf("cb listen: %v", err)
				return
			}
			conn, err := host.Dial("server:7000")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			e.clients = append(e.clients, NewClient(clk, conn, cbL, cbAddr))
		}
	})
	<-done
	if len(e.clients) != nclients {
		t.Fatal("setup failed")
	}
	return e, func() {
		for _, c := range e.clients {
			c.Close()
		}
		e.srv.Close()
		clk.Stop()
	}
}

func (e *env) run(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	e.clk.Go("test", func() {
		defer close(done)
		fn()
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simulation hung")
	}
}

func TestCallbackBreakInvalidatesCache(t *testing.T) {
	e, cleanup := setup(t, 2)
	defer cleanup()
	a, b := e.clients[0], e.clients[1]
	e.run(t, func() {
		if err := a.CreateFile("f"); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if held, err := b.Exists("f"); err != nil || !held {
			t.Errorf("exists = %v, %v", held, err)
			return
		}
		// Within the callback promise B answers from its cache.
		start := e.clk.Now()
		for i := 0; i < 10; i++ {
			if held, err := b.Exists("f"); err != nil || !held {
				t.Errorf("cached exists = %v, %v", held, err)
				return
			}
		}
		if elapsed := e.clk.Now() - start; elapsed > time.Millisecond {
			t.Errorf("10 cached lookups took %v; the cache is not serving them", elapsed)
		}
		// A removes the file; B's cached entry is broken by callback and its
		// next lookup is fresh — strong consistency.
		if err := a.Remove("f"); err != nil {
			t.Errorf("remove: %v", err)
			return
		}
		e.clk.Sleep(100 * time.Millisecond) // callback propagation
		if held, _ := b.Exists("f"); held {
			t.Error("b still sees the removed file: its cached entry was not broken")
		}
	})
}

func TestLinkPrimitiveForLocks(t *testing.T) {
	e, cleanup := setup(t, 2)
	defer cleanup()
	a, b := e.clients[0], e.clients[1]
	e.run(t, func() {
		a.CreateFile("tmp-a")
		b.CreateFile("tmp-b")
		if err := a.Link("tmp-a", "LOCK"); err != nil {
			t.Errorf("first link: %v", err)
			return
		}
		err := b.Link("tmp-b", "LOCK")
		if !errors.Is(err, ErrExist) || !b.IsExist(err) {
			t.Errorf("second link err = %v, want ErrExist", err)
		}
		// Existence visible to B (fresh after its failed link).
		if held, _ := b.Exists("LOCK"); !held {
			t.Error("b does not see the lock")
		}
		if err := a.Remove("LOCK"); err != nil {
			t.Errorf("remove: %v", err)
			return
		}
		e.clk.Sleep(100 * time.Millisecond)
		// Strong consistency: B sees the release promptly.
		if held, _ := b.Exists("LOCK"); held {
			t.Error("b still sees the removed lock")
		}
		if err := b.Link("tmp-b", "LOCK"); err != nil {
			t.Errorf("relock: %v", err)
		}
	})
}

func TestExistsNegativeNotCachedStale(t *testing.T) {
	e, cleanup := setup(t, 2)
	defer cleanup()
	a, b := e.clients[0], e.clients[1]
	e.run(t, func() {
		if held, _ := b.Exists("nope"); held {
			t.Error("phantom file")
		}
		a.CreateFile("nope")
		e.clk.Sleep(100 * time.Millisecond)
		if held, _ := b.Exists("nope"); !held {
			t.Error("negative result incorrectly cached")
		}
	})
}
