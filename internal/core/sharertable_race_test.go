package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sweepOnce is one turn of expiryLoop.
func sweepOnce(s *ProxyServer) {
	s.mu.Lock()
	reqs := s.sweepLocked(s.clk.Now())
	s.mu.Unlock()
	s.recall(s.node.Mint(), reqs)
}

// TestSharerTableRaces has three clients' accesses, the sweep and the
// settling of the recalls both demand work a handful of files at once, for
// the race detector; the table's invariants are checked throughout and at the
// end. Every actor works at least `rounds` turns and then goes on, up to
// maxRounds, until a WRITE has been fenced: how soon a lost recall's holder
// writes again is the scheduler's doing, and a run that stopped at a fixed
// count found none about once in 300.
func TestSharerTableRaces(t *testing.T) {
	const rounds, maxRounds = 3000, 100 * 3000
	s := tableServer("A", "B", "C")
	s.cfg.MaxOpenFiles = 2
	var tick atomic.Int64
	now := func() time.Duration { return time.Duration(tick.Add(1)) * time.Second }
	// Recalls wait here for the settler, as they would on the wire. The
	// producers never block on it: a full queue settles the recall as lost.
	queue := make(chan recallReq, 64)
	send := func(reqs []recallReq) {
		for _, r := range reqs {
			select {
			case queue <- r:
			default:
				s.mu.Lock()
				s.settleLocked(r, nil, now())
				s.mu.Unlock()
			}
		}
	}
	fail := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}

	var fences atomic.Int64
	working := func(turn int) bool {
		return turn < rounds || fences.Load() == 0 && turn < maxRounds
	}
	var producers, settler sync.WaitGroup
	for i, id := range []string{"A", "B", "C"} {
		producers.Add(1)
		go func() {
			defer producers.Done()
			c := s.clients[id]
			for n := i; working(n - i); n++ {
				// Each client works its own file and now and then reads a
				// neighbour's: a writer is alone long enough to be granted,
				// then recalled, and one recall in three is lost.
				a := accessReq{fh: fhN(uint64(i)), write: n%2 == 0, offset: off(uint64(n % 4))}
				if n%16 == 0 {
					a.fh, a.write = fhN(uint64(i+1)%3), false
				}
				s.mu.Lock()
				reqs, fenced := s.accessLocked(c, a, now())
				s.mu.Unlock()
				if fenced {
					fences.Add(1)
					continue
				}
				send(reqs)
				s.mu.Lock()
				s.grantLocked(c, a, now())
				if a.write {
					reqs = s.committedLocked(id, a)
				}
				s.mu.Unlock()
				send(reqs)
				runtime.Gosched() // interleave: a burst per goroutine grants and fences next to nothing
			}
		}()
	}
	producers.Add(1)
	go func() {
		defer producers.Done()
		for n := 0; working(n); n++ {
			s.mu.Lock()
			reqs := s.sweepLocked(now())
			err := checkSharerTable(s)
			s.mu.Unlock()
			fail(err)
			send(reqs)
			runtime.Gosched()
		}
	}()
	settler.Add(1)
	go func() {
		defer settler.Done()
		n := 0
		for r := range queue {
			s.mu.Lock()
			s.settleLocked(r, outcome(n%3).res(), now())
			s.mu.Unlock()
			n++
		}
	}()
	producers.Wait()
	close(queue)
	settler.Wait()

	fail(checkSharerTable(s))
	if fences.Load() == 0 {
		t.Error("no WRITE was ever fenced: the actors did not interleave")
	}
	// Left alone, everything ages out: the table holds no state for ever.
	for i := 0; i < 3 && len(s.files) > 0; i++ {
		tick.Add(int64(2 * tblExpiry / time.Second))
		for _, r := range s.sweepLocked(now()) {
			s.settleLocked(r, acked.res(), now())
		}
	}
	if len(s.files) != 0 || s.lru.n != 0 {
		t.Errorf("%d files (%d on the ring) outlive every sharer's expiry", len(s.files), s.lru.n)
	}
}

// checkSharerTable is what must hold of the table between any two
// transitions.
func checkSharerTable(s *ProxyServer) error {
	for key, f := range s.files {
		if f.fh.Key() != key || len(f.sharers) == 0 {
			return fmt.Errorf("file %q: filed under %q with %d sharers", f.fh.Key(), key, len(f.sharers))
		}
		writers, holders := 0, 0
		for id, sh := range f.sharers {
			if sh.c == nil || sh.c.rec.ID != id || s.clients[id] != sh.c {
				return fmt.Errorf("file %q: sharer %q has no client record", key, id)
			}
			if sh.deleg != DelegNone {
				holders++
			}
			if sh.deleg == DelegWrite {
				writers++
			}
		}
		if writers > 1 || writers == 1 && holders > 1 {
			return fmt.Errorf("file %q: %d write delegations among %d held", key, writers, holders)
		}
	}
	return checkRing("file", &s.lru, len(s.files), len(s.files), func(f *fileState) *link[fileState] {
		if s.files[f.fh.Key()] != f {
			return nil
		}
		return &f.link
	})
}

// TestHolderReadKeepsWriteDelegation: the write delegation's only holder
// reading a block — a demand miss, or the fetch before an absorbed partial
// WRITE — keeps the delegation, so another client's read still recalls it.
func TestHolderReadKeepsWriteDelegation(t *testing.T) {
	fh := fhN(7)
	d := &tableDriver{s: tableServer("A", "B"), answers: map[string]outcome{}}
	d.access("A", accessReq{fh: fh, write: true, offset: off(1)})
	if _, grant := d.access("A", accessReq{fh: fh, offset: off(0)}); grant != "write" || describeFile(d.s, fh) != "A=write" {
		t.Fatalf("A's read was granted %q, row %q; want write, A=write", grant, describeFile(d.s, fh))
	}
	if recalls, _ := d.access("B", accessReq{fh: fh, offset: off(1)}); recalls == "" {
		t.Error("B's read recalled nothing from the write holder")
	}
}
