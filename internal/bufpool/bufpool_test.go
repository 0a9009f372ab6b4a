package bufpool

import (
	"testing"
)

func TestGetLengthAndClassCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 1 << 10, 32*1024 - 1, 32 * 1024, 1 << 20, 1 << 21} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len = %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 || c < n {
			t.Fatalf("Get(%d): cap = %d, want power-of-two >= n", n, c)
		}
		Put(b)
	}
}

func TestOversizedFallsThrough(t *testing.T) {
	n := (1 << 21) + 1
	b := Get(n)
	if len(b) != n {
		t.Fatalf("oversized Get: len = %d", len(b))
	}
	Put(b) // must not panic; cap is not a size class, so it is dropped
}

func TestPutDropsIrregularCapacities(t *testing.T) {
	// None of these may enter a class (a later Get would hand out a slice
	// that aliases live memory or has the wrong backing size).
	Put(make([]byte, 100, 100))       // non-power-of-two cap
	Put(make([]byte, 10))             // below minimum class
	Put(append(Get(64), 1, 2, 3)[3:]) // sub-sliced mid-buffer after growth
	b := Get(100)
	if len(b) != 100 || cap(b) < 100 {
		t.Fatalf("Get after irregular Puts: len=%d cap=%d", len(b), cap(b))
	}
}

func TestReuseRoundTrip(t *testing.T) {
	b := Get(1 << 10)
	for i := range b {
		b[i] = 0xEE
	}
	p := &b[0]
	Put(b)
	// Not guaranteed by sync.Pool, but overwhelmingly likely on the same
	// goroutine with no GC in between: the next same-class Get reuses it.
	c := Get(1 << 10)
	if &c[0] == p {
		// Reuse happened: contents are arbitrary, length must still be right.
		if len(c) != 1<<10 {
			t.Fatalf("reused buffer has len %d", len(c))
		}
	}
	Put(c)
}

func TestEncoderReuseResets(t *testing.T) {
	e := GetEncoder()
	e.Uint32(42)
	PutEncoder(e)
	f := GetEncoder()
	if f.Len() != 0 {
		t.Fatalf("pooled encoder not reset: %d bytes", f.Len())
	}
	PutEncoder(f)
}

func TestAllocsOnSteadyState(t *testing.T) {
	// Warm the class, then verify the steady-state Get/Put cycle does not
	// allocate. AllocsPerRun runs GC between iterations which can drain
	// sync.Pool, so tolerate a small average rather than demanding zero.
	Put(Get(32 * 1024))
	allocs := testing.AllocsPerRun(100, func() {
		b := Get(32 * 1024)
		b[0] = 1
		Put(b)
	})
	if allocs > 1 {
		t.Fatalf("steady-state Get/Put allocates %.1f times per op", allocs)
	}
}

// TestPutPoisonsInRaceBuilds pins the use-after-release detector: in a race
// build a recycled buffer comes back from the pool overwritten, in a normal
// build untouched (the hot path pays nothing).
func TestPutPoisonsInRaceBuilds(t *testing.T) {
	b := Get(100)
	for i := range b {
		b[i] = 7
	}
	stale := b[:cap(b)]
	Put(b)
	want := byte(7)
	if RaceBuild {
		want = 0xDB
	}
	for i, v := range stale[:100] {
		if v != want {
			t.Fatalf("byte %d of a recycled buffer is %#x, want %#x", i, v, want)
		}
	}
}
