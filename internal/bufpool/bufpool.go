// Package bufpool provides size-classed byte-slice pools and a pooled XDR
// encoder for the block/RPC hot path.
//
// Ownership rules (see DESIGN.md "Hot-path memory & coalescing"):
//
//   - Get(n) returns a slice of length n whose contents are arbitrary — the
//     caller must overwrite every byte it reads back.
//   - Put(b) recycles a slice. Only the goroutine that owns the buffer may
//     Put it, exactly once, after which no alias of it may be touched.
//   - A cache-resident buffer is never Put while lent. The proxy client's
//     block cache takes every block buffer from Get and Puts it when the
//     block leaves the cache or new bytes replace it — unless the block was
//     lent to a reader, who may still be copying out of it after the cache
//     lock is released; that buffer is Abandoned to the GC instead. A frame
//     a client received belongs to the caller that got the reply: it Puts it
//     through sunrpc.Reply.Release when done, or never. Losing a buffer to
//     the GC is always safe; double-recycling, or reading one after Put,
//     never is — race builds overwrite a buffer on Put so that tests notice
//     (poison_race.go).
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/xdr"
)

// Size classes are powers of two from minShift to maxShift. 1<<20 covers
// nfs3.MaxIOSize-sized coalesced WRITE payloads; larger requests fall through
// to plain allocation.
const (
	minShift = 6  // 64 B
	maxShift = 21 // 2 MiB: a MaxIOSize payload plus RPC framing still pools
)

var classes [maxShift - minShift + 1]sync.Pool

func classFor(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minShift
	if c > maxShift-minShift {
		return -1
	}
	return c
}

// outstanding tracks class-eligible buffers handed out by Get and not yet
// returned by Put — the leak detector for the ownership rules above. Buffers
// that legitimately become cache-resident keep the count up; a steady-state
// loop that neither grows a cache nor hands frames to a peer must leave it
// unchanged (TestServeCallAllocs asserts exactly that).
var outstanding atomic.Int64

// Outstanding reports the number of pool-owned buffers currently checked
// out: Gets minus Puts, counting only class-eligible buffers.
func Outstanding() int64 { return outstanding.Load() }

// Get returns a byte slice of length n with arbitrary contents. Capacity is
// the containing power-of-two size class, so a pooled buffer can be re-sliced
// up to cap(b) without reallocating.
func Get(n int) []byte {
	if n < 0 {
		panic("bufpool: negative size")
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	outstanding.Add(1)
	if v := classes[c].Get(); v != nil {
		w := v.(*poolBuf)
		b := w.b[:n]
		w.b = nil
		wrapPool.Put(w)
		return b
	}
	return make([]byte, n, 1<<(uint(c)+minShift))
}

// poolBuf wraps the slice so sync.Pool stores a pointer-shaped value (avoids
// an allocation per Put, per staticcheck SA6002).
type poolBuf struct{ b []byte }

var wrapPool = sync.Pool{New: func() any { return new(poolBuf) }}

// Put recycles b. Slices whose capacity is not an exact size class (grown by
// append, sub-sliced mid-buffer, or larger than the biggest class) are dropped
// to the GC — that is always safe.
func Put(b []byte) {
	cls := classOf(b)
	if cls < 0 {
		return
	}
	outstanding.Add(-1)
	poison(b[:cap(b)])
	w := wrapPool.Get().(*poolBuf)
	w.b = b[:0:cap(b)]
	classes[cls].Put(w)
}

// Abandon gives a buffer from Get up to the GC instead of recycling it: it
// leaves the outstanding count as Put would, but nothing is overwritten or
// reused, so a reader still holding an alias is safe. It is for an owner that
// cannot know when the last alias dies (a block lent to a reader).
func Abandon(b []byte) {
	if classOf(b) >= 0 {
		outstanding.Add(-1)
	}
}

// classOf returns the size class a buffer of b's capacity belongs to, -1 when
// the capacity is no exact class and Get never counted it.
func classOf(b []byte) int {
	c := cap(b)
	if c < 1<<minShift || c&(c-1) != 0 {
		return -1
	}
	cls := bits.Len(uint(c)) - 1 - minShift
	if cls > maxShift-minShift {
		return -1
	}
	return cls
}

// Pooled XDR encoders for reply/call marshalling. The encoder keeps its grown
// scratch buffer across uses (Encoder.Reset), so a steady-state server encodes
// replies with zero allocations.
var encPool = sync.Pool{New: func() any { return xdr.NewEncoder() }}

// GetEncoder returns an empty encoder, reusing grown scratch space when
// available.
func GetEncoder() *xdr.Encoder {
	e := encPool.Get().(*xdr.Encoder)
	e.Reset()
	return e
}

// PutEncoder recycles an encoder. The caller must not retain e.Bytes() —
// copy anything that outlives the encoder (the DRC does exactly this).
func PutEncoder(e *xdr.Encoder) {
	if e == nil {
		return
	}
	encPool.Put(e)
}
