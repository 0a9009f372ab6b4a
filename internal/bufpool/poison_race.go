//go:build race

package bufpool

// RaceBuild reports a build with the race detector: Put overwrites what it
// recycles (poison), and sync.Pool itself drops a share of what it is given,
// so gates on allocation do not hold there.
const RaceBuild = true

// poison overwrites a buffer on its way into the pool. Race builds are the
// test builds: with every recycled byte set to 0xDB, code that keeps reading a
// buffer it has given back — a reply frame released too early, a request
// frame recycled under a handler — serves garbage, and every test and chaos
// seed that checks content turns into a use-after-release detector.
func poison(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = 0xDB
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n]) // doubling: the detector checks ranges, not bytes
	}
}
