package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsserver"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// raBed is a proxy client over a plain NFS server on a simulated 40 ms link,
// with a raw NFS connection to its kernel-facing port.
type raBed struct {
	clk  *vclock.Clock
	net  *simnet.Net
	fs   *memfs.FS
	p    *ProxyClient
	nc   *nfscall.Conn
	root nfs3.FH
	up   *readRecorder  // the proxy client's upstream connection
	srv  *sunrpc.Server // the NFS server
}

// readRecorder notes every NFS call sent through it, in the order they were
// sent: the procedure, and what the tests ask about its arguments — a READ's
// handle, offset and count, a READDIRPLUS's cookie and counts, the tail a
// WRITE's data went by — and when its reply came back. It gathers, handing a
// call's parts on as it got them.
type readRecorder struct {
	transport.Conn
	now   func() time.Duration
	mu    sync.Mutex
	calls []wireCall
	byXID map[uint32]int // index into calls
	// cut makes the next call with a tail the connection's last: noted, it
	// closes the connection in place of sending, as a socket that dies with
	// the frame half-written delivers none of it.
	cut bool
}

// wireCall is one NFS call as it went upstream.
type wireCall struct {
	proc               uint32
	fh                 string // READ: the handle's bytes
	offset             uint64 // READ
	count              uint32 // READ
	cookie             uint64 // READDIRPLUS
	dirCount, maxCount uint32 // READDIRPLUS
	tail               []byte // the bytes sent by reference behind the message
	replied            time.Duration
}

func (c *readRecorder) Send(msg []byte) error { return c.SendGather(msg, nil) }

func (c *readRecorder) SendGather(msg, tail []byte) error {
	// An RPC call names its program at byte 12 and its procedure at byte 20;
	// READ3args are the handle, the offset and the count, READDIRPLUS3args end
	// in the cookie, its verifier and the two counts.
	if len(msg) >= 48 && binary.BigEndian.Uint32(msg[4:]) == 0 && binary.BigEndian.Uint32(msg[12:]) == nfs3.Program {
		call := wireCall{proc: binary.BigEndian.Uint32(msg[20:]), tail: tail}
		switch call.proc {
		case nfs3.ProcRead:
			call.offset = binary.BigEndian.Uint64(msg[len(msg)-12:])
			call.count = binary.BigEndian.Uint32(msg[len(msg)-4:])
			if fh := msg[len(msg)-12-nfs3.FHSize-4:]; binary.BigEndian.Uint32(fh) == nfs3.FHSize {
				call.fh = string(fh[4 : 4+nfs3.FHSize])
			}
		case nfs3.ProcReaddirplus:
			call.cookie = binary.BigEndian.Uint64(msg[len(msg)-24:])
			call.dirCount = binary.BigEndian.Uint32(msg[len(msg)-8:])
			call.maxCount = binary.BigEndian.Uint32(msg[len(msg)-4:])
		}
		c.mu.Lock()
		if c.byXID == nil {
			c.byXID = make(map[uint32]int)
		}
		c.byXID[binary.BigEndian.Uint32(msg)] = len(c.calls)
		c.calls = append(c.calls, call)
		cut := c.cut && tail != nil
		if cut {
			c.cut = false
		}
		c.mu.Unlock()
		if cut {
			c.Conn.Close()
			return transport.ErrClosed
		}
	}
	return transport.SendParts(c.Conn, msg, tail)
}

// Recv stamps the call a reply answers with the time it came back.
func (c *readRecorder) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil && len(msg) >= 8 && binary.BigEndian.Uint32(msg[4:]) == 1 {
		c.mu.Lock()
		if i, ok := c.byXID[binary.BigEndian.Uint32(msg)]; ok {
			c.calls[i].replied = c.now()
		}
		c.mu.Unlock()
	}
	return msg, err
}

// sent returns the READs sent so far, in wire order.
func (c *readRecorder) sent() (reads []wireCall) {
	for _, call := range c.sentCalls() {
		if call.proc == nfs3.ProcRead {
			reads = append(reads, call)
		}
	}
	return reads
}

// blocks are the blocks a READ asked for, from its offset and count.
func (c wireCall) blocks() (bns []uint64) {
	for off := c.offset; off < c.offset+uint64(c.count); off += raBS {
		bns = append(bns, off/raBS)
	}
	return bns
}

// sentCalls returns the NFS calls sent so far, in wire order.
func (c *readRecorder) sentCalls() []wireCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wireCall(nil), c.calls...)
}

// serverVerf is the bed NFS server's write verifier: anything but
// localWriteVerf, so a reply shows who made it.
const serverVerf = 7

// runRABed runs fn as a virtual-time actor against a fresh bed.
func runRABed(t *testing.T, cfg Config, populate func(fs *memfs.FS), fn func(b *raBed)) {
	t.Helper()
	runTamperedBed(t, cfg, nil, populate, fn)
}

// runTamperedBed is runRABed with tamper, when not nil, rewriting every NFS
// reply (the result bytes of procedure proc) on its way from the server to
// the proxy client: an upstream that answers what the test needs it to.
func runTamperedBed(t *testing.T, cfg Config, tamper func(proc uint32, reply []byte) []byte, populate func(fs *memfs.FS), fn func(b *raBed)) {
	t.Helper()
	var front *bedFront
	if tamper != nil {
		front = &bedFront{edit: tamper}
	}
	runBedOver(t, simnet.Params{RTT: 40 * time.Millisecond}, cfg, front, populate, fn)
}

// bedFront is what a bed's upstream does to the NFS calls it relays to the
// server: hold, when set, says how long a call of proc is kept back before the
// server runs it; edit, when set, rewrites its reply; fail, when set and
// true, answers SYSTEM_ERR in its place, the call having run: a reply lost.
type bedFront struct {
	hold func(proc uint32) time.Duration
	edit func(proc uint32, reply []byte) []byte
	fail func(proc uint32) bool
}

// serveFront serves front on the server's host in front of the bed's NFS
// server at server:2049 and returns its address and what closes it. It must
// run on an actor.
func serveFront(clk *vclock.Clock, net *simnet.Net, front bedFront) (addr string, stop func()) {
	bconn, err := net.Host("server").Dial("server:2049")
	if err != nil {
		panic(err)
	}
	back := sunrpc.NewClient(clk, bconn, sunrpc.NoneCred())
	relay := func(prog, vers uint32, f bedFront) sunrpc.DispatchFunc {
		return func(call *sunrpc.Call) sunrpc.AcceptStat {
			if f.hold != nil {
				clk.Sleep(f.hold(call.Proc))
			}
			d, err := back.Call(prog, vers, call.Proc, call.Args.Rest())
			if err != nil || f.fail != nil && f.fail(call.Proc) {
				return sunrpc.SystemErr
			}
			reply := d.Rest()
			if f.edit != nil {
				reply = f.edit(call.Proc, reply)
			}
			call.Reply.FixedOpaque(reply)
			return sunrpc.Success
		}
	}
	fsrv := sunrpc.NewServer(clk)
	fsrv.Register(nfs3.Program, nfs3.Version, relay(nfs3.Program, nfs3.Version, front))
	fsrv.Register(nfs3.MountProgram, nfs3.MountVersion, relay(nfs3.MountProgram, nfs3.MountVersion, bedFront{}))
	fl, err := net.Host("server").Listen(":2050")
	if err != nil {
		panic(err)
	}
	fsrv.Serve(fl)
	return "server:2050", func() {
		fsrv.Close()
		back.Close()
	}
}

// runBedOver is runTamperedBed over a link of the caller's choosing, with a
// front of the caller's choosing (nil: none).
func runBedOver(t *testing.T, link simnet.Params, cfg Config, front *bedFront, populate func(fs *memfs.FS), fn func(b *raBed)) {
	t.Helper()
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, link)
	fs := memfs.New(clk.Now)
	populate(fs)
	rpcSrv := sunrpc.NewServer(clk)
	nfsserver.New(fs, serverVerf).Register(rpcSrv)
	l, err := net.Host("server").Listen(":2049")
	if err != nil {
		t.Fatal(err)
	}
	defer rpcSrv.Close()
	rpcSrv.Serve(l)

	done := make(chan struct{})
	clk.Go("driver", func() {
		defer close(done)
		upstream := "server:2049"
		if front != nil {
			// A front on the server's own host relays to the real server.
			addr, stop := serveFront(clk, net, *front)
			defer stop()
			upstream = addr
		}
		client := net.Host("client")
		conn, err := client.Dial(upstream)
		if err != nil {
			t.Error(err)
			return
		}
		up := &readRecorder{Conn: conn, now: clk.Now}
		p := NewProxyClient(clk, cfg, sunrpc.NewClient(clk, up, sunrpc.NoneCred()),
			SessionCred{SessionKey: "s", ClientID: "ra-test"})
		kl, err := client.Listen(":3049")
		if err != nil {
			t.Error(err)
			return
		}
		p.Serve(kl, nil)
		defer p.Stop()
		kconn, err := client.Dial("client:3049")
		if err != nil {
			t.Error(err)
			return
		}
		nc := nfscall.New(sunrpc.NewClient(clk, kconn, sunrpc.SysCred("kernel", 0, 0)))
		defer nc.Close()
		root, err := nc.Mount("/export")
		if err != nil {
			t.Error(err)
			return
		}
		fn(&raBed{clk: clk, net: net, fs: fs, p: p, nc: nc, root: root, up: up, srv: rpcSrv})
	})
	<-done
}

// wan is the number of RPCs of NFS procedure proc the bed's proxy client has
// sent upstream.
func (b *raBed) wan(proc uint32) int64 {
	return b.p.UpstreamCounts()[uint64(nfs3.Program)<<32|uint64(proc)]
}

// TestStreamStateReclaimedWithFile is the regression test for the lastRead
// leak: the old detector kept one map entry per file handle ever read and
// never pruned it. Stream state now lives in the file's cache entry and goes
// when that does.
func TestStreamStateReclaimedWithFile(t *testing.T) {
	const files = 50
	name := func(i int) string { return fmt.Sprintf("f%02d", i) }
	runRABed(t, Config{ReadAhead: 4},
		func(fs *memfs.FS) {
			for i := 0; i < files; i++ {
				if _, err := fs.WriteFile(name(i), make([]byte, 3*raBS)); err != nil {
					t.Fatal(err)
				}
			}
		},
		func(b *raBed) {
			fhs := make([]nfs3.FH, files)
			for i := range fhs {
				lk, err := b.nc.Lookup(b.root, name(i))
				if err != nil || lk.Status != nfs3.OK {
					t.Errorf("lookup: %v %v", err, lk.Status)
					return
				}
				fhs[i] = lk.FH
				for bn := uint64(0); bn < 2; bn++ {
					if res, err := b.nc.Read(lk.FH, bn*raBS, raBS); err != nil || res.Status != nfs3.OK {
						t.Errorf("read: %v %v", err, res.Status)
						return
					}
				}
			}
			if got := b.p.cache.liveStreams(); got != files {
				t.Errorf("%d files streaming, want %d", got, files)
			}
			if got := b.p.met.readAheads.Value(); got != files*2 {
				t.Errorf("prefetched %d blocks, want %d (each file's other two)", got, files*2)
			}
			// Removed behind the proxy's back and invalidated, as a GETINV
			// round would: its next look at each handle finds it stale and
			// forgets the file.
			for i, fh := range fhs {
				if err := b.fs.Remove(b.fs.Root(), name(i)); err != nil {
					t.Error(err)
					return
				}
				b.p.cache.invalidateHandle(fh)
				if res, err := b.nc.Getattr(fh); err != nil || res.Status != nfs3.ErrStale {
					t.Errorf("getattr of a removed file: %v %v", err, res.Status)
					return
				}
			}
			if got := b.p.cache.liveStreams(); got != 0 {
				t.Errorf("%d stream entries outlive their files", got)
			}
			if _, _, cached, _ := b.p.cache.stats(); cached != 0 {
				t.Errorf("%d file entries outlive their files", cached)
			}
		})
}

// TestNoPrefetchAfterStop: a stopped proxy issues no more prefetches, even
// for a read already past the stream bookkeeping.
func TestNoPrefetchAfterStop(t *testing.T) {
	runRABed(t, Config{ReadAhead: 4},
		func(fs *memfs.FS) {
			if _, err := fs.WriteFile("data", make([]byte, 16*raBS)); err != nil {
				t.Fatal(err)
			}
		},
		func(b *raBed) {
			lk, err := b.nc.Lookup(b.root, "data")
			if err != nil || lk.Status != nfs3.OK {
				t.Errorf("lookup: %v %v", err, lk.Status)
				return
			}
			if _, err := b.nc.Read(lk.FH, 0, raBS); err != nil {
				t.Error(err)
				return
			}
			b.clk.Sleep(time.Second)
			before := b.p.met.readAheads.Value()
			if before == 0 {
				t.Error("nothing was prefetched before the stop")
			}
			b.p.Stop()
			if due, _ := b.p.cache.streamRead(lk.FH, 1, 4); due {
				b.p.issue(b.p.streamClaim(0, lk.FH, 4))
			}
			b.p.issue(b.p.streamClaim(0, lk.FH, 4))
			b.clk.Sleep(time.Second)
			if got := b.p.met.readAheads.Value(); got != before {
				t.Errorf("prefetched %d more blocks after Stop", got-before)
			}
			b.p.cache.mu.Lock()
			inflight := len(b.p.cache.files[lk.FH.Key()].fetching)
			b.p.cache.mu.Unlock()
			if inflight != 0 {
				t.Errorf("%d blocks claimed after Stop", inflight)
			}
		})
}

// TestForgetReleasesParkedReads: a demand read parked on an in-flight
// prefetch must come back when the file's cache entry is forgotten under it.
// The file is removed behind the proxy's back; a GETATTR finds the handle
// stale and forgets the file while a read of block 1 sleeps on block 1's
// prefetch. The prefetch's own reply then finds no entry to clear, so the
// forget is what has to wake the reader.
func TestForgetReleasesParkedReads(t *testing.T) {
	// DisableMetaCache makes the GETATTR cross the wide area although the
	// LOOKUP's attributes (which the prefetcher needs for EOF) are cached.
	runRABed(t, Config{ReadAhead: 4, DisableMetaCache: true},
		func(fs *memfs.FS) {
			if _, err := fs.WriteFile("data", make([]byte, 16*raBS)); err != nil {
				t.Fatal(err)
			}
		},
		func(b *raBed) {
			lk, err := b.nc.Lookup(b.root, "data")
			if err != nil || lk.Status != nfs3.OK {
				t.Errorf("lookup: %v %v", err, lk.Status)
				return
			}
			if err := b.fs.Remove(b.fs.Root(), "data"); err != nil {
				t.Error(err)
				return
			}
			g := b.clk.NewGroup()
			g.Go("getattr", func() {
				if res, err := b.nc.Getattr(lk.FH); err != nil || res.Status != nfs3.ErrStale {
					t.Errorf("getattr of a removed file: %v %v", err, res.Status)
				}
			})
			g.Go("read 0", func() {
				b.clk.Sleep(time.Millisecond)
				b.nc.Read(lk.FH, 0, raBS) // starts the stream: blocks 1..4 in flight
			})
			g.Go("read 1", func() {
				b.clk.Sleep(2 * time.Millisecond)
				if _, err := b.nc.Read(lk.FH, raBS, raBS); err != nil {
					t.Errorf("read parked on a forgotten file's prefetch: %v", err)
				}
			})
			parked := 0
			g.Go("check", func() {
				b.clk.Sleep(10 * time.Millisecond)
				b.p.cache.mu.Lock()
				parked = len(b.p.cache.files[lk.FH.Key()].fetching[1])
				b.p.cache.mu.Unlock()
			})
			g.Wait()
			if parked != 1 {
				t.Errorf("%d reads parked on block 1's prefetch, want 1: the test proves nothing", parked)
			}
			if now := b.clk.Now(); now > time.Second {
				t.Errorf("finished at %v: the parked read sat out a timeout instead of being woken", now)
			}
		})
}

// TestChunkLeavesInBlockOrder: the READs of one readahead chunk are waited
// for by an actor each but sent by one, in block order and behind the demand
// read's own, because a link that serialises their replies gives them back in
// the order they went out and the reader wants block 0, then 1, long before
// block 31. Sent by the per-block actors they left in the order the scheduler
// happened to run those.
func TestChunkLeavesInBlockOrder(t *testing.T) {
	const blocks = 40
	runRABed(t, Config{ReadAhead: 32},
		func(fs *memfs.FS) {
			if _, err := fs.WriteFile("data", make([]byte, blocks*raBS)); err != nil {
				t.Fatal(err)
			}
		},
		func(b *raBed) {
			lk, err := b.nc.Lookup(b.root, "data")
			if err != nil || lk.Status != nfs3.OK {
				t.Errorf("lookup: %v %v", err, lk.Status)
				return
			}
			for round := 0; round < 20; round++ {
				before := len(b.up.sent())
				if _, err := b.nc.Read(lk.FH, 0, raBS); err != nil { // block 0 starts a stream at the full window
					t.Error(err)
					return
				}
				b.clk.Sleep(time.Second)
				sent := b.up.sent()[before:]
				if len(sent) == 0 || !slices.Equal(sent[0].blocks(), []uint64{0}) {
					t.Errorf("round %d: the block the reader waits for was not sent first, alone: %+v", round, sent)
					return
				}
				var prefetched []uint64
				for _, c := range sent[1:] {
					prefetched = append(prefetched, c.blocks()...)
				}
				if len(prefetched) != 32 {
					t.Errorf("round %d: %d blocks went out in prefetch READs, want a chunk of 32", round, len(prefetched))
					return
				}
				if !slices.IsSorted(prefetched) {
					t.Errorf("round %d: the chunk left out of block order: %v", round, prefetched)
					return
				}
				// Forget the file's blocks so that the next round fetches again.
				b.p.cache.invalidateHandle(lk.FH)
				b.p.cache.mu.Lock()
				if fc := b.p.cache.files[lk.FH.Key()]; fc != nil {
					b.p.cache.dropCleanLocked(fc)
				}
				b.p.cache.mu.Unlock()
				if _, err := b.nc.Getattr(lk.FH); err != nil {
					t.Error(err)
					return
				}
			}
		})
}

// TestWindowSpillsAcrossFilesOnTheWire: a ring of four 64-block files read
// twice through a cache that holds two of them, over the 40 ms link. On the
// first pass every file starts with a round trip on an idle link: its block 0
// is asked for only once the kernel's READ of it has arrived. On the second
// the session knows what follows what: the head of each file leaves before the
// kernel asks for it, in block order behind the previous file's last chunk,
// and the link never idles across a boundary — while every block still
// crosses exactly once a pass.
func TestWindowSpillsAcrossFilesOnTheWire(t *testing.T) {
	const files, blocks, rtt = 4, 64, 40 * time.Millisecond
	name := func(k int) string { return fmt.Sprintf("ring%d", k) }
	// 100 Mbit/s: a block is 2.6 ms of link (blockWire), so a window of 32 keeps
	// the pipe full and any longer silence is the link idling.
	const blockWire = raBS * 8 * time.Second / 100_000_000
	runBedOver(t, simnet.Params{RTT: rtt, Bandwidth: 100_000_000 / 8}, Config{ReadAhead: 32, CacheBytes: 2 * blocks * raBS}, nil,
		func(fs *memfs.FS) {
			for k := 0; k < files; k++ {
				if _, err := fs.WriteFile(name(k), make([]byte, blocks*raBS)); err != nil {
					t.Fatal(err)
				}
			}
		},
		func(b *raBed) {
			fhs := make([]nfs3.FH, files)
			for k := range fhs {
				lk, err := b.nc.Lookup(b.root, name(k))
				if err != nil || lk.Status != nfs3.OK {
					t.Errorf("lookup: %v %v", err, lk.Status)
					return
				}
				fhs[k] = lk.FH
			}
			// opened[pass][k] is how many calls had gone upstream when the kernel
			// asked for block 0 of file k; ended[pass] closes the pass.
			var opened [3][files]int
			var ended [2]int
			readFile := func(pass, k, upTo int) bool {
				opened[pass][k] = len(b.up.sentCalls())
				for bn := uint64(0); bn < uint64(upTo); bn++ {
					if res, err := b.nc.Read(fhs[k], bn*raBS, raBS); err != nil || res.Status != nfs3.OK || res.Count != raBS {
						t.Errorf("pass %d, file %d, block %d: %v %v", pass, k, bn, err, res.Status)
						return false
					}
				}
				return true
			}
			for pass := 0; pass < 2; pass++ {
				for k := 0; k < files; k++ {
					if !readFile(pass, k, blocks) {
						return
					}
				}
				ended[pass] = len(b.up.sentCalls())
			}
			// The ring's wrap is an order like any other: the third pass's first
			// file was on its way before the second pass ended.
			if !readFile(2, 0, 1) {
				return
			}
			b.clk.Sleep(time.Second)
			calls := b.up.sentCalls()

			// at[pass][file][block] is the index in calls of the block's one READ
			// of that pass.
			var at [2][files][blocks]int
			start := 0
			for pass, end := range ended {
				seen := map[[2]int]bool{}
				for i := start; i < end; i++ {
					c := calls[i]
					if c.proc != nfs3.ProcRead {
						continue
					}
					k := slices.IndexFunc(fhs, func(fh nfs3.FH) bool { return fh.Key() == c.fh })
					if pass == 1 && k == 0 && i > opened[1][files-1] {
						continue // the spill over the ring's wrap: the third pass's
					}
					for _, bn := range c.blocks() {
						if k < 0 || bn >= blocks {
							t.Fatalf("pass %d: READ %d of an unknown file or block: %+v", pass, i, c)
						}
						if seen[[2]int{k, int(bn)}] {
							t.Errorf("pass %d: file %d block %d crossed twice", pass, k, bn)
						}
						seen[[2]int{k, int(bn)}] = true
						at[pass][k][bn] = i
					}
				}
				// The second pass's span holds the spill into the third's first
				// file as well: the blocks of file 0 sent after its own pass.
				if want := files * blocks; len(seen) != want {
					t.Errorf("pass %d: %d distinct blocks crossed, want %d", pass, len(seen), want)
				}
				start = end
			}
			for pass := 0; pass < 2; pass++ {
				for k := 1; k < files; k++ {
					head, prevLast := at[pass][k][0], at[pass][k-1][blocks-1]
					// A READ of n blocks comes back n blocks' wire time after the
					// one before it on a busy link: its first block would have come
					// back after one.
					gap := calls[head].replied - calls[prevLast].replied - time.Duration(len(calls[head].blocks())-1)*blockWire
					if pass == 0 {
						if head < opened[pass][k] || gap <= rtt/2 {
							t.Errorf("first pass, file %d: block 0 sent as call %d (the kernel asked at %d), %v after file %d's last reply; want a demand READ a round trip later",
								k, head, opened[pass][k], gap, k-1)
						}
						continue
					}
					if head >= opened[pass][k] {
						t.Errorf("second pass, file %d: block 0 went upstream as call %d, not before the kernel asked for it at %d", k, head, opened[pass][k])
					}
					if head < prevLast {
						t.Errorf("second pass, file %d: its head (call %d) left before file %d's last chunk (call %d)", k, head, k-1, prevLast)
					}
					// What left before the kernel arrived left in block order.
					var spilled []int
					for bn := 0; bn < blocks && at[pass][k][bn] < opened[pass][k]; bn++ {
						spilled = append(spilled, at[pass][k][bn])
					}
					if len(spilled) < 16 || !slices.IsSorted(spilled) {
						t.Errorf("second pass, file %d: %d blocks left before the kernel arrived, as calls %v; want half a window or more, in block order", k, len(spilled), spilled)
					}
					if gap > rtt/2 {
						t.Errorf("second pass, file %d: its first reply came %v after file %d's last: the link idled across the boundary", k, gap, k-1)
					}
				}
			}
			wrapped := false
			for i := ended[0]; i < opened[2][0]; i++ {
				wrapped = wrapped || i > at[1][files-1][0] && calls[i].proc == nfs3.ProcRead && calls[i].fh == fhs[0].Key() && calls[i].offset == 0
			}
			if !wrapped {
				t.Error("the ring's wrap did not spill: the first file's head was not on its way when the second pass ended")
			}
			if s, m, w := b.p.met.readaheadSpills.Value(), b.p.met.readaheadSuccMiss.Value(), b.p.met.readaheadWasted.Value(); s != files || m != 0 || w != 0 {
				t.Errorf("%d boundaries crossed on a spill, %d successor misses, %d blocks wasted; want %d, 0 and 0", s, m, w, files)
			}
		})
}
