package gvfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// pipelineRTT is the wide-area round trip the pipeline tests count in.
// Bandwidth is left unconstrained so latencies are pure round-trip counts,
// not transfer serialization.
const pipelineRTT = 40 * time.Millisecond

func newPipelineDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewDeployment(Config{WAN: simnet.Params{RTT: pipelineRTT}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestParallelFlushRoundTrips pins the tentpole's headline property in
// virtual time: writing back N dirty blocks with FlushParallelism = W costs
// ceil(N/W) wide-area round trips (plus the SETATTR that triggered it), not
// N.
func TestParallelFlushRoundTrips(t *testing.T) {
	const blocks = 16
	const bs = 32 * 1024
	for _, w := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			d := newPipelineDeployment(t)
			d.FS.WriteFile("big", make([]byte, blocks*bs))
			d.Run("flush", func() {
				sess, err := d.NewSession("s", core.Config{
					Model: core.ModelPolling, WriteBack: true,
					FlushParallelism: w, FlushInterval: time.Hour,
					// Pin one WRITE per block: this test measures flush
					// parallelism, not coalescing (see
					// TestCoalescedFlushRoundTrips for that).
					MaxWriteBytes: bs,
				})
				if err != nil {
					t.Error(err)
					return
				}
				m, err := sess.Mount("C1", kernelNoac())
				if err != nil {
					t.Error(err)
					return
				}
				f, err := m.Client.Open("big")
				if err != nil {
					t.Error(err)
					return
				}
				// Warm the proxy's attribute cache so writes are absorbed.
				if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
					t.Error(err)
					return
				}
				block := bytes.Repeat([]byte{0xAB}, bs)
				for bn := 0; bn < blocks; bn++ {
					if _, err := f.WriteAt(block, uint64(bn*bs)); err != nil {
						t.Error(err)
						return
					}
				}
				// Loopback push to the proxy; no wide-area traffic yet.
				if err := f.Sync(); err != nil {
					t.Error(err)
					return
				}
				if got := m.WANCounts()["WRITE"]; got != 0 {
					t.Errorf("dirty blocks crossed the WAN before the flush: %d WRITEs", got)
					return
				}
				// The truncation's SETATTR forces a synchronous flushFile.
				elapsed := d.Elapsed(func() {
					if terr := f.Truncate(blocks * bs); terr != nil {
						t.Error(terr)
					}
				})
				rounds := (blocks + w - 1) / w
				want := time.Duration(rounds+1) * pipelineRTT // flush rounds + SETATTR
				if elapsed < want || elapsed > want+pipelineRTT/2 {
					t.Errorf("W=%d: flush of %d blocks took %v, want ~%v (%d round trips)",
						w, blocks, elapsed, want, rounds+1)
				}
				if got := m.WANCounts()["WRITE"]; got != blocks {
					t.Errorf("WAN WRITEs = %d, want %d (one per dirty block)", got, blocks)
				}
			})
		})
	}
}

// TestReadAheadPipelinesColdSequentialRead pins the readahead half: a cold
// sequential read of a multi-block file with ReadAhead enabled completes in
// far fewer round trips than one per block, without double-issuing READs.
func TestReadAheadPipelinesColdSequentialRead(t *testing.T) {
	const blocks = 16
	const bs = 32 * 1024
	data := make([]byte, blocks*bs)
	for i := range data {
		data[i] = byte(i % 251)
	}

	coldRead := func(t *testing.T, ra int) (time.Duration, *Deployment, *Mount) {
		d := newPipelineDeployment(t)
		d.FS.WriteFile("data", data)
		var elapsed time.Duration
		var m *Mount
		d.Run("read", func() {
			sess, err := d.NewSession("s", core.Config{Model: core.ModelPolling, ReadAhead: ra})
			if err != nil {
				t.Error(err)
				return
			}
			if m, err = sess.Mount("C1", kernelNoac()); err != nil {
				t.Error(err)
				return
			}
			var got []byte
			elapsed = d.Elapsed(func() {
				got, err = m.Client.ReadFile("data")
			})
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Errorf("readahead corrupted the stream: got %d bytes", len(got))
			}
		})
		return elapsed, d, m
	}

	serial, _, _ := coldRead(t, -1)
	piped, d, m := coldRead(t, 8)
	if t.Failed() {
		return
	}
	// Serial pays ~1 RTT per block; the pipeline must cut that at least in
	// half (it does much better: the window keeps ~8 READs in flight).
	if piped*2 >= serial {
		t.Errorf("RA=8 cold read %v not meaningfully faster than serial %v", piped, serial)
	}
	if ras := clientCount(d, m, "gvfs_client_readaheads_total"); ras == 0 {
		t.Error("no blocks were prefetched")
	}
	if got := wanBlocks(d, m); got != blocks {
		t.Errorf("WAN READs asked for %d blocks, want %d (readahead must not double-issue)", got, blocks)
	}
}

// TestShortTailBlockReread is the regression test for the localReadRes
// offset bug: a short tail block cached via the EOF path, re-read at its
// aligned offset, must serve the right bytes (the old in-block offset was
// offset %% len(block) — garbage for short blocks). Covered for both models,
// with and without dirty data buffered on the file.
func TestShortTailBlockReread(t *testing.T) {
	const bs = 32 * 1024
	const tailLen = 10
	data := make([]byte, bs+tailLen)
	for i := range data {
		data[i] = byte(i % 249)
	}
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		for _, dirty := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/dirty=%v", model, dirty), func(t *testing.T) {
				d := newDeployment(t)
				d.FS.WriteFile("tail.bin", data)
				d.Run("reread", func() {
					cfg := core.Config{Model: model}
					if model == core.ModelPolling {
						cfg.WriteBack = true
					}
					sess, err := d.NewSession("s", cfg)
					if err != nil {
						t.Error(err)
						return
					}
					m, err := sess.Mount("C1", kernelNoac())
					if err != nil {
						t.Error(err)
						return
					}
					// Drive the proxy directly so the kernel client's own
					// data cache cannot hide the proxy's serving path.
					conn := m.Client.Conn()
					lk, err := conn.Lookup(m.Client.Root(), "tail.bin")
					if err != nil || lk.Status != nfs3.OK {
						t.Errorf("lookup: %v status %v", err, lk.Status)
						return
					}
					fh := lk.FH
					if _, err := conn.Read(fh, 0, bs); err != nil {
						t.Error(err)
						return
					}
					r1, err := conn.Read(fh, bs, bs)
					if err != nil || r1.Status != nfs3.OK {
						t.Errorf("cold tail read: %v status %v", err, r1.Status)
						return
					}
					if int(r1.Count) != tailLen || !bytes.Equal(r1.Data, data[bs:]) {
						t.Errorf("cold tail read returned %d bytes", r1.Count)
						return
					}
					if dirty {
						// Buffer dirty data on another block so the re-read
						// exercises the dirty-file serving predicate.
						w, werr := conn.Write(fh, 0, data[:bs], nfs3.FileSync)
						if werr != nil || w.Status != nfs3.OK {
							t.Errorf("write: %v status %v", werr, w.Status)
							return
						}
					}
					before := m.WANCounts()["READ"]
					r2, err := conn.Read(fh, bs, bs)
					if err != nil || r2.Status != nfs3.OK {
						t.Errorf("tail re-read: %v status %v", err, r2.Status)
						return
					}
					if int(r2.Count) != tailLen || !bytes.Equal(r2.Data, data[bs:]) || !r2.EOF {
						t.Errorf("tail re-read served wrong bytes: count=%d eof=%v", r2.Count, r2.EOF)
					}
					if model == core.ModelPolling {
						if after := m.WANCounts()["READ"]; after != before {
							t.Errorf("tail re-read crossed the WAN (%d -> %d READs)", before, after)
						}
					}
				})
			})
		}
	}
}

// TestChaosParallelFlush reruns the multi-client chaos harness with the
// parallel write-back pipeline enabled: the per-model visibility checker
// must hold when flush WRITEs race each other, which stresses the per-block
// dirty-generation fences under genuine concurrency.
func TestChaosParallelFlush(t *testing.T) {
	for _, seed := range []int64{3, 17, 71} {
		for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
			t.Run(fmt.Sprintf("%v/seed=%d", model, seed), func(t *testing.T) {
				rep, err := RunChaos(ChaosOptions{
					Model:            model,
					Seed:             seed,
					Steps:            60,
					Faults:           chaosFaults(),
					FlushParallelism: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Violations) != 0 {
					t.Fatalf("visibility violations with parallel flush: %v", rep.Violations)
				}
			})
		}
	}
}

// --- self-sizing readahead window --------------------------------------------

// fastWAN is the wall-clock ladder's wide-area link in virtual time: the
// paper's 40 ms round trip at 100 Mbit/s, a bandwidth-delay product of about
// 15 blocks. simnet.WAN, the paper's 4 Mbit/s, holds less than one.
var fastWAN = simnet.Params{RTT: pipelineRTT, Bandwidth: 100_000_000 / 8}

const streamBS = 32 * 1024

// streamData is a file whose every block names its file and block number, so
// a read served from the wrong block or a stale version cannot pass.
func streamData(id, blocks int) []byte {
	data := make([]byte, blocks*streamBS)
	for bn := 0; bn < blocks; bn++ {
		blk := data[bn*streamBS : (bn+1)*streamBS]
		for i := range blk {
			blk[i] = byte(id*31 + bn*7 + i%13)
		}
	}
	return data
}

// streamReader drives one mount's proxy client with raw block-aligned READs,
// the way a kernel client does once its own page cache has missed.
type streamReader struct {
	t    *testing.T
	d    *Deployment
	m    *Mount
	conn *nfscall.Conn
}

// runStream populates files (name -> content) on a deployment whose
// wide-area link is wan, mounts one session client and runs fn on it.
func runStream(t *testing.T, wan simnet.Params, cfg core.Config, files map[string][]byte, fn func(r *streamReader, sess *Session)) *Deployment {
	t.Helper()
	d, err := NewDeployment(Config{WAN: wan})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	for name, data := range files {
		if _, err := d.FS.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
	}
	d.Run("stream", func() {
		sess, err := d.NewSession("s", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		fn(&streamReader{t: t, d: d, m: m, conn: m.Client.Conn()}, sess)
	})
	return d
}

func (r *streamReader) lookup(name string) nfs3.FH {
	lk, err := r.conn.Lookup(r.m.Client.Root(), name)
	if err != nil || lk.Status != nfs3.OK {
		r.t.Errorf("lookup %s: %v status %v", name, err, lk.Status)
	}
	return lk.FH
}

// read issues one block READ and checks it against the file's content.
func (r *streamReader) read(fh nfs3.FH, bn int, content []byte) {
	res, err := r.conn.Read(fh, uint64(bn)*streamBS, streamBS)
	if err != nil || res.Status != nfs3.OK {
		r.t.Errorf("read block %d: %v status %v", bn, err, res.Status)
		return
	}
	if !bytes.Equal(res.Data, content[bn*streamBS:(bn+1)*streamBS]) {
		r.t.Errorf("block %d served wrong bytes (%d of them)", bn, res.Count)
	}
}

func (r *streamReader) wanReads() int64 { return r.m.WANCounts()["READ"] }

// wanBlocks is how many blocks m's READs have asked the wide area for, each
// READ by its offset and count: a prefetched run counts as the blocks it
// carries.
func wanBlocks(d *Deployment, m *Mount) int64 {
	return clientCount(d, m, "gvfs_client_read_blocks_total")
}

func (r *streamReader) wanBlocks() int64 { return wanBlocks(r.d, r.m) }

// settle lets every prefetch in flight land.
func (r *streamReader) settle() { r.d.Clock.Sleep(2 * time.Second) }

// series sums a metric family over the deployment's registry.
func series(d *Deployment, fam string) int64 { return d.Obs.Registry().Snapshot().Sum(fam) }

// clientCount reads m's proxy-client series of family fam, narrowed by any
// further label pairs kv, from the deployment's registry.
func clientCount(d *Deployment, m *Mount, fam string, kv ...string) int64 {
	return d.Obs.Registry().Snapshot().Sum(fam, append([]string{"node", m.node}, kv...)...)
}

// callbacksSent reads the session's proxy-server recall count from the
// deployment's registry.
func callbacksSent(d *Deployment, s *Session) int64 {
	return d.Obs.Registry().Snapshot().Sum("gvfs_server_callbacks_sent_total", "node", s.Name)
}

func readaheadWindow(d *Deployment) int64 { return series(d, "gvfs_client_readahead_window") }

// readaheadSpans returns the deployment's READAHEAD spans, oldest first.
func readaheadSpans(d *Deployment) []obs.Span {
	var out []obs.Span
	for _, s := range d.Obs.Spans() {
		if s.Op == "READAHEAD" {
			out = append(out, s)
		}
	}
	return out
}

// peakOverlap is the most spans open at any one instant.
func peakOverlap(spans []obs.Span) int {
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, s := range spans {
		edges = append(edges, edge{s.Start, 1}, edge{s.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	peak, open := 0, 0
	for _, e := range edges {
		if open += e.delta; open > peak {
			peak = open
		}
	}
	return peak
}

// TestReadAheadWindowFillsTheLink is the tentpole's headline in virtual
// time: starting from a window of 4 — a quarter of the link's
// bandwidth-delay product — one cold sequential stream learns a window deep
// enough that the read is bound by the link's bandwidth, not its latency,
// and every block still crosses the wide area exactly once.
func TestReadAheadWindowFillsTheLink(t *testing.T) {
	const blocks = 64
	data := streamData(1, blocks)
	var elapsed time.Duration
	var fetched int64
	d := runStream(t, fastWAN, core.Config{ReadAhead: 4}, map[string][]byte{"data": data},
		func(r *streamReader, _ *Session) {
			fh := r.lookup("data")
			elapsed = r.d.Elapsed(func() {
				for bn := 0; bn < blocks; bn++ {
					r.read(fh, bn, data)
				}
			})
			fetched = r.wanBlocks()
		})
	wire := wireTime(len(data))
	budget := (pipelineRTT+wire)*3/2 + 2*pipelineRTT // link time, plus the window's ramp
	t.Logf("cold %d-block stream: %v (budget %v, %v on the wire), learned window %d", blocks, elapsed, budget, wire, readaheadWindow(d))
	if elapsed > budget {
		t.Errorf("cold %d-block stream took %v, want <= %v (1.5 x (RTT + wire time) + 2 RTT)", blocks, elapsed, budget)
	}
	if fetched != blocks {
		t.Errorf("WAN READs asked for %d blocks, want exactly %d", fetched, blocks)
	}
	if w := readaheadWindow(d); w < 16 {
		t.Errorf("learned window = %d blocks, want >= the link's ~15-block BDP", w)
	}
	if wasted := series(d, "gvfs_client_readahead_wasted_total"); wasted != 0 {
		t.Errorf("%d prefetched blocks wasted on a clean sequential read", wasted)
	}
	// Every prefetch says which window issued it and how many blocks it asked
	// for, and the last ones were issued by the learned one.
	spans := readaheadSpans(d)
	if len(spans) == 0 {
		t.Fatal("no READAHEAD spans")
	}
	for _, s := range spans {
		if s.Window == 0 || s.Blocks == 0 {
			t.Fatalf("READAHEAD span without a window and a block count: %+v", s)
		}
	}
	if last := spans[len(spans)-1]; int64(last.Window) != readaheadWindow(d) {
		t.Errorf("last READAHEAD span's window = %d, want %d", last.Window, readaheadWindow(d))
	}
}

// TestReadRunsOverALossyLink: a cold 64-block stream over the 100 Mbit/s
// link, whose window grows until its prefetches cross as runs of eight blocks a
// READ, while the link drops, duplicates and reorders messages, in both models.
// A run's READ is retransmitted under its XID and its reply may come back
// twice or behind a later one's: every byte read is the file's, the oracle
// sees no stale serve, and no prefetched block lands twice or is thrown away.
func TestReadRunsOverALossyLink(t *testing.T) {
	const blocks = 64
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		for _, seed := range []int64{1, 3, 5} {
			t.Run(fmt.Sprintf("%v/seed=%d", model, seed), func(t *testing.T) {
				data := streamData(30, blocks)
				d := runStream(t, fastWAN, core.Config{Model: model, ReadAhead: 4}, map[string][]byte{"data": data},
					func(r *streamReader, _ *Session) {
						fh := r.lookup("data")
						lossy := simnet.Faults{Seed: seed, DropProb: 0.1, DupProb: 0.1, ReorderProb: 0.2}
						r.d.Net.SetFaults(r.m.Host(), serverHost, lossy)
						for bn := 0; bn < blocks; bn++ {
							r.read(fh, bn, data)
						}
						r.d.Net.SetFaults(r.m.Host(), serverHost, simnet.Faults{})
						r.settle()
						if got := clientCount(r.d, r.m, "gvfs_client_readaheads_total"); got == 0 || got > blocks-1 {
							t.Errorf("%d prefetched blocks landed for the %d behind block 0: none, or one landed twice", got, blocks-1)
						}
						if got := series(r.d, "gvfs_client_readahead_wasted_total"); got != 0 {
							t.Errorf("%d prefetched blocks thrown away on a clean sequential read", got)
						}
						if reads, fetched := r.wanReads(), r.wanBlocks(); reads >= fetched {
							t.Errorf("%d READs for %d blocks: no run of blocks crossed, the test proves nothing", reads, fetched)
						}
						up, down := r.d.Net.LinkStats(r.m.Host(), serverHost), r.d.Net.LinkStats(serverHost, r.m.Host())
						t.Logf("%d READs for %d blocks; calls: %d dropped, %d duplicated, %d reordered; replies: %d, %d, %d; %d retransmissions",
							r.wanReads(), r.wanBlocks(), up.FaultDrops, up.FaultDups, up.FaultReorders,
							down.FaultDrops, down.FaultDups, down.FaultReorders, series(r.d, "gvfs_rpc_retransmits_total"))
						if down.FaultDrops == 0 || down.FaultDups+down.FaultReorders == 0 {
							t.Error("no reply was lost, or none duplicated or reordered: the test proves nothing")
						}
					})
				if v := d.PublishMetrics().SumCounters("gvfs_staleness_violations_total"); v != 0 {
					t.Errorf("%d staleness violations", v)
				}
			})
		}
	}
}

// TestReadAheadWindowHoldsOnThinLink is the other side of the learning rule:
// on the paper's 4 Mbit/s link a block's transfer time exceeds the round
// trip, every stalled prefetch is overdue rather than late, and the window
// never leaves its initial size — fig4 and fig8 do not over-fetch.
func TestReadAheadWindowHoldsOnThinLink(t *testing.T) {
	const blocks, initial = 64, 4
	data := streamData(2, blocks)
	var reads int64
	d := runStream(t, simnet.WAN, core.Config{ReadAhead: initial}, map[string][]byte{"data": data},
		func(r *streamReader, _ *Session) {
			fh := r.lookup("data")
			for bn := 0; bn < blocks; bn++ {
				r.read(fh, bn, data)
			}
			reads = r.wanReads()
		})
	if w := readaheadWindow(d); w != initial {
		t.Errorf("window = %d on a link with BDP < 1 block, want the initial %d", w, initial)
	}
	if peak := peakOverlap(readaheadSpans(d)); peak > initial {
		t.Errorf("peak in-flight prefetches = %d, want <= %d", peak, initial)
	}
	if reads != blocks {
		t.Errorf("WAN READs = %d, want exactly %d", reads, blocks)
	}
}

// TestReadAheadIgnoresRandomAndBoundsAbandonedStreams: reads that are not
// sequential prefetch nothing, and a reader that walks away mid-file leaves
// at most one window of blocks fetched for nothing.
func TestReadAheadIgnoresRandomAndBoundsAbandonedStreams(t *testing.T) {
	const blocks = 64
	rnd, seq := streamData(3, blocks), streamData(4, blocks)
	runStream(t, fastWAN, core.Config{ReadAhead: 4}, map[string][]byte{"rnd": rnd, "seq": seq},
		func(r *streamReader, _ *Session) {
			// Uniformly random blocks, except that block 0 and the successor
			// of the previous read are redrawn: those two *are* sequential
			// reads as far as any detector can tell.
			fh := r.lookup("rnd")
			rng := rand.New(rand.NewSource(42))
			prev := -2
			const n = 40
			for i := 0; i < n; i++ {
				bn := rng.Intn(blocks)
				for bn == 0 || bn == prev+1 {
					bn = rng.Intn(blocks)
				}
				r.read(fh, bn, rnd)
				prev = bn
			}
			r.settle()
			if got := clientCount(r.d, r.m, "gvfs_client_readaheads_total"); got != 0 {
				t.Errorf("random reads prefetched %d blocks", got)
			}
			if got := r.wanReads(); got > n {
				t.Errorf("%d random reads cost %d WAN READs", n, got)
			}

			// A stream abandoned after ten blocks.
			before := r.wanBlocks()
			fh = r.lookup("seq")
			const consumed = 10
			for bn := 0; bn < consumed; bn++ {
				r.read(fh, bn, seq)
			}
			r.settle()
			over := r.wanBlocks() - before - consumed
			if w := readaheadWindow(r.d); over > w {
				t.Errorf("abandoned stream over-fetched %d blocks, more than one window (%d)", over, w)
			}
		})
}

// TestReadAheadWindowCappedByCache: the window never exceeds a quarter of
// the cache, so the blocks prefetch brings in are never evicted before the
// reader gets to them.
func TestReadAheadWindowCappedByCache(t *testing.T) {
	const blocks = 64
	data := streamData(5, blocks)
	var fetched int64
	d := runStream(t, fastWAN, core.Config{ReadAhead: 4, CacheBytes: 16 * streamBS}, map[string][]byte{"data": data},
		func(r *streamReader, _ *Session) {
			fh := r.lookup("data")
			for bn := 0; bn < blocks; bn++ {
				r.read(fh, bn, data)
			}
			fetched = r.wanBlocks()
		})
	if w := readaheadWindow(d); w != 4 {
		t.Errorf("window = %d with a 16-block cache, want the cap of 4", w)
	}
	if wasted := series(d, "gvfs_client_readahead_wasted_total"); wasted != 0 {
		t.Errorf("%d prefetched blocks evicted before their demand read", wasted)
	}
	if fetched != blocks {
		t.Errorf("WAN READs asked for %d blocks, want exactly %d (an evicted prefetch is fetched twice)", fetched, blocks)
	}
}

// TestReadAheadStreamsInterleavedFiles: streams are per file, so two files
// read turn and turn about both pipeline.
func TestReadAheadStreamsInterleavedFiles(t *testing.T) {
	const blocks = 32
	a, b := streamData(6, blocks), streamData(7, blocks)
	var elapsed time.Duration
	var fetched int64
	runStream(t, fastWAN, core.Config{ReadAhead: 4}, map[string][]byte{"a": a, "b": b},
		func(r *streamReader, _ *Session) {
			fa, fb := r.lookup("a"), r.lookup("b")
			elapsed = r.d.Elapsed(func() {
				for bn := 0; bn < blocks; bn++ {
					r.read(fa, bn, a)
					r.read(fb, bn, b)
				}
			})
			fetched = r.wanBlocks()
			if ras := clientCount(r.d, r.m, "gvfs_client_readaheads_total"); ras < 2*(blocks-2) {
				t.Errorf("only %d of %d blocks were prefetched", ras, 2*blocks)
			}
		})
	if serial := 2 * blocks * pipelineRTT; elapsed > serial/4 {
		t.Errorf("interleaved streams took %v, want well under the serial %v", elapsed, serial)
	}
	if fetched != 2*blocks {
		t.Errorf("WAN READs asked for %d blocks, want exactly %d", fetched, 2*blocks)
	}
}

// TestReadAheadWindowIsPerSession: what one file's stream learned about the
// link, the next file starts with; and a file shorter than the window costs
// exactly its own blocks.
func TestReadAheadWindowIsPerSession(t *testing.T) {
	const blocks, short = 64, 5
	first, second, small := streamData(8, blocks), streamData(9, blocks), streamData(10, short)
	runStream(t, fastWAN, core.Config{ReadAhead: 4},
		map[string][]byte{"first": first, "second": second, "small": small},
		func(r *streamReader, _ *Session) {
			fh := r.lookup("first")
			for bn := 0; bn < blocks; bn++ {
				r.read(fh, bn, first)
			}
			learned := readaheadWindow(r.d)
			if learned <= 4 {
				t.Errorf("window did not grow on the first file: %d", learned)
				return
			}

			// One READ of a new file: the demand block plus a full learned
			// window behind it, at once.
			before := r.wanBlocks()
			r.read(r.lookup("second"), 0, second)
			r.settle()
			if got := r.wanBlocks() - before; got != 1+learned {
				t.Errorf("first read of a new file asked the WAN for %d blocks, want 1 + the learned window %d", got, learned)
			}

			// A file shorter than the window is fetched once, whole.
			before = r.wanBlocks()
			fh = r.lookup("small")
			r.read(fh, 0, small)
			r.settle()
			if got := r.wanBlocks() - before; got != short {
				t.Errorf("first read of a %d-block file asked the WAN for %d blocks", short, got)
			}
			for bn := 1; bn < short; bn++ {
				r.read(fh, bn, small)
			}
			if got := r.wanBlocks() - before; got != short {
				t.Errorf("%d-block file cost %d blocks of WAN READs in all", short, got)
			}
		})
}

// TestReadAheadInvalidatedMidStream: another client truncates and rewrites
// the file while a deep pipeline is streaming it, under both models. The
// reader must come back with the new bytes, the oracle must see no stale
// serve, the blocks prefetched from the old version are dropped unread, and
// once the reader knows the new size no prefetch is issued past it.
func TestReadAheadInvalidatedMidStream(t *testing.T) {
	const blocks, consumed, newBlocks = 64, 20, 24
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			old := streamData(11, blocks)
			cfg := core.Config{Model: model, ReadAhead: 4, PollPeriod: time.Second}
			var known time.Duration
			d := runStream(t, fastWAN, cfg, map[string][]byte{"data": old},
				func(r *streamReader, sess *Session) {
					fh := r.lookup("data")
					for bn := 0; bn < consumed; bn++ {
						r.read(fh, bn, old)
					}
					r.settle()
					prefetched := clientCount(r.d, r.m, "gvfs_client_readaheads_total")

					// The other client cuts the file short and rewrites what
					// is now its last block.
					m2, err := sess.Mount("C2", kernelNoac())
					if err != nil {
						t.Error(err)
						return
					}
					f, err := m2.Client.Open("data")
					if err != nil {
						t.Error(err)
						return
					}
					fresh := append([]byte(nil), old[:newBlocks*streamBS]...)
					last := fresh[(newBlocks-1)*streamBS:]
					for i := range last {
						last[i] = 0xEE
					}
					if err := f.Truncate(newBlocks * streamBS); err != nil {
						t.Error(err)
					}
					if _, err := f.WriteAt(last, (newBlocks-1)*streamBS); err != nil {
						t.Error(err)
					}
					if err := f.Close(); err != nil {
						t.Error(err)
					}
					r.d.Clock.Sleep(3 * time.Second) // a poll period and more
					known = r.d.Clock.Now()

					// The reader revalidates, as a kernel client would, and
					// streams on to the new end of file.
					ga, err := r.conn.Getattr(fh)
					if err != nil || ga.Status != nfs3.OK || ga.Attr.Size != newBlocks*streamBS {
						t.Errorf("getattr after truncation: %v status %v size %d", err, ga.Status, ga.Attr.Size)
						return
					}
					for bn := consumed; bn < newBlocks; bn++ {
						r.read(fh, bn, fresh)
					}
					r.settle()
					if clientCount(r.d, r.m, "gvfs_client_readaheads_total") == prefetched {
						t.Error("the stream did not restart after the invalidation")
					}
				})
			if v := d.PublishMetrics().SumCounters("gvfs_staleness_violations_total"); v != 0 {
				t.Errorf("%d staleness violations", v)
			}
			if wasted := series(d, "gvfs_client_readahead_wasted_total"); wasted == 0 {
				t.Error("blocks prefetched from the old version were not dropped unread")
			}
			for _, s := range readaheadSpans(d) {
				if s.Start >= known && s.Bytes == 0 {
					t.Errorf("prefetch past the new end of file: %+v", s)
				}
			}
		})
	}
}

// --- readahead on by default, COMMITs answered at home ------------------------

// wanDelta is what a mount's proxy client sent upstream since before, by
// procedure; GETINV polls are background traffic and left out.
func wanDelta(m *Mount, before map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for op, n := range m.WANCounts() {
		if d := n - before[op]; d != 0 && op != "GETINV" {
			out[op] = d
		}
	}
	return out
}

// wireTime is how long bytes occupy fastWAN in one direction.
func wireTime(bytes int) time.Duration {
	return time.Duration(float64(bytes) / float64(fastWAN.Bandwidth) * float64(time.Second))
}

// TestSmallFileTransactionRoundTrips pins what the default configuration
// makes of a PostMark-shaped transaction — look a file up, stat it, read its
// two blocks, create another, write two blocks, commit — over a 40 ms link
// with write-back: the name is answered at home from the root's listing the
// MOUNT carried, the second block rides a prefetch issued beside the first,
// the CREATE is answered at home and crosses behind its reply, the flush
// crosses beside it as a MINT-WRITE naming the create, the COMMIT is answered
// at home once that has landed, and two round trips are left where there
// were six.
func TestSmallFileTransactionRoundTrips(t *testing.T) {
	src := streamData(20, 2)
	dst := streamData(21, 2)
	var elapsed time.Duration
	var sent map[string]int64
	d := runStream(t, fastWAN, core.Config{WriteBack: true}, map[string][]byte{"src": src},
		func(r *streamReader, _ *Session) {
			before := r.m.WANCounts()
			elapsed = r.d.Elapsed(func() {
				fh := r.lookup("src")
				if ga, err := r.conn.Getattr(fh); err != nil || ga.Status != nfs3.OK || ga.Attr.Size != 2*streamBS {
					t.Errorf("getattr: %v status %v size %d", err, ga.Status, ga.Attr.Size)
				}
				r.read(fh, 0, src)
				r.read(fh, 1, src)
				cr, err := r.conn.Create(r.m.Client.Root(), "dst", 0o644, nfs3.CreateGuarded)
				if err != nil || cr.Status != nfs3.OK || !cr.FHFollows {
					t.Errorf("create: %v status %v", err, cr.Status)
					return
				}
				for bn := 0; bn < 2; bn++ {
					wr, err := r.conn.Write(cr.FH, uint64(bn)*streamBS, dst[bn*streamBS:(bn+1)*streamBS], nfs3.Unstable)
					if err != nil || wr.Status != nfs3.OK || wr.Count != streamBS {
						t.Errorf("write block %d: %v status %v", bn, err, wr.Status)
					}
				}
				if cm, err := r.conn.Commit(cr.FH, 0, 0); err != nil || cm.Status != nfs3.OK {
					t.Errorf("commit: %v status %v", err, cm.Status)
				}
			})
			sent = wanDelta(r.m, before)
		})
	want := map[string]int64{"READ": 2, "CREATE": 1, "MINT-WRITE": 1}
	if fmt.Sprint(sent) != fmt.Sprint(want) {
		t.Errorf("the transaction sent %v upstream, want exactly %v", sent, want)
	}
	budget := 2*pipelineRTT + 2*wireTime(len(src)+len(dst))
	t.Logf("transaction: %v (budget %v), upstream %v", elapsed, budget, sent)
	if elapsed > budget {
		t.Errorf("transaction took %v, want <= %v (2 round trips + serialisation)", elapsed, budget)
	}
	if joins := series(d, "gvfs_client_readahead_joins_total"); joins != 1 {
		t.Errorf("%d demand reads joined a prefetch, want 1 (block 1)", joins)
	}
	if local := series(d, "gvfs_client_commit_local_total"); local != 1 {
		t.Errorf("commit_local counter = %d, want 1", local)
	}
	var notes []obs.Note
	for _, s := range d.Obs.Spans() {
		if s.Op == "COMMIT" && strings.HasPrefix(s.Node, "proxyc:") {
			notes = append(notes, s.Note)
		}
	}
	if fmt.Sprint(notes) != "[local]" {
		t.Errorf("proxy client COMMIT span notes = %v, want [local]", notes)
	}
	if attr, err := d.FS.LookupPath("dst"); err != nil || attr.Size != uint64(len(dst)) {
		t.Errorf("committed file on the server: %v size %d", err, attr.Size)
	}
}

// TestSmallFileTransactionsInOneDirectory is the same transaction over and
// over in one directory, by name, with nobody ever listing it — PostMark's
// shape. The directory is larger than one READDIRPLUS page, so no listing
// of it rides the MOUNT, whose root listing resolves it at home (core's
// TestMountCarriesTopOfExport), nor the LOOKUP that would resolve it.
// The first LOOKUP miss there starts nothing (the test above); the second
// buys the directory's listing one page behind itself, the next LOOKUP the
// page after it, and from then on the names are answered at home, and so is
// the CREATE, proven absent by the finished walk: by the fourth transaction
// two round trips are left where there were four.
func TestSmallFileTransactionsInOneDirectory(t *testing.T) {
	const txns, pad = 8, 250 // pad files sort after the rest and push the listing onto a second page
	files := map[string][]byte{}
	for n := 0; n < txns; n++ {
		files[fmt.Sprintf("pm/src%d", n)] = streamData(30+n, 2)
	}
	for i := 0; i < pad; i++ {
		files[fmt.Sprintf("pm/z%03d", i)] = nil
	}
	dst := streamData(40, 2)
	d := runStream(t, fastWAN, core.Config{WriteBack: true}, files,
		func(r *streamReader, _ *Session) {
			dir := r.lookup("pm")
			for n := 0; n < txns; n++ {
				src := files[fmt.Sprintf("pm/src%d", n)]
				before := r.m.WANCounts()
				elapsed := r.d.Elapsed(func() {
					lk, err := r.conn.Lookup(dir, fmt.Sprintf("src%d", n))
					if err != nil || lk.Status != nfs3.OK {
						t.Errorf("lookup src%d: %v status %v", n, err, lk.Status)
						return
					}
					if ga, err := r.conn.Getattr(lk.FH); err != nil || ga.Status != nfs3.OK || ga.Attr.Size != 2*streamBS {
						t.Errorf("getattr src%d: %v status %v size %d", n, err, ga.Status, ga.Attr.Size)
					}
					r.read(lk.FH, 0, src)
					r.read(lk.FH, 1, src)
					cr, err := r.conn.Create(dir, fmt.Sprintf("dst%d", n), 0o644, nfs3.CreateGuarded)
					if err != nil || cr.Status != nfs3.OK || !cr.FHFollows {
						t.Errorf("create dst%d: %v status %v", n, err, cr.Status)
						return
					}
					for bn := 0; bn < 2; bn++ {
						wr, err := r.conn.Write(cr.FH, uint64(bn)*streamBS, dst[bn*streamBS:(bn+1)*streamBS], nfs3.Unstable)
						if err != nil || wr.Status != nfs3.OK || wr.Count != streamBS {
							t.Errorf("write dst%d block %d: %v status %v", n, bn, err, wr.Status)
						}
					}
					if cm, err := r.conn.Commit(cr.FH, 0, 0); err != nil || cm.Status != nfs3.OK {
						t.Errorf("commit dst%d: %v status %v", n, err, cm.Status)
					}
				})
				sent := wanDelta(r.m, before)
				t.Logf("transaction %d: %v, upstream %v", n, elapsed, sent)
				if n < 3 {
					continue
				}
				if want := map[string]int64{"READ": 2, "CREATE": 1, "MINT-WRITE": 1}; fmt.Sprint(sent) != fmt.Sprint(want) {
					t.Errorf("transaction %d sent %v upstream, want exactly %v", n, sent, want)
				}
				if budget := 2*pipelineRTT + 2*wireTime(len(src)+len(dst)); elapsed > budget {
					t.Errorf("transaction %d took %v, want <= %v (2 round trips + serialisation)", n, elapsed, budget)
				}
			}
		})
	if pages := series(d, "gvfs_client_dirwalk_pages_total"); pages != 2 {
		t.Errorf("%d pages walked a directory that fits two, want 2", pages)
	}
	// pm itself is served from the root's listing, the rest from the walk.
	if used, brought := series(d, "gvfs_client_dirwalk_entries_used_total"), series(d, "gvfs_client_dirwalk_entries_total"); used != 1+txns-2 || brought < 1+txns {
		t.Errorf("%d of %d walked entries served, want %d of at least %d", used, brought, 1+txns-2, 1+txns)
	}
	var pages []obs.Span
	for _, s := range d.Obs.Spans() {
		if s.Op == "prefetch READDIRPLUS" {
			pages = append(pages, s)
		}
	}
	if len(pages) != 2 || slices.ContainsFunc(pages, func(s obs.Span) bool { return s.Parent == 0 || s.Req == s.Parent }) {
		t.Errorf("prefetch READDIRPLUS spans = %+v, want two, each under a request ID of its own, parented on its LOOKUP", pages)
	}
	for n := 0; n < txns; n++ {
		if attr, err := d.FS.LookupPath(fmt.Sprintf("pm/dst%d", n)); err != nil || attr.Size != uint64(len(dst)) {
			t.Errorf("committed file dst%d on the server: %v size %d", n, err, attr.Size)
		}
	}
}

// TestFirstReadFetchesTheWholeSmallFile: with nothing configured, the first
// READ of a file fetches the blocks its cached attributes say are behind it
// beside the demand block — each block once, a one-block file alone.
func TestFirstReadFetchesTheWholeSmallFile(t *testing.T) {
	files := map[string][]byte{"one": streamData(22, 1), "two": streamData(23, 2), "five": streamData(24, 5)}
	runStream(t, fastWAN, core.Config{}, files, func(r *streamReader, _ *Session) {
		for _, name := range []string{"one", "two", "five"} {
			data := files[name]
			blocks := len(data) / streamBS
			fh := r.lookup(name)
			fetched, prefetched := r.wanBlocks(), clientCount(r.d, r.m, "gvfs_client_readaheads_total")
			elapsed := r.d.Elapsed(func() {
				for bn := 0; bn < blocks; bn++ {
					r.read(fh, bn, data)
				}
			})
			r.settle()
			if got := r.wanBlocks() - fetched; got != int64(blocks) {
				t.Errorf("%s: WAN READs asked for %d blocks of %d", name, got, blocks)
			}
			if got := clientCount(r.d, r.m, "gvfs_client_readaheads_total") - prefetched; got != int64(blocks-1) {
				t.Errorf("%s: %d blocks prefetched, want %d", name, got, blocks-1)
			}
			if limit := pipelineRTT + 2*wireTime(len(data)); elapsed > limit {
				t.Errorf("%s: read in %v, want <= %v (its READs overlapped in one round trip)", name, elapsed, limit)
			}
		}
	})
}

// TestHandoffRereadPipelines: a consumer that re-reads a file another client
// has just rewritten — GETATTR, then every block — pays one round trip for it
// under both models, with no stale serve: the GETATTR that revalidates the
// file carries its head behind it, in runs of blocks, and the kernel's READs
// join those. Under delegation the producer's handle, non-cacheable while the
// consumer shares the file, prefetches nothing.
func TestHandoffRereadPipelines(t *testing.T) {
	const blocks = 8
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			fresh := streamData(26, blocks)
			d := runHandoff(t, model, blocks, func(producer *streamReader, pfh nfs3.FH) {
				producer.writeBlocks(pfh, fresh, 0, blocks)
				if model == core.ModelDelegation {
					// The producer writes through while the consumer has the
					// file open: its handle is non-cacheable, and a READ of it
					// fetches that block and no other.
					before := producer.wanReads()
					producer.read(pfh, 0, fresh)
					producer.settle()
					if got := producer.wanReads() - before; got != 1 {
						t.Errorf("READ of a non-cacheable handle cost %d WAN READs, want 1", got)
					}
					if got := clientCount(producer.d, producer.m, "gvfs_client_readaheads_total"); got != 0 {
						t.Errorf("non-cacheable handle prefetched %d blocks", got)
					}
				}
			}, func(r *streamReader, fh nfs3.FH) {
				before := r.wanBlocks()
				elapsed := r.d.Elapsed(func() {
					if ga, err := r.conn.Getattr(fh); err != nil || ga.Status != nfs3.OK {
						t.Errorf("getattr: %v status %v", err, ga.Status)
					}
					for bn := 0; bn < blocks; bn++ {
						r.read(fh, bn, fresh)
					}
				})
				if got := r.wanBlocks() - before; got != blocks {
					t.Errorf("re-read asked the WAN for %d blocks, want %d", got, blocks)
				}
				budget := pipelineRTT + wireTime(len(fresh)) + 5*time.Millisecond
				t.Logf("handoff re-read: %v (budget %v)", elapsed, budget)
				if elapsed > budget {
					t.Errorf("re-read took %v, want <= %v (one round trip + the blocks' wire time + 5 ms)", elapsed, budget)
				}
			})
			if v := d.PublishMetrics().SumCounters("gvfs_staleness_violations_total"); v != 0 {
				t.Errorf("%d staleness violations", v)
			}
			// The re-read is the GETATTR's: a trace shows it leaving with the
			// revalidation.
			if n, b := series(d, "gvfs_client_readahead_reopens_total"), series(d, "gvfs_client_readahead_reopen_blocks_total"); n != 1 || b != blocks {
				t.Errorf("%d revalidating GETATTRs carried %d blocks, want 1 and %d", n, b, blocks)
			}
			getattrs := map[uint64]bool{}
			for _, s := range d.Obs.Spans() {
				if s.Op == "GETATTR" && strings.HasPrefix(s.Node, "proxyc:C1") {
					getattrs[s.Req] = true
				}
			}
			var reopen int64
			for _, s := range readaheadSpans(d) {
				if s.Note == obs.NoteReopen {
					reopen += int64(s.Blocks)
					if s.Window == 0 || !getattrs[s.Parent] {
						t.Errorf("re-read span %+v: want a window and the reopen note, parented on the consumer's GETATTR", s)
					}
				}
			}
			if reopen != blocks {
				t.Errorf("READAHEAD spans that say reopen asked for %d blocks, want %d", reopen, blocks)
			}
		})
	}
}

// runHandoff runs a hand-off under model over fastWAN: the consumer (C1) reads
// a file of `blocks` blocks through, the producer (C2) does between, a poll
// period passes, and the consumer does then.
func runHandoff(t *testing.T, model core.Model, blocks int, between func(p *streamReader, pfh nfs3.FH), then func(r *streamReader, fh nfs3.FH)) *Deployment {
	t.Helper()
	old := streamData(25, blocks)
	return runStream(t, fastWAN, core.Config{Model: model, PollPeriod: time.Second}, map[string][]byte{"data": old},
		func(r *streamReader, sess *Session) {
			fh := r.lookup("data")
			for bn := 0; bn < blocks; bn++ {
				r.read(fh, bn, old)
			}
			r.settle()
			m2, err := sess.Mount("C2", kernelNoac())
			if err != nil {
				t.Error(err)
				return
			}
			producer := &streamReader{t: t, d: r.d, m: m2, conn: m2.Client.Conn()}
			between(producer, producer.lookup("data"))
			r.d.Clock.Sleep(3 * time.Second) // a poll period and more
			then(r, fh)
		})
}

// writeBlocks writes content's blocks [lo, hi) through p, FILE_SYNC.
func (p *streamReader) writeBlocks(fh nfs3.FH, content []byte, lo, hi int) {
	for bn := lo; bn < hi; bn++ {
		if wr, err := p.conn.Write(fh, uint64(bn)*streamBS, content[bn*streamBS:(bn+1)*streamBS], nfs3.FileSync); err != nil || wr.Status != nfs3.OK {
			p.t.Errorf("write block %d: %v %v", bn, err, wr.Status)
		}
	}
}

// TestHandoffRereadTruncated: the producer rewrites the file and cuts it to
// three blocks before the consumer revalidates. The GETATTR's re-read was
// claimed against the eight blocks the consumer knew of: the five past the new
// end come back empty, are not cached and count as wasted, and the reader gets
// the three that are left, fresh, in one round trip.
func TestHandoffRereadTruncated(t *testing.T) {
	const blocks, kept = 8, 3
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			fresh := streamData(26, blocks)
			var wasted int64
			d := runHandoff(t, model, blocks, func(p *streamReader, pfh nfs3.FH) {
				p.writeBlocks(pfh, fresh, 0, blocks)
				size := uint64(kept * streamBS)
				if res, err := p.conn.Setattr(pfh, nfs3.Sattr{Size: &size}); err != nil || res.Status != nfs3.OK {
					t.Errorf("truncate: %v %v", err, res.Status)
				}
			}, func(r *streamReader, fh nfs3.FH) {
				wasted = series(r.d, "gvfs_client_readahead_wasted_total")
				elapsed := r.d.Elapsed(func() {
					if ga, err := r.conn.Getattr(fh); err != nil || ga.Status != nfs3.OK || ga.Attr.Size != kept*streamBS {
						t.Errorf("getattr: %v %v size %d", err, ga.Status, ga.Attr.Size)
					}
					for bn := 0; bn < kept; bn++ {
						r.read(fh, bn, fresh)
					}
				})
				if budget := pipelineRTT + wireTime(blocks*streamBS) + 5*time.Millisecond; elapsed > budget {
					t.Errorf("re-read of the cut file took %v, want <= %v", elapsed, budget)
				}
				r.settle()
				if res, err := r.conn.Read(fh, kept*streamBS, streamBS); err != nil || res.Status != nfs3.OK || res.Count != 0 || !res.EOF {
					t.Errorf("read past the new end: %v %v count %d eof %v", err, res.Status, res.Count, res.EOF)
				}
				r.m.Proxy.PublishMetrics()
				if bytes := clientCount(r.d, r.m, "gvfs_client_cache_bytes"); bytes != kept*streamBS {
					t.Errorf("%d bytes cached of a file of %d", bytes, kept*streamBS)
				}
			})
			if got := series(d, "gvfs_client_readahead_wasted_total") - wasted; got != blocks-kept {
				t.Errorf("%d claims counted wasted, want the %d past the new end", got, blocks-kept)
			}
			if got := series(d, "gvfs_client_readahead_reopen_blocks_total"); got != blocks {
				t.Errorf("%d blocks claimed behind the GETATTR, want %d", got, blocks)
			}
			if v := d.PublishMetrics().SumCounters("gvfs_staleness_violations_total"); v != 0 {
				t.Errorf("%d staleness violations", v)
			}
		})
	}
}

// TestHandoffRereadRemoved: the producer rewrites the file and removes it. The
// consumer's GETATTR finds the handle stale while its re-read is on the wire,
// and a READ the consumer sent beside it is parked on that re-read: the read
// is released at once (it forwards, and is told STALE too), and nothing of the
// dead file is left in the consumer's cache once the READs have landed.
func TestHandoffRereadRemoved(t *testing.T) {
	const blocks = 8
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			d := runHandoff(t, model, blocks, func(p *streamReader, pfh nfs3.FH) {
				p.writeBlocks(pfh, streamData(26, blocks), 0, blocks)
				if res, err := p.conn.Remove(p.m.Client.Root(), "data"); err != nil || res.Status != nfs3.OK {
					t.Errorf("remove: %v %v", err, res.Status)
				}
			}, func(r *streamReader, fh nfs3.FH) {
				g := r.d.NewGroup()
				elapsed := r.d.Elapsed(func() {
					g.Go("getattr", func() {
						if ga, err := r.conn.Getattr(fh); err != nil || ga.Status != nfs3.ErrStale {
							t.Errorf("getattr of the removed file: %v %v", err, ga.Status)
						}
					})
					g.Go("read", func() {
						r.d.Clock.Sleep(time.Millisecond)
						if res, err := r.conn.Read(fh, 0, streamBS); err != nil || res.Status != nfs3.ErrStale {
							t.Errorf("read of the removed file: %v %v", err, res.Status)
						}
					})
					g.Wait()
				})
				if budget := 2*pipelineRTT + wireTime(blocks*streamBS) + 5*time.Millisecond; elapsed > budget {
					t.Errorf("the parked read came back after %v, want <= %v: it sat on a forgotten file's re-read", elapsed, budget)
				}
				r.settle()
				r.m.Proxy.PublishMetrics()
				gauge := func(name string) int64 { return clientCount(r.d, r.m, name) }
				if files, bytes := gauge("gvfs_client_cache_files"), gauge("gvfs_client_cache_bytes"); files != 0 || bytes != 0 {
					t.Errorf("%d files (%d bytes) cached, %d attributes, after the only file went stale", files, bytes, gauge("gvfs_client_cache_attrs"))
				}
			})
			if got := series(d, "gvfs_client_readahead_reopens_total"); got != 1 {
				t.Errorf("%d revalidating GETATTRs carried a re-read, want 1: the test proves nothing", got)
			}
		})
	}
}

// TestHandoffRereadGetattrStorm: a noac kernel revalidates the rewritten file
// three times at once. Only the first GETATTR the cache cannot answer carries
// the re-read; every block still crosses once.
func TestHandoffRereadGetattrStorm(t *testing.T) {
	const blocks = 8
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			fresh := streamData(26, blocks)
			d := runHandoff(t, model, blocks, func(p *streamReader, pfh nfs3.FH) {
				p.writeBlocks(pfh, fresh, 0, blocks)
			}, func(r *streamReader, fh nfs3.FH) {
				before := r.wanBlocks()
				g := r.d.NewGroup()
				for i := 0; i < 3; i++ {
					g.Go("getattr", func() {
						if ga, err := r.conn.Getattr(fh); err != nil || ga.Status != nfs3.OK {
							t.Errorf("getattr: %v %v", err, ga.Status)
						}
					})
				}
				g.Wait()
				for bn := 0; bn < blocks; bn++ {
					r.read(fh, bn, fresh)
				}
				r.settle()
				if got := r.wanBlocks() - before; got != blocks {
					t.Errorf("re-read asked the WAN for %d blocks, want %d", got, blocks)
				}
			})
			if n := series(d, "gvfs_client_readahead_reopens_total"); n != 1 {
				t.Errorf("%d GETATTRs carried a re-read, want 1", n)
			}
			if v := d.PublishMetrics().SumCounters("gvfs_staleness_violations_total"); v != 0 {
				t.Errorf("%d staleness violations", v)
			}
		})
	}
}

// TestReadAheadSpillInvalidatedInFlight: the window of a session that has read
// x then y before spills from the tail of x into the head of y; another client
// rewrites that head while the spill's READs are on the wire, and the reader
// drains the invalidation before it gets to y. It must come back with the new
// bytes, the oracle must see no stale serve, and what the spill brought of the
// old version is dropped unread — counted wasted, like any abandoned prefetch.
func TestReadAheadSpillInvalidatedInFlight(t *testing.T) {
	const blocks, rewritten = 64, 4
	x, old := streamData(27, blocks), streamData(28, blocks)
	fresh := append([]byte(nil), old...)
	for i := range fresh[:rewritten*streamBS] {
		fresh[i] = 0xEE
	}
	// One file's worth of cache: by the time a pass reaches the end of x, the
	// head of y is long evicted.
	cfg := core.Config{Model: core.ModelPolling, ReadAhead: 4, CacheBytes: blocks * streamBS, PollPeriod: time.Second}
	d := runStream(t, fastWAN, cfg, map[string][]byte{"x": x, "y": old},
		func(r *streamReader, sess *Session) {
			fx, fy := r.lookup("x"), r.lookup("y")
			for bn := 0; bn < blocks; bn++ {
				r.read(fx, bn, x)
			}
			for bn := 0; bn < blocks; bn++ {
				r.read(fy, bn, old)
			}
			r.settle()
			if got := series(r.d, "gvfs_client_readahead_spill_blocks_total"); got != 0 {
				t.Errorf("the first pass spilled %d blocks: nothing was known yet", got)
			}
			m2, err := sess.Mount("C2", kernelNoac())
			if err != nil {
				t.Error(err)
				return
			}
			writer := &streamReader{t: t, d: r.d, m: m2, conn: m2.Client.Conn()}
			wfh := writer.lookup("y")

			// The second pass over x, up to the read that sends the window
			// across the boundary.
			bn := 0
			for ; bn < blocks && series(r.d, "gvfs_client_readahead_spill_blocks_total") == 0; bn++ {
				r.read(fx, bn, x)
			}
			spilled := series(r.d, "gvfs_client_readahead_spill_blocks_total")
			if spilled == 0 {
				t.Error("the second pass over x never spilled into y")
				return
			}
			landed := clientCount(r.d, r.m, "gvfs_client_readaheads_total")
			defer func() {
				// A trace shows which read paid for which file's head: the spill's
				// prefetches are marked, and hang off a demand READ of the file
				// before — x for y's head here, and y for x's once the last pass
				// over y nears its end (x was opened after y, too).
				byReq := map[uint64]obs.Span{}
				for _, s := range r.d.Obs.Spans() {
					if s.Op == "READ" && strings.HasPrefix(s.Node, "proxyc") {
						byReq[s.Req] = s
					}
				}
				var next, yUnderX int64
				for _, s := range readaheadSpans(r.d) {
					parent := byReq[s.Parent]
					if marked := s.Note == obs.NoteNext; marked != (parent.FH != s.FH) || s.Window == 0 {
						t.Errorf("READAHEAD %+v under %+v: want a window, and the next note exactly when it crossed a file boundary", s, parent)
					} else if marked {
						next += int64(s.Blocks)
						if s.FH == fy.String() && parent.FH == fx.String() {
							yUnderX += int64(s.Blocks)
						}
					}
				}
				if total := series(r.d, "gvfs_client_readahead_spill_blocks_total"); next != total || yUnderX != spilled {
					t.Errorf("READAHEAD spans marked next asked for %d blocks (%d of y under a READ of x), want the %d blocks spilled (%d before the rewrite)", next, yUnderX, total, spilled)
				}
			}()
			wr, err := writer.conn.Write(wfh, 0, fresh[:rewritten*streamBS], nfs3.FileSync)
			if err != nil || wr.Status != nfs3.OK {
				t.Errorf("rewrite of y's head: %v status %v", err, wr.Status)
			}
			r.settle() // the spill lands, a poll period passes, the GETINV is drained
			if got := clientCount(r.d, r.m, "gvfs_client_readaheads_total") - landed; got < spilled {
				t.Errorf("%d prefetches landed after the rewrite began, fewer than the %d the spill had on the wire", got, spilled)
			}
			wasted := series(r.d, "gvfs_client_readahead_wasted_total")
			for ; bn < blocks; bn++ {
				r.read(fx, bn, x)
			}
			for bn := 0; bn < blocks; bn++ {
				r.read(fy, bn, fresh)
			}
			r.settle()
			// All but block 0: the demand read that found it (and could not serve
			// it, the attributes being gone) is what the accounting calls its reader.
			if got := series(r.d, "gvfs_client_readahead_wasted_total") - wasted; got < spilled-1 {
				t.Errorf("%d blocks counted wasted once y was read, want the %d the spill brought of the old version but for block 0", got, spilled)
			}
		})
	if v := d.PublishMetrics().SumCounters("gvfs_staleness_violations_total"); v != 0 {
		t.Errorf("%d staleness violations", v)
	}
}
