package bench

import (
	"fmt"
	"io"
	"time"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsclient"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// The ablations quantify the design knobs the paper calls out as tradeoffs:
// the polling window and its exponential back-off (Section 4.2.1), the
// per-client invalidation buffer size (Section 4.2.3), and the delegation
// expiration period (Section 4.3.3).

// AblationRow is one parameter point of an ablation sweep.
type AblationRow struct {
	Param     string
	Staleness time.Duration
	RPCs      map[string]int64
	Extra     string
}

// AblationResult is a named sweep.
type AblationResult struct {
	Name    string
	Columns string
	Rows    []AblationRow
}

// RunPollPeriodAblation sweeps the invalidation polling window: shorter
// windows bound staleness tighter but poll more; exponential back-off gets
// close to the short window's staleness under churn at a fraction of the
// idle polls.
func RunPollPeriodAblation(opt Options) (AblationResult, error) {
	res := AblationResult{Name: "polling window (Section 4.2.1)", Columns: "staleness observed vs GETINV calls"}
	type variant struct {
		name    string
		period  time.Duration
		backoff time.Duration
	}
	for _, v := range []variant{
		{"5s fixed", 5 * time.Second, 0},
		{"30s fixed", 30 * time.Second, 0},
		{"120s fixed", 120 * time.Second, 0},
		{"5s..120s backoff", 5 * time.Second, 120 * time.Second},
	} {
		row, err := runPollVariant(opt, v.name, v.period, v.backoff)
		if err != nil {
			return res, fmt.Errorf("poll ablation %s: %w", v.name, err)
		}
		opt.logf("ablate poll %-18s staleness<=%-6v getinv=%d", v.name, row.Staleness, row.RPCs["GETINV"])
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runPollVariant measures how long a reader's view stays stale after a
// writer's update, and the GETINV cost over a mixed busy/idle timeline.
func runPollVariant(opt Options, name string, period, backoff time.Duration) (AblationRow, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{})
	if err != nil {
		return AblationRow{}, err
	}
	defer d.Close()
	d.FS.WriteFile("f", []byte("v0"))

	row := AblationRow{Param: name, RPCs: make(map[string]int64)}
	var runErr error
	d.Run("ablate-poll", func() {
		sess, serr := d.NewSession("s", core.Config{
			Model: core.ModelPolling, PollPeriod: period, PollBackoffMax: backoff, ReadAhead: noReadAhead,
		})
		if serr != nil {
			runErr = serr
			return
		}
		reader, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			runErr = err
			return
		}
		writer, err := sess.Mount("C2", nfsclient.Options{NoAC: true})
		if err != nil {
			runErr = err
			return
		}

		// Busy phase: ten rounds of write-then-watch. The reader keeps its
		// cache warm by reading continuously, so after each write it serves
		// stale data until the next GETINV poll delivers the invalidation —
		// the staleness the window bounds. Record the worst case.
		if _, err := reader.Client.ReadFile("f"); err != nil {
			runErr = err
			return
		}
		version := 0
		for round := 0; round < 10; round++ {
			version++
			want := fmt.Sprintf("v%d", version)
			if werr := writer.Client.WriteFile("f", []byte(want)); werr != nil {
				runErr = werr
				return
			}
			start := d.Clock.Now()
			for {
				got, err := reader.Client.ReadFile("f")
				if err != nil {
					runErr = err
					return
				}
				if string(got) == want {
					break
				}
				d.Clock.Sleep(500 * time.Millisecond)
			}
			if stale := d.Clock.Now() - start; stale > row.Staleness {
				row.Staleness = stale
			}
		}

		// Idle phase: half an hour of no updates, polls keep ticking.
		d.Clock.Sleep(30 * time.Minute)
		for k, v := range reader.WANCounts() {
			row.RPCs[k] += v
		}
	})
	opt.dumpMetrics("ablate-poll "+name, d)
	return row, runErr
}

// RunBufferSizeAblation sweeps the invalidation buffer size: undersized
// buffers wrap around and degrade every poll into a force-invalidation,
// which costs re-validation traffic afterwards (Section 4.2.3).
func RunBufferSizeAblation(opt Options) (AblationResult, error) {
	res := AblationResult{Name: "invalidation buffer size (Section 4.2.3)", Columns: "force-invalidations vs buffer entries"}
	for _, entries := range []int{4, 16, 64, 1024} {
		row, err := runBufferVariant(opt, entries)
		if err != nil {
			return res, fmt.Errorf("buffer ablation %d: %w", entries, err)
		}
		opt.logf("ablate buffer %-5d forced=%s getattr=%d", entries, row.Extra, row.RPCs["GETATTR"])
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runBufferVariant(opt Options, entries int) (AblationRow, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{})
	if err != nil {
		return AblationRow{}, err
	}
	defer d.Close()
	for i := 0; i < 100; i++ {
		d.FS.WriteFile(fmt.Sprintf("t/f%03d", i), []byte("x"))
	}

	row := AblationRow{Param: fmt.Sprintf("%d entries", entries), RPCs: make(map[string]int64)}
	var runErr error
	d.Run("ablate-buffer", func() {
		sess, serr := d.NewSession("s", core.Config{
			Model: core.ModelPolling, PollPeriod: 30 * time.Second, InvBufferEntries: entries, ReadAhead: noReadAhead,
		})
		if serr != nil {
			runErr = serr
			return
		}
		reader, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			runErr = err
			return
		}
		writer, err := sess.Mount("C2", nfsclient.Options{NoAC: true})
		if err != nil {
			runErr = err
			return
		}
		// Warm the reader on the whole tree.
		for i := 0; i < 100; i++ {
			reader.Client.Stat(fmt.Sprintf("t/f%03d", i))
		}
		d.Clock.Sleep(31 * time.Second)
		// Ten rounds: the writer touches 40 files, the reader re-reads 10.
		for round := 0; round < 10; round++ {
			for i := 0; i < 40; i++ {
				writer.Client.WriteFile(fmt.Sprintf("t/f%03d", i), []byte("y"))
			}
			d.Clock.Sleep(31 * time.Second)
			for i := 0; i < 10; i++ {
				reader.Client.Stat(fmt.Sprintf("t/f%03d", i+60)) // untouched files
			}
		}
		forced := d.Obs.Registry().Snapshot().Sum("gvfs_client_force_invalidations_total", "node", reader.Host()+"/"+sess.Name)
		row.Extra = fmt.Sprintf("%d", forced)
		for k, v := range reader.WANCounts() {
			row.RPCs[k] += v
		}
	})
	opt.dumpMetrics(fmt.Sprintf("ablate-buffer %d", entries), d)
	return row, runErr
}

// RunDelegExpiryAblation sweeps the delegation expiration period: short
// expirations shed server state quickly but recall delegations from clients
// that are still interested; long ones accumulate state (Section 4.3.3).
func RunDelegExpiryAblation(opt Options) (AblationResult, error) {
	res := AblationResult{Name: "delegation expiration (Section 4.3.3)", Columns: "callbacks + residual state vs expiry"}
	for _, expiry := range []time.Duration{30 * time.Second, 2 * time.Minute, 10 * time.Minute} {
		row, err := runExpiryVariant(opt, expiry)
		if err != nil {
			return res, fmt.Errorf("expiry ablation %v: %w", expiry, err)
		}
		opt.logf("ablate expiry %-6v callbacks=%s state=%s", expiry, row.Extra, row.Columns())
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Columns formats the row's RPC map compactly.
func (r AblationRow) Columns() string {
	return fmt.Sprintf("%v", r.RPCs)
}

func runExpiryVariant(opt Options, expiry time.Duration) (AblationRow, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{})
	if err != nil {
		return AblationRow{}, err
	}
	defer d.Close()
	for i := 0; i < 50; i++ {
		d.FS.WriteFile(fmt.Sprintf("w/f%02d", i), []byte("x"))
	}

	row := AblationRow{Param: expiry.String(), RPCs: make(map[string]int64)}
	var runErr error
	d.Run("ablate-expiry", func() {
		sess, serr := d.NewSession("s", core.Config{
			Model: core.ModelDelegation, DelegExpiry: expiry, ReadAhead: noReadAhead,
		})
		if serr != nil {
			runErr = serr
			return
		}
		m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			runErr = err
			return
		}
		// A client that touches a rotating subset every minute for 10
		// minutes: short expirations keep recalling what it still uses.
		for round := 0; round < 10; round++ {
			for i := 0; i < 25; i++ {
				if _, err := m.Client.Stat(fmt.Sprintf("w/f%02d", (round+i)%50)); err != nil {
					runErr = err
					return
				}
			}
			d.Clock.Sleep(time.Minute)
		}
		files, sharers := sess.ProxyServer().StateSize()
		row.Extra = fmt.Sprintf("%d", d.Obs.Registry().Snapshot().Sum("gvfs_server_callbacks_sent_total", "node", sess.Name))
		row.RPCs["state-files"] = int64(files)
		row.RPCs["state-sharers"] = int64(sharers)
		row.RPCs["GETATTR"] = m.WANCounts()["GETATTR"]
	})
	opt.dumpMetrics("ablate-expiry "+expiry.String(), d)
	return row, runErr
}

// RunFlushPipelineAblation sweeps the upstream pipeline's two knobs: the
// write-back parallelism (how many dirty-block WRITEs cross the wide area
// at once) and the initial readahead window. Both trade wide-area
// concurrency for latency: flushing N blocks costs ~N/W round-trips, and
// readahead turns a cold sequential read from one round-trip per block into
// a pipelined stream whose depth the session sizes to the link. The last two
// rows read a longer file over a bandwidth-limited link, where the question
// is no longer round trips but how much of the link one stream uses; the
// sweep fails if readahead leaves a fifth of it idle, fetches any block
// twice, or sends more than one READ for every four blocks. The ring row reads four 2 MiB files in order, twice, through a cache
// that holds two of them: the second pass knows which file follows which, and
// the sweep fails if it leaves a tenth of the link idle, fetches any block
// twice, or fetches one nobody reads. The small-file rows run PostMark-shaped transactions over the same
// link, under the default configuration and with readahead off: what is left
// of a transaction is its round trips, and the sweep fails if a COMMIT
// crosses the wide area after a flush that went out FILE_SYNC, or if a block
// is read twice.
func RunFlushPipelineAblation(opt Options) (AblationResult, error) {
	res := AblationResult{Name: "write-back & readahead pipeline", Columns: "flush / cold-read latency vs wide-area concurrency"}
	const blocks = 16
	for _, w := range []int{1, 2, 4, 8} {
		row, err := runFlushVariant(opt, w, blocks)
		if err != nil {
			return res, fmt.Errorf("flush ablation W=%d: %w", w, err)
		}
		opt.logf("ablate flush W=%-2d flush(%d blocks)=%-8v writes=%d", w, blocks, row.Staleness, row.RPCs["WRITE"])
		res.Rows = append(res.Rows, row)
	}
	for _, ra := range []int{noReadAhead, 2, 4, 8} {
		row, _, _, err := runReadAheadVariant(opt, pipelineWAN, ra, blocks)
		if err != nil {
			return res, fmt.Errorf("readahead ablation RA=%d: %w", ra, err)
		}
		opt.logf("ablate readahead RA=%-2d coldread(%d blocks)=%-8v reads=%d", ra, blocks, row.Staleness, row.RPCs["READ"])
		res.Rows = append(res.Rows, row)
	}
	for _, ra := range []int{noReadAhead, 4} {
		row, util, fetched, err := runReadAheadVariant(opt, fastWAN, ra, fastWANBlocks)
		if err != nil {
			return res, fmt.Errorf("readahead ablation RA=%d at 100 Mbit/s: %w", ra, err)
		}
		opt.logf("ablate readahead RA=%-2d coldread(%d blocks, 100 Mbit/s)=%-8v %s reads=%d", ra, fastWANBlocks, row.Staleness, row.Extra, row.RPCs["READ"])
		if ra > 0 && (util < 0.8 || fetched != fastWANBlocks || row.RPCs["READ"] > fastWANBlocks/4) {
			return res, fmt.Errorf("readahead RA=%d at 100 Mbit/s x 40 ms: link utilisation %.2f (want >= 0.80), %d blocks fetched for %d (want each once) in %d READs (want at most %d)",
				ra, util, fetched, fastWANBlocks, row.RPCs["READ"], fastWANBlocks/4)
		}
		res.Rows = append(res.Rows, row)
	}
	for _, ra := range []int{0, noReadAhead} {
		row, err := runSmallFileVariant(opt, ra)
		if err != nil {
			return res, fmt.Errorf("small-file ablation RA=%d: %w", ra, err)
		}
		opt.logf("ablate %-20s txn=%-8v %s rpcs=%v", row.Param, row.Staleness, row.Extra, row.RPCs)
		res.Rows = append(res.Rows, row)
	}
	row, err := runRingVariant(opt)
	if err != nil {
		return res, fmt.Errorf("readahead ring ablation: %w", err)
	}
	opt.logf("ablate %-20s pass2=%-8v %s reads=%d", row.Param, row.Staleness, row.Extra, row.RPCs["READ"])
	res.Rows = append(res.Rows, row)
	row, err = runDirWalkVariant(opt)
	if err != nil {
		return res, fmt.Errorf("directory-walk ablation: %w", err)
	}
	opt.logf("ablate %-20s open=%-8v %s rpcs=%v", row.Param, row.Staleness, row.Extra, row.RPCs)
	res.Rows = append(res.Rows, row)
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		row, err := runHandoffVariant(opt, model)
		if err != nil {
			return res, fmt.Errorf("handoff ablation (%v): %w", model, err)
		}
		opt.logf("ablate %-20s reread=%-8v %s reads=%d", row.Param, row.Staleness, row.Extra, row.RPCs["READ"])
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// pipelineWAN is the link the pipeline sweeps run over: the paper's 40 ms
// round-trip with unconstrained bandwidth, so latencies count round-trips
// and are not muddied by transfer serialization.
var pipelineWAN = simnet.Params{RTT: 40 * time.Millisecond}

// fastWAN is the wall-clock benchmark's wide-area link in virtual time: the
// same round trip at 100 Mbit/s, a bandwidth-delay product of about fifteen
// 32 KiB blocks. The file read over it is long enough (16 MiB) that the open
// and the window's ramp are a small part of the read.
var fastWAN = simnet.Params{RTT: 40 * time.Millisecond, Bandwidth: 100_000_000 / 8}

const fastWANBlocks = 512

// runFlushVariant buffers `blocks` dirty blocks at the proxy client and
// measures how long the synchronous write-back triggered by a truncation
// takes with FlushParallelism = w.
func runFlushVariant(opt Options, w, blocks int) (AblationRow, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: pipelineWAN})
	if err != nil {
		return AblationRow{}, err
	}
	defer d.Close()
	bs := 32 * 1024
	size := uint64(blocks * bs)
	d.FS.WriteFile("big", make([]byte, size))

	row := AblationRow{Param: fmt.Sprintf("flush W=%d", w), RPCs: make(map[string]int64)}
	var runErr error
	d.Run("ablate-flush", func() {
		sess, serr := d.NewSession("s", core.Config{
			Model: core.ModelPolling, WriteBack: true,
			FlushParallelism: w, FlushInterval: time.Hour,
			// One WRITE per block: this ablation isolates flush
			// parallelism; gvfs/coalesce_test.go pins what coalescing
			// saves.
			MaxWriteBytes: 32 * 1024, ReadAhead: noReadAhead,
		})
		if serr != nil {
			runErr = serr
			return
		}
		m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			runErr = err
			return
		}
		f, err := m.Client.Open("big")
		if err != nil {
			runErr = err
			return
		}
		// Warm the proxy's attribute cache so writes are absorbed locally.
		if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
			runErr = err
			return
		}
		block := make([]byte, bs)
		for i := range block {
			block[i] = byte(w)
		}
		for bn := 0; bn < blocks; bn++ {
			if _, err := f.WriteAt(block, uint64(bn*bs)); err != nil {
				runErr = err
				return
			}
		}
		// Push the kernel client's dirty blocks to the proxy over loopback;
		// the write-back proxy absorbs them without wide-area traffic.
		if err := f.Sync(); err != nil {
			runErr = err
			return
		}
		// The truncation's SETATTR forces a synchronous flushFile: its
		// latency is the pipeline's ceil(blocks/W) round-trips plus the
		// SETATTR itself.
		row.Staleness = d.Elapsed(func() {
			if err := f.Truncate(size); err != nil {
				runErr = err
			}
		})
		for k, v := range m.WANCounts() {
			row.RPCs[k] += v
		}
	})
	opt.dumpMetrics(fmt.Sprintf("ablate-flush W=%d", w), d)
	return row, runErr
}

// runReadAheadVariant measures a cold sequential read of `blocks` blocks
// over wan with an initial readahead window of ra. On a bandwidth-limited
// link it also reports the share of the read (open included) during which the
// link was carrying the file's bytes. fetched is how many blocks the READs
// that crossed asked for.
func runReadAheadVariant(opt Options, wan simnet.Params, ra, blocks int) (row AblationRow, util float64, fetched int64, err error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: wan})
	if err != nil {
		return AblationRow{}, 0, 0, err
	}
	defer d.Close()
	bs := 32 * 1024
	data := make([]byte, blocks*bs)
	for i := range data {
		data[i] = byte(i)
	}
	d.FS.WriteFile("data", data)

	row = AblationRow{Param: fmt.Sprintf("readahead RA=%d", ra), RPCs: make(map[string]int64)}
	if wan.Bandwidth > 0 {
		row.Param += fmt.Sprintf(" @%dMbit/s", wan.Bandwidth*8/1_000_000)
	}
	var runErr error
	d.Run("ablate-readahead", func() {
		sess, serr := d.NewSession("s", core.Config{
			Model: core.ModelPolling, ReadAhead: ra,
		})
		if serr != nil {
			runErr = serr
			return
		}
		m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			runErr = err
			return
		}
		var got []byte
		row.Staleness = d.Elapsed(func() {
			got, err = m.Client.ReadFile("data")
		})
		if err != nil {
			runErr = err
			return
		}
		if len(got) != len(data) || got[len(got)-1] != data[len(data)-1] {
			runErr = fmt.Errorf("readahead returned wrong data: %d bytes", len(got))
			return
		}
		for k, v := range m.WANCounts() {
			row.RPCs[k] += v
		}
		fetched = readBlocks(d, sess, m)
	})
	opt.dumpMetrics(fmt.Sprintf("ablate-readahead RA=%d", ra), d)
	if wan.Bandwidth > 0 && row.Staleness > 0 {
		wire := time.Duration(float64(len(data)) / float64(wan.Bandwidth) * float64(time.Second))
		util = float64(wire) / float64(row.Staleness)
		row.Extra = fmt.Sprintf("util=%.2f", util)
	}
	return row, util, fetched, runErr
}

// readBlocks is how many blocks the READs of m's proxy client in sess have
// asked the wide area for, each READ by its offset and count: a prefetched run
// counts as the blocks it carries.
func readBlocks(d *gvfs.Deployment, sess *gvfs.Session, m *gvfs.Mount) int64 {
	return d.Obs.Registry().Snapshot().Counters[obs.Label("gvfs_client_read_blocks_total", "node", m.Host()+"/"+sess.Name)]
}

const ringFiles, ringBlocks = 4, 64

// runRingVariant reads a ring of four 64-block files twice, in order, over
// fastWAN, as raw block READs to a polling session's proxy client whose cache
// holds two of the files: every block of both passes is cold. The first pass
// pays a round trip on an idle link at the start of every file; the second
// knows what follows what, and the readahead window spills from the tail of
// each file into the head of the next. The row reports the second pass's time
// and link utilisation beside the first's, and fails if the second leaves a
// tenth of the link idle, if any block crossed twice in a pass (counted from
// each READ's offset and count), or if a block the window fetched across a
// boundary went unread.
func runRingVariant(opt Options) (AblationRow, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: fastWAN})
	if err != nil {
		return AblationRow{}, err
	}
	defer d.Close()
	const bs = 32 * 1024
	for k := 0; k < ringFiles; k++ {
		data := make([]byte, ringBlocks*bs)
		for i := range data {
			data[i] = byte(k*37 + i/bs)
		}
		d.FS.WriteFile(fmt.Sprintf("ring%d", k), data)
	}
	row := AblationRow{Param: fmt.Sprintf("readahead ring %dx%d", ringFiles, ringBlocks), RPCs: make(map[string]int64)}
	var runErr error
	d.Run("ablate-ring", func() {
		sess, serr := d.NewSession("s", core.Config{Model: core.ModelPolling, CacheBytes: 2 * ringBlocks * bs})
		if serr != nil {
			runErr = serr
			return
		}
		m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			runErr = err
			return
		}
		nc, root := m.Client.Conn(), m.Client.Root()
		var fhs [ringFiles]nfs3.FH
		for k := range fhs {
			lk, err := nc.Lookup(root, fmt.Sprintf("ring%d", k))
			if err != nil || lk.Status != nfs3.OK {
				runErr = fmt.Errorf("lookup ring%d: %v %v", k, err, lk.Status)
				return
			}
			fhs[k] = lk.FH
		}
		counter := func(series string) int64 {
			return d.Obs.Registry().Snapshot().SumCounters("gvfs_client_readahead_" + series)
		}
		// wrap is what the second pass's last file spilled over the ring's wrap:
		// blocks of the first file a third pass would read.
		var elapsed [2]time.Duration
		var reads, fetched [2]int64
		var wrap int64
		for pass := range elapsed {
			before, blocksBefore := m.WANCounts()["READ"], readBlocks(d, sess, m)
			elapsed[pass] = d.Elapsed(func() {
				for k, fh := range fhs {
					if k == ringFiles-1 {
						wrap = counter("spill_blocks_total")
					}
					for bn := uint64(0); bn < ringBlocks && runErr == nil; bn++ {
						rd, err := nc.Read(fh, bn*bs, bs)
						if err != nil || rd.Status != nfs3.OK || rd.Count != bs || rd.Data[0] != byte(k*37+int(bn)) || rd.Data[bs-1] != byte(k*37+int(bn)) {
							runErr = fmt.Errorf("pass %d, ring%d block %d: %v %v, %d bytes", pass, k, bn, err, rd.Status, rd.Count)
						}
					}
				}
			})
			reads[pass] = m.WANCounts()["READ"] - before
			fetched[pass] = readBlocks(d, sess, m) - blocksBefore
		}
		if runErr != nil {
			return
		}
		d.Clock.Sleep(time.Second) // the wrap's spill lands
		wrap = counter("spill_blocks_total") - wrap
		wire := float64(ringFiles*ringBlocks*bs) / float64(fastWAN.Bandwidth) * float64(time.Second)
		util := [2]float64{wire / float64(elapsed[0]), wire / float64(elapsed[1])}
		row.Staleness = elapsed[1]
		row.RPCs["READ"] = reads[0] + reads[1]
		row.Extra = fmt.Sprintf("pass1=%v util=%.2f->%.2f", elapsed[0], util[0], util[1])
		const blocks = ringFiles * ringBlocks
		switch wasted, misses := counter("wasted_total"), counter("successor_misses_total"); {
		case util[1] < 0.90:
			runErr = fmt.Errorf("second pass over the ring took %v: link utilisation %.2f, want >= 0.90 (first pass %v, %.2f)",
				elapsed[1], util[1], elapsed[0], util[0])
		case fetched[0] != blocks || fetched[1] != blocks+wrap:
			runErr = fmt.Errorf("%d and %d blocks crossed in the two passes over %d blocks (%d of the second's over the ring's wrap); want each once",
				fetched[0], fetched[1], blocks, wrap)
		case wasted != 0 || misses != 0:
			runErr = fmt.Errorf("%d prefetched blocks wasted, %d spills into a file that was not opened next, on a ring read in order", wasted, misses)
		}
	})
	opt.dumpMetrics("ablate-"+row.Param, d)
	return row, runErr
}

// smallFileTxns is how many transactions a small-file row averages over.
const smallFileTxns = 8

// runSmallFileVariant runs PostMark-shaped transactions against a write-back
// session over fastWAN, as raw NFS calls to the proxy client the way a kernel
// client whose own caches have missed makes them: look a two-block file up,
// stat it, read it, create another, write its two blocks UNSTABLE, commit.
// The row reports the mean transaction time and what crossed the wide area;
// ra is the session's Config.ReadAhead (0 = the default).
func runSmallFileVariant(opt Options, ra int) (AblationRow, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: fastWAN})
	if err != nil {
		return AblationRow{}, err
	}
	defer d.Close()
	const bs = 32 * 1024
	block := make([]byte, bs)
	for i := 0; i < smallFileTxns; i++ {
		d.FS.WriteFile(fmt.Sprintf("f%d", i), make([]byte, 2*bs))
	}

	row := AblationRow{Param: "smallfile RA=default", RPCs: make(map[string]int64)}
	if ra != 0 {
		row.Param = fmt.Sprintf("smallfile RA=%d", ra)
	}
	var runErr error
	d.Run("ablate-smallfile", func() {
		sess, serr := d.NewSession("s", core.Config{Model: core.ModelPolling, WriteBack: true, ReadAhead: ra})
		if serr != nil {
			runErr = serr
			return
		}
		m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			runErr = err
			return
		}
		nc, root := m.Client.Conn(), m.Client.Root()
		txn := func(i int) error {
			lk, err := nc.Lookup(root, fmt.Sprintf("f%d", i))
			if err != nil || lk.Status != nfs3.OK {
				return fmt.Errorf("lookup: %v %v", err, lk.Status)
			}
			if ga, err := nc.Getattr(lk.FH); err != nil || ga.Status != nfs3.OK {
				return fmt.Errorf("getattr: %v %v", err, ga.Status)
			}
			for bn := uint64(0); bn < 2; bn++ {
				if rd, err := nc.Read(lk.FH, bn*bs, bs); err != nil || rd.Status != nfs3.OK || rd.Count != bs {
					return fmt.Errorf("read: %v %v", err, rd.Status)
				}
			}
			cr, err := nc.Create(root, fmt.Sprintf("n%d", i), 0o644, nfs3.CreateGuarded)
			if err != nil || cr.Status != nfs3.OK || !cr.FHFollows {
				return fmt.Errorf("create: %v %v", err, cr.Status)
			}
			for bn := uint64(0); bn < 2; bn++ {
				if wr, err := nc.Write(cr.FH, bn*bs, block, nfs3.Unstable); err != nil || wr.Status != nfs3.OK {
					return fmt.Errorf("write: %v %v", err, wr.Status)
				}
			}
			if cm, err := nc.Commit(cr.FH, 0, 0); err != nil || cm.Status != nfs3.OK {
				return fmt.Errorf("commit: %v %v", err, cm.Status)
			}
			return nil
		}
		before := m.WANCounts()
		elapsed := d.Elapsed(func() {
			for i := 0; i < smallFileTxns && runErr == nil; i++ {
				runErr = txn(i)
			}
		})
		row.Staleness = elapsed / smallFileTxns
		var total int64
		for k, v := range m.WANCounts() {
			if n := v - before[k]; n != 0 && k != "GETINV" {
				row.RPCs[k] = n
				total += n
			}
		}
		row.Extra = fmt.Sprintf("rpcs/txn=%.2f commits/txn=%.2f",
			float64(total)/smallFileTxns, float64(row.RPCs["COMMIT"])/smallFileTxns)
	})
	opt.dumpMetrics("ablate-"+row.Param, d)
	if runErr == nil && (row.RPCs["COMMIT"] != 0 || row.RPCs["READ"] != 2*smallFileTxns) {
		runErr = fmt.Errorf("%d transactions sent %d COMMITs (want 0: every flush is FILE_SYNC) and %d READs (want %d: each block once)",
			smallFileTxns, row.RPCs["COMMIT"], row.RPCs["READ"], 2*smallFileTxns)
	}
	return row, runErr
}

// dirWalkNames is how many files the directory-walk row opens.
const dirWalkNames = 256

// runDirWalkVariant opens every file of a 256-entry directory by name —
// LOOKUP, GETATTR — over the paper's wide-area link without ever listing the
// directory, as raw NFS calls to a polling session's proxy client. The second
// miss makes the proxy client walk the directory itself, a block-sized
// READDIRPLUS page per LOOKUP; the row reports the mean open and what crossed,
// and fails if more LOOKUPs crossed than the pages plus the two misses that
// started them, or if any metadata call crossed once the last page was in.
func runDirWalkVariant(opt Options) (AblationRow, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{})
	if err != nil {
		return AblationRow{}, err
	}
	defer d.Close()
	for i := 0; i < dirWalkNames; i++ {
		d.FS.WriteFile(fmt.Sprintf("dir/f%03d", i), []byte("x"))
	}
	row := AblationRow{Param: fmt.Sprintf("dirwalk %d names", dirWalkNames), RPCs: make(map[string]int64)}
	var runErr error
	d.Run("ablate-dirwalk", func() {
		sess, serr := d.NewSession("s", core.Config{Model: core.ModelPolling})
		if serr != nil {
			runErr = serr
			return
		}
		m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			runErr = err
			return
		}
		nc := m.Client.Conn()
		dir, err := nc.Lookup(m.Client.Root(), "dir")
		if err != nil || dir.Status != nfs3.OK {
			runErr = fmt.Errorf("lookup dir: %v %v", err, dir.Status)
			return
		}
		meta := func() int64 {
			c := m.WANCounts()
			return c["LOOKUP"] + c["GETATTR"] + c["ACCESS"] + c["READDIR"] + c["READDIRPLUS"]
		}
		walk := func(series string) int64 {
			return d.Obs.Registry().Snapshot().SumCounters("gvfs_client_dirwalk_" + series)
		}
		before := m.WANCounts()
		var settled, after int64 // metadata RPCs sent when the last page was first seen in, and by the end
		elapsed := d.Elapsed(func() {
			for i := 0; i < dirWalkNames; i++ {
				lk, err := nc.Lookup(dir.FH, fmt.Sprintf("f%03d", i))
				if err != nil || lk.Status != nfs3.OK {
					runErr = fmt.Errorf("lookup f%03d: %v %v", i, err, lk.Status)
					return
				}
				if ga, err := nc.Getattr(lk.FH); err != nil || ga.Status != nfs3.OK || ga.Attr.Size != 1 {
					runErr = fmt.Errorf("getattr f%03d: %v %v", i, err, ga.Status)
					return
				}
				if settled == 0 && walk("entries_total") >= dirWalkNames {
					settled = meta()
				}
			}
		})
		after = meta()
		row.Staleness = elapsed / dirWalkNames
		for k, v := range m.WANCounts() {
			if n := v - before[k]; n != 0 && k != "GETINV" {
				row.RPCs[k] = n
			}
		}
		lookups, pages, discarded := row.RPCs["LOOKUP"], row.RPCs["READDIRPLUS"], walk("discarded_total")
		row.Extra = fmt.Sprintf("lookups=%d pages=%d", lookups, pages)
		switch {
		case runErr != nil:
		case pages == 0 || discarded != 0 || lookups > pages+2:
			runErr = fmt.Errorf("%d names opened with %d LOOKUPs and %d pages crossing (%d pages discarded); want at most pages + 2 LOOKUPs", dirWalkNames, lookups, pages, discarded)
		case settled == 0 || after != settled:
			runErr = fmt.Errorf("%d metadata RPCs crossed after the walk was complete (%d when its last page was in, %d at the end)", after-settled, settled, after)
		}
	})
	opt.dumpMetrics("ablate-"+row.Param, d)
	return row, runErr
}

// handoffBlocks is the length of the file the handoff rows hand over.
const handoffBlocks = 8

// runHandoffVariant hands a file from a producer to a consumer over fastWAN,
// as raw NFS calls to two clients' proxies the way kernel clients whose own
// caches have missed make them: the consumer reads the file through, the
// producer rewrites it block by block, and once the news has reached the
// consumer (a GETINV, or the recall of its read delegation) the consumer
// revalidates with a GETATTR and reads the file back — the close-to-open
// handoff. The row reports that revalidation and re-read, and fails if it
// takes longer than one round trip plus the blocks' wire time, plus 10 %, if
// any block crosses twice, or if a byte read back is not the producer's.
func runHandoffVariant(opt Options, model core.Model) (AblationRow, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: fastWAN})
	if err != nil {
		return AblationRow{}, err
	}
	defer d.Close()
	const bs = 32 * 1024
	version := func(v int) []byte {
		data := make([]byte, handoffBlocks*bs)
		for i := range data {
			data[i] = byte(v*31 + i/bs)
		}
		return data
	}
	d.FS.WriteFile("handoff", version(0))
	name := map[core.Model]string{core.ModelPolling: "poll", core.ModelDelegation: "deleg"}[model]
	row := AblationRow{Param: fmt.Sprintf("handoff re-read %dx32K %s", handoffBlocks, name), RPCs: make(map[string]int64)}
	var runErr error
	var fetched int64
	d.Run("ablate-handoff", func() {
		sess, serr := d.NewSession("s", core.Config{Model: model, PollPeriod: time.Second})
		if serr != nil {
			runErr = serr
			return
		}
		var conns [2]*nfscall.Conn
		var fhs [2]nfs3.FH
		var mounts [2]*gvfs.Mount
		for i, host := range []string{"consumer", "producer"} {
			m, err := sess.Mount(host, nfsclient.Options{NoAC: true})
			if err != nil {
				runErr = err
				return
			}
			lk, err := m.Client.Conn().Lookup(m.Client.Root(), "handoff")
			if err != nil || lk.Status != nfs3.OK {
				runErr = fmt.Errorf("%s lookup: %v %v", host, err, lk.Status)
				return
			}
			mounts[i], conns[i], fhs[i] = m, m.Client.Conn(), lk.FH
		}
		readBack := func(v int) {
			want := version(v)
			for bn := uint64(0); bn < handoffBlocks && runErr == nil; bn++ {
				rd, err := conns[0].Read(fhs[0], bn*bs, bs)
				if err != nil || rd.Status != nfs3.OK || string(rd.Data) != string(want[bn*bs:(bn+1)*bs]) {
					runErr = fmt.Errorf("consumer read of version %d block %d: %v %v, %d bytes", v, bn, err, rd.Status, rd.Count)
				}
			}
		}
		readBack(0)
		d.Clock.Sleep(2 * time.Second)
		fresh := version(1)
		for bn := uint64(0); bn < handoffBlocks; bn++ {
			if wr, err := conns[1].Write(fhs[1], bn*bs, fresh[bn*bs:(bn+1)*bs], nfs3.FileSync); err != nil || wr.Status != nfs3.OK {
				runErr = fmt.Errorf("producer write block %d: %v %v", bn, err, wr.Status)
				return
			}
		}
		d.Clock.Sleep(3 * time.Second) // a poll period and more
		before, blocksBefore := mounts[0].WANCounts(), readBlocks(d, sess, mounts[0])
		row.Staleness = d.Elapsed(func() {
			if ga, err := conns[0].Getattr(fhs[0]); err != nil || ga.Status != nfs3.OK {
				runErr = fmt.Errorf("consumer getattr: %v %v", err, ga.Status)
				return
			}
			readBack(1)
		})
		for k, v := range mounts[0].WANCounts() {
			if n := v - before[k]; n != 0 && k != "GETINV" {
				row.RPCs[k] = n
			}
		}
		fetched = readBlocks(d, sess, mounts[0]) - blocksBefore
	})
	opt.dumpMetrics("ablate-"+row.Param, d)
	wire := time.Duration(float64(handoffBlocks*32*1024) / float64(fastWAN.Bandwidth) * float64(time.Second))
	limit := (fastWAN.RTT + wire) * 11 / 10
	row.Extra = fmt.Sprintf("limit=%v", limit)
	switch {
	case runErr != nil:
	case row.Staleness > limit:
		runErr = fmt.Errorf("the consumer's revalidation and re-read took %v, want <= %v (one round trip + %v on the wire, + 10%%)", row.Staleness, limit, wire)
	case fetched != handoffBlocks:
		runErr = fmt.Errorf("%d blocks crossed for the %d handed over, want each once", fetched, handoffBlocks)
	}
	return row, runErr
}

// RunAblations executes all four sweeps.
func RunAblations(opt Options) (Ablations, error) {
	var out Ablations
	for _, run := range []func(Options) (AblationResult, error){
		RunPollPeriodAblation,
		RunBufferSizeAblation,
		RunDelegExpiryAblation,
		RunFlushPipelineAblation,
	} {
		r, err := run(opt)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Ablations is every sweep of one run, in RunAblations' order.
type Ablations []AblationResult

// Render prints the sweeps.
func (results Ablations) Render(w io.Writer) {
	for _, res := range results {
		fmt.Fprintf(w, "Ablation: %s (%s)\n", res.Name, res.Columns)
		for _, row := range res.Rows {
			fmt.Fprintf(w, "  %-20s staleness=%-8v extra=%-8s rpcs=%v\n",
				row.Param, row.Staleness, row.Extra, row.RPCs)
		}
		fmt.Fprintln(w)
	}
}
