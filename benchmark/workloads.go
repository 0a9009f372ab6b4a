package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/vclock"
)

// params are the knobs of one run. The driver sets seed, measure and trace;
// the rest are benchmark-side switches for the smoke test and the README's
// discrimination check.
type params struct {
	seed    int64
	measure time.Duration
	warmup  time.Duration
	setups  int    // set-ups timed for setup_s (the last one is measured on)
	trace   bool   // tap every hop and report the per-layer metrics
	small   bool   // smoke-test sizes
	variant string // "" or, for the discrimination check, "readahead0" (wan_seq)
	awake   bool   // spinners keep the CPUs out of the halt (awake.go)
	wan     linkModel
	tmpRoot string // parent of the disk-cache directories
}

// bed is a workload standing ready: daemons up, files populated, caches warm.
type bed struct {
	st      *stack
	callers []caller
	// slices is how many equal parts the measured window is cut into; rates
	// and percentiles are per part and the run reports their median, so a
	// burst of interference from the host moves one part, not the run. The
	// low-rate wide-area workloads use one part: their operations are too
	// few to cut, and their time is injected delay, which does not burst.
	slices int
	// wbBytes counts payload bytes a COMMIT has acknowledged.
	wbBytes *atomic.Int64
	// finish runs after the measured window: checks that need the run to
	// have ended. It returns how many checks failed and metrics of its own.
	finish  func() (failed int, layer map[string]float64)
	cleanup func()
}

func (b *bed) close() {
	b.st.close()
	if b.cleanup != nil {
		b.cleanup()
	}
}

type workloadDef struct {
	name  string
	why   string
	setup func(p params, tr *tracer) (*bed, error)
	// reportOnly keeps a workload out of BENCHMARK.json: it runs, is checked
	// and prints, but no bound rests on it.
	reportOnly bool
}

// The why strings are BENCHMARK.json's; the smoke test keeps them equal.
var workloads = []workloadDef{
	{name: "warm_read", why: "every 32 KiB READ hits the proxy client's memory cache: the kernel-hop RPC path and block copies do all the work", setup: setupWarmRead},
	// warm_stat is not in BENCHMARK.json either: its latency has two modes
	// that each last a second or more (a call takes 15 or 23 us, with one
	// caller as with two, at any GOMAXPROCS), the share of a run spent in each
	// moves from run to run, and the median jumps with it: 20 % between the
	// quartiles of ten runs on a quiet host, against 3-8 % for the other
	// loopback workloads.
	{name: "warm_stat", why: "LOOKUP/GETATTR/ACCESS hits on a warmed tree: smallest messages, so per-message cost dominates and payload copies vanish", setup: setupWarmStat, reportOnly: true},
	{name: "miss_read", why: "cache an eighth of the file: most READs cross proxyd to nfsd, insert and evict; the paper's proxy overhead, measured", setup: setupMissRead},
	{name: "mem_wb", why: "2 MiB written and committed through the write-back cache beside paced reads: the absorbed-WRITE, flush-coalescing and COMMIT path on loopback", setup: setupMemWB},
	{name: "wan_seq", why: "cold sequential 512 KiB extents over a 40 ms link with readahead: time is round trips over pipeline depth, CPU work must not show", setup: setupWanSeq},
	{name: "wan_files", why: "PostMark-like small-file transactions over the link with write-back: round trips per namespace change and per commit", setup: setupWanFiles},
	// disk_wb is mem_wb with the on-disk cache behind it. It is not in
	// BENCHMARK.json: on the sandbox's virtual disk its throughput halves
	// over ten consecutive runs and recovers after minutes of idleness, so no
	// bound could hold. It keeps its crash check and prints like the others.
	{name: "disk_wb", why: "mem_wb with DiskCacheDir set: the only workload where diskcache works; ends with a crash and recovery check", setup: setupDiskWB, reportOnly: true},
	{name: "share", why: "delegation model, two clients hand a file back and forth over the link: the recall and callback path, and the strong-model check", setup: setupShare},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// lookupPath walks a slash-separated path from root through the generator's
// own connection, as a kernel client would on first access.
func lookupPath(nc *nfscall.Conn, root nfs3.FH, path string) (nfs3.FH, error) {
	fh := root
	for _, part := range strings.Split(path, "/") {
		res, err := nc.Lookup(fh, part)
		if err != nil {
			return nfs3.FH{}, err
		}
		if res.Status != nfs3.OK {
			return nfs3.FH{}, fmt.Errorf("lookup %s in %s: %v", part, path, res.Status)
		}
		fh = res.FH
	}
	return fh, nil
}

// readOK reports whether a READ reply carries exactly want.
func readOK(res nfs3.ReadRes, err error, want []byte) bool {
	return err == nil && res.Status == nfs3.OK && int(res.Count) == len(want) && bytes.Equal(res.Data, want)
}

// readBlockOK checks a READ reply against the content function.
func readBlockOK(res nfs3.ReadRes, err error, scratch []byte, file, block, version uint64) bool {
	fillBlock(scratch, file, block, version)
	return readOK(res, err, scratch)
}

func rngFor(seed int64, caller int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(caller)))
}

// --- warm_read / miss_read -------------------------------------------------

func setupWarmRead(p params, tr *tracer) (*bed, error) { return setupRandomRead(p, tr, 0) }

// miss_read is warm_read with room for an eighth of the file.
func setupMissRead(p params, tr *tracer) (*bed, error) { return setupRandomRead(p, tr, 8) }

func setupRandomRead(p params, tr *tracer, cacheDivisor int) (*bed, error) {
	blocks := 1024 // 32 MiB
	if p.small {
		blocks = 64
	}
	clk := vclock.NewReal()
	fs := memfs.New(clk.Now)
	content := fileContent(1, blocks)
	if _, err := fs.WriteFile("data/big", content); err != nil {
		return nil, err
	}
	var cfg core.Config
	if cacheDivisor > 0 {
		cfg.CacheBytes = int64(blocks * blockSize / cacheDivisor)
	}
	st, err := newStack(fs, clk, stackOpts{cfg: cfg}, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*bed, error) {
		st.close()
		return nil, err
	}
	b := &bed{st: st, slices: 10}
	for ci := 0; ci < 2; ci++ {
		nc, root, err := st.dialGen(st.kernel[0])
		if err != nil {
			return fail(err)
		}
		fh, err := lookupPath(nc, root, "data/big")
		if err != nil {
			return fail(err)
		}
		if ci == 0 {
			// Pre-read: fills the cache, or brings its LRU to steady state.
			for bn := 0; bn < blocks; bn++ {
				res, err := nc.Read(fh, uint64(bn)*blockSize, blockSize)
				if !readOK(res, err, content[bn*blockSize:(bn+1)*blockSize]) {
					return fail(fmt.Errorf("pre-read block %d: %v %v", bn, err, res.Status))
				}
			}
		}
		rng := rngFor(p.seed, ci)
		b.callers = append(b.callers, caller{primary: true, op: func() (bool, time.Duration) {
			bn := rng.Intn(blocks)
			res, err := nc.Read(fh, uint64(bn)*blockSize, blockSize)
			return readOK(res, err, content[bn*blockSize:(bn+1)*blockSize]), 0
		}})
	}
	return b, nil
}

// --- warm_stat -------------------------------------------------------------

func setupWarmStat(p params, tr *tracer) (*bed, error) {
	dirs, files := 64, 64
	if p.small {
		dirs, files = 8, 8
	}
	clk := vclock.NewReal()
	fs := memfs.New(clk.Now)
	// A file's size names it, so a reply about the wrong file is caught.
	size := func(d, f int) int { return 64 + d*files + f }
	pad := make([]byte, size(dirs, files))
	for d := 0; d < dirs; d++ {
		for f := 0; f < files; f++ {
			if _, err := fs.WriteFile(fmt.Sprintf("tree/d%02d/f%02d", d, f), pad[:size(d, f)]); err != nil {
				return nil, err
			}
		}
	}
	st, err := newStack(fs, clk, stackOpts{}, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*bed, error) {
		st.close()
		return nil, err
	}
	b := &bed{st: st, slices: 10}
	dirFH := make([]nfs3.FH, dirs)
	fileFH := make([][]nfs3.FH, dirs)
	for ci := 0; ci < 2; ci++ {
		nc, root, err := st.dialGen(st.kernel[0])
		if err != nil {
			return fail(err)
		}
		if ci == 0 {
			// Warm: walk the whole tree once.
			treeFH, err := lookupPath(nc, root, "tree")
			if err != nil {
				return fail(err)
			}
			for d := 0; d < dirs; d++ {
				if dirFH[d], err = lookupPath(nc, treeFH, fmt.Sprintf("d%02d", d)); err != nil {
					return fail(err)
				}
				fileFH[d] = make([]nfs3.FH, files)
				for f := 0; f < files; f++ {
					if fileFH[d][f], err = lookupPath(nc, dirFH[d], fmt.Sprintf("f%02d", f)); err != nil {
						return fail(err)
					}
				}
			}
		}
		rng := rngFor(p.seed, ci)
		turn := 0
		names := make([]string, files)
		for f := range names {
			names[f] = fmt.Sprintf("f%02d", f)
		}
		b.callers = append(b.callers, caller{primary: true, op: func() (bool, time.Duration) {
			d, f := rng.Intn(dirs), rng.Intn(files)
			want := uint64(size(d, f))
			turn++
			switch turn % 3 {
			case 0:
				res, err := nc.Lookup(dirFH[d], names[f])
				return err == nil && res.Status == nfs3.OK && res.FH.Equal(fileFH[d][f]) &&
					res.Attr.Present && res.Attr.Attr.Size == want, 0
			case 1:
				res, err := nc.Getattr(fileFH[d][f])
				return err == nil && res.Status == nfs3.OK && res.Attr.Size == want, 0
			default:
				res, err := nc.Access(fileFH[d][f], nfs3.AccessRead)
				return err == nil && res.Status == nfs3.OK && res.Access&nfs3.AccessRead != 0 &&
					res.Attr.Present && res.Attr.Attr.Size == want, 0
			}
		}})
	}
	return b, nil
}

// --- mem_wb / disk_wb ------------------------------------------------------

const (
	wbFiles       = 8
	wbReadFileID  = 50
	wbWriteFileID = 100 // + file index
)

func setupMemWB(p params, tr *tracer) (*bed, error) { return setupWriteBack(p, tr, false) }

func setupDiskWB(p params, tr *tracer) (*bed, error) { return setupWriteBack(p, tr, true) }

func setupWriteBack(p params, tr *tracer, disk bool) (*bed, error) {
	const readBlocks = 64 // 2 MiB
	blocksPerOp := 64     // 2 MiB
	if p.small {
		blocksPerOp = 4
	}
	clk := vclock.NewReal()
	fs := memfs.New(clk.Now)
	content := fileContent(wbReadFileID, readBlocks)
	if _, err := fs.WriteFile("wb/r", content); err != nil {
		return nil, err
	}
	wIDs := make([]memfs.ID, wbFiles)
	for k := range wIDs {
		id, err := fs.WriteFile(fmt.Sprintf("wb/w%d", k), nil)
		if err != nil {
			return nil, err
		}
		wIDs[k] = id
	}
	cfg := core.Config{WriteBack: true, FlushInterval: time.Hour}
	var dir string
	if disk {
		if err := os.MkdirAll(p.tmpRoot, 0o755); err != nil {
			return nil, err
		}
		var err error
		if dir, err = os.MkdirTemp(p.tmpRoot, "diskwb-"); err != nil {
			return nil, err
		}
		cfg.DiskCacheDir, cfg.DiskCacheSyncPolicy = dir, "dirty"
	}
	cleanup := func() {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	st, err := newStack(fs, clk, stackOpts{cfg: cfg}, tr)
	if err != nil {
		cleanup()
		return nil, err
	}
	b := &bed{st: st, slices: 10, wbBytes: new(atomic.Int64), cleanup: cleanup}
	if disk {
		b.slices = 1 // a dozen operations a second: too few to cut
	}
	fail := func(err error) (*bed, error) {
		b.close()
		return nil, err
	}

	// Caller A: the writer. Its operation — 2 MiB written and committed — is
	// the primary one: it is the write-back throughput a user sees.
	ncA, rootA, err := st.dialGen(st.kernel[0])
	if err != nil {
		return fail(err)
	}
	wFH := make([]nfs3.FH, wbFiles)
	for k := range wFH {
		if wFH[k], err = lookupPath(ncA, rootA, fmt.Sprintf("wb/w%d", k)); err != nil {
			return fail(err)
		}
	}
	// acked is the newest version of each block the proxy has acknowledged.
	// Only the writer touches it until the run is over.
	acked := make([][]uint64, wbFiles)
	for k := range acked {
		acked[k] = make([]uint64, blocksPerOp)
	}
	buf := make([]byte, blockSize)
	round := 0
	// writeBlocks sends the next round's first n blocks UNSTABLE.
	writeBlocks := func(n int) (k int, ok bool) {
		k, version := round%wbFiles, uint64(round/wbFiles+1)
		round++
		for bn := 0; bn < n; bn++ {
			fillBlock(buf, wbWriteFileID+uint64(k), uint64(bn), version)
			res, err := ncA.Write(wFH[k], uint64(bn)*blockSize, buf, nfs3.Unstable)
			if err != nil || res.Status != nfs3.OK || res.Count != blockSize {
				return k, false
			}
			acked[k][bn] = version
		}
		return k, true
	}
	b.callers = append(b.callers, caller{primary: true, op: func() (bool, time.Duration) {
		k, ok := writeBlocks(blocksPerOp)
		if !ok {
			return false, 0
		}
		res, err := ncA.Commit(wFH[k], 0, 0)
		if err != nil || res.Status != nfs3.OK {
			return false, 0
		}
		b.wbBytes.Add(int64(blocksPerOp) * blockSize)
		return true, 0
	}})

	// Caller B: the reader, background load at a fixed pace.
	ncB, rootB, err := st.dialGen(st.kernel[0])
	if err != nil {
		return fail(err)
	}
	rFH, err := lookupPath(ncB, rootB, "wb/r")
	if err != nil {
		return fail(err)
	}
	for bn := 0; bn < readBlocks; bn++ {
		res, err := ncB.Read(rFH, uint64(bn)*blockSize, blockSize)
		if !readOK(res, err, content[bn*blockSize:(bn+1)*blockSize]) {
			return fail(fmt.Errorf("pre-read block %d: %v %v", bn, err, res.Status))
		}
	}
	rng := rngFor(p.seed, 1)
	var due time.Time
	b.callers = append(b.callers, caller{op: func() (bool, time.Duration) {
		// At most one READ per millisecond: a load that does not grow when
		// the system gets faster, so the writer's figures stay comparable.
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		due = time.Now().Add(time.Millisecond)
		bn := rng.Intn(readBlocks)
		t0 := time.Now()
		res, err := ncB.Read(rFH, uint64(bn)*blockSize, blockSize)
		return readOK(res, err, content[bn*blockSize:(bn+1)*blockSize]), time.Since(t0)
	}})

	if dir == "" {
		return b, nil
	}
	// Durability: leave half a round acknowledged but uncommitted, crash the
	// proxy client, reopen its cache directory, and require every
	// acknowledged WRITE to be on the server or recovered dirty with the right
	// bytes. (The process lives on, so the page cache does too: this checks
	// the journal protocol, not fsync.)
	b.finish = func() (int, map[string]float64) {
		if _, ok := writeBlocks(blocksPerOp / 2); !ok {
			return 1, nil
		}
		pc := st.proxyc[0]
		_, _, userBytes := pc.DiskStore().Usage()
		onDisk, filesOnDisk := dirUsage(dir)
		pc.Crash()
		t0 := time.Now()
		store, rec, err := diskcache.Open(dir, 0, diskcache.SyncDirty)
		recoverMs := float64(time.Since(t0)) / 1e6
		if err != nil {
			return 1, nil
		}
		defer store.Close()
		lost := 0
		got, want := make([]byte, blockSize), make([]byte, blockSize)
		for k := 0; k < wbFiles; k++ {
			rf := rec.Files[wFH[k].Key()]
			for bn := 0; bn < blocksPerOp; bn++ {
				v := acked[k][bn]
				if v == 0 {
					continue
				}
				fillBlock(want, wbWriteFileID+uint64(k), uint64(bn), v)
				if rf != nil {
					if blk := rf.Blocks[uint64(bn)]; blk != nil && blk.Dirty && bytes.Equal(blk.Data, want) {
						continue
					}
				}
				if n, _, err := fs.ReadAt(wIDs[k], got, uint64(bn)*blockSize); err == nil && n == blockSize && bytes.Equal(got, want) {
					continue
				}
				lost++
			}
		}
		layer := map[string]float64{
			"diskcache.files_on_disk":          float64(filesOnDisk),
			"diskcache.recover_ms":             recoverMs,
			"diskcache.recovered_dirty_blocks": float64(rec.Stats.DirtyBlocks),
			"diskcache.acked_lost":             float64(lost),
		}
		if userBytes > 0 {
			layer["diskcache.bytes_on_disk_per_user_byte"] = float64(onDisk) / float64(userBytes)
		}
		return lost, layer
	}
	return b, nil
}

// dirUsage sums the regular files under dir.
func dirUsage(dir string) (bytes int64, files int) {
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				bytes, files = bytes+info.Size(), files+1
			}
		}
		return nil
	})
	return bytes, files
}

// --- wan_seq ---------------------------------------------------------------

func setupWanSeq(p params, tr *tracer) (*bed, error) {
	// A ring of files four times the cache, read in order: every block is
	// cold however long the run lasts. The files are small so that the heap
	// is: a collection then costs little and comes often, instead of two or
	// three large ones landing in a window by chance.
	const (
		ringFiles  = 8
		fileBlocks = 64 // 2 MiB
		extent     = 16 // blocks per operation
	)
	clk := vclock.NewReal()
	fs := memfs.New(clk.Now)
	for k := 0; k < ringFiles; k++ {
		if _, err := fs.WriteFile(fmt.Sprintf("seq/f%d", k), fileContent(10+uint64(k), fileBlocks)); err != nil {
			return nil, err
		}
	}
	cfg := core.Config{ReadAhead: 4, CacheBytes: int64(2 * fileBlocks * blockSize)}
	if p.variant == "readahead0" {
		cfg.ReadAhead = 0
	}
	st, err := newStack(fs, clk, stackOpts{cfg: cfg, wan: &p.wan}, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*bed, error) {
		st.close()
		return nil, err
	}
	nc, root, err := st.dialGen(st.kernel[0])
	if err != nil {
		return fail(err)
	}
	fhs := make([]nfs3.FH, ringFiles)
	for k := range fhs {
		if fhs[k], err = lookupPath(nc, root, fmt.Sprintf("seq/f%d", k)); err != nil {
			return fail(err)
		}
	}
	scratch := make([]byte, blockSize)
	next := 0
	// One operation reads a 512 KiB extent, block by block. A single READ's
	// latency is multimodal under readahead (a miss, a join, a hit); sixteen
	// in a row add up to round trips over pipeline depth, which is the point.
	op := func() (bool, time.Duration) {
		for i := 0; i < extent; i++ {
			k, bn := (next/fileBlocks)%ringFiles, next%fileBlocks
			next++
			res, err := nc.Read(fhs[k], uint64(bn)*blockSize, blockSize)
			if !readBlockOK(res, err, scratch, 10+uint64(k), uint64(bn), 0) {
				return false, 0
			}
		}
		return true, 0
	}
	return &bed{st: st, slices: 1, callers: []caller{{primary: true, op: op}}}, nil
}

// --- wan_files -------------------------------------------------------------

func setupWanFiles(p params, tr *tracer) (*bed, error) {
	const pool = 256 // pre-populated 64 KiB files; each transaction reads one never read before
	clk := vclock.NewReal()
	fs := memfs.New(clk.Now)
	for i := 0; i < pool; i++ {
		if _, err := fs.WriteFile(fmt.Sprintf("pm/f%03d", i), fileContent(1000+uint64(i), 2)); err != nil {
			return nil, err
		}
	}
	cfg := core.Config{WriteBack: true, FlushParallelism: 4}
	st, err := newStack(fs, clk, stackOpts{cfg: cfg, wan: &p.wan}, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*bed, error) {
		st.close()
		return nil, err
	}
	nc, root, err := st.dialGen(st.kernel[0])
	if err != nil {
		return fail(err)
	}
	dir, err := lookupPath(nc, root, "pm")
	if err != nil {
		return fail(err)
	}
	b := &bed{st: st, slices: 1, wbBytes: new(atomic.Int64)}
	order := rngFor(p.seed, 0).Perm(pool)
	scratch := make([]byte, blockSize)
	var live []int // transactions whose created file still exists, oldest first
	t := 0
	op := func() (bool, time.Duration) {
		n := t
		t++
		src := order[n%pool]
		lk, err := nc.Lookup(dir, fmt.Sprintf("f%03d", src))
		if err != nil || lk.Status != nfs3.OK {
			return false, 0
		}
		ga, err := nc.Getattr(lk.FH)
		if err != nil || ga.Status != nfs3.OK || ga.Attr.Size != 2*blockSize {
			return false, 0
		}
		for bn := uint64(0); bn < 2; bn++ {
			res, err := nc.Read(lk.FH, bn*blockSize, blockSize)
			if !readBlockOK(res, err, scratch, 1000+uint64(src), bn, 0) {
				return false, 0
			}
		}
		cr, err := nc.Create(dir, fmt.Sprintf("n%d", n), 0o644, nfs3.CreateGuarded)
		if err != nil || cr.Status != nfs3.OK || !cr.FHFollows {
			return false, 0
		}
		for bn := uint64(0); bn < 2; bn++ {
			fillBlock(scratch, 5000+uint64(n), bn, 1)
			wr, err := nc.Write(cr.FH, bn*blockSize, scratch, nfs3.Unstable)
			if err != nil || wr.Status != nfs3.OK || wr.Count != blockSize {
				return false, 0
			}
		}
		cm, err := nc.Commit(cr.FH, 0, 0)
		if err != nil || cm.Status != nfs3.OK {
			return false, 0
		}
		b.wbBytes.Add(2 * blockSize)
		live = append(live, n)
		if n%4 == 3 {
			rm, err := nc.Remove(dir, fmt.Sprintf("n%d", live[0]))
			if err != nil || rm.Status != nfs3.OK {
				return false, 0
			}
			live = live[1:]
		}
		return true, 0
	}
	b.callers = []caller{{primary: true, op: op}}
	// Every committed file must be on the server with the bytes written.
	b.finish = func() (int, map[string]float64) {
		bad := 0
		got, want := make([]byte, blockSize), make([]byte, blockSize)
		for _, n := range live {
			attr, err := fs.LookupPath(fmt.Sprintf("pm/n%d", n))
			for bn := uint64(0); bn < 2 && err == nil; bn++ {
				fillBlock(want, 5000+uint64(n), bn, 1)
				if c, _, rerr := fs.ReadAt(attr.ID, got, bn*blockSize); rerr != nil || c != blockSize || !bytes.Equal(got, want) {
					err = fmt.Errorf("content")
				}
			}
			if err != nil {
				bad++
			}
		}
		return bad, nil
	}
	return b, nil
}

// --- share -----------------------------------------------------------------

func setupShare(p params, tr *tracer) (*bed, error) {
	const shareBlocks, shareFile = 8, 7
	clk := vclock.NewReal()
	fs := memfs.New(clk.Now)
	if _, err := fs.WriteFile("sh/f", fileContent(shareFile, shareBlocks)); err != nil {
		return nil, err
	}
	st, err := newStack(fs, clk, stackOpts{cfg: core.Config{Model: core.ModelDelegation}, clients: 2, wan: &p.wan}, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*bed, error) {
		st.close()
		return nil, err
	}
	var nc [2]*nfscall.Conn
	var fh [2]nfs3.FH
	for i := range nc {
		var root nfs3.FH
		if nc[i], root, err = st.dialGen(st.kernel[i]); err == nil {
			fh[i], err = lookupPath(nc[i], root, "sh/f")
		}
		if err != nil {
			return fail(err)
		}
	}
	scratch := make([]byte, blockSize)
	version := uint64(0)
	// One cycle: the producer (client 0) writes the file with a new version
	// stamp; the consumer (client 1) stats it and reads it back and must see
	// that stamp in every block. The consumer's part is the handoff latency.
	op := func() (bool, time.Duration) {
		version++
		for bn := uint64(0); bn < shareBlocks; bn++ {
			fillBlock(scratch, shareFile, bn, version)
			wr, err := nc[0].Write(fh[0], bn*blockSize, scratch, nfs3.Unstable)
			if err != nil || wr.Status != nfs3.OK || wr.Count != blockSize {
				return false, 0
			}
		}
		t0 := time.Now()
		ok := true
		if ga, err := nc[1].Getattr(fh[1]); err != nil || ga.Status != nfs3.OK {
			ok = false
		}
		for bn := uint64(0); bn < shareBlocks && ok; bn++ {
			res, err := nc[1].Read(fh[1], bn*blockSize, blockSize)
			ok = readBlockOK(res, err, scratch, shareFile, bn, version)
		}
		return ok, time.Since(t0)
	}
	return &bed{st: st, slices: 1, callers: []caller{{primary: true, op: op}}}, nil
}
