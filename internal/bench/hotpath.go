package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/gvfs"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// The hotpath experiment quantifies the memory work of the warm paths: the
// proxy client serving READs from its cache, absorbing write-back WRITEs, and
// answering the metadata calls (GETATTR, LOOKUP, ACCESS in turn) the kernel
// keeps issuing for files it already knows. The cache is warmed through the full RPC stack, then the measured
// loop drives the proxy's real dispatch (ProxyClient.ServeCall) directly —
// XDR decode, cache serve, XDR reply encode — with tracing off, the way a
// production server with span retention disabled runs it. That isolates the
// path the pools target from simulator scheduling costs, which exist only in
// the harness. Each path runs twice — buffer/encoder pooling enabled and
// disabled — and reports allocations and bytes per operation, plus the
// wide-area WRITE count for a sequential dirty-file flush with and without
// coalescing (that leg stays on the full stack, in virtual time).
//
// Unlike the figure experiments, allocs/op and ops/sec are process
// measurements (runtime.MemStats, wall clock), not virtual-time outputs: the
// ratio between configs is stable, the absolute digits can wiggle a few
// percent between runs.

// HotpathSetup is one (path, pooling) cell.
type HotpathSetup struct {
	Name        string
	Path        string // "read", "write" or "meta"
	Pooled      bool
	Ops         int
	Runtime     time.Duration
	AllocsPerOp float64
	BytesPerOp  float64
	// PoolOutstandingDelta is bufpool.Outstanding() across the measured
	// loop. Steady-state dispatch neither grows a cache nor hands frames
	// away, so any nonzero delta is a buffer leaked (or double-recycled)
	// per N ops; RunHotpath fails on it.
	PoolOutstandingDelta int64
}

// OpsPerSec is dispatch throughput over the measured wall-clock window.
func (s HotpathSetup) OpsPerSec() float64 {
	if s.Runtime <= 0 {
		return 0
	}
	return float64(s.Ops) / seconds(s.Runtime)
}

// HotpathCoalesce is one flush-coalescing cell: how many wide-area WRITEs a
// sequentially dirtied file costs at flush, measured in virtual time.
type HotpathCoalesce struct {
	Name        string
	Blocks      int
	WANWrites   int64
	FlushTime   time.Duration
	MaxWriteKiB int
}

// HotpathResult is the committed comparison.
type HotpathResult struct {
	Setups   []HotpathSetup
	Coalesce []HotpathCoalesce
}

const (
	hotpathBS     = 32 * 1024
	hotpathBlocks = 64
	// hotpathMetaAllocs bounds allocs/op of the pooled metadata row; RunHotpath
	// fails above it.
	hotpathMetaAllocs = 3.5
)

// RunHotpath executes all cells.
func RunHotpath(opt Options) (HotpathResult, error) {
	ops := 2000
	if s := opt.scale(); s > 1 {
		ops = max(ops/s, 100)
	}
	var res HotpathResult
	for _, path := range []string{"read", "write", "meta"} {
		for _, pooled := range []bool{false, true} {
			setup, err := runHotpathSetup(opt, path, pooled, ops)
			if err != nil {
				return res, fmt.Errorf("hotpath %s pooled=%v: %w", path, pooled, err)
			}
			opt.logf("hotpath %-5s pooled=%-5v ops=%d allocs/op=%6.1f bytes/op=%8.0f ops/sec=%8.0f",
				path, pooled, setup.Ops, setup.AllocsPerOp, setup.BytesPerOp, setup.OpsPerSec())
			res.Setups = append(res.Setups, setup)
			if path == "meta" && pooled && setup.AllocsPerOp > hotpathMetaAllocs {
				return res, fmt.Errorf("hotpath meta: %.2f allocs/op with tracing off, want at most %.1f", setup.AllocsPerOp, hotpathMetaAllocs)
			}
		}
	}
	for _, cell := range []struct {
		name     string
		maxWrite int
	}{
		{"coalesced", 0}, // default: up to nfs3.MaxIOSize per WRITE
		{"per-block", hotpathBS},
	} {
		c, err := runHotpathCoalesce(opt, cell.name, cell.maxWrite)
		if err != nil {
			return res, fmt.Errorf("hotpath coalesce %s: %w", cell.name, err)
		}
		opt.logf("hotpath flush %-10s blocks=%d wan-writes=%d flush=%v",
			cell.name, c.Blocks, c.WANWrites, c.FlushTime)
		res.Coalesce = append(res.Coalesce, c)
	}
	return res, nil
}

func runHotpathSetup(opt Options, path string, pooled bool, ops int) (HotpathSetup, error) {
	defer bufpool.SetEnabled(true)
	bufpool.SetEnabled(pooled)

	// TraceRing -1: span retention off, so the dispatch path skips building
	// trace labels — the configuration whose memory profile this cell pins.
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: simnet.WAN, TraceRing: -1})
	if err != nil {
		return HotpathSetup{}, err
	}
	defer d.Close()
	if _, err := d.FS.WriteFile("hot", make([]byte, hotpathBlocks*hotpathBS)); err != nil {
		return HotpathSetup{}, err
	}

	name := fmt.Sprintf("%s-unpooled", path)
	if pooled {
		name = fmt.Sprintf("%s-pooled", path)
	}
	setup := HotpathSetup{Name: name, Path: path, Pooled: pooled, Ops: ops}
	var runErr error
	d.Run("hotpath", func() {
		// Long poll/flush intervals keep background actors quiet during the
		// measured window, so the deltas below are the op path alone.
		sess, err := d.NewSession("hot", core.Config{
			Model: core.ModelPolling, PollPeriod: time.Hour,
			WriteBack: true, FlushInterval: time.Hour, ReadAhead: noReadAhead,
		})
		if err != nil {
			runErr = err
			return
		}
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			runErr = err
			return
		}
		f, err := m.Client.Open("hot")
		if err != nil {
			runErr = err
			return
		}
		fh := f.FH()
		conn := m.Client.Conn()
		block := make([]byte, hotpathBS)
		for i := range block {
			block[i] = byte(i)
		}
		// Warm every block into the proxy cache through the full RPC stack
		// (and, for the write path, dirty it once) so the measured loop is
		// pure steady state.
		for bn := 0; bn < hotpathBlocks; bn++ {
			if _, err := conn.Read(fh, uint64(bn*hotpathBS), hotpathBS); err != nil {
				runErr = err
				return
			}
			if path == "write" {
				if _, err := conn.Write(fh, uint64(bn*hotpathBS), block, nfs3.Unstable); err != nil {
					runErr = err
					return
				}
			}
		}

		// One pre-marshalled request frame per block (or per metadata call);
		// the loop drives the proxy's real dispatch with a reused decoder and
		// Call, so the deltas are the decode -> cache -> encode path alone.
		type frame struct {
			proc uint32
			args interface{ Encode(*xdr.Encoder) }
		}
		var frames []frame
		for bn := 0; bn < hotpathBlocks && path != "meta"; bn++ {
			off := uint64(bn) * hotpathBS
			if path == "read" {
				frames = append(frames, frame{nfs3.ProcRead, &nfs3.ReadArgs{FH: fh, Offset: off, Count: hotpathBS}})
			} else {
				frames = append(frames, frame{nfs3.ProcWrite, &nfs3.WriteArgs{FH: fh, Offset: off, Count: hotpathBS, Stable: nfs3.Unstable, Data: block}})
			}
		}
		if path == "meta" {
			frames = []frame{
				{nfs3.ProcGetattr, &nfs3.GetattrArgs{FH: fh}},
				{nfs3.ProcLookup, &nfs3.DirOpArgs{Dir: m.Client.Root(), Name: "hot"}},
				{nfs3.ProcAccess, &nfs3.AccessArgs{FH: fh, Access: nfs3.AccessRead}},
			}
		}
		wire := make([][]byte, len(frames))
		for i, f := range frames {
			e := xdr.NewEncoder()
			f.args.Encode(e)
			wire[i] = e.Bytes()
		}
		dec := xdr.NewDecoder(nil)
		call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version}
		forwards := m.Proxy.Stats().Forwards
		dispatch := func(i int) error {
			dec.Reset(wire[i%len(wire)])
			enc := bufpool.GetEncoder()
			call.Proc = frames[i%len(wire)].proc
			call.Args = dec
			call.Reply = enc
			st := m.Proxy.ServeCall(call)
			if st != sunrpc.Success {
				return fmt.Errorf("%s op %d: %v", path, i, st)
			}
			bufpool.PutEncoder(enc)
			return nil
		}
		// Verify the reply once, outside the measured window: a warm read
		// must return the full block, a warm write must be absorbed (OK); the
		// metadata calls are checked after the loop, by never having crossed
		// the wide area.
		if path != "meta" {
			dec.Reset(wire[0])
			enc := bufpool.GetEncoder()
			call.Proc, call.Args, call.Reply = frames[0].proc, dec, enc
			if st := m.Proxy.ServeCall(call); st != sunrpc.Success {
				runErr = fmt.Errorf("%s probe: %v", path, st)
				return
			}
			rd := xdr.NewDecoder(enc.Bytes())
			if path == "read" {
				var res nfs3.ReadRes
				if err := res.Decode(rd); err != nil || res.Status != nfs3.OK || res.Count != hotpathBS {
					runErr = fmt.Errorf("read probe: err=%v res=%+v", err, res.Status)
					return
				}
			} else {
				var res nfs3.WriteRes
				if err := res.Decode(rd); err != nil || res.Status != nfs3.OK || res.Count != hotpathBS {
					runErr = fmt.Errorf("write probe: err=%v res=%+v", err, res.Status)
					return
				}
			}
			bufpool.PutEncoder(enc)
		}

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		poolBefore := bufpool.Outstanding()
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := dispatch(i); err != nil {
				runErr = err
				return
			}
		}
		setup.Runtime = time.Since(start)
		setup.PoolOutstandingDelta = bufpool.Outstanding() - poolBefore
		runtime.ReadMemStats(&after)
		setup.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
		setup.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
		if n := m.Proxy.Stats().Forwards - forwards; n != 0 {
			runErr = fmt.Errorf("%d of %d warm %s calls crossed the wide area", n, ops, path)
		}
	})
	if runErr == nil && setup.PoolOutstandingDelta != 0 {
		runErr = fmt.Errorf("pool outstanding delta %d over %d steady-state ops (buffer leak or double recycle)",
			setup.PoolOutstandingDelta, ops)
	}
	return setup, runErr
}

func runHotpathCoalesce(opt Options, name string, maxWrite int) (HotpathCoalesce, error) {
	// The full WAN profile, bandwidth included: large coalesced frames spend
	// real transfer time on the 4 Mbit/s link, which is exactly the regime
	// the size-stretched retransmission timeout exists for (a fixed timeout
	// would retransmit every megabyte WRITE mid-flight).
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: simnet.WAN})
	if err != nil {
		return HotpathCoalesce{}, err
	}
	defer d.Close()
	if _, err := d.FS.WriteFile("big", make([]byte, hotpathBlocks*hotpathBS)); err != nil {
		return HotpathCoalesce{}, err
	}
	cell := HotpathCoalesce{Name: name, Blocks: hotpathBlocks, MaxWriteKiB: maxWrite / 1024}
	if maxWrite == 0 {
		cell.MaxWriteKiB = nfs3.MaxIOSize / 1024
	}
	var runErr error
	d.Run("hotpath-coalesce", func() {
		sess, err := d.NewSession("hot", core.Config{
			Model: core.ModelPolling, WriteBack: true,
			FlushInterval: time.Hour, MaxWriteBytes: maxWrite, ReadAhead: noReadAhead,
		})
		if err != nil {
			runErr = err
			return
		}
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			runErr = err
			return
		}
		f, err := m.Client.Open("big")
		if err != nil {
			runErr = err
			return
		}
		if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
			runErr = err
			return
		}
		block := make([]byte, hotpathBS)
		for bn := 0; bn < hotpathBlocks; bn++ {
			if _, err := f.WriteAt(block, uint64(bn*hotpathBS)); err != nil {
				runErr = err
				return
			}
		}
		if err := f.Sync(); err != nil {
			runErr = err
			return
		}
		cell.FlushTime = d.Elapsed(func() {
			if err := f.Truncate(hotpathBlocks * hotpathBS); err != nil {
				runErr = err
			}
		})
		cell.WANWrites = m.WANCounts()["WRITE"]
	})
	return cell, runErr
}

// Render prints the comparison tables.
func (r HotpathResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Hot path memory: warm %d KiB block ops and metadata calls through the proxy client's dispatch\n", hotpathBS/1024)
	fmt.Fprintf(w, "%-16s%10s%14s%14s%12s\n", "setup", "ops", "allocs/op", "bytes/op", "ops/sec")
	for _, s := range r.Setups {
		fmt.Fprintf(w, "%-16s%10d%14.1f%14.0f%12.0f\n", s.Name, s.Ops, s.AllocsPerOp, s.BytesPerOp, s.OpsPerSec())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Write-back flush of %d sequential dirty blocks (virtual time)\n", hotpathBlocks)
	fmt.Fprintf(w, "%-16s%14s%14s%14s\n", "setup", "max_write_kib", "wan_writes", "flush_ms")
	for _, c := range r.Coalesce {
		fmt.Fprintf(w, "%-16s%14d%14d%14.0f\n", c.Name, c.MaxWriteKiB, c.WANWrites, float64(c.FlushTime)/float64(time.Millisecond))
	}
}

// hotpathJSON is the committed BENCH_hotpath.json schema. The coalesce leg
// is virtual-time deterministic; allocs/op are process measurements (see
// the package comment above).
type hotpathJSON struct {
	Experiment string                `json:"experiment"`
	BlockKiB   int                   `json:"block_kib"`
	Setups     []hotpathSetupJSON    `json:"setups"`
	Coalesce   []hotpathCoalesceJSON `json:"flush_coalescing"`
}

type hotpathSetupJSON struct {
	Name                 string  `json:"name"`
	Path                 string  `json:"path"`
	Pooled               bool    `json:"pooled"`
	Ops                  int     `json:"ops"`
	AllocsPerOp          float64 `json:"allocs_per_op"`
	BytesPerOp           float64 `json:"bytes_per_op"`
	OpsPerSec            float64 `json:"ops_per_sec"`
	PoolOutstandingDelta int64   `json:"pool_outstanding_delta"`
}

type hotpathCoalesceJSON struct {
	Name        string  `json:"name"`
	Blocks      int     `json:"blocks"`
	MaxWriteKiB int     `json:"max_write_kib"`
	WANWrites   int64   `json:"wan_writes"`
	FlushMs     float64 `json:"flush_ms"`
}

// WriteJSON emits the machine-readable comparison.
func (r HotpathResult) WriteJSON(w io.Writer) error {
	out := hotpathJSON{Experiment: "hotpath", BlockKiB: hotpathBS / 1024}
	for _, s := range r.Setups {
		out.Setups = append(out.Setups, hotpathSetupJSON{
			Name: s.Name, Path: s.Path, Pooled: s.Pooled, Ops: s.Ops,
			AllocsPerOp: s.AllocsPerOp, BytesPerOp: s.BytesPerOp, OpsPerSec: s.OpsPerSec(),
			PoolOutstandingDelta: s.PoolOutstandingDelta,
		})
	}
	for _, c := range r.Coalesce {
		out.Coalesce = append(out.Coalesce, hotpathCoalesceJSON{
			Name: c.Name, Blocks: c.Blocks, MaxWriteKiB: c.MaxWriteKiB,
			WANWrites: c.WANWrites, FlushMs: float64(c.FlushTime) / float64(time.Millisecond),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
