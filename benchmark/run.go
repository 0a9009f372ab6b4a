package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/obs"
)

// runRecord is one run of one workload, as written to a result file.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples is how many latencies the percentiles rest on.
	Samples int `json:"samples"`

	values map[string]float64 // every metric computed, for the printed table
}

// maxSetups caps the set-ups one run times for setup_s.
const maxSetups = 20

// edge is every counter read at one edge of the measured window.
type edge struct {
	cpu      time.Duration
	mem      runtime.MemStats
	reg      obs.Snapshot
	upstream map[uint64]int64
	client   []core.ProxyClientStats
	server   core.ProxyServerStats
	link     linkUsage
	pool     int64
	wb       int64
	genRPCs  map[uint64]int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readEdge(b *bed) edge {
	e := edge{
		cpu:      cpuTime(),
		reg:      b.st.obs.Registry().Snapshot(),
		upstream: b.st.upstreamRPCs(),
		server:   b.st.proxyd.Stats(),
		link:     b.st.linkUsage(),
		pool:     bufpool.Outstanding(),
		genRPCs:  make(map[uint64]int64),
	}
	for _, pc := range b.st.proxyc {
		e.client = append(e.client, pc.Stats())
	}
	for _, g := range b.st.gens {
		for k, v := range g.RPC().Counts() {
			e.genRPCs[k] += v
		}
	}
	if b.wbBytes != nil {
		e.wb = b.wbBytes.Load()
	}
	runtime.ReadMemStats(&e.mem)
	return e
}

// runWorkload sets the workload up (several times, for setup_s), drives it,
// checks it and tears it down.
func runWorkload(w *workloadDef, p params) (runRecord, []span, error) {
	rec := runRecord{Workload: w.name, Seed: p.seed, Trace: p.trace, values: make(map[string]float64)}
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	// Set up at least p.setups times and, for a workload that sets up in
	// milliseconds, until a second has gone by: a median of more samples
	// where one sample is mostly scheduling luck. The last bed is measured on.
	var b *bed
	var setupTimes []float64
	began := time.Now()
	more := func() bool {
		n := len(setupTimes)
		return n < p.setups || (p.setups > 1 && n < maxSetups && time.Since(began) < time.Second)
	}
	for more() {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(p, tr); err != nil {
			return rec, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer b.close()

	stopSampling := sampleGoroutines()

	var before, after edge
	var onSlice func(int)
	if tr != nil {
		// Taps record on odd slices only, so the even ones give the rate
		// without them; a one-slice window is tapped throughout.
		onSlice = func(i int) { tr.on.Store(b.slices == 1 || i%2 == 1) }
	}
	load := runLoad(b.callers, p.warmup, p.measure, b.slices,
		func() { before = readEdge(b) },
		func() { after = readEdge(b) },
		onSlice)
	if tr != nil {
		tr.on.Store(false)
	}
	goroutinesPeak := stopSampling()

	checksFailed := 0
	if b.finish != nil {
		var layer map[string]float64
		checksFailed, layer = b.finish()
		for k, v := range layer {
			rec.values[k] = v
		}
	}

	// The generator's view. Per slice: primary operations per second and
	// latency percentiles; the run reports the median slice.
	v := rec.values
	var rates, p50s, p90s, ratesOn, ratesOff []float64
	var allLats, bgLats []int64
	perCaller := make([]int, len(b.callers))
	primaryOps := 0
	for si, sl := range load.slices {
		var lats []int64
		ops := 0
		for ci, t := range sl {
			if !b.callers[ci].primary {
				bgLats = append(bgLats, t.lats...)
				continue
			}
			ops += t.ops
			perCaller[ci] += t.ops
			lats = append(lats, t.lats...)
		}
		primaryOps += ops
		allLats = append(allLats, lats...)
		span := load.sliceLen
		if b.slices == 1 {
			span = load.elapsed
		}
		rate := float64(ops) / span.Seconds()
		rates = append(rates, rate)
		if si%2 == 1 {
			ratesOn = append(ratesOn, rate)
		} else {
			ratesOff = append(ratesOff, rate)
		}
		s := sortedCopy(lats)
		p50s = append(p50s, percentile(s, 0.50)/1e3)
		p90s = append(p90s, percentile(s, 0.90)/1e3)
	}
	if len(bgLats) > 0 {
		s := sortedCopy(bgLats)
		rec.values["bg.ops_s"] = float64(len(s)) / load.elapsed.Seconds()
		rec.values["bg.p50_us"] = percentile(s, 0.5) / 1e3
		rec.values["bg.p90_us"] = percentile(s, 0.9) / 1e3
	}
	if primaryOps == 0 {
		return rec, nil, fmt.Errorf("%s: no primary operation completed in the window", w.name)
	}
	ops := float64(primaryOps)
	rec.Samples = len(allLats)
	rec.Attempted = load.attempted + int64(checksFailed)
	rec.Failed = load.failed + int64(checksFailed)
	rec.Correct = rec.Failed == 0

	v["setup_s"] = median(setupTimes)
	v["ops_s"] = median(rates)
	v["p50_us"] = median(p50s)
	v["p90_us"] = median(p90s)

	sorted := sortedCopy(allLats)
	v["gen.ops_s"], v["gen.p50_us"] = v["ops_s"], v["p50_us"]
	if tr != nil && b.slices > 1 {
		v["gen.ops_s"] = median(ratesOn)
		if off := median(ratesOff); off > 0 {
			v["bench.tap_overhead_share"] = 1 - median(ratesOn)/off
		}
	}
	v["gen.p99_us"] = percentile(sorted, 0.99) / 1e3
	v["gen.max_us"] = percentile(sorted, 1) / 1e3
	v["gen.samples"] = float64(len(sorted))
	lo, hi, primaries := math.MaxInt, 0, 0
	for ci, n := range perCaller {
		if b.callers[ci].primary {
			primaries++
			lo, hi = min(lo, n), max(hi, n)
		}
	}
	if primaries > 1 {
		v["gen.caller_imbalance"] = float64(hi-lo) / (ops / float64(primaries))
	}

	counterMetrics(v, before, after, ops, load.elapsed)
	_, inflightPeak := b.st.proxyd.Inflight()
	v["proxyd.inflight_peak"] = float64(inflightPeak)
	v["proc.peak_rss_mb"] = peakRSSMB()
	v["proc.goroutines_peak"] = float64(goroutinesPeak)

	var spans []span
	if tr != nil {
		spans = tr.spans()
		tapMetrics(v, spans)
	}
	return rec, spans, nil
}

// sampleGoroutines watches the goroutine count until the returned function
// is called, which reports the high-water mark.
func sampleGoroutines() (stop func() int) {
	quit := make(chan struct{})
	peak := make(chan int)
	go func() {
		hi := runtime.NumGoroutine()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				hi = max(hi, runtime.NumGoroutine())
			case <-quit:
				peak <- hi
				return
			}
		}
	}()
	return func() int {
		close(quit)
		return <-peak
	}
}

// counterMetrics derives the per-layer metrics that come from counters the
// daemons already keep, as differences over the measured window.
func counterMetrics(v map[string]float64, a, z edge, ops float64, elapsed time.Duration) {
	var c, c0 core.ProxyClientStats
	sum := func(dst *core.ProxyClientStats, all []core.ProxyClientStats) {
		for _, s := range all {
			dst.LocalHits += s.LocalHits
			dst.Forwards += s.Forwards
			dst.Recalls += s.Recalls
			dst.FlushedBlocks += s.FlushedBlocks
			dst.AttrHits += s.AttrHits + s.DentryHits + s.NegLookupHits + s.AccessHits + s.ListingHits
		}
	}
	sum(&c, z.client)
	sum(&c0, a.client)
	hits, fwds := float64(c.LocalHits-c0.LocalHits), float64(c.Forwards-c0.Forwards)
	if hits+fwds > 0 {
		v["core.hit_share"] = hits / (hits + fwds)
	}
	nfsCalls := func(m0, m1 map[uint64]int64, procs ...uint32) float64 {
		var n int64
		for _, proc := range procs {
			k := uint64(nfs3.Program)<<32 | uint64(proc)
			n += m1[k] - m0[k]
		}
		return float64(n)
	}
	metaProcs := []uint32{nfs3.ProcGetattr, nfs3.ProcLookup, nfs3.ProcAccess, nfs3.ProcReaddir, nfs3.ProcReaddirplus}
	if asked := nfsCalls(a.genRPCs, z.genRPCs, metaProcs...); asked > 0 {
		v["core.meta_hit_share"] = float64(c.AttrHits-c0.AttrHits) / asked
	}
	if reads := nfsCalls(a.genRPCs, z.genRPCs, nfs3.ProcRead); reads > 0 {
		joins := z.reg.SumCounters("gvfs_client_readahead_joins_total") - a.reg.SumCounters("gvfs_client_readahead_joins_total")
		v["core.readahead_join_share"] = float64(joins) / reads
	}
	wanWrites := nfsCalls(a.upstream, z.upstream, nfs3.ProcWrite)
	if wanWrites > 0 {
		v["core.coalesce_blocks_per_write"] = float64(c.FlushedBlocks-c0.FlushedBlocks) / wanWrites
	}

	var total int64
	for k, n := range z.upstream {
		total += n - a.upstream[k]
	}
	v["wan.rpcs_per_op"] = float64(total) / ops
	v["wan.read_per_op"] = nfsCalls(a.upstream, z.upstream, nfs3.ProcRead) / ops
	v["wan.write_per_op"] = wanWrites / ops
	v["wan.commit_per_op"] = nfsCalls(a.upstream, z.upstream, nfs3.ProcCommit) / ops
	v["wan.meta_per_op"] = nfsCalls(a.upstream, z.upstream, append(metaProcs, nfs3.ProcSetattr)...) / ops
	v["wan.namespace_per_op"] = nfsCalls(a.upstream, z.upstream, nfs3.ProcCreate, nfs3.ProcMkdir, nfs3.ProcSymlink,
		nfs3.ProcRemove, nfs3.ProcRmdir, nfs3.ProcRename, nfs3.ProcLink) / ops
	getinv := uint64(core.InvProgram)<<32 | core.ProcGetInv
	v["wan.getinv_per_op"] = float64(z.upstream[getinv]-a.upstream[getinv]) / ops
	v["wan.bytes_per_op"] = float64(z.link.bytes-a.link.bytes) / ops
	v["wan.link_util"] = float64(z.link.busy-a.link.busy) / float64(elapsed)
	v["wb.mb_s"] = float64(z.wb-a.wb) / 1e6 / elapsed.Seconds()

	v["cb.recalls_per_op"] = float64(c.Recalls-c0.Recalls) / ops
	v["proxyd.callbacks_per_op"] = float64(z.server.CallbacksSent-a.server.CallbacksSent) / ops
	for name, fam := range map[string]string{
		"sunrpc.retransmits": "gvfs_rpc_retransmits_total",
		"sunrpc.drc_hits":    "gvfs_rpc_drc_hits_total",
		"sunrpc.sheds":       "gvfs_server_shed_total",
	} {
		v[name] = float64(z.reg.SumCounters(fam) - a.reg.SumCounters(fam))
	}

	v["proc.cpu_us_per_op"] = float64(z.cpu-a.cpu) / 1e3 / ops
	v["proc.allocs_per_op"] = float64(z.mem.Mallocs-a.mem.Mallocs) / ops
	v["proc.alloc_bytes_per_op"] = float64(z.mem.TotalAlloc-a.mem.TotalAlloc) / ops
	v["proc.gc_pause_share"] = float64(z.mem.PauseTotalNs-a.mem.PauseTotalNs) / float64(elapsed)
	v["bufpool.outstanding_per_op"] = float64(z.pool-a.pool) / ops
}

// tapMetrics derives the per-layer metrics that come from the hop taps.
func tapMetrics(v map[string]float64, spans []span) {
	lt := decompose(spans)
	p50 := func(ns []int64) float64 { return percentile(sortedCopy(ns), 0.5) / 1e3 }
	v["proxyc.self_us_p50"] = p50(lt.proxycSelf)
	v["proxyd.self_us_p50"] = p50(lt.proxydSelf)
	v["nfsd.span_us_p50"] = p50(lt.nfsdSpan)
	v["wire.k_us_p50"] = p50(lt.wire[hopK])
	v["wire.w_us_p50"] = p50(lt.wire[hopW])
	v["wire.n_us_p50"] = p50(lt.wire[hopN])
	v["cb.span_us_p50"] = p50(lt.cbSpan)
	v["wan.inflight_peak"] = float64(peakOverlap(lt.wSpans))
	// What the generator adds outside the taps: its RPC client and its checks.
	v["gen.self_us_p50"] = v["gen.p50_us"] - p50(lt.kernelSpan)
	if lt.kernelCalls > 0 {
		v["proxyc.forward_share"] = float64(lt.forwarded) / float64(lt.kernelCalls)
	}
	// What the generator saw that the parts' medians do not add up to. The
	// parts behind the proxy client count when the median request crosses
	// them. Only an operation of one request has these parts, so this reads
	// true on warm_read, warm_stat and miss_read and means nothing elsewhere.
	if gen := v["gen.p50_us"]; gen > 0 {
		sum := v["gen.self_us_p50"] + v["wire.k_us_p50"] + v["proxyc.self_us_p50"]
		if v["proxyc.forward_share"] > 0.5 {
			sum += v["wire.w_us_p50"] + v["proxyd.self_us_p50"] + v["wire.n_us_p50"] + v["nfsd.span_us_p50"]
		}
		v["bench.unexplained_share"] = math.Abs(1 - sum/gen)
	}
}
