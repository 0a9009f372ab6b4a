package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskcache"
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// ProxyClient is the GVFS user-level proxy on a compute node. The unmodified
// kernel NFS client mounts it over loopback; the proxy serves what it can
// from its per-session disk cache and forwards the rest across the wide
// area to the proxy server, maintaining consistency with the session's
// configured protocol.
type ProxyClient struct {
	clk  *vclock.Clock
	cfg  Config
	cred SessionCred

	cache *sessionCache
	// disk is the crash-consistent persistent block store mirroring the
	// session cache (nil when Config.DiskCacheDir is unset, or when the
	// store failed to open and the proxy degraded to memory-only).
	disk *diskcache.Store
	// recovering is set when disk came back holding a predecessor's blocks:
	// Serve then runs crash recovery (recoverAfterCrash).
	recovering bool
	srv        *sunrpc.Server
	// cbSrv serves the GVFS callback program on its own server so the
	// bounded scheduling pool applies to recall traffic without ever
	// shedding or queueing the kernel's loopback NFS calls (the kernel
	// client has no TRY_LATER retransmit path).
	cbSrv *sunrpc.Server
	// redial re-establishes the upstream connection after a failure
	// (server restart, healed partition); nil disables reconnection.
	redial func() (*sunrpc.Client, error)

	stopped atomic.Bool

	// mu guards the upstream connection, its counts and the recall write-back
	// queue (proxyclient_writeback.go) only: everything keyed by file handle
	// lives in the session cache's record table, under its lock, and the poll
	// state belongs to the poll actor.
	mu             sync.Mutex
	up             *sunrpc.Client
	accum          map[uint64]int64 // upstream RPC counts from closed connections
	recallFlushQ   []recallFlushReq
	recallFlushers int

	// lastInvTS is the server timestamp the next GETINV carries. Only the poll
	// actor (pollOnce) touches it.
	lastInvTS uint64
	// pollHorizon is the staleness observatory's freshness horizon under the
	// polling model, a time.Duration: the send time of the latest GETINV round
	// whose pre-round invalidations have all been applied to this cache (see
	// the pollCover accounting in pollOnce). Every remote commit at or before
	// it has been applied here, so serving data older than such a commit is a
	// genuine bound violation. The horizon only ever claims what the
	// invalidation channel actually delivered: rounds a capped or failed poll
	// left uncovered do not advance it. The poll actor publishes it; serves
	// read it.
	pollHorizon atomic.Int64

	// ra is the session's readahead pipeline (readahead.go); idle, and never
	// consulted, when Config.ReadAhead is negative.
	ra readPipe

	// node records this proxy's trace spans; met holds its registry series,
	// the only home of its counters.
	node *obs.Node
	met  *clientMetrics
}

// ProxyClientStats is the pinned benchmark's view (benchmark/run.go) of nine
// proxy-client counters. The counters live once, in the obs registry, under
// the series named beside each field; every other reader reads them there.
// The view goes when the benchmark reads the registry too.
type ProxyClientStats struct {
	LocalHits     int64 // gvfs_client_local_hits_total: kernel RPCs answered locally
	Forwards      int64 // gvfs_client_forwards_total: kernel RPCs that crossed the wide area
	Recalls       int64 // gvfs_client_recalls_total: delegation callbacks served
	FlushedBlocks int64 // gvfs_client_flushed_blocks_total: dirty blocks written back

	// Local metadata serves, gvfs_client_meta_hits_total by its cache label:
	// attr, dentry, negative, access and listing.
	AttrHits      int64
	DentryHits    int64
	NegLookupHits int64
	AccessHits    int64
	ListingHits   int64
}

// NewProxyClient builds a proxy client over an established upstream RPC
// connection (to the proxy server, or directly to an NFS server for
// pass-through operation). The session credential is attached to every
// upstream call, its NoListings set from cfg.DisableMetaCache.
func NewProxyClient(clk *vclock.Clock, cfg Config, upstream *sunrpc.Client, cred SessionCred) *ProxyClient {
	cfg = cfg.withDefaults()
	cred.NoListings = cfg.DisableMetaCache
	upstream.SetCred(cred.Encode())
	p := &ProxyClient{
		clk:   clk,
		cfg:   cfg,
		cred:  cred,
		up:    upstream,
		accum: make(map[uint64]int64),
		cache: newSessionCache(cfg.BlockSize, cfg.CacheBytes),
		srv:   sunrpc.NewServer(clk),
		cbSrv: sunrpc.NewServer(clk),
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New(clk.Now, 1024)
	}
	p.node = o.Node("proxyc:" + cred.ClientID)
	p.met = newClientMetrics(o.Registry(), cred.ClientID)
	p.ra.init(cfg)
	p.met.readaheadWindow.Set(p.ra.window.Load())
	cfg.Staleness.Register(shortModel(cfg.Model))
	p.cache.setPolicy(clk.Now, cfg.cachePolicy(), p.met.cacheCounters())
	if cfg.DiskCacheDir != "" {
		p.openDiskCache()
	}
	// Upstream call spans (the wide-area round trips) are recorded at this
	// proxy's node, nested under the kernel request via the shared ID.
	upstream.SetObs(p.node, RPCName)
	upstream.SetRetransmit(cfg.retransmitPolicy())
	p.srv.Register(nfs3.Program, nfs3.Version, p.ServeCall)
	p.srv.SetReadOnly(nfs3.Program, nfs3.Version, nfs3.ReadOnlyProcs()...)
	p.srv.Register(nfs3.MountProgram, nfs3.MountVersion, p.dispatchMount)
	// The callback service must be replay-safe too: a recall the server
	// retransmits may not flush (or fence) twice. It also runs behind the
	// bounded scheduling pool (rate limits elided — see callbackSchedConfig)
	// so a recall storm cannot spawn unbounded handlers.
	p.cbSrv.SetSched(cfg.callbackSchedConfig())
	p.cbSrv.Register(CallbackProgram, CallbackVersion, p.dispatchCallback)
	return p
}

// Serve starts serving kernel NFS traffic on nfsListener and GVFS callbacks
// on cbListener, and launches the session's maintenance actors. If the disk
// store this incarnation reopened held a predecessor's blocks, crash recovery
// runs last, with both listeners up: a callback that recovery's own write-back
// provokes finds this client listening.
func (p *ProxyClient) Serve(nfsListener, cbListener transport.Listener) {
	p.srv.Serve(nfsListener)
	if cbListener != nil {
		p.cbSrv.Serve(cbListener)
	}
	if p.cfg.Model == ModelPolling {
		p.clk.GoDaemon("gvfs-poll:"+p.cred.ClientID, p.pollLoop)
	}
	if p.cfg.WriteBack || p.cfg.Model == ModelDelegation {
		p.clk.GoDaemon("gvfs-flush:"+p.cred.ClientID, p.flushLoop)
	}
	if p.recovering {
		p.recoverAfterCrash()
	}
}

// recoverAfterCrash is the proxy client's restart over the disk cache its
// predecessor left (NewProxyClient has already reopened it): it invalidates
// all cached attributes to force revalidation, holds no delegation, and
// attempts to write back one block per dirty file to reconcile conflicts and
// reacquire delegations (Section 4.3.4). Files whose write-back fails with a
// conflict have their dirty data discarded as corrupted.
func (p *ProxyClient) recoverAfterCrash() {
	for _, fh := range p.cache.recallAll(false) {
		blocks := p.cache.dirtyBlocks(fh)
		if len(blocks) == 0 {
			continue
		}
		if err := p.flushBlock(0, fh, blocks[0]); err != nil {
			p.cache.discardDirty(fh, true)
		}
	}
}

// Stop halts the proxy and closes its connections. Dirty data is flushed
// first on a best-effort basis.
func (p *ProxyClient) Stop() {
	if p.stopped.Swap(true) {
		return
	}
	p.flushAll(0)
	if p.disk != nil {
		// The flushed MarkClean records are already journaled; Close folds
		// them into a final compacting checkpoint.
		if err := p.disk.Close(); err != nil {
			p.met.diskCacheErrors.Inc()
		}
	}
	p.srv.Close()
	p.cbSrv.Close()
	p.upstream().Close()
}

// Crash models an abrupt proxy-client failure: connections drop and no
// dirty data is flushed. What outlives it is what the disk store under
// Config.DiskCacheDir holds; a new instance over the same directory recovers
// it (recoverAfterCrash).
func (p *ProxyClient) Crash() {
	p.stopped.Store(true)
	if p.disk != nil {
		// SIGKILL-equivalent: no checkpoint, no final syncs. Whatever the
		// journal already holds is what recovery will see — and the store
		// goes inert so straggling actors of this incarnation cannot write
		// into a journal a restarted proxy may have reopened.
		p.disk.Abandon()
	}
	p.srv.Close()
	p.cbSrv.Close()
	p.upstream().Close()
}

// Stats returns the pinned benchmark's view of the registry's counters.
func (p *ProxyClient) Stats() ProxyClientStats {
	return ProxyClientStats{
		LocalHits:     p.met.localHits.Value(),
		Forwards:      p.met.forwards.Value(),
		Recalls:       p.met.recalls.Value(),
		FlushedBlocks: p.met.flushedBlocks.Value(),
		AttrHits:      p.met.attrHits.Value(),
		DentryHits:    p.met.dentryHits.Value(),
		NegLookupHits: p.met.negHits.Value(),
		AccessHits:    p.met.accessHits.Value(),
		ListingHits:   p.met.listingHits.Value(),
	}
}

// PublishMetrics folds point-in-time state (cache occupancy, wide-area RPC
// totals) into the obs registry. Deployments call it before scraping a
// snapshot; counters and histograms need no publishing, they update live.
func (p *ProxyClient) PublishMetrics() {
	attrs, lookups, files, bytes := p.cache.stats()
	p.met.cacheAttrs.Set(int64(attrs))
	p.met.cacheLookups.Set(int64(lookups))
	p.met.cacheFiles.Set(int64(files))
	p.met.cacheBytes.Set(bytes)
	if reg := p.node.Registry(); reg != nil {
		base := obs.Label("gvfs_client_wan_calls_total", "node", p.node.Name())
		for k, v := range p.UpstreamCounts() {
			c := reg.Counter(obs.Label(base, "op", RPCName(uint32(k>>32), uint32(k))))
			c.Add(v - c.Value()) // publish the monotonic total, idempotently
		}
	}
}

// UpstreamCounts returns wide-area RPCs sent, keyed by prog<<32|proc,
// accumulated across reconnections. The live connection's counts are folded
// in under the same lock that guards reconnection, so a concurrent reconnect
// (which moves those counts into accum) can never be observed twice.
func (p *ProxyClient) UpstreamCounts() map[uint64]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[uint64]int64, len(p.accum))
	for k, v := range p.accum {
		out[k] = v
	}
	for k, v := range p.up.Counts() {
		out[k] += v
	}
	return out
}

// observeServe reports one cache-served reply to the staleness observatory:
// fh's cached state, fetched into the cache at fetchedAt, just answered a
// kernel RPC locally. The freshness horizon is the model's guarantee at this
// instant — now under delegation (the hit already proved a delegation is held,
// and a recall would have invalidated the entry synchronously), the last
// complete poll drain's send time under polling. Serves of files with buffered
// dirty data are skipped: the bytes served are this client's own.
func (p *ProxyClient) observeServe(fh nfs3.FH, fetchedAt time.Duration, dirty bool) {
	if p.cfg.Staleness == nil || dirty {
		return
	}
	horizon := p.clk.Now()
	if p.cfg.Model != ModelDelegation {
		horizon = time.Duration(p.pollHorizon.Load())
	}
	p.cfg.Staleness.ObserveServe(fh.Key(), p.cred.ClientID, shortModel(p.cfg.Model), fetchedAt, horizon)
}

// spanFH labels the call's span with fh — formatted only when a retained span
// will carry it.
func spanFH(call *sunrpc.Call, fh nfs3.FH) {
	if call.Traced {
		call.SpanFH = fh.String()
	}
}

// hitLocal counts a kernel RPC answered from the disk cache and annotates
// the serve span. A detail set earlier (e.g. "join" for a read that waited
// on an in-flight readahead) is kept.
func (p *ProxyClient) hitLocal(call *sunrpc.Call) {
	p.met.localHits.Inc()
	if call != nil && call.SpanDetail == "" {
		call.SpanDetail = "hit"
	}
}

// hitForward counts a kernel RPC that crossed the wide area.
func (p *ProxyClient) hitForward(call *sunrpc.Call) {
	p.met.forwards.Inc()
	if call != nil && call.SpanDetail == "" {
		call.SpanDetail = "forward"
	}
}

// --- kernel-facing NFS dispatch --------------------------------------------

func (p *ProxyClient) dispatchMount(call *sunrpc.Call) sunrpc.AcceptStat {
	// Forward MOUNT verbatim: the root handle comes from the real server.
	rep, err := p.rawCall(call.ReqID, nfs3.MountProgram, nfs3.MountVersion, call.Proc, call.Args.Rest())
	if err != nil {
		return sunrpc.SystemErr
	}
	call.Reply.FixedOpaque(rep.Body.Rest())
	rep.Release()
	return sunrpc.Success
}

// ServeCall executes one NFSv3 call against the proxy exactly as the RPC
// server's dispatch does, span recording included. Callers construct a
// sunrpc.Call with Args positioned at the procedure arguments and Reply ready
// to receive results — the same contract a transport-delivered call meets.
// It is the RPC server's dispatch, and lets benchmarks (and embedders) drive
// the real handler chain without a transport in between, e.g. to measure the
// warm block path's allocation profile in isolation. It wraps serveNFS with a
// trace span: the proxy's view of each kernel RPC, carrying the handler's
// FH/detail/bytes annotations. The proxy's own sunrpc.Server records no
// generic spans (SetObs is not installed on it), so this is the single
// serve-side record per kernel call at this node.
func (p *ProxyClient) ServeCall(call *sunrpc.Call) sunrpc.AcceptStat {
	return p.traced(call, nfs3.Program, p.serveNFS)
}

// traced runs serve under a span of this proxy's node, named after prog's
// procedure. The proxy records spans at its own node, not the RPC server's
// (which has no tracer installed): it announces that in call.Traced, so
// handlers compute their span labels exactly when a retained record will carry
// them.
func (p *ProxyClient) traced(call *sunrpc.Call, prog uint32, serve func(*sunrpc.Call) sunrpc.AcceptStat) sunrpc.AcceptStat {
	call.Traced = p.node.Tracing()
	if !call.Traced {
		return serve(call)
	}
	start := p.node.Now()
	stat := serve(call)
	sp := obs.Span{
		Req:    call.ReqID,
		Op:     RPCName(prog, call.Proc),
		FH:     call.SpanFH,
		Model:  shortModel(p.cfg.Model),
		Detail: call.SpanDetail,
		Bytes:  call.SpanBytes,
		Start:  start,
		End:    p.node.Now(),
	}
	if stat != sunrpc.Success {
		sp.Err = stat.String()
	}
	p.node.Record(sp)
	return stat
}

func (p *ProxyClient) serveNFS(call *sunrpc.Call) sunrpc.AcceptStat {
	if p.cfg.ProxyDelay > 0 {
		p.clk.Sleep(p.cfg.ProxyDelay)
	}
	switch call.Proc {
	case nfs3.ProcNull:
		return sunrpc.Success
	case nfs3.ProcGetattr:
		return p.getattr(call)
	case nfs3.ProcLookup:
		return p.lookup(call)
	case nfs3.ProcRead:
		return p.read(call)
	case nfs3.ProcWrite:
		return p.write(call)
	case nfs3.ProcSetattr:
		return p.setattr(call)
	case nfs3.ProcCreate:
		return p.create(call)
	case nfs3.ProcMkdir:
		return p.mkdir(call)
	case nfs3.ProcSymlink:
		return p.symlink(call)
	case nfs3.ProcRemove, nfs3.ProcRmdir:
		return p.unlink(call)
	case nfs3.ProcRename:
		return p.rename(call)
	case nfs3.ProcLink:
		return p.linkProc(call)
	case nfs3.ProcReaddir:
		return p.readdir(call)
	case nfs3.ProcReaddirplus:
		return p.readdirplus(call)
	case nfs3.ProcCommit:
		return p.commit(call)
	case nfs3.ProcAccess:
		return p.access(call)
	case nfs3.ProcReadlink, nfs3.ProcFsstat, nfs3.ProcFsinfo:
		return p.passthrough(call)
	default:
		return sunrpc.ProcUnavail
	}
}
