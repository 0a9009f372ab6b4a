package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/diskcache"
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
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
	srv  *sunrpc.Server
	// cbSrv serves the GVFS callback program on its own server so the
	// bounded scheduling pool applies to recall traffic without ever
	// shedding or queueing the kernel's loopback NFS calls (the kernel
	// client has no TRY_LATER retransmit path).
	cbSrv *sunrpc.Server
	// redial re-establishes the upstream connection after a failure
	// (server restart, healed partition); nil disables reconnection.
	redial func() (*sunrpc.Client, error)

	stopped atomic.Bool

	// mu guards connection, poll and recall-queue state only: everything keyed
	// by file handle lives in the session cache's record table, under its lock.
	mu         sync.Mutex
	up         *sunrpc.Client
	accum      map[uint64]int64 // upstream RPC counts from closed connections
	lastInvTS  uint64
	pollWindow time.Duration
	// pollHorizon is the staleness observatory's freshness horizon under the
	// polling model: the send time of the latest GETINV round whose
	// pre-round invalidations have all been applied to this cache (see the
	// pollCover accounting in pollOnce). Every remote commit at or before
	// it has been applied here, so serving data older than such a commit is
	// a genuine bound violation. The horizon only ever claims what the
	// invalidation channel actually delivered: rounds a capped or failed
	// poll left uncovered do not advance it.
	pollHorizon time.Duration

	// Background write-backs triggered by recalls with large dirty sets.
	// Each recall used to spawn its own flush actor, so a recall storm (a
	// flood of conflicting requests during a flush) meant unbounded
	// concurrent flushers; the FIFO bounds them at recallFlushWorkers
	// drainers. recallFlushMax records the concurrency high-water for the
	// regression test.
	recallFlushQ   []recallFlushReq
	recallFlushers int
	recallFlushMax int

	// ra is the session's readahead pipeline (readahead.go); idle, and never
	// consulted, when Config.ReadAhead is negative.
	ra readPipe

	// node records this proxy's trace spans; met holds its registry series.
	// Counters are the single source of truth — ProxyClientStats is now a
	// view assembled from them (see Stats).
	node *obs.Node
	met  *clientMetrics
}

// ProxyClientStats counts proxy-client activity for the evaluation harness.
type ProxyClientStats struct {
	// LocalHits are kernel RPCs answered from the disk cache without any
	// wide-area traffic — the calls the paper's figures show disappearing.
	LocalHits int64
	// Forwards are kernel RPCs that crossed the wide area.
	Forwards int64
	// Invalidations is the number of handles invalidated via GETINV.
	Invalidations int64
	// ForceInvalidations counts whole-cache invalidations.
	ForceInvalidations int64
	// Recalls counts delegation callbacks served.
	Recalls int64
	// FlushedBlocks counts dirty blocks written back.
	FlushedBlocks int64
	// UpstreamRetries counts upstream call attempts that failed at the RPC
	// layer (timeout or connection loss) and were retried or abandoned.
	UpstreamRetries int64
	// FlushErrors counts dirty-block write-backs that failed with an NFS
	// error (e.g. the file was removed); the block is dropped.
	FlushErrors int64
	// ReadAheads counts blocks prefetched by the sequential readahead
	// pipeline (each is one wide-area READ the kernel never waited a full
	// round-trip for).
	ReadAheads int64

	// Metadata fast path: local serves broken out by cache. AttrHits are
	// GETATTRs answered from the attribute cache, DentryHits positive
	// LOOKUPs, NegLookupHits cached NOENTs, AccessHits permission checks
	// computed from cached attributes, ListingHits READDIRs served from a
	// cached complete listing.
	AttrHits      int64
	DentryHits    int64
	NegLookupHits int64
	AccessHits    int64
	ListingHits   int64
	// MetaEvictions counts capacity evictions in the metadata caches.
	MetaEvictions int64

	// PollCapped counts GETINV polls abandoned at the round cap.
	PollCapped int64

	// Disk-cache recovery accounting. RecoveredBlocks (of which
	// RecoveredDirty were dirty) survived the last restart intact;
	// RecoveryDropped were discarded during replay (torn tail, CRC
	// mismatch, missing block file). RevalidatedBlocks were recovered clean
	// blocks whose file's first post-restart server attribute observation
	// confirmed them unchanged; RefetchedBlocks were dropped by the normal
	// mtime reconciliation instead.
	RecoveredBlocks   int64
	RecoveredDirty    int64
	RecoveryDropped   int64
	RevalidatedBlocks int64
	RefetchedBlocks   int64
}

// recallFlushReq is one queued background write-back (recall with a large
// dirty set); rid is the recall's trace ID so the flush WRITEs join its
// causal chain.
type recallFlushReq struct {
	rid uint64
	fh  nfs3.FH
}

// recallFlushWorkers bounds concurrent background recall flushers; the
// per-file WRITE pipelining inside flushFile already provides parallelism,
// so a small pool drains a storm without flooding the upstream link.
const recallFlushWorkers = 2

// queueRecallFlush schedules a background write-back of fh's remaining dirty
// blocks, starting a drainer actor only while fewer than recallFlushWorkers
// are running. A flush already queued for the same file is coalesced: one
// flushFile pass writes back every dirty block the file has by then.
func (p *ProxyClient) queueRecallFlush(rid uint64, fh nfs3.FH) {
	if p.stopped.Load() {
		return
	}
	p.mu.Lock()
	for _, r := range p.recallFlushQ {
		if r.fh.Key() == fh.Key() {
			p.mu.Unlock()
			return
		}
	}
	p.recallFlushQ = append(p.recallFlushQ, recallFlushReq{rid: rid, fh: fh})
	if p.recallFlushers >= recallFlushWorkers {
		p.mu.Unlock()
		return
	}
	p.recallFlushers++
	if p.recallFlushers > p.recallFlushMax {
		p.recallFlushMax = p.recallFlushers
	}
	p.mu.Unlock()
	p.clk.Go("gvfs-recall-flush:"+p.cred.ClientID, p.drainRecallFlushes)
}

// drainRecallFlushes runs queued background flushes until the FIFO empties,
// then exits (the next recall restarts a drainer).
func (p *ProxyClient) drainRecallFlushes() {
	for {
		p.mu.Lock()
		if len(p.recallFlushQ) == 0 || p.stopped.Load() {
			p.recallFlushers--
			p.mu.Unlock()
			return
		}
		req := p.recallFlushQ[0]
		p.recallFlushQ = p.recallFlushQ[1:]
		p.mu.Unlock()
		p.flushFile(req.rid, req.fh)
	}
}

// RecallFlushHighWater reports the peak number of concurrent background
// recall flushers observed, for tests asserting the bound.
func (p *ProxyClient) RecallFlushHighWater() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recallFlushMax
}

// NewProxyClient builds a proxy client over an established upstream RPC
// connection (to the proxy server, or directly to an NFS server for
// pass-through operation). The session credential is attached to every
// upstream call.
func NewProxyClient(clk *vclock.Clock, cfg Config, upstream *sunrpc.Client, cred SessionCred) *ProxyClient {
	cfg = cfg.withDefaults()
	upstream.SetCred(cred.Encode())
	p := &ProxyClient{
		clk:        clk,
		cfg:        cfg,
		cred:       cred,
		up:         upstream,
		accum:      make(map[uint64]int64),
		cache:      newSessionCache(cfg.BlockSize, cfg.CacheBytes),
		srv:        sunrpc.NewServer(clk),
		cbSrv:      sunrpc.NewServer(clk),
		pollWindow: cfg.PollPeriod,
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New(clk.Now, 1024)
	}
	name := cfg.ObsName
	if name == "" {
		name = cred.ClientID
	}
	p.node = o.Node("proxyc:" + name)
	p.met = newClientMetrics(o.Registry(), name)
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
	cfg.applyRetransmit(upstream)
	p.srv.Register(nfs3.Program, nfs3.Version, p.dispatchNFS)
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

// SetRedial installs a reconnection function used when the upstream
// connection fails: both NFS forwards and GETINV polls transparently retry
// on a fresh connection, the "simply retried" recovery of Section 4.2.3.
func (p *ProxyClient) SetRedial(redial func() (*sunrpc.Client, error)) {
	p.redial = redial
}

func (p *ProxyClient) upstream() *sunrpc.Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up
}

// reconnect swaps in a fresh upstream connection if old is still current.
func (p *ProxyClient) reconnect(old *sunrpc.Client) bool {
	if p.redial == nil {
		return false
	}
	p.mu.Lock()
	current := p.up
	p.mu.Unlock()
	if current != old {
		return true // raced with another reconnect
	}
	nu, err := p.redial()
	if err != nil {
		return false
	}
	nu.SetCred(p.cred.Encode())
	nu.SetObs(p.node, RPCName)
	p.cfg.applyRetransmit(nu)
	p.mu.Lock()
	if p.up != old {
		p.mu.Unlock()
		nu.Close()
		return true
	}
	for k, v := range old.Counts() {
		p.accum[k] += v
	}
	p.up = nu
	p.mu.Unlock()
	old.Close()
	return true
}

// rawCall issues one upstream RPC with reconnect-and-retry on failure. rid
// is the trace request ID propagated from the kernel call that caused this
// RPC; 0 lets the upstream client mint one (background traffic). The caller
// owns the reply's frame and releases it when done with the body.
func (p *ProxyClient) rawCall(rid uint64, prog, vers, proc uint32, args []byte) (sunrpc.Reply, error) {
	return p.waitCall(p.startCall(rid, prog, vers, proc, args, nil))
}

// upstreamCall is an RPC sent upstream that nobody has waited for yet.
type upstreamCall struct {
	sunrpc.Pending
	up               *sunrpc.Client
	rid              uint64
	prog, vers, proc uint32
	args, tail       []byte // what a retry sends again
}

// startCall sends one upstream RPC and returns without waiting: waitCall
// collects the reply. Apart, they let a burst go out in an order of the
// caller's choosing (issue). tail, when there is one, follows args on the
// wire by reference (sunrpc.Client.StartParts) and is the call's until
// waitCall returns.
func (p *ProxyClient) startCall(rid uint64, prog, vers, proc uint32, args, tail []byte) upstreamCall {
	up := p.upstream()
	return upstreamCall{
		Pending: up.StartParts(rid, prog, vers, proc, args, tail, p.cfg.CallTimeout),
		up:      up, rid: rid, prog: prog, vers: vers, proc: proc, args: args, tail: tail,
	}
}

// waitCall collects a started call's reply; on failure it reconnects and
// sends the call again, args and tail once more.
func (p *ProxyClient) waitCall(c upstreamCall) (sunrpc.Reply, error) {
	for attempt := 0; ; attempt++ {
		rep, err := c.Wait()
		if err == nil {
			return rep, nil
		}
		p.met.upstreamRetries.Inc()
		if p.stopped.Load() || attempt >= 2 {
			return sunrpc.Reply{}, err
		}
		if !p.reconnect(c.up) {
			p.clk.Sleep(time.Second)
			if !p.reconnect(c.up) {
				return sunrpc.Reply{}, err
			}
		}
		c = p.startCall(c.rid, c.prog, c.vers, c.proc, c.args, c.tail)
	}
}

// Serve starts serving kernel NFS traffic on nfsListener and GVFS callbacks
// on cbListener, and launches the session's maintenance actors.
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
}

// RecoverAfterCrash is the proxy client's restart over the disk cache its
// predecessor left (NewProxyClient has already reopened it): it invalidates
// all cached attributes to force revalidation, holds no delegation, and
// attempts to write back one block per dirty file to reconcile conflicts and
// reacquire delegations (Section 4.3.4). Files whose write-back fails with a
// conflict have their dirty data discarded as corrupted.
func (p *ProxyClient) RecoverAfterCrash() {
	for _, fh := range p.cache.recallAll(false) {
		blocks := p.cache.dirtyBlocks(fh)
		if len(blocks) == 0 {
			continue
		}
		if err := p.flushBlock(0, fh, blocks[0]); err != nil {
			p.cache.loseDirty(fh)
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
// it (RecoverAfterCrash).
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

// Stats returns a snapshot of proxy activity counters. The counters live in
// the obs registry; this remains as a typed view over them.
func (p *ProxyClient) Stats() ProxyClientStats {
	return ProxyClientStats{
		LocalHits:          p.met.localHits.Value(),
		Forwards:           p.met.forwards.Value(),
		Invalidations:      p.met.invalidations.Value(),
		ForceInvalidations: p.met.forceInvalidations.Value(),
		Recalls:            p.met.recalls.Value(),
		FlushedBlocks:      p.met.flushedBlocks.Value(),
		UpstreamRetries:    p.met.upstreamRetries.Value(),
		FlushErrors:        p.met.flushErrors.Value(),
		ReadAheads:         p.met.readAheads.Value(),
		AttrHits:           p.met.attrHits.Value(),
		DentryHits:         p.met.dentryHits.Value(),
		NegLookupHits:      p.met.negHits.Value(),
		AccessHits:         p.met.accessHits.Value(),
		ListingHits:        p.met.listingHits.Value(),
		MetaEvictions:      p.met.metaEvictions.Value(),
		PollCapped:         p.met.pollCapped.Value(),
		RecoveredBlocks:    p.met.recoveredBlocks.Value(),
		RecoveredDirty:     p.met.recoveredDirty.Value(),
		RecoveryDropped:    p.met.recoveryDropped.Value(),
		RevalidatedBlocks:  p.met.revalidatedBlks.Value(),
		RefetchedBlocks:    p.met.refetchedBlks.Value(),
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

// CacheStats reports disk cache occupancy.
func (p *ProxyClient) CacheStats() (attrs, lookups, files int, bytes int64) {
	return p.cache.stats()
}

// --- maintenance actors ---------------------------------------------------

// pollLoop is the invalidation-polling client side (Section 4.2.1): poll the
// proxy server's GETINV within the configured window, optionally with
// exponential back-off.
func (p *ProxyClient) pollLoop() {
	// Offset the bootstrap poll slightly so it never shares a virtual
	// instant with session setup traffic on the same link: concurrent
	// same-instant sends race for bandwidth-serialization order, which
	// would make traces diverge between runs of the same seed.
	p.clk.Sleep(pollBootstrapDelay)
	// Bootstrap: the first GETINV carries a null timestamp and obtains the
	// session's initial logical timestamp (Section 4.2.2).
	p.pollOnce()
	for {
		p.clk.Sleep(p.currentWindow())
		if p.stopped.Load() {
			return
		}
		gotAny, err := p.pollOnce()
		if err != nil {
			continue // server unreachable; soft state, just poll again
		}
		p.adjustWindow(gotAny)
	}
}

func (p *ProxyClient) currentWindow() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pollWindow
}

func (p *ProxyClient) adjustWindow(gotInvalidations bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.PollBackoffMax <= p.cfg.PollPeriod {
		return // fixed window
	}
	if gotInvalidations {
		p.pollWindow = p.cfg.PollPeriod
		return
	}
	p.pollWindow *= 2
	if p.pollWindow > p.cfg.PollBackoffMax {
		p.pollWindow = p.cfg.PollBackoffMax
	}
}

// pollBootstrapDelay staggers the poll loop's first GETINV away from mount
// traffic issued at the same virtual instant.
const pollBootstrapDelay = 1300 * time.Microsecond

// maxPollRounds bounds one poll's GETINV loop: a healthy server drains its
// invalidation buffer (at most InvBufferEntries handles, overflow collapses
// to a single force-invalidate reply) in about InvBufferEntries /
// MaxHandlesPerReply rounds, so anything far beyond that is a buggy or
// replayed response stream setting PollAgain forever.
func (p *ProxyClient) maxPollRounds() int {
	rounds := p.cfg.InvBufferEntries/p.cfg.MaxHandlesPerReply + 2
	if rounds < 4 {
		rounds = 4
	}
	return rounds
}

// pollCover tracks one GETINV round's freshness-horizon debt: the round
// sent at sentAt is fully covered once need more handles have been
// delivered (the server's Remaining count at reply time, paid down by every
// subsequent round's deliveries).
type pollCover struct {
	sentAt time.Duration
	need   int64
}

// pollOnce issues GETINV calls until the buffer is drained, applying the
// client-side algorithm of Section 4.2.1. All GETINVs of one poll round
// share a request ID minted at this proxy.
func (p *ProxyClient) pollOnce() (gotAny bool, err error) {
	rid := p.node.Mint()
	var covers []pollCover
	for rounds := 0; ; rounds++ {
		if rounds >= p.maxPollRounds() {
			// Give up on this poll; the next window starts a fresh drain.
			p.met.pollCapped.Inc()
			return gotAny, nil
		}
		p.mu.Lock()
		ts := p.lastInvTS
		p.mu.Unlock()

		args := GetInvArgs{Timestamp: ts, MaxHandles: uint32(p.cfg.MaxHandlesPerReply)}
		e := bufpool.GetEncoder()
		args.Encode(e)
		// The round's send time is the staleness horizon candidate: any
		// commit at or before it is queued in the server's invalidation
		// buffer before the server processes this GETINV, so a complete
		// drain proves this cache has seen every such commit.
		sentAt := p.clk.Now()
		rep, callErr := p.rawCall(rid, InvProgram, InvVersion, ProcGetInv, e.Bytes())
		bufpool.PutEncoder(e)
		if callErr != nil {
			return gotAny, callErr
		}
		var res GetInvRes
		decErr := res.Decode(rep.Body)
		rep.Release() // the handles are copies
		if decErr != nil {
			return gotAny, decErr
		}

		// 1) Update the last known server timestamp.
		p.mu.Lock()
		p.lastInvTS = res.Timestamp
		p.mu.Unlock()

		p.met.getinvBatch.Observe(int64(len(res.Handles)))
		switch {
		case res.ForceInvalidate:
			// 2) Invalidate the entire attributes cache.
			p.cache.invalidateAllAttrs(ts != 0)
			p.met.forceInvalidations.Inc()
			gotAny = true
		default:
			// 3) Invalidate the concerned files. Directories flush their
			// cached name resolutions too: GETINV carries no names, so every
			// binding observed under the old contents is suspect.
			for _, fh := range res.Handles {
				p.cache.invalidateHandle(fh)
				p.cfg.Staleness.ObservePropagation("poll", fh.Key())
			}
			if len(res.Handles) > 0 {
				gotAny = true
				p.met.invalidations.Add(int64(len(res.Handles)))
			}
		}
		// Freshness-horizon accounting. A round sent at sentAt is covered
		// once every invalidation queued before it has been applied here —
		// at most res.Remaining further handles (entries queued after
		// sentAt inflate that count; they never deflate it, so the
		// accounting only errs conservative). Later rounds' deliveries pay
		// down earlier rounds' debts, so even a poll that ultimately hits
		// the round cap advances the horizon for the rounds it fully
		// covered — the horizon no longer freezes under sustained churn.
		delivered := int64(len(res.Handles))
		for i := range covers {
			covers[i].need -= delivered
		}
		need := int64(res.Remaining)
		if res.ForceInvalidate || !res.PollAgain {
			// A force reply just dropped everything the cache could have
			// served stale; a complete drain has nothing left queued.
			// Either way this round and every earlier one are covered.
			need = 0
			for i := range covers {
				covers[i].need = 0
			}
		}
		covers = append(covers, pollCover{sentAt: sentAt, need: need})
		var adv time.Duration
		kept := covers[:0]
		for _, c := range covers {
			if c.need <= 0 {
				if c.sentAt > adv {
					adv = c.sentAt
				}
			} else {
				kept = append(kept, c)
			}
		}
		covers = kept
		if adv > 0 {
			p.mu.Lock()
			if adv > p.pollHorizon {
				p.pollHorizon = adv
			}
			p.mu.Unlock()
		}
		// 4) Poll again immediately if the buffer did not fit.
		if !res.PollAgain {
			return gotAny, nil
		}
	}
}

// PollHorizon reports the polling model's current freshness horizon, for
// tests pinning the cover accounting.
func (p *ProxyClient) PollHorizon() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pollHorizon
}

// flushLoop periodically writes back dirty blocks.
func (p *ProxyClient) flushLoop() {
	for {
		p.clk.Sleep(p.cfg.FlushInterval)
		if p.stopped.Load() {
			return
		}
		p.flushAll(0)
	}
}

func (p *ProxyClient) flushAll(rid uint64) {
	var items []flushItem
	for _, fh := range p.cache.dirtyFiles() {
		items = p.appendRuns(items, fh)
	}
	p.flushParallel(rid, items)
}

// appendRuns queues fh's write-back: one item per coalesced run, not per
// block, so parallel workers each take a whole run.
func (p *ProxyClient) appendRuns(items []flushItem, fh nfs3.FH) []flushItem {
	for _, bn := range p.cache.flushStarts(fh, p.cfg.MaxWriteBytes) {
		items = append(items, flushItem{fh: fh, bn: bn})
	}
	return items
}

// flushFile writes back every dirty block of fh, then waits until no flush
// of fh remains in flight — its own or a concurrent actor's — so callers
// (SETATTR truncation, COMMIT, recalls) may order upstream operations after
// the write-back. What became of the data is in the cache entry afterwards
// (settleCommit): blocks an unreachable upstream left dirty, or the mark a
// refused WRITE leaves when it drops them.
func (p *ProxyClient) flushFile(rid uint64, fh nfs3.FH) {
	p.flushParallel(rid, p.appendRuns(nil, fh))
	p.waitFlushIdle(fh)
}

// flushItem is one write-back run queued by its first block.
type flushItem struct {
	fh nfs3.FH
	bn uint64
}

// flushParallel writes back the given runs with up to
// Config.FlushParallelism WRITE RPCs in flight at once, so N runs cost about
// N/W round-trips. Blocks another actor is already flushing are skipped
// (takeDirtyRun refuses them), so concurrent flushers never double-issue a
// WRITE; the per-block dirty-generation protocol keeps re-dirtied blocks
// dirty regardless of completion order.
func (p *ProxyClient) flushParallel(rid uint64, items []flushItem) {
	w := p.cfg.FlushParallelism
	if w > len(items) {
		w = len(items)
	}
	if w <= 1 {
		for _, it := range items {
			p.flushBlock(rid, it.fh, it.bn)
		}
		return
	}
	var mu sync.Mutex
	next := 0
	g := p.clk.NewGroup()
	for i := 0; i < w; i++ {
		g.Go("gvfs-flush-worker", func() {
			for {
				mu.Lock()
				if next >= len(items) {
					mu.Unlock()
					return
				}
				it := items[next]
				next++
				mu.Unlock()
				p.flushBlock(rid, it.fh, it.bn)
			}
		})
	}
	g.Wait()
}

// flushDone clears a run's in-flight marks and wakes actors draining the
// file's flushes.
func (p *ProxyClient) flushDone(fh nfs3.FH, bns []uint64) {
	for _, w := range p.cache.endFlush(fh, bns) {
		w.Wake()
	}
}

// waitFlushIdle blocks (through the clock) until no flush of fh is in
// flight.
func (p *ProxyClient) waitFlushIdle(fh nfs3.FH) {
	for w := p.cache.awaitFlushIdle(fh, p.clk); w != nil; w = p.cache.awaitFlushIdle(fh, p.clk) {
		p.clk.WaitAs(w, "flush drain")
	}
}

// flushBlock writes dirty data starting at bn upstream as one WRITE. Adjacent
// dirty blocks are coalesced into the same RPC up to Config.MaxWriteBytes
// (takeDirtyRun), so a sequentially dirtied file flushes in a handful of
// large WRITEs instead of one per block; with MaxWriteBytes == BlockSize the
// run is exactly one block and the legacy per-block pipeline is preserved.
// Blocks another flusher already staged are refused by takeDirtyRun, so
// per-block flush queues and coalesced runs never double-issue a WRITE. The
// flush-pipeline depth gauge tracks WRITEs between takeDirtyRun and
// completion, so a scrape mid-flush shows how deep the write-back pipeline
// runs.
func (p *ProxyClient) flushBlock(rid uint64, fh nfs3.FH, bn uint64) error {
	data, off, bns, gens, ok := p.cache.takeDirtyRun(fh, bn, p.cfg.MaxWriteBytes)
	if !ok {
		return nil
	}
	// The staging buffer is pool-owned and is the WRITE's data on the wire,
	// sent by reference on every transmission (startUpstream); callUpstream
	// returns after the last, so it recycles here. Staging it is the one copy
	// the write-back makes: the snapshot taken under the cache lock.
	defer bufpool.Put(data)
	p.met.flushInflight.Add(1)
	defer p.met.flushInflight.Add(-1)
	defer p.flushDone(fh, bns)
	if p.cfg.DiskDelay > 0 {
		p.clk.Sleep(p.cfg.DiskDelay) // read the dirty run back from disk
	}
	if len(bns) > 1 {
		p.met.coalescedWrites.Inc()
	}
	args := nfs3.WriteArgs{FH: fh, Offset: off, Count: uint32(len(data)), Stable: nfs3.FileSync, Data: data}
	var res nfs3.WriteRes
	if err := p.callUpstream(rid, nfs3.ProcWrite, &args, &res); err != nil {
		return err
	}
	if res.Status == nfs3.ErrStale && p.cfg.Model == ModelDelegation && p.unwrittenSince(rid, fh) {
		// The lost-recall fence (Section 4.3.4): the server revoked a write
		// delegation it could not recall, and refuses what was buffered
		// under it lest it land over what the revocation let others write.
		// Nobody has: the file is as it was under the dirty blocks, which
		// may be newer than the revocation, acknowledged to the kernel
		// while the partition hid the recall. Discarding them would lose
		// those writes for nothing, so they go again; the fence is one shot.
		res = nfs3.WriteRes{}
		if err := p.callUpstream(rid, nfs3.ProcWrite, &args, &res); err != nil {
			return err
		}
	}
	if res.Status != nfs3.OK {
		// The write-back target is gone or rejecting writes (e.g. removed
		// behind our back): keeping the block dirty would retry forever.
		// Drop it, as the paper drops "corrupted" dirty data (Section 4.3.4).
		p.cache.loseDirty(fh)
		p.met.flushErrors.Inc()
		return &nfs3.Error{Status: res.Status, Proc: nfs3.ProcWrite}
	}
	for i, b := range bns {
		p.cache.flushed(fh, b, gens[i], res.Wcc)
	}
	p.met.flushedBlocks.Add(int64(len(bns)))
	return nil
}

// --- upstream helpers -------------------------------------------------------

type wireEnc interface{ Encode(*xdr.Encoder) }
type wireDec interface{ Decode(*xdr.Decoder) error }

// unwrittenSince reports whether fh's server mtime is still the one its dirty
// blocks were written over: no other client has changed the file since.
func (p *ProxyClient) unwrittenSince(rid uint64, fh nfs3.FH) bool {
	base, ok := p.cache.dirtyBaseOf(fh)
	if !ok {
		return false
	}
	var res nfs3.GetattrRes
	if err := p.callUpstream(rid, nfs3.ProcGetattr, &nfs3.GetattrArgs{FH: fh}, &res); err != nil || res.Status != nfs3.OK {
		return false
	}
	// The reply's trailer may grant a delegation: the attributes it covers
	// are these.
	p.cache.putAttr(fh, res.Attr)
	return res.Attr.Mtime == base
}

// callUpstream forwards one NFS call across the wide area and applies the
// GVFS trailers the proxy server piggybacks on the reply (absent when the
// upstream is a plain NFS server). forwarded names the handles for which a
// kernel request thereby bypassed the cache (renewal bookkeeping). The reply
// frame goes back to the pool before it returns, so res must own everything
// it decoded — every result does but READ's, whose callers use startUpstream
// and finishUpstream themselves and release the frame when done with the data.
func (p *ProxyClient) callUpstream(rid uint64, proc uint32, args wireEnc, res wireDec, forwarded ...nfs3.FH) error {
	rep, err := p.finishUpstream(p.startUpstream(rid, proc, args), res, forwarded)
	rep.Release()
	return err
}

// nfsCall is an NFS call sent upstream and not yet waited for.
type nfsCall struct {
	upstreamCall
	enc     *xdr.Encoder // the encoded arguments, pooled; a retry sends them again
	start   time.Duration
	forgets uint64 // the session cache's forget count when it was sent
}

// startUpstream encodes args and sends the call; finishUpstream must follow.
// A WRITE's data is not encoded: it follows the head by reference, so it must
// stay as it is until finishUpstream returns. A READ counts the blocks it asks
// for.
func (p *ProxyClient) startUpstream(rid uint64, proc uint32, args wireEnc) nfsCall {
	e := bufpool.GetEncoder()
	var tail []byte
	switch a := args.(type) {
	case *nfs3.WriteArgs:
		tail = a.EncodeHead(e)
	case *nfs3.ReadArgs:
		if bs := uint64(p.cfg.BlockSize); a.Count > 0 {
			p.met.readBlocks.Add(int64((a.Offset+uint64(a.Count)-1)/bs - a.Offset/bs + 1))
		}
		a.Encode(e)
	case nil: // a call without arguments
	default:
		a.Encode(e)
	}
	start, forgets := p.node.Now(), p.cache.forgets.Load()
	return nfsCall{p.startCall(rid, nfs3.Program, nfs3.Version, proc, e.Bytes(), tail), e, start, forgets}
}

// finishUpstream waits for a started NFS call, decodes its result into res
// and applies the reply's trailers. The caller owns the reply's frame, which
// a READ result's Data aliases: it releases it once the data is where it was
// going — copied into the cache, encoded into the kernel's reply.
func (p *ProxyClient) finishUpstream(c nfsCall, res wireDec, forwarded []nfs3.FH) (sunrpc.Reply, error) {
	rep, err := p.waitCall(c.upstreamCall)
	bufpool.PutEncoder(c.enc)
	lat := p.node.Now() - c.start
	p.met.forwardLatency.ObserveDuration(lat)
	if err != nil {
		return rep, err
	}
	d := rep.Body
	if err := res.Decode(d); err != nil {
		rep.Release()
		return rep, err
	}
	p.ra.observe(lat, res, p.cfg.BlockSize)
	var ts Trailers
	if d.Remaining() > 0 {
		if ts, err = DecodeTrailers(d); err != nil {
			ts = nil
		}
	}
	p.cache.applyReplySince(ts, forwarded, c.forgets)
	return rep, nil
}

// forward is callUpstream for the kernel RPC being served: the call crossed the
// wide area, and is counted so.
func (p *ProxyClient) forward(call *sunrpc.Call, proc uint32, args wireEnc, res wireDec, forwarded ...nfs3.FH) error {
	err := p.callUpstream(call.ReqID, proc, args, res, forwarded...)
	if err == nil {
		p.hitForward(call)
	}
	return err
}

// mapIdentity rewrites settable attributes per the session's cross-domain
// identity mapping.
func (p *ProxyClient) mapIdentity(attr *nfs3.Sattr) {
	if attr.UID != nil {
		if mapped, ok := p.cfg.UIDMap[*attr.UID]; ok {
			v := mapped
			attr.UID = &v
		}
	}
	if attr.GID != nil {
		if mapped, ok := p.cfg.GIDMap[*attr.GID]; ok {
			v := mapped
			attr.GID = &v
		}
	}
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
	var horizon time.Duration
	if p.cfg.Model == ModelDelegation {
		horizon = p.clk.Now()
	} else {
		p.mu.Lock()
		horizon = p.pollHorizon
		p.mu.Unlock()
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
// It exists so benchmarks (and embedders) can drive the real handler chain
// without a transport in between, e.g. to measure the warm block path's
// allocation profile in isolation.
func (p *ProxyClient) ServeCall(call *sunrpc.Call) sunrpc.AcceptStat {
	return p.dispatchNFS(call)
}

// dispatchNFS wraps serveNFS with a trace span: the proxy's view of each
// kernel RPC, carrying the handler's FH/detail/bytes annotations. The proxy's
// own sunrpc.Server records no generic spans (SetObs is not installed on it),
// so this is the single serve-side record per kernel call at this node.
func (p *ProxyClient) dispatchNFS(call *sunrpc.Call) sunrpc.AcceptStat {
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

func encodeReply(call *sunrpc.Call, res wireEnc) sunrpc.AcceptStat {
	res.Encode(call.Reply)
	return sunrpc.Success
}

func (p *ProxyClient) getattr(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.GetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	// reread is the file's head when this GETATTR revalidates a file another
	// client has just rewritten and this session read through last time: its
	// READs go out right behind the GETATTR, so the kernel's READs that follow
	// the answer join them (readahead.go, "after a remote write").
	var reread []speculation
	if !p.cfg.DisableMetaCache {
		if h, ok := p.cache.attrHit(args.FH); ok {
			p.met.attrHits.Inc()
			p.hitLocal(call)
			p.observeServe(args.FH, h.stamp, h.dirty)
			res := nfs3.GetattrRes{Status: nfs3.OK, Attr: h.attr}
			res.Encode(call.Reply)
			return sunrpc.Success
		}
		reread = p.rereadClaim(call.ReqID, args.FH)
	}
	var res nfs3.GetattrRes
	c := p.startUpstream(call.ReqID, nfs3.ProcGetattr, &args)
	p.issue(reread) // behind the answer the kernel is waiting for
	rep, err := p.finishUpstream(c, &res, []nfs3.FH{args.FH})
	rep.Release() // the result owns what it decoded
	if err != nil {
		return encodeReply(call, &nfs3.GetattrRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	switch res.Status {
	case nfs3.OK:
		p.cache.putAttr(args.FH, res.Attr)
	case nfs3.ErrStale:
		// The handle no longer names a file: every trace of it goes, its
		// protocol state included.
		p.cache.forget(args.FH)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) lookup(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.DirOpArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.Dir)
	// tk is the ticket this LOOKUP's reply is cached under if it is forwarded
	// and page, when the directory's walk says so, a page of its listing to ask
	// for.
	var tk seedTicket
	var page []speculation
	if p.cfg.DisableMetaCache {
		tk = p.cache.ticket(args.Dir)
	} else {
		h, pg, ok := p.cache.lookupHit(args.Dir, args.Name)
		if tk = pg.seedTicket; !p.stopped.Load() {
			page = p.mint(call.ReqID, pg)
		}
		if ok {
			p.issue(page)
			dirAttr := nfs3.PostOpAttr{Present: true, Attr: h.dir.attr}
			p.hitLocal(call)
			if h.negative {
				// A cached NOENT: the per-file checks the kernel keeps
				// issuing for absent names are filtered out locally.
				p.met.negHits.Inc()
				p.observeServe(args.Dir, h.dir.stamp, h.dir.dirty)
				return encodeReply(call, &nfs3.LookupRes{Status: nfs3.ErrNoEnt, DirAttr: dirAttr})
			}
			p.met.dentryHits.Inc()
			p.observeServe(h.fh, h.child.stamp, h.child.dirty)
			return encodeReply(call, &nfs3.LookupRes{
				Status:  nfs3.OK,
				FH:      h.fh,
				Attr:    nfs3.PostOpAttr{Present: true, Attr: h.child.attr},
				DirAttr: dirAttr,
			})
		}
	}
	var res nfs3.LookupRes
	c := p.startUpstream(call.ReqID, nfs3.ProcLookup, &args)
	p.issue(page) // behind the reply the kernel is waiting for
	rep, err := p.finishUpstream(c, &res, []nfs3.FH{args.Dir})
	rep.Release() // the result owns what it decoded
	if err != nil {
		return encodeReply(call, &nfs3.LookupRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.cache.seedLookup(tk, args.Name, &res)
	return encodeReply(call, &res)
}

func (p *ProxyClient) read(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReadArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	bs := uint64(p.cfg.BlockSize)
	bn := args.Offset / bs
	aligned := args.Offset%bs == 0 && uint64(args.Count) <= bs

	// chunk is the stream's next run of prefetches when this read made one
	// due. Its READs go out behind this block's own, if that has to be sent.
	var chunk []speculation
	if aligned {
		// With readahead on, keep the pipeline ahead of a sequential reader;
		// and if a prefetch of this very block is in flight, wait for it
		// rather than double-issuing the wide-area READ.
		var joined bool
		joined, chunk = p.readAhead(call.ReqID, args.FH, bn)
		// One pass through the cache: the block, the file's attributes, whether
		// the model lets them be served, and when the block got here.
		if hit, ok := p.cache.readHit(args.FH, bn); ok {
			// res stays on this frame's stack and its Data is a window onto
			// the cached block, so the hit's one copy is the one Encode makes:
			// cache to reply, here, before anything can wait.
			var res nfs3.ReadRes
			if localReadInto(&res, hit.attr, hit.data, args.Offset, args.Count, bs) {
				p.issue(chunk)
				res.Encode(call.Reply)
				if joined {
					// The demand read rode an in-flight readahead instead of
					// paying its own round-trip.
					p.met.readaheadJoins.Inc()
					call.SpanDetail = "join"
				}
				p.hitLocal(call)
				p.observeServe(args.FH, hit.stamp, hit.dirty)
				call.SpanBytes = int64(res.Count)
				if p.cfg.DiskDelay > 0 {
					p.clk.Sleep(p.cfg.DiskDelay) // read the block from the disk cache
				}
				return sunrpc.Success
			}
		}
	}

	return p.readForward(call, args, bn, aligned, chunk)
}

// readForward forwards a READ upstream. args arrives by value: startUpstream's
// interface parameter makes &args escape, and keeping that address-taking out
// of read lets the warm hit path hold its ReadArgs on the stack — otherwise
// every READ, hit or miss, paid a heap allocation at the `var args` line.
func (p *ProxyClient) readForward(call *sunrpc.Call, args nfs3.ReadArgs, bn uint64, aligned bool, chunk []speculation) sunrpc.AcceptStat {
	bs := uint64(p.cfg.BlockSize)
	var res nfs3.ReadRes
	c := p.startUpstream(call.ReqID, nfs3.ProcRead, &args)
	p.issue(chunk) // behind the block the reader is waiting for
	rep, err := p.finishUpstream(c, &res, []nfs3.FH{args.FH})
	if err != nil {
		return encodeReply(call, &nfs3.ReadRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	call.SpanBytes = int64(res.Count)
	if res.Status == nfs3.OK && res.Attr.Present {
		if aligned && (uint64(res.Count) == bs || res.EOF) {
			p.cache.putCleanBlock(args.FH, bn, res.Data, res.Attr.Attr)
		}
		p.cache.putAttr(args.FH, res.Attr.Attr)
	}
	res.Encode(call.Reply)
	rep.Release() // cached and encoded: nothing reads the upstream frame again
	return sunrpc.Success
}

// localReadInto fills res with a READ reply from one cached block, returning
// false when the requested range cannot be served from it (the caller then
// forwards upstream). Tail blocks are stored at their natural, short length,
// so the in-block offset must be derived from the configured block size —
// never from len(block). res.Data is a window onto block, not a copy: the
// caller encodes it at once. The out-parameter shape lets the hot path keep
// res on the caller's stack: a warm cache hit allocates nothing.
func localReadInto(res *nfs3.ReadRes, attr nfs3.Fattr, block []byte, offset uint64, count uint32, blockSize uint64) bool {
	size := attr.Size
	if offset >= size {
		*res = nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: attr}, EOF: true}
		return true
	}
	bo := int(offset % blockSize)
	n := int(count)
	if bo+n > len(block) {
		n = len(block) - bo
	}
	if rem := size - offset; n > 0 && uint64(n) > rem {
		n = int(rem)
	}
	if n < 0 {
		n = 0
	}
	if n == 0 && count > 0 {
		// The range starts at or past the end of a short-stored block yet
		// inside the file (the block predates a remote append): the cache
		// cannot serve it.
		return false
	}
	*res = nfs3.ReadRes{
		Status: nfs3.OK,
		Attr:   nfs3.PostOpAttr{Present: true, Attr: attr},
		Count:  uint32(n),
		EOF:    offset+uint64(n) >= size,
		Data:   block[bo : bo+n],
	}
	return true
}

// localWriteVerf is the write verifier of every reply the proxy client makes
// up itself: an absorbed WRITE's, and the COMMIT's that finds nothing
// unstable upstream. A forwarded reply carries the server's own.
const localWriteVerf = 1

func (p *ProxyClient) write(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.WriteArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	call.SpanBytes = int64(len(args.Data))

	if attr, writeLocal := p.cache.absorbable(args.FH); writeLocal {
		bs := uint64(p.cfg.BlockSize)
		// Read-modify-write: fetch a partially overwritten block that is
		// inside the current file but not yet cached.
		startBn := args.Offset / bs
		endBn := (args.Offset + uint64(len(args.Data)) - 1) / bs
		for bn := startBn; len(args.Data) > 0 && bn <= endBn; bn++ {
			blockStart := bn * bs
			blockEnd := blockStart + bs
			coversWhole := args.Offset <= blockStart && args.Offset+uint64(len(args.Data)) >= blockEnd
			if coversWhole || blockStart >= attr.Size {
				continue
			}
			if _, cached := p.cache.getBlock(args.FH, bn); cached {
				continue
			}
			var rres nfs3.ReadRes
			rargs := nfs3.ReadArgs{FH: args.FH, Offset: blockStart, Count: uint32(bs)}
			rep, err := p.finishUpstream(p.startUpstream(call.ReqID, nfs3.ProcRead, &rargs), &rres, nil)
			if err != nil || rres.Status != nfs3.OK {
				rep.Release()
				writeLocal = false
				break
			}
			p.hitForward(call)
			if rres.Attr.Present {
				p.cache.putCleanBlock(args.FH, bn, rres.Data, rres.Attr.Attr)
			}
			rep.Release()
		}
		if writeLocal {
			if p.cfg.DiskDelay > 0 {
				p.clk.Sleep(p.cfg.DiskDelay) // persist the dirty block to the disk cache
			}
			newAttr := p.cache.writeDirty(args.FH, args.Offset, args.Data)
			p.hitLocal(call)
			// Stack-encoded directly: the absorbed-write path allocates
			// nothing at steady state.
			res := nfs3.WriteRes{
				Status:    nfs3.OK,
				Wcc:       nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: newAttr}},
				Count:     uint32(len(args.Data)),
				Committed: nfs3.FileSync,
				Verf:      localWriteVerf,
			}
			res.Encode(call.Reply)
			return sunrpc.Success
		}
	}

	return p.writeForward(call, args)
}

// writeForward forwards a WRITE upstream. As with readForward, args arrives
// by value so the absorbed-write path in write keeps its WriteArgs on the
// stack instead of heap-allocating it for callUpstream's sake. The data goes
// upstream out of the kernel's call frame, which outlives the handler's call.
func (p *ProxyClient) writeForward(call *sunrpc.Call, args nfs3.WriteArgs) sunrpc.AcceptStat {
	var res nfs3.WriteRes
	if err := p.forward(call, nfs3.ProcWrite, &args, &res, args.FH); err != nil {
		return encodeReply(call, &nfs3.WriteRes{Status: nfs3.ErrJukebox})
	}
	if res.Status == nfs3.OK && res.Committed != nfs3.FileSync {
		p.cache.noteUnstable(args.FH)
	}
	if res.Status == nfs3.OK && res.Wcc.After.Present {
		// Reconcile first (recognizing our own mtime advance via the wcc
		// data), then cache the freshly written block.
		p.cache.updateAfterWrite(args.FH, res.Wcc)
		bs := uint64(p.cfg.BlockSize)
		if args.Offset%bs == 0 && (uint64(len(args.Data)) == bs || args.Offset+uint64(len(args.Data)) >= res.Wcc.After.Attr.Size) {
			p.cache.putCleanBlock(args.FH, args.Offset/bs, args.Data, res.Wcc.After.Attr)
		}
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) setattr(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.SetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	p.mapIdentity(&args.Attr)
	spanFH(call, args.FH)
	// Truncation invalidates buffered writes beyond the new size; flush
	// first for simplicity and correctness.
	if p.cache.hasDirty(args.FH) {
		p.flushFile(call.ReqID, args.FH)
	}
	var res nfs3.WccRes
	if err := p.forward(call, nfs3.ProcSetattr, &args, &res, args.FH); err != nil {
		return encodeReply(call, &nfs3.WccRes{Status: nfs3.ErrJukebox})
	}
	if res.Status == nfs3.OK && res.Wcc.After.Present {
		p.cache.putAttr(args.FH, res.Wcc.After.Attr)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) create(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.CreateArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	// An unchecked create truncates an existing file: any dirty data buffered
	// for the old contents is gone by definition.
	return p.forwardCreate(call, &args, args.Where, &args.Attr, args.Mode == nfs3.CreateUnchecked)
}

func (p *ProxyClient) mkdir(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.MkdirArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	return p.forwardCreate(call, &args, args.Where, &args.Attr, false)
}

func (p *ProxyClient) symlink(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.SymlinkArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	return p.forwardCreate(call, &args, args.Where, &args.Attr, false)
}

// forwardCreate forwards a decoded CREATE, MKDIR or SYMLINK and caches what
// the reply says about the directory and the new object.
func (p *ProxyClient) forwardCreate(call *sunrpc.Call, args wireEnc, where nfs3.DirOpArgs, attr *nfs3.Sattr, truncates bool) sunrpc.AcceptStat {
	p.mapIdentity(attr)
	spanFH(call, where.Dir)
	var res nfs3.CreateRes
	if err := p.forward(call, call.Proc, args, &res, where.Dir); err != nil {
		return encodeReply(call, &nfs3.CreateRes{Status: nfs3.ErrJukebox})
	}
	if res.DirWcc.After.Present {
		p.cache.putAttr(where.Dir, res.DirWcc.After.Attr)
	}
	if res.Status == nfs3.OK && res.FHFollows {
		if truncates {
			p.cache.dropDirty(res.FH)
		}
		if res.Attr.Present {
			p.cache.putAttr(res.FH, res.Attr.Attr)
		}
		p.cache.putLookup(where.Dir, where.Name, res.FH)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) unlink(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.DirOpArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.Dir)
	// Abandon buffered dirty data for the victim: it is being deleted.
	victim, negative, known := p.cache.getLookup(args.Dir, args.Name)
	known = known && !negative
	if known {
		p.cache.dropDirty(victim)
	}
	var res nfs3.WccRes
	if err := p.forward(call, call.Proc, &args, &res, args.Dir); err != nil {
		return encodeReply(call, &nfs3.WccRes{Status: nfs3.ErrJukebox})
	}
	if res.Status == nfs3.OK && known {
		// That was the handle's last name (a directory has one; a file whose
		// cached link count says otherwise is left to go stale on its own).
		if a, ok := p.cache.getAttr(victim); call.Proc == nfs3.ProcRmdir || (ok && a.Nlink <= 1) {
			p.cache.forget(victim)
		}
	}
	p.cache.dropLookup(args.Dir, args.Name)
	if res.Wcc.After.Present {
		p.cache.putAttr(args.Dir, res.Wcc.After.Attr)
		if res.Status == nfs3.OK {
			// The name is now known absent.
			p.cache.putNegLookup(args.Dir, args.Name)
		}
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) rename(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.RenameArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.From.Dir)
	var res nfs3.RenameRes
	if err := p.forward(call, nfs3.ProcRename, &args, &res, args.From.Dir, args.To.Dir); err != nil {
		return encodeReply(call, &nfs3.RenameRes{Status: nfs3.ErrJukebox})
	}
	p.cache.dropLookup(args.From.Dir, args.From.Name)
	p.cache.dropLookup(args.To.Dir, args.To.Name)
	if res.FromWcc.After.Present {
		p.cache.putAttr(args.From.Dir, res.FromWcc.After.Attr)
	}
	if res.ToWcc.After.Present {
		p.cache.putAttr(args.To.Dir, res.ToWcc.After.Attr)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) linkProc(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.LinkArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	var res nfs3.LinkRes
	if err := p.forward(call, nfs3.ProcLink, &args, &res, args.FH, args.Link.Dir); err != nil {
		return encodeReply(call, &nfs3.LinkRes{Status: nfs3.ErrJukebox})
	}
	if res.Attr.Present {
		p.cache.putAttr(args.FH, res.Attr.Attr)
	}
	if res.LinkWcc.After.Present {
		p.cache.putAttr(args.Link.Dir, res.LinkWcc.After.Attr)
	}
	if res.Status == nfs3.OK {
		p.cache.putLookup(args.Link.Dir, args.Link.Name, args.FH)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) readdir(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReaddirArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.Dir)
	// Serve complete cached listings that fit one reply; pagination always
	// forwards, since upstream cookies are opaque to us.
	if args.Cookie == 0 && !p.cfg.DisableMetaCache {
		if entries, h, ok := p.cache.listingHit(args.Dir); ok && listingFits(entries, args.Count) {
			p.met.listingHits.Inc()
			p.hitLocal(call)
			p.observeServe(args.Dir, h.stamp, h.dirty)
			return encodeReply(call, &nfs3.ReaddirRes{
				Status:     nfs3.OK,
				DirAttr:    nfs3.PostOpAttr{Present: true, Attr: h.attr},
				CookieVerf: 1,
				Entries:    entries,
				EOF:        true,
			})
		}
	}
	var res nfs3.ReaddirRes
	if err := p.forward(call, nfs3.ProcReaddir, &args, &res, args.Dir); err != nil {
		return encodeReply(call, &nfs3.ReaddirRes{Status: nfs3.ErrJukebox})
	}
	if res.DirAttr.Present {
		p.cache.putAttr(args.Dir, res.DirAttr.Attr)
	}
	// A single-page complete listing is cacheable; multi-page listings are
	// not worth stitching.
	if res.Status == nfs3.OK && res.EOF && args.Cookie == 0 {
		p.cache.putDirListing(args.Dir, res.Entries)
	}
	return encodeReply(call, &res)
}

// listingFits reports whether entries encode within a READDIR count budget,
// charged as the NFS server charges it: what the result occupies on the wire.
func listingFits(entries []nfs3.DirEntry, count uint32) bool {
	budget := int(count) - nfs3.DirResOverhead
	for i := range entries {
		budget -= entries[i].WireSize()
	}
	return budget >= 0
}

func (p *ProxyClient) readdirplus(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReaddirplusArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.Dir)
	tk := p.cache.ticket(args.Dir)
	var res nfs3.ReaddirplusRes
	if err := p.forward(call, nfs3.ProcReaddirplus, &args, &res, args.Dir); err != nil {
		return encodeReply(call, &nfs3.ReaddirplusRes{Status: nfs3.ErrJukebox})
	}
	p.cache.seedDir(tk, &res)
	return encodeReply(call, &res)
}

func (p *ProxyClient) commit(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.CommitArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	verdict, h, unstable := p.cache.settleCommit(args.FH, false)
	if verdict == commitFlush {
		p.flushFile(call.ReqID, args.FH)
		verdict, h, unstable = p.cache.settleCommit(args.FH, true)
	}
	switch verdict {
	case commitLost:
		return encodeReply(call, &nfs3.CommitRes{Status: nfs3.ErrIO})
	case commitPending:
		return encodeReply(call, &nfs3.CommitRes{Status: nfs3.ErrJukebox})
	case commitLocal:
		// Every write-back WRITE is sent FILE_SYNC and none of this session's
		// forwarded WRITEs is waiting on a COMMIT: the server has nothing
		// left to make stable, so the round trip would carry no news.
		p.met.commitLocal.Inc()
		call.SpanDetail = "local"
		p.hitLocal(call)
		p.observeServe(args.FH, h.stamp, h.dirty)
		return encodeReply(call, &nfs3.CommitRes{
			Status: nfs3.OK,
			Wcc:    nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: h.attr}},
			Verf:   localWriteVerf,
		})
	}
	var res nfs3.CommitRes
	if err := p.forward(call, nfs3.ProcCommit, &args, &res); err != nil {
		return encodeReply(call, &nfs3.CommitRes{Status: nfs3.ErrJukebox})
	}
	if res.Status == nfs3.OK {
		p.cache.commitCovered(args.FH, unstable)
	}
	return encodeReply(call, &res)
}

// access answers an ACCESS check locally when the model allows it:
// permission bits are a pure function of the file's attributes and the
// caller's identity (nfs3.AccessForAttr), so servable cached attributes
// answer the check without a wide-area round trip. The identity comes from
// the kernel's AUTH_SYS credential — which the loopback mount carries —
// and defaults to root for other flavors, matching the open-export policy
// the server applies to non-AUTH_SYS callers.
func (p *ProxyClient) access(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.AccessArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	if !p.cfg.DisableMetaCache {
		if h, ok := p.cache.attrHit(args.FH); ok {
			uid, gid, idOK := call.Cred.SysIdentity()
			if !idOK {
				uid, gid = 0, 0
			}
			p.met.accessHits.Inc()
			p.hitLocal(call)
			p.observeServe(args.FH, h.stamp, h.dirty)
			return encodeReply(call, &nfs3.AccessRes{
				Status: nfs3.OK,
				Attr:   nfs3.PostOpAttr{Present: true, Attr: h.attr},
				Access: nfs3.AccessForAttr(h.attr, uid, gid, args.Access),
			})
		}
	}
	var res nfs3.AccessRes
	if err := p.forward(call, nfs3.ProcAccess, &args, &res, args.FH); err != nil {
		return encodeReply(call, &nfs3.AccessRes{Status: nfs3.ErrJukebox})
	}
	if res.Status == nfs3.OK && res.Attr.Present {
		p.cache.putAttr(args.FH, res.Attr.Attr)
	}
	return encodeReply(call, &res)
}

// passthrough forwards a call without caching semantics.
func (p *ProxyClient) passthrough(call *sunrpc.Call) sunrpc.AcceptStat {
	rep, err := p.rawCall(call.ReqID, nfs3.Program, nfs3.Version, call.Proc, call.Args.Rest())
	if err != nil {
		return sunrpc.SystemErr
	}
	p.hitForward(call)
	call.Reply.FixedOpaque(rep.Body.Rest())
	rep.Release()
	return sunrpc.Success
}

// --- callback service (proxy server -> proxy client) ------------------------

func (p *ProxyClient) dispatchCallback(call *sunrpc.Call) sunrpc.AcceptStat {
	return p.traced(call, CallbackProgram, func(call *sunrpc.Call) sunrpc.AcceptStat {
		switch call.Proc {
		case ProcRecall:
			return p.handleRecall(call)
		case ProcRecallAll:
			return p.handleRecallAll(call)
		}
		return sunrpc.ProcUnavail
	})
}

// handleRecall serves a delegation recall (Section 4.3.2). Read recalls
// invalidate cached attributes; write recalls additionally force write-back
// of dirty data, with the pending-list optimization for large dirty sets.
func (p *ProxyClient) handleRecall(call *sunrpc.Call) sunrpc.AcceptStat {
	var args RecallArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	spanFH(call, args.FH)
	p.met.recalls.Inc()
	// A Name says the recall was triggered by an operation removing or
	// replacing that entry of the (directory) handle: the binding goes too.
	p.cache.applyRecall(args)
	p.cfg.Staleness.ObservePropagation("recall", args.FH.Key())

	res := RecallRes{Status: nfs3.OK}
	dirty := p.cache.dirtyBlocks(args.FH)
	if len(dirty) > 0 {
		bs := uint64(p.cfg.BlockSize)
		if len(dirty) > p.cfg.DirtyListThreshold {
			// Large dirty set: write the contended block back now, report
			// the rest as pending, and flush them in the background. The
			// highest dirty block is also submitted inline so the server's
			// file size reflects the buffered writes — other clients stat
			// the file before reading it.
			p.flushBlock(call.ReqID, args.FH, dirty[len(dirty)-1])
			if args.HasOffset {
				p.flushBlock(call.ReqID, args.FH, args.Offset/bs)
			}
			// A concurrent flusher (periodic flush, another recall) may still
			// have WRITEs in flight for the blocks above — takeDirtyRun refuses
			// in-flight blocks, so our inline calls may have been no-ops.
			// Drain before building the pending list so the reply's promises
			// reflect durable state.
			p.waitFlushIdle(args.FH)
			for _, bn := range p.cache.dirtyBlocks(args.FH) {
				res.Pending = append(res.Pending, bn*bs)
			}
			p.queueRecallFlush(call.ReqID, args.FH)
		} else {
			// Small dirty set: write everything back before replying, with
			// the WRITEs pipelined up to FlushParallelism deep.
			p.flushFile(call.ReqID, args.FH)
		}
	}
	return encodeReply(call, &res)
}

// handleRecallAll answers a whole-cache callback during server state
// reconstruction (Section 4.3.4): invalidate all cached attributes and
// report which files hold locally modified data.
func (p *ProxyClient) handleRecallAll(call *sunrpc.Call) sunrpc.AcceptStat {
	p.met.recalls.Inc()
	return encodeReply(call, &RecallAllRes{DirtyFiles: p.cache.recallAll(true)})
}
