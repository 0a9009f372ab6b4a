package core

import (
	"fmt"

	"repro/internal/nfs3"
	"repro/internal/obs"
)

// RPCName renders (prog, proc) as the operation name used in traces and
// per-RPC counters, matching the names the paper's figures use.
func RPCName(prog, proc uint32) string {
	switch prog {
	case nfs3.Program:
		return nfs3.ProcName(proc)
	case InvProgram:
		if proc == ProcMintWrite {
			return "MINT-WRITE"
		}
		return "GETINV"
	case CallbackProgram:
		switch proc {
		case ProcRecall:
			return "RECALL"
		case ProcRecallAll:
			return "RECALL-ALL"
		}
		return "CALLBACK"
	case nfs3.MountProgram:
		return "MOUNT"
	}
	return fmt.Sprintf("PROG%d.%d", prog, proc)
}

// shortModel abbreviates a Model for span records.
func shortModel(m Model) string {
	switch m {
	case ModelPolling:
		return "poll"
	case ModelDelegation:
		return "deleg"
	default:
		return "-"
	}
}

// clientMetrics holds the proxy client's registry series, labeled by node so
// multiple sessions share one registry without colliding.
type clientMetrics struct {
	localHits          *obs.Counter
	forwards           *obs.Counter
	invalidations      *obs.Counter
	forceInvalidations *obs.Counter
	recalls            *obs.Counter
	flushedBlocks      *obs.Counter
	upstreamRetries    *obs.Counter
	flushErrors        *obs.Counter
	readAheads         *obs.Counter
	readBlocks         *obs.Counter // blocks READs asked the wide area for, demand and prefetch
	readaheadJoins     *obs.Counter
	readaheadWasted    *obs.Counter
	readaheadWindow    *obs.Gauge
	readaheadSpills    *obs.Counter
	readaheadSpillBlks *obs.Counter
	readaheadSuccMiss  *obs.Counter
	readaheadReopens   *obs.Counter
	readaheadReopenBlk *obs.Counter
	renewBypass        *obs.Counter
	pollCapped         *obs.Counter
	coalescedWrites    *obs.Counter
	commitLocal        *obs.Counter
	removeAbsorbed     *obs.Counter // REMOVEs answered at home, sent behind their reply
	removeRefused      *obs.Counter // absorbed REMOVEs the server refused, or that got no reply
	createAbsorbed     *obs.Counter // CREATEs answered at home under a minted handle
	createRefused      *obs.Counter // absorbed CREATEs that made no file (EXIST, or no reply)

	// Metadata fast path: per-cache local serves, plus the session cache's
	// bookkeeping events (capacity evictions, whole-directory flushes on
	// invalidation).
	attrHits      *obs.Counter
	dentryHits    *obs.Counter
	negHits       *obs.Counter
	accessHits    *obs.Counter
	listingHits   *obs.Counter
	metaEvictions *obs.Counter
	metaDirFlush  *obs.Counter

	// Directory walks: READDIRPLUS pages the proxy asked for on its own, what
	// they brought, how much of that was ever served, and pages dropped for
	// having crossed an invalidation.
	dirwalkPages       *obs.Counter
	dirwalkEntries     *obs.Counter
	dirwalkEntriesUsed *obs.Counter
	dirwalkDiscarded   *obs.Counter

	// Disk-cache recovery: blocks carried across a restart, how their
	// contents were settled (revalidated without a refetch vs dropped by
	// the normal mtime reconciliation), and store-level failures.
	recoveredBlocks *obs.Counter
	recoveredDirty  *obs.Counter
	recoveryDropped *obs.Counter
	revalidatedBlks *obs.Counter
	refetchedBlks   *obs.Counter
	diskCacheErrors *obs.Counter

	flushInflight   *obs.Gauge
	recallFlushPeak *obs.Gauge // most background recall flushers at once
	getinvBatch     *obs.Histogram
	forwardLatency  *obs.Histogram

	cacheAttrs, cacheLookups, cacheFiles, cacheBytes *obs.Gauge
}

func newClientMetrics(reg *obs.Registry, node string) *clientMetrics {
	l := func(name string) string { return obs.Label(name, "node", node) }
	return &clientMetrics{
		localHits:          reg.Counter(l("gvfs_client_local_hits_total")),
		forwards:           reg.Counter(l("gvfs_client_forwards_total")),
		invalidations:      reg.Counter(l("gvfs_client_invalidations_total")),
		forceInvalidations: reg.Counter(l("gvfs_client_force_invalidations_total")),
		recalls:            reg.Counter(l("gvfs_client_recalls_total")),
		flushedBlocks:      reg.Counter(l("gvfs_client_flushed_blocks_total")),
		upstreamRetries:    reg.Counter(l("gvfs_client_upstream_retries_total")),
		flushErrors:        reg.Counter(l("gvfs_client_flush_errors_total")),
		readAheads:         reg.Counter(l("gvfs_client_readaheads_total")),
		readBlocks:         reg.Counter(l("gvfs_client_read_blocks_total")),
		readaheadJoins:     reg.Counter(l("gvfs_client_readahead_joins_total")),
		readaheadWasted:    reg.Counter(l("gvfs_client_readahead_wasted_total")),
		readaheadWindow:    reg.Gauge(l("gvfs_client_readahead_window")),
		readaheadSpills:    reg.Counter(l("gvfs_client_readahead_spills_total")),
		readaheadSpillBlks: reg.Counter(l("gvfs_client_readahead_spill_blocks_total")),
		readaheadSuccMiss:  reg.Counter(l("gvfs_client_readahead_successor_misses_total")),
		readaheadReopens:   reg.Counter(l("gvfs_client_readahead_reopens_total")),
		readaheadReopenBlk: reg.Counter(l("gvfs_client_readahead_reopen_blocks_total")),
		renewBypass:        reg.Counter(l("gvfs_client_deleg_renew_bypass_total")),
		pollCapped:         reg.Counter(l("gvfs_client_poll_capped_total")),
		coalescedWrites:    reg.Counter(l("gvfs_client_coalesced_writes_total")),
		commitLocal:        reg.Counter(l("gvfs_client_commit_local_total")),
		removeAbsorbed:     reg.Counter(l("gvfs_client_remove_absorbed_total")),
		removeRefused:      reg.Counter(l("gvfs_client_remove_refused_total")),
		createAbsorbed:     reg.Counter(l("gvfs_client_create_absorbed_total")),
		createRefused:      reg.Counter(l("gvfs_client_create_refused_total")),
		attrHits:           reg.Counter(obs.Label(l("gvfs_client_meta_hits_total"), "cache", "attr")),
		dentryHits:         reg.Counter(obs.Label(l("gvfs_client_meta_hits_total"), "cache", "dentry")),
		negHits:            reg.Counter(obs.Label(l("gvfs_client_meta_hits_total"), "cache", "negative")),
		accessHits:         reg.Counter(obs.Label(l("gvfs_client_meta_hits_total"), "cache", "access")),
		listingHits:        reg.Counter(obs.Label(l("gvfs_client_meta_hits_total"), "cache", "listing")),
		metaEvictions:      reg.Counter(l("gvfs_client_meta_evictions_total")),
		metaDirFlush:       reg.Counter(l("gvfs_client_meta_dir_flushes_total")),
		dirwalkPages:       reg.Counter(l("gvfs_client_dirwalk_pages_total")),
		dirwalkEntries:     reg.Counter(l("gvfs_client_dirwalk_entries_total")),
		dirwalkEntriesUsed: reg.Counter(l("gvfs_client_dirwalk_entries_used_total")),
		dirwalkDiscarded:   reg.Counter(l("gvfs_client_dirwalk_discarded_total")),
		recoveredBlocks:    reg.Counter(l("gvfs_client_recovered_blocks_total")),
		recoveredDirty:     reg.Counter(l("gvfs_client_recovered_dirty_blocks_total")),
		recoveryDropped:    reg.Counter(l("gvfs_client_recovery_dropped_total")),
		revalidatedBlks:    reg.Counter(l("gvfs_client_revalidated_blocks_total")),
		refetchedBlks:      reg.Counter(l("gvfs_client_refetched_blocks_total")),
		diskCacheErrors:    reg.Counter(l("gvfs_client_disk_cache_errors_total")),
		flushInflight:      reg.Gauge(l("gvfs_client_flush_inflight")),
		recallFlushPeak:    reg.Gauge(l("gvfs_client_recall_flushers_peak")),
		getinvBatch:        reg.Histogram(l("gvfs_client_getinv_batch"), obs.CountBuckets),
		forwardLatency:     reg.Histogram(l("gvfs_client_forward_latency"), obs.DurationBuckets),
		cacheAttrs:         reg.Gauge(l("gvfs_client_cache_attrs")),
		cacheLookups:       reg.Gauge(l("gvfs_client_cache_lookups")),
		cacheFiles:         reg.Gauge(l("gvfs_client_cache_files")),
		cacheBytes:         reg.Gauge(l("gvfs_client_cache_bytes")),
	}
}

// cacheCounters exposes the session cache's slice of the client metrics.
func (m *clientMetrics) cacheCounters() cacheCounters {
	return cacheCounters{
		evictions:      m.metaEvictions,
		dirFlushes:     m.metaDirFlush,
		raWasted:       m.readaheadWasted,
		renewBypass:    m.renewBypass,
		walkPages:      m.dirwalkPages,
		walkEntries:    m.dirwalkEntries,
		walkUsed:       m.dirwalkEntriesUsed,
		walkDiscarded:  m.dirwalkDiscarded,
		raSpills:       m.readaheadSpills,
		raSpillBlocks:  m.readaheadSpillBlks,
		raSuccMisses:   m.readaheadSuccMiss,
		raReopens:      m.readaheadReopens,
		raReopenBlocks: m.readaheadReopenBlk,
	}
}

// serverMetrics holds the proxy server's registry series.
type serverMetrics struct {
	getInvServed     *obs.Counter
	forceReplies     *obs.Counter
	invQueued        *obs.Counter
	callbacksSent    *obs.Counter
	forwards         *obs.Counter
	delegationGrants [DelegWrite + 1]*obs.Counter // by type granted; none is not counted
	delegRecalls     *obs.Counter
	invOverflows     *obs.Counter

	getinvBatch  *obs.Histogram
	invBufferOcc *obs.Gauge
	openFiles    *obs.Gauge
}

func newServerMetrics(reg *obs.Registry, node string) *serverMetrics {
	l := func(name string) string { return obs.Label(name, "node", node) }
	grants := func(typ string) string { return obs.Label(l("gvfs_server_deleg_grants_total"), "type", typ) }
	return &serverMetrics{
		getInvServed:     reg.Counter(l("gvfs_server_getinv_served_total")),
		forceReplies:     reg.Counter(l("gvfs_server_force_replies_total")),
		invQueued:        reg.Counter(l("gvfs_server_invalidations_queued_total")),
		callbacksSent:    reg.Counter(l("gvfs_server_callbacks_sent_total")),
		forwards:         reg.Counter(l("gvfs_server_forwards_total")),
		delegationGrants: [DelegWrite + 1]*obs.Counter{DelegRead: reg.Counter(grants("read")), DelegWrite: reg.Counter(grants("write"))},
		delegRecalls:     reg.Counter(l("gvfs_server_deleg_recalls_total")),
		invOverflows:     reg.Counter(l("gvfs_server_invbuffer_overflows_total")),
		getinvBatch:      reg.Histogram(l("gvfs_server_getinv_batch"), obs.CountBuckets),
		invBufferOcc:     reg.Gauge(l("gvfs_server_invbuffer_entries")),
		openFiles:        reg.Gauge(l("gvfs_server_open_files")),
	}
}
