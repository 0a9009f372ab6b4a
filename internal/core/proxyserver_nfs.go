package core

import (
	"slices"
	"sort"
	"time"

	"repro/internal/nfs3"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// accessReq describes one (file, mode) touch implied by an NFS call, used to
// drive the delegation state machine.
type accessReq struct {
	fh    nfs3.FH
	write bool
	// offset is set for READ and WRITE (pending-block chasing); with write,
	// it is a WRITE's data arriving.
	offset *uint64
	// name is set on directory write accesses that remove or replace an
	// entry; recalls propagate it so clients drop the binding.
	name string
}

// callInfo is what the proxy server learns by inspecting an NFS call before
// forwarding it.
type callInfo struct {
	accesses []accessReq
	// invTargets are invalidated at other clients when the call succeeds.
	invTargets []nfs3.FH
	// postResolve marks calls whose reply names one more handle to decide on.
	postResolve bool
}

// forwardRaw relays a program verbatim (MOUNT), the arguments by reference
// out of the call's frame as dispatchNFS relays them.
func (s *ProxyServer) forwardRaw(prog, vers uint32) sunrpc.DispatchFunc {
	return func(call *sunrpc.Call) sunrpc.AcceptStat {
		rep, err := s.up.CallParts(call.ReqID, prog, vers, call.Proc, nil, call.Args.Rest(), s.cfg.CallTimeout)
		if err != nil {
			return sunrpc.SystemErr
		}
		call.Reply.FixedOpaque(rep.Body.Rest())
		rep.Release()
		return sunrpc.Success
	}
}

// dispatchNFS is the proxy server's request path: inspect, resolve
// delegation conflicts, forward, record invalidations, and piggyback the
// delegation trailer (Sections 4.2-4.3).
func (s *ProxyServer) dispatchNFS(call *sunrpc.Call) sunrpc.AcceptStat {
	if s.cfg.ProxyDelay > 0 {
		s.clk.Sleep(s.cfg.ProxyDelay)
	}
	// Grace parking can outlast a whole recovery round; yield the worker slot
	// (if the server runs a bounded pool) so parked requests don't starve it.
	call.Yield(s.waitGrace)
	client := s.ensureClient(call.Cred)

	// The arguments go upstream by reference, as the tail of the forwarded
	// call: a transport that gathers writes them out of this call's frame,
	// which lives until the handler returns, and any other joins them to the
	// call's header once. The results are copied once, from the upstream
	// reply's frame into this call's reply.
	argBytes := call.Args.Rest()
	info, ok := s.inspect(call.ReqID, call.Proc, argBytes)
	if !ok {
		return sunrpc.GarbageArgs
	}
	if len(info.accesses) > 0 {
		spanFH(call, info.accesses[0].fh)
	}

	// Delegation model: resolve conflicts before the operation proceeds,
	// collecting one piggyback decision per touched handle. A call touches
	// one or two handles, so their decisions fit on the stack.
	var tbuf [2]Trailer
	trailers := Trailers(tbuf[:0])
	if s.cfg.Model == ModelDelegation {
		for _, a := range info.accesses {
			t, _, fenced := s.handleAccess(call.ReqID, client, a, call.Yield)
			if fenced {
				// Refused: the client discards the blocks (Section 4.3.4).
				(&nfs3.WriteRes{Status: nfs3.ErrStale}).Encode(call.Reply)
				Trailers(nil).Encode(call.Reply)
				return sunrpc.Success
			}
			trailers = append(trailers, t)
		}
	} else if len(info.accesses) > 0 && !info.postResolve {
		trailers = append(trailers, Trailer{Deleg: DelegNone, Cacheable: true, FH: info.accesses[0].fh})
	}

	// Forward across the loopback to the kernel NFS server.
	s.met.forwards.Inc()
	rep, err := s.up.CallParts(call.ReqID, nfs3.Program, nfs3.Version, call.Proc, nil, argBytes, s.cfg.CallTimeout)
	if err != nil {
		return sunrpc.SystemErr
	}
	replyBytes := rep.Body.Rest()

	switch replyStatus(replyBytes) {
	case nfs3.ErrStale:
		// The handle is dead: nothing granted on it is worth the client's
		// keeping, and the client forgets it. (Only STALE: a LOOKUP's NOENT,
		// say, carries the directory's grant its negative entry is served by.)
		trailers = nil
	case nfs3.OK:
		// Ground truth for the staleness observatory: every invalidation
		// target of a successfully forwarded mutation is a committed remote
		// write, stamped here (both models) with the committing client's
		// identity so a client's own writes never age its own cache.
		if s.cfg.Staleness != nil {
			for _, fh := range info.invTargets {
				s.cfg.Staleness.RecordCommit(fh.Key(), client.rec.ID)
			}
		}
		if s.cfg.Model == ModelPolling {
			s.queueInvalidations(client.rec.ID, info.invTargets)
		}
		if s.cfg.Model == ModelDelegation {
			// Close the scan-to-forward window: a delegation granted to a
			// third client between our conflict scan and the upstream
			// forward would reference pre-operation state. Sweep again now
			// that the operation is durable.
			for _, a := range info.accesses {
				if a.write {
					s.revokeOthers(call.ReqID, client, a, call.Yield)
				}
			}
		}
		if info.postResolve {
			if fh, isWrite, ok := postPrimary(call.Proc, replyBytes); ok {
				t := Trailer{Deleg: DelegNone, Cacheable: true, FH: fh}
				if s.cfg.Model == ModelDelegation {
					var recalled bool
					t, recalled, _ = s.handleAccess(call.ReqID, client, accessReq{fh: fh, write: isWrite}, call.Yield)
					if recalled {
						// The reply in hand predates the recall-triggered
						// write-back; withholding the delegation forces the
						// client to revalidate on its next access.
						t.Deleg, t.Cacheable = DelegNone, false
					}
				}
				trailers = append(trailers, t)
			}
		}
	}

	call.Reply.FixedOpaque(replyBytes)
	rep.Release() // nothing below reads the upstream frame
	trailers.Encode(call.Reply)
	return sunrpc.Success
}

// replyStatus extracts the leading nfsstat3 of a reply body.
func replyStatus(b []byte) nfs3.Status {
	d := xdr.NewDecoder(b)
	st, err := d.Uint32()
	if err != nil {
		return nfs3.ErrIO
	}
	return nfs3.Status(st)
}

// postPrimary extracts the child/new handle from LOOKUP and CREATE-like
// replies, with the access mode the creator/resolver obtains.
func postPrimary(proc uint32, replyBytes []byte) (nfs3.FH, bool, bool) {
	d := xdr.NewDecoder(replyBytes)
	switch proc {
	case nfs3.ProcLookup:
		var res nfs3.LookupRes
		if res.Decode(d) != nil || res.Status != nfs3.OK {
			return nfs3.FH{}, false, false
		}
		return res.FH, false, true
	case nfs3.ProcCreate, nfs3.ProcMkdir, nfs3.ProcSymlink:
		var res nfs3.CreateRes
		if res.Decode(d) != nil || res.Status != nfs3.OK || !res.FHFollows {
			return nfs3.FH{}, false, false
		}
		// The creator is (so far) the sole opener: write access.
		return res.FH, proc == nfs3.ProcCreate, true
	}
	return nfs3.FH{}, false, false
}

// inspect decodes just enough of each call to drive consistency handling.
// For REMOVE/RMDIR/RENAME the victim handle is resolved with an upstream
// LOOKUP so its cached state can be invalidated and recalled too.
func (s *ProxyServer) inspect(rid uint64, proc uint32, argBytes []byte) (callInfo, bool) {
	d := xdr.NewDecoder(argBytes)
	var info callInfo
	switch proc {
	case nfs3.ProcGetattr, nfs3.ProcAccess, nfs3.ProcReadlink, nfs3.ProcFsstat, nfs3.ProcFsinfo:
		var args nfs3.GetattrArgs
		if args.Decode(d) != nil {
			return info, false
		}
		if proc == nfs3.ProcGetattr {
			info.accesses = []accessReq{{fh: args.FH}}
		}
	case nfs3.ProcSetattr:
		var args nfs3.SetattrArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.FH, write: true}}
		info.invTargets = []nfs3.FH{args.FH}
	case nfs3.ProcLookup:
		var args nfs3.DirOpArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.Dir}}
		info.postResolve = true
	case nfs3.ProcRead:
		var args nfs3.ReadArgs
		if args.Decode(d) != nil {
			return info, false
		}
		off := args.Offset
		info.accesses = []accessReq{{fh: args.FH, offset: &off}}
	case nfs3.ProcWrite:
		var args nfs3.WriteArgs
		if args.Decode(d) != nil {
			return info, false
		}
		off := args.Offset
		info.accesses = []accessReq{{fh: args.FH, write: true, offset: &off}}
		info.invTargets = []nfs3.FH{args.FH}
	case nfs3.ProcCreate:
		var args nfs3.CreateArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.Where.Dir, write: true}}
		info.invTargets = []nfs3.FH{args.Where.Dir}
		info.postResolve = true
	case nfs3.ProcMkdir:
		var args nfs3.MkdirArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.Where.Dir, write: true}}
		info.invTargets = []nfs3.FH{args.Where.Dir}
		info.postResolve = true
	case nfs3.ProcSymlink:
		var args nfs3.SymlinkArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.Where.Dir, write: true}}
		info.invTargets = []nfs3.FH{args.Where.Dir}
		info.postResolve = true
	case nfs3.ProcRemove, nfs3.ProcRmdir:
		var args nfs3.DirOpArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.Dir, write: true, name: args.Name}}
		info.invTargets = []nfs3.FH{args.Dir}
		if victim, ok := s.lookupUpstream(rid, args.Dir, args.Name); ok {
			info.accesses = append(info.accesses, accessReq{fh: victim, write: true})
			info.invTargets = append(info.invTargets, victim)
		}
	case nfs3.ProcRename:
		var args nfs3.RenameArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{
			{fh: args.From.Dir, write: true, name: args.From.Name},
			{fh: args.To.Dir, write: true, name: args.To.Name},
		}
		info.invTargets = []nfs3.FH{args.From.Dir, args.To.Dir}
		if victim, ok := s.lookupUpstream(rid, args.To.Dir, args.To.Name); ok {
			info.accesses = append(info.accesses, accessReq{fh: victim, write: true})
			info.invTargets = append(info.invTargets, victim)
		}
		if moved, ok := s.lookupUpstream(rid, args.From.Dir, args.From.Name); ok {
			info.invTargets = append(info.invTargets, moved)
		}
	case nfs3.ProcLink:
		var args nfs3.LinkArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{
			{fh: args.Link.Dir, write: true},
			{fh: args.FH, write: true},
		}
		info.invTargets = []nfs3.FH{args.Link.Dir, args.FH}
	case nfs3.ProcReaddir:
		var args nfs3.ReaddirArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.Dir}}
	case nfs3.ProcReaddirplus:
		var args nfs3.ReaddirplusArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.Dir}}
	default:
		// COMMIT, NULL and anything unknown: forwarded without inspection.
	}
	return info, true
}

// lookupUpstream resolves (dir, name) against the kernel NFS server; used to
// learn victim handles of destructive directory operations.
func (s *ProxyServer) lookupUpstream(rid uint64, dir nfs3.FH, name string) (nfs3.FH, bool) {
	args := nfs3.DirOpArgs{Dir: dir, Name: name}
	e := xdr.NewEncoder()
	args.Encode(e)
	d, err := s.up.CallTraced(rid, nfs3.Program, nfs3.Version, nfs3.ProcLookup, e.Bytes(), s.cfg.CallTimeout)
	if err != nil {
		return nfs3.FH{}, false
	}
	var res nfs3.LookupRes
	if res.Decode(d) != nil || res.Status != nfs3.OK {
		return nfs3.FH{}, false
	}
	return res.FH, true
}

// --- the sharer table (Section 4.3) ----------------------------------------
//
// s.files is the strong model's whole server state: per file handle, the
// clients presumed to have it open and what each holds — a delegation, dirty
// blocks it still owes (pending), the fence of a write recall it never
// answered (lostRecall). Only the *Locked functions below change it. Each is
// a transition: under s.mu, no I/O, nothing that blocks, so
// TestSharerStateMachine runs them on a bare ProxyServer; DESIGN.md "The
// sharer table" is the state x event table they implement. What a transition
// wants back leaves through recall, which settles every answer the same way,
// and a sharer leaves only through dropSharerLocked — never ahead of the
// callback.

// recallReq is one delegation to take back. closed says the server also
// speculates the file closed by that client (idle, or beyond the state
// budget; Section 4.3.3): a clean acknowledgement then ends the sharer.
// flight is the callback the request is — or, joined, the one already on the
// wire to that sharer, which the access waits out instead of sending another.
type recallReq struct {
	f      *fileState
	c      *clientState
	args   RecallArgs
	closed bool
	flight *recallFlight
	joined bool
}

// recallFlight is one recall callback from the time a transition demands it
// until it settles, and the accesses waiting for that.
type recallFlight struct {
	settled bool
	waiters []*vclock.Waiter
}

// blockOf rounds a byte offset down to its block, the unit of pending lists.
func (s *ProxyServer) blockOf(off uint64) uint64 {
	return off - off%uint64(s.cfg.BlockSize)
}

// sortedKeys lists m's keys in stable order: callbacks are issued (and traced)
// in it, and map order would make runs of the same seed diverge.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// touchLocked records an access by c to fh at now: the file moves to the
// front of the eviction order and c is (or becomes) one of its sharers.
func (s *ProxyServer) touchLocked(fh nfs3.FH, c *clientState, now time.Duration) (*fileState, *sharer) {
	key := fh.Key()
	f := s.files[key]
	if f == nil {
		f = &fileState{fh: fh, sharers: make(map[string]*sharer)}
		f.link.of = f
		s.files[key] = f
	}
	s.lru.bump(&f.link)
	sh := f.sharers[c.rec.ID]
	if sh == nil {
		sh = &sharer{c: c}
		f.sharers[c.rec.ID] = sh
	}
	sh.lastAccess, sh.closing = now, false
	return f, sh
}

// dropSharerLocked takes id out of f's sharers and, with its last sharer, f
// out of the table.
func (s *ProxyServer) dropSharerLocked(f *fileState, id string) {
	delete(f.sharers, id)
	if len(f.sharers) == 0 {
		s.lru.remove(&f.link)
		delete(s.files, f.fh.Key())
	}
}

// demandLocked adds to reqs the recall of what sh holds on f, for the access
// a it cannot coexist with, and marks sh as being called back.
func (s *ProxyServer) demandLocked(reqs []recallReq, f *fileState, sh *sharer, a accessReq, closed bool) []recallReq {
	s.grantSeq++
	args := RecallArgs{FH: f.fh, Deleg: sh.deleg, Seq: s.grantSeq, Name: a.name}
	if a.offset != nil {
		args.HasOffset, args.Offset = true, *a.offset
	}
	sh.recall = &recallFlight{}
	return append(reqs, recallReq{f: f, c: sh.c, args: args, closed: closed, flight: sh.recall})
}

// conflictsLocked lists what other sharers of f hold that cannot coexist
// with id's access a (Section 4.3.1): any delegation against a write, a write
// delegation against a read, and — chasing a partial write-back, Section
// 4.3.2 — a block at a's offset that its holder has yet to submit. A sharer
// already being called back is not called again: the access joins that recall,
// and looks again once it has settled (recallWithin).
func (s *ProxyServer) conflictsLocked(f *fileState, id string, a accessReq) (reqs []recallReq) {
	for _, otherID := range sortedKeys(f.sharers) {
		other := f.sharers[otherID]
		conflict := a.write && other.deleg != DelegNone ||
			!a.write && other.deleg == DelegWrite ||
			a.offset != nil && other.pending[s.blockOf(*a.offset)]
		switch {
		case otherID == id || !conflict:
		case other.recall != nil:
			reqs = append(reqs, recallReq{f: f, c: other.c, args: RecallArgs{FH: f.fh, Deleg: other.deleg}, flight: other.recall, joined: true})
		default:
			reqs = s.demandLocked(reqs, f, other, a, false)
		}
	}
	return reqs
}

// accessLocked is c's access a arriving: c is (still, or again) a sharer, and
// what it conflicts with is listed. A WRITE from behind a lost recall takes
// the one-shot fence instead: the caller must refuse the data.
func (s *ProxyServer) accessLocked(c *clientState, a accessReq, now time.Duration) (reqs []recallReq, fenced bool) {
	f, sh := s.touchLocked(a.fh, c, now)
	if sh.lostRecall && a.write && a.offset != nil {
		sh.lostRecall = false
		return nil, true
	}
	return s.conflictsLocked(f, c.rec.ID, a), false
}

// grantLocked decides what c holds on a.fh now that the recalls its access
// demanded have settled (Section 4.3.1), and stamps the decision. c is
// touched again: a sweep may have dropped it while it waited.
func (s *ProxyServer) grantLocked(c *clientState, a accessReq, now time.Duration) (DelegType, uint64) {
	f, sh := s.touchLocked(a.fh, c, now)
	// Only a *held* write delegation, or blocks its past holder still owes,
	// denies read delegations: a writer whose delegation has been recalled
	// writes through the server, and any future write of its triggers fresh
	// recalls. This keeps the non-cacheable state temporary, as the paper
	// requires.
	readable := true
	for _, other := range f.sharers {
		if other != sh && (other.deleg == DelegWrite || len(other.pending) > 0) {
			readable = false
		}
	}
	held := sh.deleg
	sh.deleg = DelegNone
	switch {
	// THE ROW "Delegation that delegates" (ROADMAP) will edit: any other
	// sharer, even one holding nothing since its recall, denies the write
	// delegation until it ages out — which is what keeps the benchmark's
	// share producer writing through. TestSharerStateMachine pins it. The
	// only holder's own READ keeps its write delegation: downgraded, it would
	// keep buffering the blocks it holds dirty while others read past them
	// (TestHolderReadKeepsWriteDelegation).
	case (a.write || held == DelegWrite) && len(f.sharers) == 1:
		sh.deleg = DelegWrite
	case !a.write && readable:
		sh.deleg = DelegRead
	}
	s.grantSeq++
	return sh.deleg, s.grantSeq
}

// committedLocked is id's destructive operation a made durable: a WRITE
// clears its block from the writer's own pending list, and whatever others
// gained on a.fh between the conflict scan and the forward is listed.
func (s *ProxyServer) committedLocked(id string, a accessReq) []recallReq {
	f := s.files[a.fh.Key()]
	if f == nil {
		return nil
	}
	if sh := f.sharers[id]; sh != nil && a.offset != nil {
		delete(sh.pending, s.blockOf(*a.offset))
	}
	return s.conflictsLocked(f, id, accessReq{fh: a.fh, write: true, name: a.name})
}

// settleLocked records how one recall ended (res nil: never answered),
// whatever demanded it. The delegation is gone. An unanswered write recall
// leaves the fence, an answer naming unwritten blocks the pending list;
// either restarts the sharer's idle clock and fronts the file in the
// eviction order, so what it owes outlives the sweep that found it by a
// full DelegExpiry (or a turn of the budget). The sharer is no longer being
// called back, and the accesses that joined the recall are handed back, to be
// woken. A request that joined settles nothing.
func (s *ProxyServer) settleLocked(r recallReq, res *RecallRes, now time.Duration) (joined []*vclock.Waiter) {
	if r.joined {
		return nil
	}
	r.flight.settled, joined, r.flight.waiters = true, r.flight.waiters, nil
	f, id := r.f, r.c.rec.ID
	sh := f.sharers[id]
	if sh != nil && sh.recall == r.flight {
		sh.recall = nil
	}
	if sh == nil || r.closed && !sh.closing {
		return joined // dropped, or back since the sweep speculated it gone: what it holds now stands
	}
	sh.deleg, sh.closing = DelegNone, false
	switch {
	case res == nil && r.args.Deleg == DelegWrite:
		sh.lostRecall = true
	case res != nil && len(res.Pending) > 0:
		sh.pending = make(map[uint64]bool, len(res.Pending))
		for _, off := range res.Pending {
			sh.pending[s.blockOf(off)] = true
		}
	default:
		if r.closed {
			s.dropSharerLocked(f, id)
		}
		return joined
	}
	sh.lastAccess = now
	s.lru.bump(&f.link)
	return joined
}

// releaseLocked speculates f closed by every sharer last heard from before
// idle: a delegation is asked back (once, and not while a recall of it is on
// the wire already) and its holder leaves when that settles; a sharer holding
// none leaves now, with whatever it still owed.
func (s *ProxyServer) releaseLocked(reqs []recallReq, f *fileState, idle time.Duration) []recallReq {
	for _, id := range sortedKeys(f.sharers) {
		switch sh := f.sharers[id]; {
		case sh.lastAccess >= idle || sh.closing || sh.recall != nil:
		case sh.deleg != DelegNone:
			sh.closing = true
			reqs = s.demandLocked(reqs, f, sh, accessReq{}, true)
		default:
			s.dropSharerLocked(f, id)
		}
	}
	return reqs
}

// sweepLocked releases every sharer idle for longer than DelegExpiry, then
// the rest of the least recently accessed files beyond MaxOpenFiles (a file
// whose idle holders have yet to answer still counts, and is the oldest).
func (s *ProxyServer) sweepLocked(now time.Duration) (reqs []recallReq) {
	for _, key := range sortedKeys(s.files) {
		reqs = s.releaseLocked(reqs, s.files[key], now-s.cfg.DelegExpiry)
	}
	k := s.lru.head.prev
	for n := s.lru.n - s.cfg.MaxOpenFiles; n > 0; n-- {
		f := k.of
		k = k.prev // before f can leave the ring
		reqs = s.releaseLocked(reqs, f, now+1)
	}
	return reqs
}

// rebuildLocked re-enters a client that answered the restart's RECALL_ALL
// with dirty data for fh as the file's writer (Section 4.3.4).
func (s *ProxyServer) rebuildLocked(c *clientState, fh nfs3.FH, now time.Duration) {
	_, sh := s.touchLocked(fh, c, now)
	sh.deleg = DelegWrite
}

// recall takes back every delegation in reqs, in order, settling each answer
// (or the lack of one) before the next is sent; a request that joined a recall
// already on the wire waits for that one's settle instead. No lock is held
// across a callback: the recalled client writes back through this same server.
func (s *ProxyServer) recall(rid uint64, reqs []recallReq) {
	for _, r := range reqs {
		if r.joined {
			s.awaitSettle(r.flight)
			continue
		}
		res := s.callbackRecall(rid, r.c, r.args)
		s.mu.Lock()
		joined := s.settleLocked(r, res, s.clk.Now())
		s.mu.Unlock()
		for _, w := range joined {
			w.Wake()
		}
	}
}

// awaitSettle parks until the recall fl has settled.
func (s *ProxyServer) awaitSettle(fl *recallFlight) {
	s.mu.Lock()
	if fl.settled {
		s.mu.Unlock()
		return
	}
	w := s.clk.NewWaiter()
	fl.waiters = append(fl.waiters, w)
	s.mu.Unlock()
	s.clk.WaitAs(w, "recall in flight")
}

// recallWithin runs reqs through recall inside yield, with s.mu (held by the
// caller) released meanwhile. When one of them joined another access's recall,
// that settle is all it waited for: the table is looked at again (rescan) and
// what still conflicts — a block the holder still owes, a delegation granted
// since — is asked for in turn, so an access never goes ahead of the holder's
// write-back and one delegation is called back once however many accesses
// want it at the same time.
func (s *ProxyServer) recallWithin(rid uint64, reqs []recallReq, yield func(func()), rescan func() []recallReq) {
	for len(reqs) > 0 {
		s.mu.Unlock()
		yield(func() { s.recall(rid, reqs) })
		s.mu.Lock()
		if !slices.ContainsFunc(reqs, func(r recallReq) bool { return r.joined }) {
			return
		}
		reqs = rescan()
	}
}

// handleAccess runs one access through the table: it recalls conflicting
// delegations (blocking until the callbacks complete, as the paper's
// conflicting request does) and returns the decision to piggyback. The
// recalls run inside yield: a bounded worker pool must release the slot while
// a callback is in flight, or the write-backs it triggers deadlock behind it.
func (s *ProxyServer) handleAccess(rid uint64, client *clientState, a accessReq, yield func(func())) (t Trailer, recalled, fenced bool) {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	reqs, fenced := s.accessLocked(client, a, now)
	if fenced {
		return t, false, true
	}
	s.recallWithin(rid, reqs, yield, func() []recallReq {
		if f := s.files[a.fh.Key()]; f != nil {
			return s.conflictsLocked(f, client.rec.ID, a)
		}
		return nil
	})
	granted, seq := s.grantLocked(client, a, now)
	s.met.delegationGrants[granted].Inc()
	return Trailer{Deleg: granted, Cacheable: granted != DelegNone, FH: a.fh, Seq: seq}, len(reqs) > 0, false
}

// revokeOthers runs committedLocked once a destructive operation is durable
// and recalls what it lists.
func (s *ProxyServer) revokeOthers(rid uint64, client *clientState, a accessReq, yield func(func())) {
	s.mu.Lock()
	defer s.mu.Unlock()
	committed := func() []recallReq { return s.committedLocked(client.rec.ID, a) }
	s.recallWithin(rid, committed(), yield, committed)
}
