package core

import (
	"repro/internal/nfs3"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// accessReq describes one (file, mode) touch implied by an NFS call, used to
// drive the delegation state machine.
type accessReq struct {
	fh     nfs3.FH
	write  bool
	offset *uint64 // for WRITE/READ: the touched offset (pending-block chasing)
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
	// primary receives the delegation trailer (zero = args-independent,
	// resolved post-reply for LOOKUP/CREATE-like calls).
	primary nfs3.FH
	// primaryWrite is the access mode used for the trailer decision.
	primaryWrite bool
	// postResolve marks calls whose primary handle is in the reply.
	postResolve bool
	// writeOffset is set for WRITE calls (pending-block accounting).
	writeOffset *uint64
}

// forwardRaw relays a program verbatim (MOUNT).
func (s *ProxyServer) forwardRaw(prog, vers uint32) sunrpc.DispatchFunc {
	return func(call *sunrpc.Call) sunrpc.AcceptStat {
		rep, err := s.up.CallOwned(call.ReqID, prog, vers, call.Proc, call.Args.Rest(), s.cfg.CallTimeout)
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

	// The arguments are relayed out of the call's frame and the results out
	// of the upstream reply's, neither through a copy of its own.
	argBytes := call.Args.Rest()
	info, ok := s.inspect(call.ReqID, call.Proc, argBytes)
	if !ok {
		return sunrpc.GarbageArgs
	}
	if !info.primary.IsZero() {
		call.SpanFH = info.primary.String()
	} else if len(info.accesses) > 0 {
		call.SpanFH = info.accesses[0].fh.String()
	}

	// A client whose write-delegation recall was lost may write back stale
	// data long after the revocation admitted newer writes by others.
	// Reject its first write-back: the client discards the suspect dirty
	// blocks (Section 4.3.4) rather than clobbering newer data.
	if s.cfg.Model == ModelDelegation && call.Proc == nfs3.ProcWrite &&
		info.writeOffset != nil && s.takeLostRecall(client.rec.ID, info.primary) {
		res := nfs3.WriteRes{Status: nfs3.ErrStale}
		e := xdr.NewEncoder()
		res.Encode(e)
		call.Reply.FixedOpaque(e.Bytes())
		Trailers(nil).Encode(call.Reply)
		return sunrpc.Success
	}

	// Delegation model: resolve conflicts before the operation proceeds,
	// collecting one piggyback decision per touched handle.
	var trailers Trailers
	if s.cfg.Model == ModelDelegation {
		for _, a := range info.accesses {
			deleg, cacheable, _, seq := s.handleAccess(call.ReqID, client, a, call.Yield)
			trailers = append(trailers, Trailer{Deleg: deleg, Cacheable: cacheable, FH: a.fh, Seq: seq})
		}
	} else if !info.primary.IsZero() {
		trailers = append(trailers, Trailer{Deleg: DelegNone, Cacheable: true, FH: info.primary})
	}

	// Forward across the loopback to the kernel NFS server.
	s.met.forwards.Inc()
	rep, err := s.up.CallOwned(call.ReqID, nfs3.Program, nfs3.Version, call.Proc, argBytes, s.cfg.CallTimeout)
	if err != nil {
		return sunrpc.SystemErr
	}
	replyBytes := rep.Body.Rest()

	status := replyStatus(replyBytes)
	if status == nfs3.OK {
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
		if info.writeOffset != nil {
			s.noteWriteArrived(client.rec.ID, info.primary, *info.writeOffset)
		}
		if info.postResolve {
			if fh, isWrite, ok := postPrimary(call.Proc, replyBytes); ok {
				a := accessReq{fh: fh, write: isWrite}
				if s.cfg.Model == ModelDelegation {
					deleg, cacheable, recalled, seq := s.handleAccess(call.ReqID, client, a, call.Yield)
					if recalled {
						// The reply in hand predates the recall-triggered
						// write-back; withholding the delegation forces the
						// client to revalidate on its next access.
						deleg, cacheable = DelegNone, false
					}
					trailers = append(trailers, Trailer{Deleg: deleg, Cacheable: cacheable, FH: fh, Seq: seq})
				} else {
					trailers = append(trailers, Trailer{Deleg: DelegNone, Cacheable: true, FH: fh})
				}
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
			info.primary = args.FH
		}
	case nfs3.ProcSetattr:
		var args nfs3.SetattrArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.FH, write: true}}
		info.invTargets = []nfs3.FH{args.FH}
		info.primary = args.FH
		info.primaryWrite = true
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
		info.primary = args.FH
	case nfs3.ProcWrite:
		var args nfs3.WriteArgs
		if args.Decode(d) != nil {
			return info, false
		}
		off := args.Offset
		info.accesses = []accessReq{{fh: args.FH, write: true, offset: &off}}
		info.invTargets = []nfs3.FH{args.FH}
		info.primary = args.FH
		info.primaryWrite = true
		info.writeOffset = &off
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
		info.primary = args.Dir
		info.primaryWrite = true
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
		info.primary = args.From.Dir
		info.primaryWrite = true
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
		info.primary = args.Link.Dir
		info.primaryWrite = true
	case nfs3.ProcReaddir:
		var args nfs3.ReaddirArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.Dir}}
		info.primary = args.Dir
	case nfs3.ProcReaddirplus:
		var args nfs3.ReaddirplusArgs
		if args.Decode(d) != nil {
			return info, false
		}
		info.accesses = []accessReq{{fh: args.Dir}}
		info.primary = args.Dir
	case nfs3.ProcCommit, nfs3.ProcNull:
		// No consistency implications.
	default:
		// Unknown procedures forward without inspection.
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

// --- delegation state machine (Section 4.3) --------------------------------

func (s *ProxyServer) fileForLocked(fh nfs3.FH) *fileState {
	key := fh.Key()
	fs, ok := s.files[key]
	if !ok {
		fs = &fileState{fh: fh, sharers: make(map[string]*sharer)}
		s.files[key] = fs
	}
	s.lruClock++
	fs.touched = s.lruClock
	return fs
}

// handleAccess records a client's access to a file, recalls conflicting
// delegations (blocking until the callbacks complete, as the paper's
// conflicting request does), and returns the delegation granted to this
// client along with the cacheability decision. The blocking recall section
// runs inside yield (when non-nil): a recalled client writes dirty data back
// through this same server, so a bounded worker pool must release the slot
// while the callback is in flight or the write-backs deadlock behind it.
func (s *ProxyServer) handleAccess(rid uint64, client *clientState, a accessReq, yield func(func())) (granted DelegType, cacheable, recalled bool, seq uint64) {
	id := client.rec.ID
	now := s.clk.Now()

	type recallTarget struct {
		c    *clientState
		args RecallArgs
		sh   *sharer
	}
	var recalls []recallTarget

	s.mu.Lock()
	fs := s.fileForLocked(a.fh)
	sh, ok := fs.sharers[id]
	if !ok {
		sh = &sharer{}
		fs.sharers[id] = sh
	}
	sh.lastAccess = now
	mode := DelegRead
	if a.write {
		mode = DelegWrite
	}
	if mode > sh.mode {
		sh.mode = mode
	}

	// Identify conflicting delegations held by other sharers, in stable
	// order so recall callbacks are issued (and traced) deterministically.
	for _, otherID := range sortedSharerIDs(fs) {
		other := fs.sharers[otherID]
		if otherID == id {
			continue
		}
		conflict := false
		if a.write && other.deleg != DelegNone {
			conflict = true
		}
		if !a.write && other.deleg == DelegWrite {
			conflict = true
		}
		// Chase pending write-backs covering the requested offset
		// (Section 4.3.2): reads to not-yet-submitted blocks force prompt
		// submission.
		if !conflict && a.offset != nil && len(other.pending) > 0 {
			bs := uint64(s.cfg.BlockSize)
			if other.pending[*a.offset/bs*bs] {
				conflict = true
			}
		}
		if conflict {
			s.grantSeq++
			args := RecallArgs{FH: a.fh, Deleg: other.deleg, Seq: s.grantSeq, Name: a.name}
			if a.offset != nil {
				args.HasOffset = true
				args.Offset = *a.offset
			}
			if c := s.clients[otherID]; c != nil {
				recalls = append(recalls, recallTarget{c: c, args: args, sh: other})
			} else {
				other.deleg = DelegNone
			}
		}
	}
	s.mu.Unlock()

	// Issue the callbacks without holding the lock: the recalled clients
	// will write dirty data back through this same server.
	if len(recalls) > 0 {
		issue := func() {
			for _, r := range recalls {
				res := s.callbackRecall(rid, r.c, r.args)
				s.mu.Lock()
				r.sh.deleg = DelegNone
				if res == nil && r.args.Deleg == DelegWrite {
					r.sh.lostRecall = true
				}
				if res != nil && len(res.Pending) > 0 {
					r.sh.pending = make(map[uint64]bool, len(res.Pending))
					bs := uint64(s.cfg.BlockSize)
					for _, off := range res.Pending {
						r.sh.pending[off/bs*bs] = true
					}
				}
				s.mu.Unlock()
			}
		}
		if yield != nil {
			yield(issue)
		} else {
			issue()
		}
	}

	// Grant decision (Section 4.3.1).
	recalled = len(recalls) > 0
	s.mu.Lock()
	defer s.mu.Unlock()
	otherOpen := false
	otherWriter := false
	otherPending := false
	for otherID, other := range fs.sharers {
		if otherID == id {
			continue
		}
		otherOpen = true
		// Only a *held* write delegation blocks read delegations: a past
		// writer whose delegation has been recalled writes through the
		// server, and any future write of its triggers fresh recalls. This
		// keeps the non-cacheable state temporary, as the paper requires.
		if other.deleg == DelegWrite {
			otherWriter = true
		}
		if len(other.pending) > 0 {
			otherPending = true
		}
	}
	switch {
	case a.write && !otherOpen:
		granted = DelegWrite
		s.met.delegWriteGrants.Inc()
	case !a.write && !otherWriter && !otherPending:
		granted = DelegRead
		s.met.delegReadGrants.Inc()
	default:
		granted = DelegNone
	}
	sh.deleg = granted
	s.grantSeq++
	sh.grantSeq = s.grantSeq
	cacheable = granted != DelegNone
	return granted, cacheable, recalled, s.grantSeq
}

// revokeOthers recalls every delegation other clients hold on a.fh; used
// after a destructive operation commits to catch grants that raced with it.
// As in handleAccess, the recall fan-out runs inside yield so a bounded
// worker pool keeps serving the write-backs the recalls trigger.
func (s *ProxyServer) revokeOthers(rid uint64, client *clientState, a accessReq, yield func(func())) {
	id := client.rec.ID
	type target struct {
		c    *clientState
		args RecallArgs
		sh   *sharer
	}
	var recalls []target
	s.mu.Lock()
	fs, ok := s.files[a.fh.Key()]
	if ok {
		for _, otherID := range sortedSharerIDs(fs) {
			other := fs.sharers[otherID]
			if otherID == id || other.deleg == DelegNone {
				continue
			}
			if c := s.clients[otherID]; c != nil {
				s.grantSeq++
				recalls = append(recalls, target{
					c:    c,
					args: RecallArgs{FH: a.fh, Deleg: other.deleg, Seq: s.grantSeq, Name: a.name},
					sh:   other,
				})
			} else {
				other.deleg = DelegNone
			}
		}
	}
	s.mu.Unlock()
	if len(recalls) == 0 {
		return
	}
	issue := func() {
		for _, r := range recalls {
			res := s.callbackRecall(rid, r.c, r.args)
			s.mu.Lock()
			r.sh.deleg = DelegNone
			if res == nil && r.args.Deleg == DelegWrite {
				r.sh.lostRecall = true
			}
			s.mu.Unlock()
		}
	}
	if yield != nil {
		yield(issue)
	} else {
		issue()
	}
}

// takeLostRecall reports and clears the one-shot write-back fence raised
// when a write-delegation recall to this client was lost.
func (s *ProxyServer) takeLostRecall(clientID string, fh nfs3.FH) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs, ok := s.files[fh.Key()]
	if !ok {
		return false
	}
	sh, ok := fs.sharers[clientID]
	if !ok || !sh.lostRecall {
		return false
	}
	sh.lostRecall = false
	return true
}

// noteWriteArrived clears pending write-back accounting as the recalled
// client's dirty blocks land.
func (s *ProxyServer) noteWriteArrived(clientID string, fh nfs3.FH, offset uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs, ok := s.files[fh.Key()]
	if !ok {
		return
	}
	sh, ok := fs.sharers[clientID]
	if !ok || len(sh.pending) == 0 {
		return
	}
	bs := uint64(s.cfg.BlockSize)
	delete(sh.pending, offset/bs*bs)
}
