package core

import (
	"slices"

	"repro/internal/nfs3"
	"repro/internal/sunrpc"
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
	// listing is the small directory's listing the reply carries, if any, out
	// of the frame listingRep holds.
	var listing []byte
	var listingRep sunrpc.Reply
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
			if fh, isWrite, isDir, ok := postPrimary(call.Proc, replyBytes); ok {
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
				if isDir && s.cfg.Model == ModelPolling {
					if cred, _ := DecodeSessionCred(call.Cred); !cred.NoListings {
						listing, listingRep = s.smallListing(call.ReqID, fh)
					}
				}
			}
		}
	}

	call.Reply.FixedOpaque(replyBytes)
	rep.Release() // nothing below reads the upstream frame
	trailers.Encode(call.Reply)
	call.Reply.FixedOpaque(listing)
	listingRep.Release()
	return sunrpc.Success
}

// smallListing is what a LOOKUP that resolved the directory dir carries under
// polling: the directory's first READDIRPLUS page, asked of the NFS server
// across the server's LAN, sized as a directory walk's page is (one block), and
// only if that page is the whole listing (OK and EOF). The kernel asks for a
// name in the directory next, and the listing answers it, and every other, for
// the one round trip the LOOKUP already cost. A larger directory is left to the
// proxy client's walk (dirwalk.go). The caller asks for none under delegation,
// where a seeded child is not servable without a delegation of its own, nor for
// a session without a metadata cache (SessionCred.NoListings). It returns the
// page's bytes (nil: no listing) and the frame they live in, for the caller to
// release.
func (s *ProxyServer) smallListing(rid uint64, dir nfs3.FH) ([]byte, sunrpc.Reply) {
	bs := uint32(s.cfg.BlockSize)
	e := xdr.NewEncoder()
	(&nfs3.ReaddirplusArgs{Dir: dir, DirCount: bs, MaxCount: bs}).Encode(e)
	rep, err := s.up.CallOwned(rid, nfs3.Program, nfs3.Version, nfs3.ProcReaddirplus, e.Bytes(), s.cfg.CallTimeout)
	if err != nil {
		return nil, rep
	}
	// An OK result ends in its EOF flag: the page's first word and its last
	// say whether it completes the listing, without decoding the entries.
	page := rep.Body.Rest()
	if len(page) < 8 || replyStatus(page) != nfs3.OK {
		return nil, rep
	}
	if eof, _ := xdr.NewDecoder(page[len(page)-4:]).Bool(); !eof {
		return nil, rep
	}
	return page, rep
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
// replies, with the access mode the creator/resolver obtains and, for a
// LOOKUP, whether the handle resolved names a directory.
func postPrimary(proc uint32, replyBytes []byte) (fh nfs3.FH, isWrite, isDir, ok bool) {
	d := xdr.NewDecoder(replyBytes)
	switch proc {
	case nfs3.ProcLookup:
		var res nfs3.LookupRes
		if res.Decode(d) != nil || res.Status != nfs3.OK {
			return fh, false, false, false
		}
		return res.FH, false, res.Attr.Present && res.Attr.Attr.Type == nfs3.TypeDir, true
	case nfs3.ProcCreate, nfs3.ProcMkdir, nfs3.ProcSymlink:
		var res nfs3.CreateRes
		if res.Decode(d) != nil || res.Status != nfs3.OK || !res.FHFollows {
			return fh, false, false, false
		}
		// The creator is (so far) the sole opener: write access.
		return res.FH, proc == nfs3.ProcCreate, false, true
	}
	return fh, false, false, false
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
