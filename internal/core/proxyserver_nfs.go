package core

import (
	"slices"

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
	// mint is a CREATE a polling session answered at home, run as
	// mintCreate runs it rather than relayed (proxyserver_mint.go).
	mint *MintedCreate
}

// dispatchMount relays a MOUNT call to the NFS server, the arguments by
// reference out of the call's frame as dispatchNFS relays them, and registers
// the calling session: from here on every change another client makes is
// queued for it. A MNT reply carries the top of the export behind the NFS
// server's mountres3 (mountBundle).
func (s *ProxyServer) dispatchMount(call *sunrpc.Call) sunrpc.AcceptStat {
	client := s.ensureClient(call.Cred)
	rep, err := s.up.CallParts(call.ReqID, nfs3.MountProgram, nfs3.MountVersion, call.Proc, nil, call.Args.Rest(), s.cfg.CallTimeout)
	if err != nil {
		return sunrpc.SystemErr
	}
	res := rep.Body.Rest()
	call.Reply.FixedOpaque(res)
	if call.Proc == nfs3.MountProcMnt {
		if root, n, _ := splitMountReply(res); n == len(res) && !root.IsZero() {
			s.mountBundle(call, client, root)
		}
	}
	rep.Release()
	return sunrpc.Success
}

// mountBundle appends to a MNT reply the listings of the top of the export
// (MountBundle): breadth-first from root, each directory's first READDIRPLUS
// page, asked of the NFS server across its LAN as smallListing asks it. A
// directory whose page does not complete its listing is a leaf of the walk:
// its LOOKUP would carry nothing either. The bundle rides only if the walk
// ends within one block of pages. Cut short, it would answer at home the
// LOOKUP of a directory whose listing that LOOKUP would have carried, and the
// path through it would cost a round trip more than it did without the
// bundle. So nothing rides when the root's own page does not complete, or
// when the top of the export does not fit a block. It lists only for a
// session that caches metadata.
//
// Under polling it lists only once the session's invalidation buffer is
// bootstrapped: the proxy client sends its bootstrap GETINV ahead of its MNT,
// and a change queued before the bootstrap is flushed by it. Stamp lets the
// client check the same of a buffer an earlier incarnation of it bootstrapped.
// The trailer list is empty.
//
// Under delegation a listed name or attribute is servable only under a
// delegation, so the walked directories and their entries are granted read
// delegations once the pages are read (mountGrantsLocked), one trailer each,
// bounded by what one block lists. A handle another client writes, or that
// is being called back, rides ungranted, and the client lands nothing of it.
// Each grant the session never uses costs one clean callback, at DelegExpiry
// or at the first conflicting access by another client.
func (s *ProxyServer) mountBundle(call *sunrpc.Call, c *clientState, root nfs3.FH) {
	if cred, err := DecodeSessionCred(call.Cred); err != nil || cred.NoListings {
		return
	}
	delegation := s.cfg.Model == ModelDelegation
	s.mu.Lock()
	bootstrapped, stamp, commits := c.buf.bootstrapped, s.invTS, s.commits
	s.mu.Unlock()
	if !bootstrapped && !delegation {
		return
	}
	type listed struct {
		dir  nfs3.FH
		page []byte
		rep  sunrpc.Reply
	}
	var pages []listed
	defer func() {
		for _, l := range pages {
			l.rep.Release()
		}
	}()
	// handles are what the pages list, each once: the walked directories and
	// every entry with a handle and attributes, which is what a client lands.
	var handles []nfs3.FH
	seen := map[string]bool{}
	note := func(fh nfs3.FH) {
		if !seen[fh.Key()] {
			seen[fh.Key()] = true
			handles = append(handles, fh)
		}
	}
	budget := s.cfg.BlockSize
	for queue := []nfs3.FH{root}; len(queue) > 0; queue = queue[1:] {
		page, rep := s.smallListing(call.ReqID, queue[0])
		var res nfs3.ReaddirplusRes
		if page == nil || res.Decode(xdr.NewDecoder(page)) != nil {
			rep.Release()
			if len(pages) == 0 {
				return // the root's page does not complete
			}
			continue // a leaf
		}
		pages = append(pages, listed{queue[0], page, rep})
		if budget -= len(page); budget < 0 {
			return
		}
		note(queue[0])
		for _, ent := range res.Entries {
			if !ent.FHFollows || !ent.Attr.Present {
				continue
			}
			note(ent.FH)
			if ent.Attr.Attr.Type == nfs3.TypeDir {
				queue = append(queue, ent.FH)
			}
		}
	}
	var grants Trailers
	if delegation {
		var ok bool
		s.mu.Lock()
		grants, ok = s.mountGrantsLocked(c, handles, commits, s.clk.Now())
		s.mu.Unlock()
		if !ok || len(grants) == 0 {
			return // nothing of it would land
		}
		for _, t := range grants {
			s.met.delegationGrants[t.Deleg].Inc()
		}
	}
	encodeMountBundleHead(call.Reply, stamp, len(pages))
	for _, l := range pages {
		call.Reply.Opaque(l.dir.Bytes())
		call.Reply.FixedOpaque(l.page)
	}
	grants.Encode(call.Reply)
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
	// one or two handles, so their decisions fit on the stack. Under polling
	// nothing is decided: the list stays empty.
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
	}

	// Forward across the loopback to the kernel NFS server. A minted create
	// is run once however often it is sent, and reports its own change.
	var rep sunrpc.Reply
	var replyBytes []byte
	if info.mint != nil {
		res := s.mintCreate(call.ReqID, client, info.mint, call.Yield)
		e := xdr.NewEncoder()
		res.Encode(e)
		replyBytes = e.Bytes()
	} else {
		s.met.forwards.Inc()
		var err error
		if rep, err = s.up.CallParts(call.ReqID, nfs3.Program, nfs3.Version, call.Proc, nil, argBytes, s.cfg.CallTimeout); err != nil {
			return sunrpc.SystemErr
		}
		replyBytes = rep.Body.Rest()
	}

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
				if s.cfg.Model == ModelDelegation {
					t, recalled, _ := s.handleAccess(call.ReqID, client, accessReq{fh: fh, write: isWrite}, call.Yield)
					if recalled {
						// The reply in hand predates the recall-triggered
						// write-back; withholding the delegation forces the
						// client to revalidate on its next access.
						t.Deleg = DelegNone
					}
					trailers = append(trailers, t)
				} else if isDir {
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
// proxy client's walk (dirwalk.go). A LOOKUP carries none under delegation,
// where a seeded child is not servable without a delegation of its own and the
// LOOKUP grants none on the listed names, nor for a session without a metadata
// cache (SessionCred.NoListings). A MNT's bundle is made of these pages, with
// those delegations granted under delegation (mountBundle). It returns the
// page's bytes (nil: no listing) and the frame they live in, for the caller
// to release.
func (s *ProxyServer) smallListing(rid uint64, dir nfs3.FH) ([]byte, sunrpc.Reply) {
	bs := uint32(s.cfg.BlockSize)
	e := xdr.NewEncoder()
	(&nfs3.ReaddirplusArgs{Dir: dir, DirCount: bs, MaxCount: bs}).Encode(e)
	rep, err := s.up.CallParts(rid, nfs3.Program, nfs3.Version, nfs3.ProcReaddirplus, e.Bytes(), nil, s.cfg.CallTimeout)
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
		if verf, err := d.Uint64(); err == nil && s.cfg.Model == ModelPolling && args.Mode != nfs3.CreateExclusive {
			// A verifier behind the arguments: a create answered at home.
			info.mint = &MintedCreate{CreateArgs: args, Verf: verf}
			info.invTargets = nil
		}
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
	var res nfs3.LookupRes
	if s.callLAN(rid, nfs3.ProcLookup, &nfs3.DirOpArgs{Dir: dir, Name: name}, &res) != nil || res.Status != nfs3.OK {
		return nfs3.FH{}, false
	}
	return res.FH, true
}

// recall takes back every delegation in reqs and returns once each has
// settled. The callbacks a batch sends go out at once, each from an actor of
// its own, and each is settled as it answers (or fails to): they are to
// different sharers, or for different files, and the access waiting on them
// waits one callback round trip rather than one per sharer. A request that
// joined a recall already on the wire waits for that one's settle instead. No
// lock is held across a callback: the recalled client writes back through
// this same server.
func (s *ProxyServer) recall(rid uint64, reqs []recallReq) {
	send := func(r recallReq) {
		res := s.callbackRecall(rid, r.c, r.args)
		s.mu.Lock()
		joined := s.settleLocked(r, res, s.clk.Now())
		s.mu.Unlock()
		for _, w := range joined {
			w.Wake()
		}
	}
	var g *vclock.Group
	var first *recallReq
	for i := range reqs {
		switch r := reqs[i]; {
		case r.joined:
		case first == nil:
			first = &reqs[i]
		default:
			if g == nil {
				g = s.clk.NewGroup()
			}
			g.Go("gvfs-recall", func() { send(r) })
		}
	}
	if first != nil {
		send(*first) // the batch's first callback goes from this actor
	}
	for _, r := range reqs {
		if r.joined {
			s.awaitSettle(r.flight)
		}
	}
	if g != nil {
		g.Wait()
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
	return Trailer{Deleg: granted, FH: a.fh, Seq: seq}, len(reqs) > 0, false
}

// revokeOthers runs committedLocked once a destructive operation is durable
// and recalls what it lists.
func (s *ProxyServer) revokeOthers(rid uint64, client *clientState, a accessReq, yield func(func())) {
	s.mu.Lock()
	defer s.mu.Unlock()
	committed := func() []recallReq { return s.committedLocked(client.rec.ID, a) }
	s.recallWithin(rid, committed(), yield, committed)
}
