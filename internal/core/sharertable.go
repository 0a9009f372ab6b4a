package core

import (
	"sort"
	"time"

	"repro/internal/nfs3"
	"repro/internal/vclock"
)

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
	sh.lastAccess, sh.closing, sh.speculative = now, false, false
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
// and looks again once it has settled (recallWithin). A speculative sharer is
// asked as the sweep asks an idle one (closed), and leaves when that settles.
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
			other.closing = other.closing || other.speculative
			reqs = s.demandLocked(reqs, f, other, a, other.speculative)
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
	case sh.unanswered:
		// What it still believes it holds ended unannounced: a grant of none
		// tells it so.
		sh.unanswered = false
	case (a.write || held == DelegWrite) && len(f.sharers) == 1:
		sh.deleg = DelegWrite
	case !a.write && readable:
		sh.deleg = DelegRead
	}
	s.grantSeq++
	sh.granted = s.grantSeq
	return sh.deleg, s.grantSeq
}

// committedLocked is id's destructive operation a made durable: a WRITE
// clears its block from the writer's own pending list, and whatever others
// gained on a.fh between the conflict scan and the forward is listed.
func (s *ProxyServer) committedLocked(id string, a accessReq) []recallReq {
	s.commits++
	f := s.files[a.fh.Key()]
	if f == nil {
		return nil
	}
	if sh := f.sharers[id]; sh != nil && a.offset != nil {
		delete(sh.pending, s.blockOf(*a.offset))
	}
	return s.conflictsLocked(f, id, accessReq{fh: a.fh, write: true, name: a.name})
}

// mountGrantsLocked is c's MOUNT granting a read delegation on each of fhs,
// the directories its bundle lists and their entries, in order and each once,
// as a LOOKUP's access and postResolve would: a speculative grant, since the
// session has asked for none of them yet. A handle is granted only where
// conflictsLocked would list nothing for a read and grantLocked would give a
// read delegation (speculableLocked). Any other handle is left as it is and
// rides with no grant: a speculative grant sends no callback, waits for
// nothing and leaves no sharer holding nothing. A sharer it makes stays
// speculative until the session's own first access of the file. The pages
// were read before this runs, so the grants stand only if no destructive
// operation was made durable since commits was read, and none is made
// otherwise (ok false). One made durable after the grants recalls them
// (committedLocked), as it would a LOOKUP's.
func (s *ProxyServer) mountGrantsLocked(c *clientState, fhs []nfs3.FH, commits uint64, now time.Duration) (ts Trailers, ok bool) {
	if s.commits != commits || s.grace {
		return nil, false
	}
	for _, fh := range fhs {
		if !s.speculableLocked(fh) {
			continue
		}
		f := s.files[fh.Key()]
		spec := f == nil || f.sharers[c.rec.ID] == nil || f.sharers[c.rec.ID].speculative
		d, seq := s.grantLocked(c, accessReq{fh: fh}, now)
		s.files[fh.Key()].sharers[c.rec.ID].speculative = spec
		ts = append(ts, Trailer{Deleg: d, FH: fh, Seq: seq})
	}
	return ts, true
}

// speculableLocked reports whether a read delegation on fh may be granted
// without calling anyone back or taking anything from anyone: no sharer, the
// grantee included, holds a write delegation, owes blocks or is being called
// back.
func (s *ProxyServer) speculableLocked(fh nfs3.FH) bool {
	f := s.files[fh.Key()]
	if f == nil {
		return true
	}
	for _, sh := range f.sharers {
		if sh.deleg == DelegWrite || len(sh.pending) > 0 || sh.recall != nil {
			return false
		}
	}
	return true
}

// settleLocked records how one recall ended (res nil: never answered),
// whatever demanded it. The delegation is gone, unless the sharer was granted
// it after the recall was stamped: the client applies that grant after the
// recall (Trailer.Seq), so it holds it, and the server must too, or the next
// conflicting access would call nobody back. An unanswered write recall
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
	if sh.granted < r.args.Seq {
		sh.deleg = DelegNone
		sh.unanswered = sh.unanswered || res == nil
	}
	sh.closing = false
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
