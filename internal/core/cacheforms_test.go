package core

import (
	"repro/internal/nfs3"
	"repro/internal/vclock"
)

// The short forms the bare-cache tests drive the session cache with. The proxy
// client calls the long ones, which carry what only a real call knows: when it
// was sent (applyReplySince), what the recall names beyond its handle
// (applyRecall), the speculation a reply belongs to and how much of it landed
// (landCall).

// applyReply is a reply to a request sent just now.
func (sc *sessionCache) applyReply(ts Trailers, forwarded []nfs3.FH) {
	sc.applyReplySince(ts, forwarded, sc.forgets.Load())
}

// land is landCall reporting whether the call kept anything.
func (sc *sessionCache) land(s *speculation, i int, res wireDec) ([]*vclock.Waiter, bool) {
	ws, kept := sc.landCall(s, i, res)
	return ws, kept > 0
}

// recall is a recall naming no offset.
func (sc *sessionCache) recall(fh nfs3.FH, seq uint64, name string) {
	sc.applyRecall(RecallArgs{FH: fh, Seq: seq, Name: name})
}

// endFetch ends a prefetch with nothing to land, returning the demand reads
// parked on it.
func (sc *sessionCache) endFetch(fh nfs3.FH, bn uint64) []*vclock.Waiter {
	ws, _ := sc.landFetch(fh, bn, nil)
	return ws
}

// The speculation engine's claims and landing, in the forms the tests of the
// four kinds were written against: one block or one page at a time, claims as
// their blocks (the spill's with its handle), a walk's step as a dirPage.

type dirPage = speculation

// beginFetches claims the stream's next chunk of fh, returning its blocks.
func (sc *sessionCache) beginFetches(fh nfs3.FH, window int64) []uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.claimStreamLocked(fh, window).blocks
}

// beginSpill claims what fh's window reaches into its successor; nil for
// nothing.
func (sc *sessionCache) beginSpill(fh nfs3.FH, window int64) *speculation {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if s := sc.claimSpillLocked(fh, window); s.due {
		return &s
	}
	return nil
}

// beginReread is claimReread's blocks.
func (sc *sessionCache) beginReread(fh nfs3.FH, window int64) []uint64 {
	return sc.claimReread(fh, window).blocks
}

// landFetch lands the READ of (fh, bn) claimed on the record that holds fh
// now, if any.
func (sc *sessionCache) landFetch(fh nfs3.FH, bn uint64, res *nfs3.ReadRes) ([]*vclock.Waiter, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.files[fh.Key()]
	if fc == nil {
		return nil, false
	}
	s := speculation{kind: specStream, seedTicket: seedTicket{fh: fh, rec: fc}, blocks: []uint64{bn}, runs: [][]uint64{{bn}}}
	ws, kept := sc.landLocked(&s, 0, res)
	return ws, kept > 0
}

// landPage lands a walk's page.
func (sc *sessionCache) landPage(pg dirPage, res *nfs3.ReaddirplusRes) {
	sc.landCall(&pg, 0, res)
}

// claimChunk is the READ path's claim of the stream's next chunk.
func (p *ProxyClient) claimChunk(parent uint64, fh nfs3.FH, window int64) []speculation {
	return p.streamClaim(parent, fh, window)
}

// issueChunk issues what claimChunk claimed.
func (p *ProxyClient) issueChunk(specs []speculation) { p.issue(specs) }

// claimReread is the GETATTR path's claim, as one speculation.
func (p *ProxyClient) claimReread(parent uint64, fh nfs3.FH) (s speculation) {
	if specs := p.rereadClaim(parent, fh); len(specs) > 0 {
		s = specs[0]
	}
	return s
}
