package core

import (
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Speculation: every prefetch the proxy client makes takes one path, claim →
// issue → land (DESIGN.md, "Speculation"). A critical section the demand
// request already takes claims it with its record's ticket (claimChunk,
// claimReread, walkStepLocked); mint and issue send it behind the demand call,
// a READ kind's blocks as one READ per run of adjacent ones; collect lands it
// (landLocked), block by block.

// specKind is the evidence a speculation was claimed on.
type specKind uint8

const (
	specStream specKind = iota + 1 // the file's sequential reader (readahead.go)
	specSpill                      // the reader's window crossing into the next file
	specReread                     // a revalidating GETATTR after a remote write
	specPage                       // a directory's LOOKUPs (dirwalk.go)
)

// specNote is what a READ kind's span notes beside its window.
var specNote = [...]obs.Note{specSpill: obs.NoteNext, specReread: obs.NoteReopen}

// speculation is one claimed prefetch on one record. The zero value, and any
// value with due unset, claims nothing.
type speculation struct {
	kind         specKind
	due          bool       // something was claimed: its issuer's to send
	ticket                  // its handle and record, and (a page) what the landing compares
	blocks       []uint64   // READ kinds: the blocks claimed, in block order
	runs         [][]uint64 // READ kinds: blocks cut into one READ each (runsOf)
	epoch        uint64     // page: the walk it was claimed in
	cookie, verf uint64     // page: where the listing resumes
	window       int64      // READ kinds: the window it was claimed under
	parent       uint64     // the request that made it due
	rids         []uint64   // one request ID per call: a run, or the page (mint)
}

// runsOf cuts claimed blocks into the READs that carry them: adjacent blocks
// share one, up to a quarter of the window (and at least one block) a READ.
// A READ a block pays a message's overhead on every block; a READ for the
// whole window would hold every block of it until the last had crossed, while
// the reader waits on the first. The quarter is the stream's cadence too
// (streamRead): a run lands while three more are still on the link.
func runsOf(blocks []uint64, window int64) [][]uint64 {
	limit := max(int(window/4), 1)
	var runs [][]uint64
	for lo := 0; lo < len(blocks); {
		hi := lo + 1
		for hi < len(blocks) && hi-lo < limit && blocks[hi] == blocks[hi-1]+1 {
			hi++
		}
		runs = append(runs, blocks[lo:hi:hi])
		lo = hi
	}
	return runs
}

// landCall settles call i of s with its reply (nil, or a nil result, when the
// call failed), returning the demand reads parked on it, to be woken, and how
// many blocks it kept.
func (sc *sessionCache) landCall(s *speculation, i int, res wireDec) (ws []*vclock.Waiter, kept int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.landLocked(s, i, res)
}

// landLocked is the one landing: the ticket is shown, then the kind's rule
// decides. A page moves its walk on only within the walk's epoch, and is
// seeded only if the landing rule lets its names land (landsLocked); one it
// refuses is discarded whole, and one not OK latches the walk off. A READ's blocks land one by one,
// in block order, each under the same rule: it needs its record (forget handed
// back what was parked on a forgotten one) and its claim mark; its bytes are
// kept, through putBlockLocked's mtime reconciliation, when the reply is OK
// with attributes and holds the whole block or ends in it at the file's tail.
// One at or past the end of file the reply reports counts as wasted; one a
// reply without EOF stops short of was not answered, and is neither kept nor
// counted. The readers parked on each block are handed back, kept or not: one
// that finds nothing forwards.
func (sc *sessionCache) landLocked(s *speculation, i int, res wireDec) (ws []*vclock.Waiter, kept int) {
	fc := s.rec
	if s.kind == specPage {
		pg, _ := res.(*nfs3.ReaddirplusRes)
		fresh := pg != nil && sc.landsLocked(s.ticket, fc, 0, true)
		if w := &fc.walk; w.epoch == s.epoch {
			w.inflight = false
			switch {
			case !fresh: // the same page is asked for again
			case pg.Status != nfs3.OK || (len(pg.Entries) == 0 && !pg.EOF):
				w.off = true
			default:
				if n := len(pg.Entries); n > 0 {
					w.cookie = pg.Entries[n-1].Cookie
				}
				w.verf, w.done = pg.CookieVerf, pg.EOF
			}
		}
		switch {
		case fresh:
			sc.seedDirLocked(fc, s.sent, pg, true, nil)
		case pg != nil:
			sc.met.walkDiscarded.Inc()
		}
		return nil, 0
	}
	if sc.files[fc.key] != fc {
		return nil, 0
	}
	rr, _ := res.(*nfs3.ReadRes)
	ok := rr != nil && rr.Status == nfs3.OK && rr.Attr.Present
	for j, bn := range s.runs[i] {
		parked, claimed := fc.fetching[bn]
		delete(fc.fetching, bn)
		ws = append(ws, parked...)
		lo := j * sc.bs
		if !claimed || !ok || lo >= len(rr.Data) && !rr.EOF {
			continue // nothing to land, or a reply that stopped short of the block
		}
		// This block's share of the reply: whole, the tail it ends in at EOF,
		// or nothing past it.
		data := rr.Data[min(lo, len(rr.Data)):min(lo+sc.bs, len(rr.Data))]
		switch {
		case bn*uint64(sc.bs) >= rr.Attr.Attr.Size:
			sc.met.raWasted.Inc()
		case len(data) == sc.bs || rr.EOF:
			sc.putBlockLocked(fc, bn, data, rr.Attr.Attr, true)
			kept++
		}
	}
	return ws, kept
}

// --- proxy client side -------------------------------------------------------

// mint stamps what a claim returned with the request that made it due, and
// each of its calls — a READ kind's runs, a page — with a request ID of its
// own: every prefetch is its own traced request, so attribution never charges
// the demand request for it.
// Minted by the claiming actor before any collector is spawned, so the ID
// order is the same every run. It returns the speculations that are due, nil
// when none is.
func (p *ProxyClient) mint(parent uint64, claimed ...speculation) []speculation {
	var due []speculation
	for _, s := range claimed {
		if !s.due {
			continue
		}
		s.parent, s.rids = parent, make([]uint64, max(len(s.runs), 1)) // a page is one call
		for i := range s.rids {
			s.rids[i] = p.node.Mint()
		}
		due = append(due, s)
	}
	return due
}

// issue sends minted speculations from one actor, in claim order, so that they
// cross the link (and their replies come back) in the order the reader will
// want them, and parks one collector on each so that the round trips overlap;
// sent from the collectors, they would leave in whatever order the scheduler
// ran those. A page lands under the ticket its send took, if that is of the
// record it was claimed on (one the claim's record was forgotten for would not
// land under either). The sender is an actor of its own so that a reply served from the
// cache does not wait for the sends. A caller forwarding a request of its own
// starts it first: its reply never queues behind a prefetch. A run is one
// READ of its blocks (runsOf). A page is one block: on a slow link a reply of
// MaxIOSize would hold demand traffic up for seconds.
func (p *ProxyClient) issue(specs []speculation) {
	if len(specs) == 0 {
		return
	}
	p.clk.Go("gvfs-prefetch", func() {
		bs := uint32(p.cfg.BlockSize)
		for k := range specs {
			s := &specs[k]
			for i, rid := range s.rids {
				var c upstreamCall
				if s.kind == specPage {
					c = p.startUpstream(rid, nfs3.ProcReaddirplus, &nfs3.ReaddirplusArgs{
						Dir: s.fh, Cookie: s.cookie, CookieVerf: s.verf, DirCount: bs, MaxCount: bs,
					})
					if c.tk.rec == s.rec {
						s.ticket = c.tk
					}
				} else {
					run := s.runs[i]
					c = p.startUpstream(rid, nfs3.ProcRead, &nfs3.ReadArgs{FH: s.fh, Offset: run[0] * uint64(bs), Count: uint32(len(run)) * bs})
				}
				p.clk.Go("gvfs-prefetch", func() { p.collect(s, i, c) })
			}
		}
	})
}

// collect waits for call i of s, records its span and lands it. Waiting demand
// reads are woken whether or not the call succeeded: on failure they forward.
// A READ's span says how many blocks it asked for; its bytes are the reply's.
func (p *ProxyClient) collect(s *speculation, i int, c upstreamCall) {
	sp := obs.Span{Req: s.rids[i], Parent: s.parent, Op: "READAHEAD", Model: shortModel(p.cfg.Model), Start: c.start}
	var read nfs3.ReadRes
	var page nfs3.ReaddirplusRes
	var res wireDec = &read
	st := &read.Status
	if s.kind == specPage {
		sp.Op, res, st = "prefetch READDIRPLUS", &page, &page.Status
	}
	if p.node.Tracing() {
		sp.FH = s.fh.String()
		if s.kind != specPage {
			sp.Window, sp.Blocks, sp.Note = int(s.window), len(s.runs[i]), specNote[s.kind]
		}
	}
	rep, _, err := p.finishUpstream(c, res, nil)
	sp.End = p.node.Now()
	if err != nil {
		res, sp.Err = nil, err.Error()
	} else if *st != nfs3.OK {
		sp.Err = st.String()
	}
	ws, kept := p.cache.landCall(s, i, res)
	rep.Release() // the cache copied what it kept
	p.met.readAheads.Add(int64(kept))
	sp.Bytes = int64(read.Count)
	p.node.Record(sp)
	for _, w := range ws {
		w.Wake()
	}
}
