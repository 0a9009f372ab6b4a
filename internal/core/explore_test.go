package core

import (
	"flag"
	"fmt"
	"hash/maphash"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nfs3"
)

// The protocol explorer: a breadth-first search, by replay, over every order
// in which the delegation model's messages can be delivered. The server is a
// tableServer driven through its real *Locked transitions in the order
// handleAccess, recall and revokeOthers run them; each client is a real
// sessionCache, driven through applyReplySince, applyRecall, recallAll and
// forget as the proxy client drives them, and the installs a forwarded
// READ's and WRITE's reply make (landAttr, updateAfterWrite) and a MNT
// reply's bundle lands by (seedMount). Nothing is copied: a state is the
// list of choices that reaches it, replayed from the start, and its key is
// what the world holds, with every stamp replaced by its rank among the
// stamps the world holds, so states that differ only in the stamps' absolute
// values are one, and states whose stamps are ordered differently are not.
// DESIGN.md "Explorer" describes the world and the bounds.
var (
	exploreDepth = flag.Int("explore.depth", 0, "TestExplore: steps the search enumerates from the initial state (0: the world's own bound)")
	exploreWide  = flag.Bool("explore.wide", false, "TestExplore: the wide worlds: three clients, lost and duplicated recalls, and a server restart; and two clients of two calls each, either of which may be a MNT")
)

// exWorldCfg bounds the world.
type exWorldCfg struct {
	calls   []int // calls each client makes in all, one entry per client; the first may REMOVE the file
	mount   bool  // one of each client's calls may be a MNT, whose bundle lists the file
	faults  int   // how many recalls or answers may be lost, or recalls sent twice
	restart bool  // the server may restart, once, with nothing on the wire
	depth   int   // the bound the search stops at unless -explore.depth says otherwise
}

// exOp is a call a client makes on the one file: a READ or WRITE of its
// block, the REMOVE of its only name, or a MNT whose bundle lists the root
// and, in it, the file. Which block a call names changes nothing where no
// answer leaves blocks pending, so the world's file has one.
type exOp byte

var exOps = []exOp{'R', 'W', 'X', 'M'}

func (o exOp) String() string {
	return map[exOp]string{'R': "READ", 'W': "WRITE", 'X': "REMOVE", 'M': "MNT"}[o]
}

// exRoot is the root the MNT lists the file in.
var exRoot = fhN(1)

// exAttr is the file's attributes after version changes: a reply's, or a
// bundle's, stamped with how many changes the NFS server had made when it was
// read.
func exAttr(version int) nfs3.Fattr {
	return nfs3.Fattr{Type: nfs3.TypeReg, Size: uint64(version), Mtime: nfs3.Time{Sec: uint32(version)}}
}

// access is what inspect makes of the call, for the file: a REMOVE's is the
// victim's access (the directory's is not modelled).
func (o exOp) access(fh nfs3.FH) accessReq {
	switch o {
	case 'R':
		return accessReq{fh: fh, offset: off(0)}
	case 'W':
		return accessReq{fh: fh, write: true, offset: off(0)}
	}
	return accessReq{fh: fh, write: true}
}

// exClient is one proxy client and what the model knows of it.
type exClient struct {
	id       string
	sc       *sessionCache
	calls    int  // calls made
	inflight int  // calls not yet answered
	forgot   bool // it forgot the file: its REMOVE, or a STALE reply
	mounted  bool // it sent its MNT
	// missed is the stamp of the last recall sent to it that never arrived:
	// a belief it applied before that is one the server could not call back.
	missed uint64
	// owes: a write recall of it went unanswered, and the fence it owes has
	// not been taken by a WRITE of its since.
	owes bool
}

// exHandler is one call the proxy server is serving, as dispatchNFS serves it
// under delegation: the access (and the recalls it demands, sent at once),
// the grant, the forward, and the recalls the committed operation demands
// (revokeOthers).
type exHandler struct {
	c  *exClient
	op exOp
	a  accessReq
	tk ticket // the ticket the client sent the call under
	// reqs is the batch of recalls being sent, all at once as recall sends
	// them; msgs[j] is where reqs[j]'s is: on the wire, its answer on the
	// wire, or neither (settled, or joined and awaited).
	reqs []recallReq
	msgs []exMsg
	// granted: grantLocked has run, and tr is the decision. revoking: the call
	// has been forwarded and reqs are revokeOthers'.
	granted, revoking bool
	tr                Trailer
	version           int // the file's version the forward read, or wrote
}

// exMount is a MNT the proxy server is serving, as dispatchMount and
// mountBundle serve it under delegation: the client took its ticket when it
// sent it; the pages are read (read), which lists the file if it is still
// there; then, under the table's lock, the grants are made and the reply sent.
type exMount struct {
	c       *exClient
	tk      ticket
	read    bool
	version int    // the file's version the page read
	listed  bool   // the page lists the file
	commits uint64 // the server's commit count when the page was read
	grants  Trailers
	bundle  bool // the reply carries a bundle
}

type exMsg int

const (
	exIdle     exMsg = iota
	exRecall         // the recall is on the wire
	exAnswered       // its answer is
)

// exReply is a reply on its way to a client.
type exReply struct {
	c       *exClient
	op      exOp
	ts      Trailers
	stale   bool // the file was gone when the call was forwarded
	fenced  bool // a WRITE refused by the lost-recall fence
	tk      ticket
	version int      // a READ's or WRITE's attributes
	mount   *exMount // a MNT's
}

// exDup is a retransmitted recall that may still arrive.
type exDup struct {
	c    *exClient
	args RecallArgs
}

type exWorld struct {
	cfg      exWorldCfg
	s        *ProxyServer
	fh       nfs3.FH
	cs       []*exClient
	hs       []*exHandler
	replies  []exReply
	dups     []exDup
	ms       []*exMount
	removing bool // a REMOVE has been sent (one per world)
	removed  bool // the file is gone from the NFS server
	// changes names, in order, the client each change the NFS server made
	// was made for: a WRITE's, or the REMOVE.
	changes  []string
	restarts int
	faults   int // faults injected
}

func newExWorld(cfg exWorldCfg) *exWorld {
	w := &exWorld{cfg: cfg, fh: fhN(7)}
	var ids []string
	for i := range cfg.calls {
		id := string(rune('A' + i))
		ids = append(ids, id)
		sc := newSessionCache(tblBS, 1<<20)
		// Write-back absorbs a WRITE on any record whose attributes are
		// valid and not the non-cacheable verdict's: what the attribute
		// invariant checks (check).
		sc.setPolicy(nil, cachePolicy{model: ModelDelegation, delegRenew: time.Hour, writeBack: true}, cacheCounters{})
		w.cs = append(w.cs, &exClient{id: id, sc: sc})
	}
	w.s = tableServer(ids...)
	return w
}

// --- the server's side --------------------------------------------------------

// call is c's call op arriving: handleAccess begins. A WRITE from behind a
// lost recall is refused at once; an access that demands no recall is
// granted under the same lock.
func (w *exWorld) call(c *exClient, op exOp) {
	c.calls++
	c.inflight++
	if op == 'M' {
		c.mounted = true
		w.ms = append(w.ms, &exMount{c: c, tk: c.sc.ticket(nfs3.FH{})})
		return
	}
	w.removing = w.removing || op == 'X'
	h := &exHandler{c: c, op: op, a: op.access(w.fh), tk: c.sc.ticket(w.fh)}
	reqs, fenced := w.s.accessLocked(w.s.clients[c.id], h.a, 0)
	if fenced {
		c.owes = false
		w.replies = append(w.replies, exReply{c: c, op: op, fenced: true})
		return
	}
	w.hs = append(w.hs, h)
	w.batch(h, reqs)
}

// batch starts h on reqs: it sends every recall of its own at once and waits
// on the joined ones, or — with nothing to ask for — goes on: the grant, or
// the reply.
func (w *exWorld) batch(h *exHandler, reqs []recallReq) {
	h.reqs, h.msgs = reqs, make([]exMsg, len(reqs))
	for j, r := range reqs {
		if !r.joined {
			h.msgs[j] = exRecall
		}
	}
	if len(reqs) > 0 {
		return
	}
	if !h.revoking {
		d, seq := w.s.grantLocked(w.s.clients[h.c.id], h.a, 0)
		h.granted, h.tr = true, Trailer{Deleg: d, FH: w.fh, Seq: seq}
		return
	}
	w.finish(h, false)
}

// settled reports whether every recall of h's batch has settled: its own, and
// those it joined.
func (h *exHandler) settled() bool {
	for j, r := range h.reqs {
		if h.msgs[j] != exIdle || r.joined && !r.flight.settled {
			return false
		}
	}
	return true
}

// settle is h's recall reqs[j] ending with res (nil: never answered).
func (w *exWorld) settle(h *exHandler, j int, res *RecallRes) {
	r := h.reqs[j]
	if res == nil && r.args.Deleg == DelegWrite {
		w.client(r.c.rec.ID).owes = true
	}
	w.s.settleLocked(r, res, 0)
	h.msgs[j] = exIdle
}

// rescan is recallWithin taking the lock again once h's batch has settled:
// after a joined recall the table is looked at again, and what still conflicts
// is asked for; otherwise the access is granted, or the committed operation
// answered.
func (w *exWorld) rescan(h *exHandler) {
	var reqs []recallReq
	if slices.ContainsFunc(h.reqs, func(r recallReq) bool { return r.joined }) {
		if h.revoking {
			reqs = w.s.committedLocked(h.c.id, h.a)
		} else if f := w.s.files[w.fh.Key()]; f != nil {
			reqs = w.s.conflictsLocked(f, h.c.id, h.a)
		}
	}
	w.batch(h, reqs)
}

// forward is h's call reaching the NFS server: on a file already gone it
// fails STALE, with nothing decided; a REMOVE takes the file; a write access,
// once durable, recalls what others gained meanwhile (revokeOthers).
func (w *exWorld) forward(h *exHandler) {
	if w.removed {
		w.finish(h, true)
		return
	}
	w.removed = w.removed || h.op == 'X'
	if h.a.write {
		w.changes = append(w.changes, h.c.id)
	}
	h.version = len(w.changes)
	if !h.a.write {
		w.finish(h, false)
		return
	}
	h.revoking = true
	w.batch(h, w.s.committedLocked(h.c.id, h.a))
}

// finish sends h's reply.
func (w *exWorld) finish(h *exHandler, stale bool) {
	rep := exReply{c: h.c, op: h.op, stale: stale, tk: h.tk, version: h.version}
	if !stale {
		rep.ts = Trailers{h.tr}
	}
	w.replies = append(w.replies, rep)
	w.hs = slices.DeleteFunc(w.hs, func(o *exHandler) bool { return o == h })
}

// readPages is m's pages read from the NFS server: the file's version, and
// whether it is still there to be listed.
func (w *exWorld) readPages(m *exMount) {
	m.read, m.version, m.listed, m.commits = true, len(w.changes), !w.removed, w.s.commits
}

// grant is m's grants made, as mountBundle makes them once its pages are
// read, and its reply sent: a bundle only if a grant was made.
func (w *exWorld) grant(m *exMount) {
	fhs := []nfs3.FH{exRoot}
	if m.listed {
		fhs = append(fhs, w.fh)
	}
	ts, ok := w.s.mountGrantsLocked(w.s.clients[m.c.id], fhs, m.commits, 0)
	m.grants, m.bundle = ts, ok && len(ts) > 0
	w.replies = append(w.replies, exReply{c: m.c, op: 'M', mount: m})
	w.ms = slices.DeleteFunc(w.ms, func(o *exMount) bool { return o == m })
}

// bundle is what m's reply carries behind the mountres3.
func (w *exWorld) bundle(m *exMount) *MountBundle {
	page := nfs3.ReaddirplusRes{Status: nfs3.OK, DirAttr: nfs3.PostOpAttr{Present: true, Attr: nfs3.Fattr{Type: nfs3.TypeDir}}, EOF: true}
	if m.listed {
		page.Entries = []nfs3.DirEntryPlus{{FileID: 7, Name: "f", Cookie: 1,
			Attr: nfs3.PostOpAttr{Present: true, Attr: exAttr(m.version)}, FHFollows: true, FH: w.fh}}
	}
	return &MountBundle{Pages: []MountPage{{Dir: exRoot, Page: page}}, Grants: m.grants}
}

// restart is the proxy server losing its table and rebuilding it: RECALL_ALL
// reaches every client, none of which holds dirty data, so nothing is
// rebuilt. The stamps start again from 1.
func (w *exWorld) restart() {
	w.restarts++
	var ids []string
	for _, c := range w.cs {
		ids = append(ids, c.id)
		c.sc.recallAll(true)
		c.owes, c.missed = false, 0
	}
	w.s = tableServer(ids...)
}

// --- the clients' side --------------------------------------------------------

// recalled is h's recall reqs[j] reaching its client, which applies it and
// answers, as handleRecall does (clean: the world holds no dirty data). dup:
// the recall was sent again, and the copy is still on the wire.
func (w *exWorld) recalled(h *exHandler, j int, dup bool) {
	c, args := w.client(h.reqs[j].c.rec.ID), h.reqs[j].args
	c.sc.applyRecall(args)
	h.msgs[j] = exAnswered
	if dup {
		w.dups = append(w.dups, exDup{c, args})
	}
}

// reply delivers a reply: the client applies its trailers, as finishUpstream
// does, then installs the attributes a READ's reply carries as readForward
// does and a WRITE's as writeForward does, and forgets the file after its
// REMOVE or a STALE (on which the kernel's revalidating GETATTR, STALE too,
// makes the proxy client forget it). A MNT's bundle lands as dispatchMount
// lands it.
func (w *exWorld) reply(r exReply) {
	c := r.c
	c.inflight--
	if r.fenced {
		return
	}
	if r.mount != nil {
		if r.mount.bundle {
			c.sc.seedMount(r.mount.tk, w.bundle(r.mount), true)
		}
		return
	}
	if !r.stale {
		c.sc.applyReplySince(r.ts, []nfs3.FH{w.fh}, r.tk)
		switch r.op {
		case 'R':
			c.sc.landAttr(r.tk, r.ts, w.fh, exAttr(r.version))
		case 'W':
			c.sc.updateAfterWrite(r.tk, r.ts, w.fh, 0, 1, nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: exAttr(r.version)}})
		}
	}
	if r.stale || r.op == 'X' {
		c.sc.forget(w.fh)
		c.forgot = true
	}
}

func (w *exWorld) client(id string) *exClient { return w.cs[id[0]-'A'] }

// --- the search ------------------------------------------------------------

// exKind is a kind of step.
type exKind uint8

const (
	exSend       exKind = iota // client i sends exOps[v]
	exReach                    // handler i's recall v reaches its client
	exReachTwice               // it reaches its client, and a copy sent again is still on the wire
	exLose                     // handler i's recall v is lost
	exAnswer                   // the answer to handler i's recall v arrives
	exLoseAnswer               // it is lost
	exRescan                   // handler i takes the lock again after its batch has settled
	exForward                  // handler i's call reaches the NFS server
	exDeliver                  // reply i arrives
	exAgain                    // duplicate recall i arrives
	exRestart                  // the proxy server restarts
	exPages                    // MNT i's pages are read
	exGrants                   // MNT i's grants are made, and its reply sent
)

// exAction is one enabled step.
type exAction struct {
	kind exKind
	i, v int
}

// enabled appends to acts the steps the world can take next, in an order
// fixed by its history, so a trace of indexes replays.
func (w *exWorld) enabled(acts []exAction) []exAction {
	for i, c := range w.cs {
		if c.forgot || c.inflight >= 2 || c.calls >= w.cfg.calls[i] {
			continue
		}
		for v, op := range exOps {
			switch op {
			case 'X':
				if w.removing || i != 0 {
					continue
				}
			case 'M':
				if !w.cfg.mount || c.mounted {
					continue
				}
			}
			acts = append(acts, exAction{exSend, i, v})
		}
	}
	for i, h := range w.hs {
		for j, m := range h.msgs {
			switch m {
			case exRecall:
				acts = append(acts, exAction{exReach, i, j})
				if w.faults < w.cfg.faults {
					acts = append(acts, exAction{exReachTwice, i, j}, exAction{exLose, i, j})
				}
			case exAnswered:
				acts = append(acts, exAction{exAnswer, i, j})
				if w.faults < w.cfg.faults {
					acts = append(acts, exAction{exLoseAnswer, i, j})
				}
			}
		}
		switch {
		case len(h.reqs) > 0:
			if h.settled() {
				acts = append(acts, exAction{exRescan, i, 0})
			}
		case h.granted && !h.revoking:
			acts = append(acts, exAction{exForward, i, 0})
		}
	}
	for i, m := range w.ms {
		if m.read {
			acts = append(acts, exAction{exGrants, i, 0})
		} else {
			acts = append(acts, exAction{exPages, i, 0})
		}
	}
	for i := range w.replies {
		acts = append(acts, exAction{exDeliver, i, 0})
	}
	for i := range w.dups {
		acts = append(acts, exAction{exAgain, i, 0})
	}
	if w.cfg.restart && w.restarts == 0 && len(w.hs)+len(w.ms)+len(w.replies) == 0 {
		acts = append(acts, exAction{exRestart, 0, 0})
	}
	return acts
}

// do takes step a.
func (w *exWorld) do(a exAction) {
	switch a.kind {
	case exSend:
		w.call(w.cs[a.i], exOps[a.v])
	case exReach, exReachTwice:
		if a.kind == exReachTwice {
			w.faults++
		}
		w.recalled(w.hs[a.i], a.v, a.kind == exReachTwice)
	case exLose:
		w.faults++
		h := w.hs[a.i]
		w.client(h.reqs[a.v].c.rec.ID).missed = h.reqs[a.v].args.Seq
		w.settle(h, a.v, nil)
	case exAnswer:
		w.settle(w.hs[a.i], a.v, &RecallRes{Status: nfs3.OK})
	case exLoseAnswer:
		w.faults++
		w.settle(w.hs[a.i], a.v, nil)
	case exRescan:
		w.rescan(w.hs[a.i])
	case exForward:
		w.forward(w.hs[a.i])
	case exDeliver:
		r := w.replies[a.i]
		w.replies = slices.Delete(w.replies, a.i, a.i+1)
		w.reply(r)
	case exAgain:
		d := w.dups[a.i]
		w.dups = slices.Delete(w.dups, a.i, a.i+1)
		d.c.sc.applyRecall(d.args)
	case exRestart:
		w.dups = nil // callbacks die with the server's connections
		w.restart()
	case exPages:
		w.readPages(w.ms[a.i])
	case exGrants:
		w.grant(w.ms[a.i])
	}
}

// describe renders step a, about to be taken, for a trace.
func (w *exWorld) describe(a exAction) string {
	var h *exHandler
	var r recallReq
	if a.kind >= exReach && a.kind <= exForward {
		h = w.hs[a.i]
		if a.kind <= exLoseAnswer {
			r = h.reqs[a.v]
		}
	}
	recall := func() string {
		return fmt.Sprintf("the recall of %s's %v delegation (seq %d) for %s's %v", r.c.rec.ID, r.args.Deleg, r.args.Seq, h.c.id, h.op)
	}
	switch a.kind {
	case exSend:
		return fmt.Sprintf("%s sends %v", w.cs[a.i].id, exOps[a.v])
	case exReach:
		return recall() + " arrives"
	case exReachTwice:
		return recall() + " arrives, and is sent again"
	case exLose:
		return recall() + " is lost"
	case exAnswer, exLoseAnswer:
		return fmt.Sprintf("%s's answer to the recall (seq %d) for %s's %v %s", r.c.rec.ID, r.args.Seq, h.c.id, h.op,
			map[exKind]string{exAnswer: "arrives", exLoseAnswer: "is lost"}[a.kind])
	case exRescan:
		return fmt.Sprintf("%s's %v takes the lock again", h.c.id, h.op)
	case exForward:
		return fmt.Sprintf("%s's %v, granted %v (seq %d), is forwarded", h.c.id, h.op, h.tr.Deleg, h.tr.Seq)
	case exDeliver:
		rep := w.replies[a.i]
		desc := fmt.Sprintf("the reply to %s's %v", rep.c.id, rep.op)
		switch {
		case rep.fenced:
			desc += " (refused: the fence)"
		case rep.stale:
			desc += " (STALE)"
		case rep.mount != nil && !rep.mount.bundle:
			desc += " (no bundle)"
		case rep.mount != nil:
			desc += fmt.Sprintf(" (the file at version %d, listed %v; grants %v)", rep.mount.version, rep.mount.listed, exGrantList(rep.mount.grants))
		default:
			desc += fmt.Sprintf(" (%v, seq %d; the file at version %d)", rep.ts[0].Deleg, rep.ts[0].Seq, rep.version)
		}
		return desc + " arrives"
	case exAgain:
		return fmt.Sprintf("the recall of %s (seq %d) arrives again", w.dups[a.i].c.id, w.dups[a.i].args.Seq)
	case exPages:
		return fmt.Sprintf("%s's MNT reads its pages: the file at version %d", w.ms[a.i].c.id, len(w.changes))
	case exGrants:
		return fmt.Sprintf("%s's MNT makes its grants", w.ms[a.i].c.id)
	}
	return "the proxy server restarts"
}

// exGrantList renders a bundle's grants, the root's as "root".
func exGrantList(ts Trailers) string {
	var out []string
	for _, t := range ts {
		name := "the file"
		if t.FH.Equal(exRoot) {
			name = "root"
		}
		out = append(out, fmt.Sprintf("%s %v seq %d", name, t.Deleg, t.Seq))
	}
	return "[" + strings.Join(out, ", ") + "]"
}

// staleFor reports whether attributes read at version are older than a
// change the NFS server made for another client than id: one the session
// must be told of before it serves them or absorbs a WRITE against them.
func (w *exWorld) staleFor(id string, version int) bool {
	for _, by := range w.changes[min(version, len(w.changes)):] {
		if by != id {
			return true
		}
	}
	return false
}

// check is what must hold in every state.
func (w *exWorld) check() error {
	if err := checkSharerTable(w.s); err != nil {
		return fmt.Errorf("the sharer table: %v", err)
	}
	// A write delegation stands beside another sharer only while its recall
	// is demanded: whoever became a sharer beside it called it back.
	for _, f := range w.s.files {
		for id, sh := range f.sharers {
			if sh.deleg == DelegWrite && len(f.sharers) > 1 && sh.recall == nil {
				return fmt.Errorf("%s holds a write delegation beside %d other sharers, and no recall of it is demanded", id, len(f.sharers)-1)
			}
		}
	}
	// The recalls of each client demanded and not yet settled: on the wire,
	// or their answers.
	recalls := map[string]int{}
	for _, h := range w.hs {
		for j, r := range h.reqs {
			if h.msgs[j] != exIdle {
				recalls[r.c.rec.ID]++
			}
		}
	}
	f := w.s.files[w.fh.Key()]
	for _, c := range w.cs {
		if recalls[c.id] > 1 {
			return fmt.Errorf("%d recalls of %s on the wire at once", recalls[c.id], c.id)
		}
		var sh *sharer
		if f != nil {
			sh = f.sharers[c.id]
		}
		if c.owes && (sh == nil || !sh.lostRecall && len(sh.pending) == 0) {
			return fmt.Errorf("a write recall of %s went unanswered, and the server keeps neither a fence nor a pending list for it", c.id)
		}
		fc := c.sc.files[w.fh.Key()]
		if fc == nil {
			continue
		}
		if fc.noncacheable && fc.deleg != DelegNone {
			return fmt.Errorf("%s's record holds %v beside the non-cacheable verdict", c.id, fc.deleg)
		}
		if c.forgot && fc.deleg != DelegNone {
			return fmt.Errorf("%s forgot the removed file, and a reply brought it back holding %v", c.id, fc.deleg)
		}
		// Attributes the record would serve, or absorb a WRITE against, are
		// no older than any other client's change, unless the recall that
		// announces it is on its way or was lost (a change whose recalls are
		// still being demanded counts), or a call of the client's own is out,
		// whose reply may carry the decision that ends them.
		revoking := slices.ContainsFunc(w.hs, func(h *exHandler) bool { return h.revoking && h.c != c })
		settled := c.inflight == 0 && recalls[c.id] == 0 && !revoking && c.missed <= fc.decided
		if a, ok := c.sc.absorbable(w.fh); ok && settled && !c.forgot && w.staleFor(c.id, int(a.Size)) {
			return fmt.Errorf("%s's record holds %v and would absorb a WRITE against attributes of version %d, older than another client's change (the file is at version %d)", c.id, fc.deleg, a.Size, len(w.changes))
		}
		if fc.deleg == DelegNone || c.inflight > 0 || recalls[c.id] > 0 || c.missed > fc.decided {
			continue
		}
		if sh == nil || sh.deleg != DelegWrite && sh.deleg != fc.deleg {
			held := "nothing"
			if sh != nil {
				held = sh.deleg.String()
			}
			return fmt.Errorf("%s believes it holds %v (seq %d), the server has it holding %s, and no recall of it is on the wire", c.id, fc.deleg, fc.decided, held)
		}
	}
	return nil
}

// key renders the state. Stamps are ranked among those the state holds.
func (w *exWorld) key(b []byte) []byte {
	var stamps []uint64
	flights := map[*recallFlight]uint64{}
	for _, h := range w.hs {
		stamps = append(stamps, h.tr.Seq)
		for _, r := range h.reqs {
			stamps = append(stamps, r.args.Seq)
			if !r.joined {
				flights[r.flight] = r.args.Seq
			}
		}
	}
	for _, r := range w.replies {
		for _, t := range r.ts {
			stamps = append(stamps, t.Seq)
		}
	}
	for _, d := range w.dups {
		stamps = append(stamps, d.args.Seq)
	}
	for _, r := range w.replies {
		if r.mount != nil {
			for _, t := range r.mount.grants {
				stamps = append(stamps, t.Seq)
			}
		}
	}
	key := w.fh.Key()
	f := w.s.files[key]
	for _, c := range w.cs {
		stamps = append(stamps, c.missed)
		if fc := c.sc.files[key]; fc != nil {
			stamps = append(stamps, fc.decided, fc.noneSeq)
		}
		if f != nil && f.sharers[c.id] != nil {
			stamps = append(stamps, f.sharers[c.id].granted)
		}
	}
	slices.Sort(stamps)
	stamps = slices.Compact(stamps)
	num := func(vs ...uint64) {
		for _, v := range vs {
			if v != 0 {
				i, _ := slices.BinarySearch(stamps, v)
				v = uint64(i + 1)
			}
			b = strconv.AppendUint(b, v, 10)
			b = append(b, ' ')
		}
	}
	flag := func(vs ...bool) {
		for _, v := range vs {
			c := byte('F')
			if v {
				c = 'T'
			}
			b = append(b, c)
		}
	}
	flight := func(fl *recallFlight) {
		switch seq, ok := flights[fl]; {
		case fl == nil:
			b = append(b, '-')
		case ok:
			num(seq)
		default:
			flag(fl.settled)
		}
	}

	// Attributes are rendered by whether they are stale for their client
	// (staleFor): which changes came after them changes nothing else.
	attrs := func(c *exClient, version int) {
		flag(w.staleFor(c.id, version))
	}
	// A ticket is rendered by what the landing rule says of it: for a record
	// a reply would make (a MNT's, as seedMount asks it for the root), and
	// for the file's record as it stands, whenever it was made (born).
	ticket := func(c *exClient, tk ticket) {
		fc := c.sc.files[key]
		flag(c.sc.landsLocked(tk, nil, 0, tk.fh.IsZero()), fc != nil && c.sc.landsLocked(tk, fc, 0, false))
	}
	grants := func(ts Trailers) {
		for _, t := range ts {
			flag(t.FH.Equal(w.fh))
			num(t.Seq)
		}
	}

	flag(w.removing, w.removed)
	b = append(b, byte('0'+w.restarts), byte('0'+w.faults))
	for _, c := range w.cs {
		b = append(b, '|', byte('0'+c.calls), byte('0'+c.inflight))
		flag(c.forgot, c.owes, c.mounted)
		num(c.missed)
		if fc := c.sc.files[key]; fc != nil {
			b = append(b, '[', byte('0'+fc.deleg))
			flag(fc.noncacheable, fc.attrLink.on())
			if fc.attrLink.on() {
				attrs(c, int(fc.attr.Size))
			}
			num(fc.decided, fc.noneSeq)
		}
		if f != nil {
			if sh := f.sharers[c.id]; sh != nil {
				b = append(b, '{', byte('0'+sh.deleg))
				num(sh.granted)
				flag(sh.lostRecall, sh.unanswered, sh.closing, sh.speculative) // no answer leaves blocks pending
				flight(sh.recall)
			}
		}
	}
	// Handlers, replies and duplicates are each rendered apart, then sorted:
	// the order they were made in is not state.
	var parts []string
	part := func(render func()) {
		start := len(b)
		render()
		parts = append(parts, string(b[start:]))
		b = b[:start]
	}
	for _, h := range w.hs {
		part(func() {
			b = append(b, 'H', h.c.id[0], byte(h.op))
			for j, r := range h.reqs {
				b = append(b, r.c.rec.ID[0], byte('0'+r.args.Deleg), byte('0'+h.msgs[j]))
				num(r.args.Seq)
				flag(r.joined)
				flight(r.flight)
			}
			b = append(b, byte('0'+h.tr.Deleg))
			num(h.tr.Seq)
			flag(h.granted, h.revoking)
			ticket(h.c, h.tk)
			if h.revoking {
				attrs(h.c, h.version)
			}
		})
	}
	for _, m := range w.ms {
		part(func() {
			b = append(b, 'M', m.c.id[0])
			flag(m.read)
			ticket(m.c, m.tk)
			if m.read {
				flag(m.listed, m.commits != w.s.commits)
				attrs(m.c, m.version)
			}
		})
	}
	for _, r := range w.replies {
		part(func() {
			b = append(b, 'R', r.c.id[0], byte(r.op))
			for _, t := range r.ts {
				b = append(b, byte('0'+t.Deleg))
				num(t.Seq)
			}
			flag(r.stale, r.fenced)
			ticket(r.c, r.tk)
			if m := r.mount; m != nil {
				flag(m.bundle, m.listed)
				ticket(r.c, m.tk)
				attrs(r.c, m.version)
				grants(m.grants)
			} else if r.op != 'X' && !r.stale && !r.fenced {
				attrs(r.c, r.version)
			}
		})
	}
	for _, d := range w.dups {
		part(func() {
			b = append(b, 'D', d.c.id[0], byte('0'+d.args.Deleg))
			num(d.args.Seq)
		})
	}
	sort.Strings(parts)
	for _, p := range parts {
		b = append(b, ';')
		b = append(b, p...)
	}
	return b
}

// exReplay rebuilds the state trace reaches, and appends its steps'
// descriptions to descs when that is not nil.
func exReplay(cfg exWorldCfg, trace []uint8, acts []exAction, descs *[]string) *exWorld {
	w := newExWorld(cfg)
	for _, i := range trace {
		a := w.enabled(acts[:0])[i]
		if descs != nil {
			*descs = append(*descs, w.describe(a))
		}
		w.do(a)
	}
	return w
}

// exResult is what a search found.
type exResult struct {
	states, depth int
	perDepth      []int // new states at each depth
	violation     error
	trace         []string // the shortest path to the violation
}

// explore searches cfg's world breadth-first to depth steps, checking every
// state it reaches; the first violation stops it, with a shortest trace.
// States are told apart by a 64-bit hash of their keys. Each depth's frontier
// is replayed by a few workers at once, and what they found is taken in
// frontier order, so the search (and the trace it reports) is the same
// whatever the workers' timing.
func explore(cfg exWorldCfg, depth int) exResult {
	type node struct {
		trace []uint8
		n     int // steps enabled there
	}
	// child is what a worker found at one step from a frontier node.
	type child struct {
		node
		hash uint64
		err  error
	}
	seed := maphash.MakeSeed()
	w := exReplay(cfg, nil, nil, nil)
	acts := w.enabled(nil)
	seen := map[uint64]struct{}{maphash.Bytes(seed, w.key(nil)): {}}
	res := exResult{states: 1}
	frontier := []node{{nil, len(acts)}}
	workers := min(runtime.GOMAXPROCS(0), 4)
	// A replay allocates a world of short-lived maps and records, and the
	// collector would otherwise take a third of the search's time.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	for d := 1; d <= depth && len(frontier) > 0; d++ {
		found := make([][]child, len(frontier))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var acts []exAction
				var key []byte
				for k := int(next.Add(1)) - 1; k < len(frontier); k = int(next.Add(1)) - 1 {
					nd := frontier[k]
					out := make([]child, nd.n)
					for i := range out {
						tr := append(slices.Clip(nd.trace), uint8(i))
						cw := exReplay(cfg, tr, acts, nil)
						if err := cw.check(); err != nil {
							out[i] = child{node: node{trace: tr}, err: err}
							continue
						}
						key = cw.key(key[:0])
						acts = cw.enabled(acts[:0])
						out[i] = child{node{tr, len(acts)}, maphash.Bytes(seed, key), nil}
					}
					found[k] = out
				}
			}()
		}
		wg.Wait()
		var nextFrontier []node
		for _, out := range found {
			for _, c := range out {
				if c.err != nil {
					res.depth, res.violation = d, c.err
					exReplay(cfg, c.trace, nil, &res.trace)
					return res
				}
				if _, ok := seen[c.hash]; ok {
					continue
				}
				seen[c.hash] = struct{}{}
				nextFrontier = append(nextFrontier, c.node)
			}
		}
		res.states += len(nextFrontier)
		res.perDepth = append(res.perDepth, len(nextFrontier))
		if len(nextFrontier) > 0 {
			res.depth = d
		}
		frontier = nextFrontier
	}
	return res
}

// TestExplore runs the explorer. By default it searches three worlds to the
// end: two clients with two calls each, up to two in flight, the first
// possibly its REMOVE; and twice the world with MNTs, with two calls for one
// client and one for the other, either of which may be a MNT. With
// -explore.wide it searches, to depth 11, three clients (the first with two
// calls), with up to two recalls or answers lost or recalls sent twice, and a
// server restart; and to the end the MNT world with two calls each.
func TestExplore(t *testing.T) {
	type world struct {
		name string
		cfg  exWorldCfg
	}
	worlds := []world{
		{"two clients", exWorldCfg{calls: []int{2, 2}, depth: 64}},
		{"a MNT beside the other client's call", exWorldCfg{calls: []int{2, 1}, mount: true, depth: 64}},
		{"a MNT beside the other client's two calls", exWorldCfg{calls: []int{1, 2}, mount: true, depth: 64}},
	}
	if *exploreWide {
		worlds = []world{
			{"three clients, faults and a restart", exWorldCfg{calls: []int{2, 1, 1}, faults: 2, restart: true, depth: 11}},
			{"two clients, each a MNT", exWorldCfg{calls: []int{2, 2}, mount: true, depth: 64}},
		}
	}
	for _, wd := range worlds {
		t.Run(wd.name, func(t *testing.T) {
			cfg := wd.cfg
			if *exploreDepth > 0 {
				cfg.depth = *exploreDepth
			}
			start := time.Now()
			res := explore(cfg, cfg.depth)
			if res.violation != nil {
				t.Fatalf("after %d states, at depth %d: %v\n\t%s", res.states, res.depth, res.violation, strings.Join(res.trace, "\n\t"))
			}
			t.Logf("%d states to depth %d in %v; new states by depth %v", res.states, res.depth, time.Since(start).Round(time.Millisecond), res.perDepth)
		})
	}
}
