package core

import (
	"flag"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/nfs3"
)

// The protocol explorer: a breadth-first search, by replay, over every order
// in which the delegation model's messages can be delivered. The server is a
// tableServer driven through its real *Locked transitions in the order
// handleAccess, recall and revokeOthers run them; each client is a real
// sessionCache, driven through applyReplySince, applyRecall, recallAll and
// forget as the proxy client drives them. Nothing is copied: a state is the
// list of choices that reaches it, replayed from the start, and its key is
// what the world holds, with every stamp replaced by its rank among the
// stamps the world holds, so states that differ only in the stamps' absolute
// values are one, and states whose stamps are ordered differently are not.
// DESIGN.md "Explorer" describes the world and the bounds.
var (
	exploreDepth = flag.Int("explore.depth", 0, "TestExplore: steps the search enumerates from the initial state (0: the world's own bound)")
	exploreWide  = flag.Bool("explore.wide", false, "TestExplore: the wide world: three clients, lost and duplicated recalls, and a server restart")
)

// exWorldCfg bounds the world.
type exWorldCfg struct {
	calls   []int // calls each client makes in all, one entry per client; the first may REMOVE the file
	faults  int   // how many recalls or answers may be lost, or recalls sent twice
	restart bool  // the server may restart, once, with nothing on the wire
	depth   int   // the bound the search stops at unless -explore.depth says otherwise
}

// exOp is a call a client makes on the one file: a READ or WRITE of its
// block, or the REMOVE of its only name. Which block a call names changes
// nothing where no answer leaves blocks pending, so the world's file has one.
type exOp byte

var exOps = []exOp{'R', 'W', 'X'}

func (o exOp) String() string {
	return map[exOp]string{'R': "READ", 'W': "WRITE", 'X': "REMOVE"}[o]
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
	// missed is the stamp of the last recall sent to it that never arrived:
	// a belief it applied before that is one the server could not call back.
	missed uint64
	// owes: a write recall of it went unanswered, and the fence it owes has
	// not been taken by a WRITE of its since.
	owes bool
}

// exHandler is one call the proxy server is serving, as dispatchNFS serves it
// under delegation: the access (and the recalls it demands, sent one at a
// time), the grant, the forward, and the recalls the committed operation
// demands (revokeOthers).
type exHandler struct {
	c       *exClient
	op      exOp
	a       accessReq
	forgets uint64 // the client's forget count when it sent the call
	// reqs is the batch of recalls being sent; reqs[next] is the one on the
	// wire (msg) or, joined, awaited.
	reqs []recallReq
	next int
	msg  exMsg
	// granted: grantLocked has run, and tr is the decision. revoking: the call
	// has been forwarded and reqs are revokeOthers'.
	granted, revoking bool
	tr                Trailer
}

type exMsg int

const (
	exIdle     exMsg = iota
	exRecall         // the recall of reqs[next] is on the wire
	exAnswered       // its answer is
)

// exReply is a reply on its way to a client.
type exReply struct {
	c       *exClient
	op      exOp
	ts      Trailers
	stale   bool // the file was gone when the call was forwarded
	fenced  bool // a WRITE refused by the lost-recall fence
	forgets uint64
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
	removing bool // a REMOVE has been sent (one per world)
	removed  bool // the file is gone from the NFS server
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
		sc.setPolicy(nil, cachePolicy{model: ModelDelegation, delegRenew: time.Hour}, cacheCounters{})
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
	w.removing = w.removing || op == 'X'
	h := &exHandler{c: c, op: op, a: op.access(w.fh), forgets: c.sc.forgets.Load()}
	reqs, fenced := w.s.accessLocked(w.s.clients[c.id], h.a, 0)
	if fenced {
		c.owes = false
		w.replies = append(w.replies, exReply{c: c, op: op, fenced: true})
		return
	}
	w.hs = append(w.hs, h)
	w.batch(h, reqs)
}

// batch starts h on reqs: it sends the first recall, or waits on a joined one,
// or — with nothing to ask for — goes on: the grant, or the reply.
func (w *exWorld) batch(h *exHandler, reqs []recallReq) {
	h.reqs, h.next = reqs, 0
	if len(reqs) > 0 {
		w.advance(h)
		return
	}
	if !h.revoking {
		d, seq := w.s.grantLocked(w.s.clients[h.c.id], h.a, 0)
		h.granted, h.tr = true, Trailer{Deleg: d, FH: w.fh, Seq: seq}
		return
	}
	w.finish(h, false)
}

// advance moves h past the joined recalls that have settled, and sends the
// next recall of its own, as recall does.
func (w *exWorld) advance(h *exHandler) {
	for ; h.next < len(h.reqs); h.next++ {
		r := h.reqs[h.next]
		if !r.joined {
			h.msg = exRecall
			return
		}
		if !r.flight.settled {
			return
		}
	}
}

// settle is the recall h is waiting on ending with res (nil: never answered).
func (w *exWorld) settle(h *exHandler, res *RecallRes) {
	r := h.reqs[h.next]
	if res == nil && r.args.Deleg == DelegWrite {
		w.client(r.c.rec.ID).owes = true
	}
	w.s.settleLocked(r, res, 0)
	h.msg = exIdle
	h.next++
	w.advance(h)
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
	if !h.a.write {
		w.finish(h, false)
		return
	}
	h.revoking = true
	w.batch(h, w.s.committedLocked(h.c.id, h.a))
}

// finish sends h's reply.
func (w *exWorld) finish(h *exHandler, stale bool) {
	rep := exReply{c: h.c, op: h.op, stale: stale, forgets: h.forgets}
	if !stale {
		rep.ts = Trailers{h.tr}
	}
	w.replies = append(w.replies, rep)
	w.hs = slices.DeleteFunc(w.hs, func(o *exHandler) bool { return o == h })
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

// recalled is h's recall reaching c, which applies it and answers, as
// handleRecall does (clean: the world holds no dirty data). dup: the recall
// was sent again, and the copy is still on the wire.
func (w *exWorld) recalled(h *exHandler, c *exClient, args RecallArgs, dup bool) {
	c.sc.applyRecall(args)
	h.msg = exAnswered
	if dup {
		w.dups = append(w.dups, exDup{c, args})
	}
}

// reply delivers a reply: the client applies its trailers, as finishUpstream
// does, and forgets the file after its REMOVE or a STALE (on which the
// kernel's revalidating GETATTR, STALE too, makes the proxy client forget it).
func (w *exWorld) reply(r exReply) {
	c := r.c
	c.inflight--
	if r.fenced {
		return
	}
	if !r.stale {
		c.sc.applyReplySince(r.ts, []nfs3.FH{w.fh}, r.forgets)
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
	exReach                    // handler i's recall reaches its client
	exReachTwice               // it reaches its client, and a copy sent again is still on the wire
	exLose                     // handler i's recall is lost
	exAnswer                   // the answer to handler i's recall arrives
	exLoseAnswer               // it is lost
	exWake                     // handler i's joined recall has settled
	exRescan                   // handler i takes the lock again after its batch
	exForward                  // handler i's call reaches the NFS server
	exDeliver                  // reply i arrives
	exAgain                    // duplicate recall i arrives
	exRestart                  // the proxy server restarts
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
			if op != 'X' || !w.removing && i == 0 {
				acts = append(acts, exAction{exSend, i, v})
			}
		}
	}
	for i, h := range w.hs {
		switch {
		case h.msg == exRecall:
			acts = append(acts, exAction{exReach, i, 0})
			if w.faults < w.cfg.faults {
				acts = append(acts, exAction{exReachTwice, i, 0}, exAction{exLose, i, 0})
			}
		case h.msg == exAnswered:
			acts = append(acts, exAction{exAnswer, i, 0})
			if w.faults < w.cfg.faults {
				acts = append(acts, exAction{exLoseAnswer, i, 0})
			}
		case h.next < len(h.reqs):
			if h.reqs[h.next].flight.settled {
				acts = append(acts, exAction{exWake, i, 0})
			}
		case len(h.reqs) > 0:
			acts = append(acts, exAction{exRescan, i, 0})
		case h.granted && !h.revoking:
			acts = append(acts, exAction{exForward, i, 0})
		}
	}
	for i := range w.replies {
		acts = append(acts, exAction{exDeliver, i, 0})
	}
	for i := range w.dups {
		acts = append(acts, exAction{exAgain, i, 0})
	}
	if w.cfg.restart && w.restarts == 0 && len(w.hs)+len(w.replies) == 0 {
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
		h := w.hs[a.i]
		if a.kind == exReachTwice {
			w.faults++
		}
		w.recalled(h, w.client(h.reqs[h.next].c.rec.ID), h.reqs[h.next].args, a.kind == exReachTwice)
	case exLose:
		w.faults++
		h := w.hs[a.i]
		w.client(h.reqs[h.next].c.rec.ID).missed = h.reqs[h.next].args.Seq
		w.settle(h, nil)
	case exAnswer:
		w.settle(w.hs[a.i], &RecallRes{Status: nfs3.OK})
	case exLoseAnswer:
		w.faults++
		w.settle(w.hs[a.i], nil)
	case exWake:
		h := w.hs[a.i]
		h.next++
		w.advance(h)
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
	}
}

// describe renders step a, about to be taken, for a trace.
func (w *exWorld) describe(a exAction) string {
	var h *exHandler
	var r recallReq
	if a.kind >= exReach && a.kind <= exForward {
		h = w.hs[a.i]
		if h.next < len(h.reqs) {
			r = h.reqs[h.next]
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
	case exWake:
		return fmt.Sprintf("%s's %v wakes: the recall it joined has settled", h.c.id, h.op)
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
		default:
			desc += fmt.Sprintf(" (%v, seq %d)", rep.ts[0].Deleg, rep.ts[0].Seq)
		}
		return desc + " arrives"
	case exAgain:
		return fmt.Sprintf("the recall of %s (seq %d) arrives again", w.dups[a.i].c.id, w.dups[a.i].args.Seq)
	}
	return "the proxy server restarts"
}

// check is what must hold in every state.
func (w *exWorld) check() error {
	if err := checkSharerTable(w.s); err != nil {
		return fmt.Errorf("the sharer table: %v", err)
	}
	// The recalls of each client demanded and not yet settled: the one on the
	// wire, and those later in a batch.
	recalls := map[string]int{}
	for _, h := range w.hs {
		for _, r := range h.reqs[h.next:] {
			if !r.joined {
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
		if fc.deleg == DelegNone || c.inflight > 0 || recalls[c.id] > 0 || c.missed > fc.trailerSeq {
			continue
		}
		if sh == nil || sh.deleg != DelegWrite && sh.deleg != fc.deleg {
			held := "nothing"
			if sh != nil {
				held = sh.deleg.String()
			}
			return fmt.Errorf("%s believes it holds %v (seq %d), the server has it holding %s, and no recall of it is on the wire", c.id, fc.deleg, fc.trailerSeq, held)
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
	key := w.fh.Key()
	f := w.s.files[key]
	for _, c := range w.cs {
		stamps = append(stamps, c.missed)
		if fc := c.sc.files[key]; fc != nil {
			stamps = append(stamps, fc.recallFence, fc.trailerSeq)
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

	flag(w.removing, w.removed)
	b = append(b, byte('0'+w.restarts), byte('0'+w.faults))
	for _, c := range w.cs {
		b = append(b, '|', byte('0'+c.calls), byte('0'+c.inflight))
		flag(c.forgot, c.owes)
		num(c.missed)
		if fc := c.sc.files[key]; fc != nil {
			b = append(b, '[', byte('0'+fc.deleg))
			flag(fc.noncacheable)
			num(fc.recallFence, fc.trailerSeq)
		}
		if f != nil {
			if sh := f.sharers[c.id]; sh != nil {
				b = append(b, '{', byte('0'+sh.deleg))
				num(sh.granted)
				flag(sh.lostRecall) // no answer leaves blocks pending, and no sweep marks a sharer closing
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
			b = append(b, 'H', h.c.id[0], byte(h.op), byte('0'+h.msg))
			for _, r := range h.reqs {
				b = append(b, r.c.rec.ID[0], byte('0'+r.args.Deleg))
				num(r.args.Seq)
				flag(r.joined)
				flight(r.flight)
			}
			b = append(b, byte('0'+h.next), byte('0'+h.tr.Deleg))
			num(h.tr.Seq)
			flag(h.granted, h.revoking, h.forgets != h.c.sc.forgets.Load())
		})
	}
	for _, r := range w.replies {
		part(func() {
			b = append(b, 'R', r.c.id[0], byte(r.op))
			for _, t := range r.ts {
				b = append(b, byte('0'+t.Deleg))
				num(t.Seq)
			}
			flag(r.stale, r.fenced, r.forgets != r.c.sc.forgets.Load())
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
// States are told apart by a 64-bit hash of their keys.
func explore(cfg exWorldCfg, depth int) exResult {
	type node struct {
		trace []uint8
		n     int // steps enabled there
	}
	seed := maphash.MakeSeed()
	var acts []exAction
	var key []byte
	w := exReplay(cfg, nil, acts, nil)
	acts = w.enabled(acts[:0])
	key = w.key(key[:0])
	seen := map[uint64]struct{}{maphash.Bytes(seed, key): {}}
	res := exResult{states: 1}
	frontier := []node{{nil, len(acts)}}
	for d := 1; d <= depth && len(frontier) > 0; d++ {
		var next []node
		for _, nd := range frontier {
			for i := 0; i < nd.n; i++ {
				child := append(slices.Clip(nd.trace), uint8(i))
				cw := exReplay(cfg, child, acts, nil)
				if err := cw.check(); err != nil {
					res.depth, res.violation = d, err
					exReplay(cfg, child, nil, &res.trace)
					return res
				}
				key = cw.key(key[:0])
				h := maphash.Bytes(seed, key)
				if _, ok := seen[h]; ok {
					continue
				}
				seen[h] = struct{}{}
				acts = cw.enabled(acts[:0])
				next = append(next, node{child, len(acts)})
			}
		}
		res.states += len(next)
		res.perDepth = append(res.perDepth, len(next))
		if len(next) > 0 {
			res.depth = d
		}
		frontier = next
	}
	return res
}

// TestExplore runs the explorer. By default it searches the tier-1 world to
// the end: two clients with two calls each, up to two in flight, the first
// possibly its REMOVE. With -explore.wide it searches, to depth 11, three
// clients (the first with two calls), with up to two recalls or answers lost
// or recalls sent twice, and a server restart.
func TestExplore(t *testing.T) {
	cfg := exWorldCfg{calls: []int{2, 2}, depth: 64}
	if *exploreWide {
		cfg = exWorldCfg{calls: []int{2, 1, 1}, faults: 2, restart: true, depth: 11}
	}
	if *exploreDepth > 0 {
		cfg.depth = *exploreDepth
	}
	start := time.Now()
	res := explore(cfg, cfg.depth)
	if res.violation != nil {
		t.Fatalf("after %d states, at depth %d: %v\n\t%s", res.states, res.depth, res.violation, strings.Join(res.trace, "\n\t"))
	}
	t.Logf("%d states to depth %d in %v; new states by depth %v", res.states, res.depth, time.Since(start).Round(time.Millisecond), res.perDepth)
}
