package core

import (
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
)

// Namespace operations under write-back are answered at home and cross
// behind their replies (DESIGN.md, "A REMOVE is absorbed under write-back" and
// "A CREATE is absorbed under write-back"), the way a WRITE is absorbed: the
// session's own view of the directory proves the operation would succeed, the
// effect is applied to the cache at once, and the call leaves on an actor of
// its own. Until its reply lands no later upstream call that names its
// directory or its object leaves: proxyd serves one connection's calls on a
// pool of workers, so of two calls sent back to back either may run first,
// and only the sender can keep one behind the other.

// pendingOp is an absorbed REMOVE or CREATE whose reply has not landed: its
// directory and object by key (the REMOVE's victim, the handle minted for the
// CREATE's file), the name, and the actors waiting for it. The session
// cache's table of them (sessionCache.pending) is in the order they were
// absorbed.
type pendingOp struct {
	dir, victim, name string
	waiters           []*vclock.Waiter
}

// orders reports whether a call naming the handles fhs must wait for op. A
// REMOVE of another name in op's directory (remove set, name its entry)
// commutes with it; any other call naming the directory, and any call on the
// object, does not.
func (op *pendingOp) orders(fhs [2]nfs3.FH, remove bool, name string) bool {
	for _, fh := range fhs {
		switch k := fh.Key(); {
		case fh.IsZero():
		case k == op.victim, k == op.dir && !(remove && name != op.name):
			return true
		}
	}
	return false
}

// absorbsNames reports whether this session may answer a REMOVE or a CREATE
// at home: it polls with write-back, keeps a metadata cache, and has no disk
// store open (the journal has no namespace record, so a disk-cached session
// forwards).
func (p *ProxyClient) absorbsNames() bool {
	return p.cfg.Model == ModelPolling && p.cfg.WriteBack && !p.cfg.DisableMetaCache && p.disk == nil && !p.stopped.Load()
}

// absorbRemove answers the kernel's REMOVE at home if the cache can prove it
// (sessionCache.absorbRemove) and sends it upstream behind the reply. The
// reply's wcc carries the directory's cached attributes as before and none
// after.
func (p *ProxyClient) absorbRemove(call *sunrpc.Call, args nfs3.DirOpArgs) (sunrpc.AcceptStat, bool) {
	uid, gid, idOK := call.Cred.SysIdentity()
	if !idOK {
		uid, gid = 0, 0
	}
	dir, op, tk, ok := p.cache.absorbRemove(args.Dir, args.Name, uid, gid)
	if !ok {
		return 0, false
	}
	p.met.removeAbsorbed.Inc()
	p.removeBehind(call.ReqID, args, op, tk)
	call.SpanNote = obs.NoteLocal
	p.hitLocal(call)
	return encodeReply(call, &nfs3.WccRes{Status: nfs3.OK, Wcc: nfs3.WccData{
		Before: nfs3.PreOpAttr{Present: true, Attr: nfs3.WccAttr{Size: dir.Size, Mtime: dir.Mtime, Ctime: dir.Ctime}},
	}}), true
}

// removeBehind sends an absorbed REMOVE from an actor of its own, at once, as
// a request of its own (a prefetch's way: nothing charges the kernel's REMOVE
// for it). Like a write-back block, it is sent again until a reply comes or
// the session stops: a partition delays it, it does not lose it, and a
// JUKEBOX is a reply that says to come back. An absorbed CREATE of the name
// still on its way goes first (awaitBefore). The reply lands under tk
// (sessionCache.landRemove); a refusal is counted and marks the span.
func (p *ProxyClient) removeBehind(parent uint64, args nfs3.DirOpArgs, op *pendingOp, tk ticket) {
	rid := p.node.Mint()
	p.clk.Go("gvfs-remove:"+p.cred.ClientID, func() {
		sp := obs.Span{Req: rid, Parent: parent, Op: "REMOVE behind", Model: shortModel(p.cfg.Model), Start: p.node.Now()}
		p.awaitBefore(op)
		var res *nfs3.WccRes
		for {
			var r nfs3.WccRes
			rep, _, err := p.finishUpstream(p.sendUpstream(rid, nfs3.ProcRemove, &args, tk), &r, []nfs3.FH{args.Dir})
			rep.Release()
			if err == nil && r.Status != nfs3.ErrJukebox {
				res = &r
				break
			}
			if p.stopped.Load() {
				break
			}
			p.clk.Sleep(time.Second)
		}
		ws, refused := p.cache.landRemove(op, tk, res)
		sp.End = p.node.Now()
		if refused {
			p.met.removeRefused.Inc()
			sp.Err = "refused"
			if res != nil {
				sp.Err = res.Status.String()
			}
		}
		if p.node.Tracing() {
			sp.FH = args.Dir.String()
		}
		p.node.Record(sp)
		for _, w := range ws {
			w.Wake()
		}
	})
}

// --- session cache side -------------------------------------------------------

// absorbRemove applies a REMOVE of name under dir that the session answers at
// home, if its cache proves the unlink: the directory's attributes are
// servable and let uid/gid delete, and name is bound to a regular file whose
// attributes are servable and count one link. In the same critical section
// the victim's record goes, dirty blocks and all; the name becomes negative
// under the directory attributes the session holds, which stay as they are
// until the reply lands; the directory's listing goes; and the REMOVE joins
// the pending table, so that no call sent after this one returns can overtake
// it. It returns the directory's attributes, the pending entry and the ticket
// the reply lands under.
func (sc *sessionCache) absorbRemove(dir nfs3.FH, name string, uid, gid uint32) (a nfs3.Fattr, op *pendingOp, tk ticket, ok bool) {
	sc.mu.Lock()
	dfc := sc.files[dir.Key()]
	h, ok := sc.nameHitLocked(dfc, name)
	if !ok || h.negative || h.child.attr.Type != nfs3.TypeReg || h.child.attr.Nlink != 1 ||
		nfs3.AccessForAttr(h.dir.attr, uid, gid, nfs3.AccessDelete) == 0 {
		sc.mu.Unlock()
		return a, nil, tk, false
	}
	tk = sc.ticketLocked(dir)
	parked := sc.forgetLocked(h.fh.Key())
	sc.namesTakenLocked(dfc)
	sc.putLookupLocked(dfc, name, nfs3.FH{}, true, false)
	sc.dropListingLocked(dfc)
	op = sc.pendLocked(dfc.key, h.fh.Key(), name)
	sc.mu.Unlock()
	for _, w := range parked {
		w.Wake()
	}
	return h.dir.attr, op, tk, true
}

// landRemove lands op's reply (nil: no reply came) and takes it off the pending
// table, returning the actors waiting for it, to be woken, and whether the
// REMOVE was refused. OK and NOENT mean the name is gone on the server: the
// directory's post-op attributes and the negative entry are installed, unless
// the landing rule refuses them (tk: the polling channel invalidated the
// directory meanwhile). Anything else means the session's view of the directory
// was wrong: everything cached under it goes, attributes included, so the next
// access asks the server.
func (sc *sessionCache) landRemove(op *pendingOp, tk ticket, res *nfs3.WccRes) (ws []*vclock.Waiter, refused bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dfc := sc.files[op.dir]
	switch {
	case res == nil || res.Status != nfs3.OK && res.Status != nfs3.ErrNoEnt:
		refused = true
		if dfc != nil {
			sc.dropAttrLocked(dfc)
			sc.flushDirLocked(dfc)
		}
	case !sc.landsLocked(tk, dfc, 0, false):
	case !res.Wcc.After.Present:
		sc.dropAttrLocked(dfc)
	default:
		sc.putAttrLocked(dfc, res.Wcc.After.Attr)
		sc.namesTakenLocked(dfc)
		sc.putLookupLocked(dfc, op.name, nfs3.FH{}, true, false)
	}
	return sc.unpendLocked(op), refused
}
