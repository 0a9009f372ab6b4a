package core

import (
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
)

// A REMOVE under write-back is answered at home and crosses behind its reply
// (DESIGN.md, "A REMOVE is absorbed under write-back"), the way a WRITE is
// absorbed: the session's own view of the directory proves the unlink would
// succeed, the effect is applied to the cache at once, and the REMOVE leaves
// on an actor of its own. Until its reply lands no later upstream call that
// names its directory or its victim leaves: proxyd serves one connection's
// calls on a pool of workers, so of two calls sent back to back either may
// run first, and only the sender can keep one behind the other.

// pendingRemove is an absorbed REMOVE whose reply has not landed: its
// directory and victim by key, the name, and the actors waiting for it.
type pendingRemove struct {
	dir, victim, name string
	waiters           []*vclock.Waiter
}

// orders reports whether a call naming the handles fhs must wait for pr. A
// REMOVE of another name in pr's directory (remove set, name its entry)
// commutes with it; any other call naming the directory, and any call on the
// victim, does not.
func (pr *pendingRemove) orders(fhs [2]nfs3.FH, remove bool, name string) bool {
	for _, fh := range fhs {
		switch k := fh.Key(); {
		case fh.IsZero():
		case k == pr.victim, k == pr.dir && !(remove && name != pr.name):
			return true
		}
	}
	return false
}

// absorbsRemoves reports whether this session may answer a REMOVE at home: it
// polls with write-back, keeps a metadata cache, and has no disk store open
// (the journal has no namespace record, so a disk-cached session forwards).
func (p *ProxyClient) absorbsRemoves() bool {
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
	dir, pr, tk, ok := p.cache.absorbRemove(args.Dir, args.Name, uid, gid)
	if !ok {
		return 0, false
	}
	p.met.removeAbsorbed.Inc()
	p.removeBehind(call.ReqID, args, pr, tk)
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
// JUKEBOX is a reply that says to come back. The reply lands under tk
// (sessionCache.landRemove); a refusal is counted and marks the span.
func (p *ProxyClient) removeBehind(parent uint64, args nfs3.DirOpArgs, pr *pendingRemove, tk invTicket) {
	rid := p.node.Mint()
	p.clk.Go("gvfs-remove:"+p.cred.ClientID, func() {
		sp := obs.Span{Req: rid, Parent: parent, Op: "REMOVE behind", Model: shortModel(p.cfg.Model), Start: p.node.Now()}
		var res *nfs3.WccRes
		for {
			var r nfs3.WccRes
			rep, _, err := p.finishUpstream(p.sendUpstream(rid, nfs3.ProcRemove, &args), &r, []nfs3.FH{args.Dir})
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
		ws, refused := p.cache.landRemove(pr, tk, res)
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

// awaitRemoves parks the caller until no pending REMOVE orders the call proc
// with args is about to send. An RMDIR or a RENAME may name, by its entry in
// the parent, a directory a pending REMOVE is emptying (rm -r, or a rename
// over an emptied directory), which the server would find not empty: each
// waits for every pending REMOVE.
func (p *ProxyClient) awaitRemoves(proc uint32, args wireEnc) {
	var fhs [2]nfs3.FH
	var name string
	switch a := args.(type) {
	case *nfs3.GetattrArgs:
		fhs[0] = a.FH
	case *nfs3.SetattrArgs:
		fhs[0] = a.FH
	case *nfs3.AccessArgs:
		fhs[0] = a.FH
	case *nfs3.ReadArgs:
		fhs[0] = a.FH
	case *nfs3.WriteArgs:
		fhs[0] = a.FH
	case *nfs3.CommitArgs:
		fhs[0] = a.FH
	case *nfs3.DirOpArgs: // LOOKUP, REMOVE, RMDIR
		fhs[0], name = a.Dir, a.Name
	case *nfs3.CreateArgs:
		fhs[0] = a.Where.Dir
	case *nfs3.MkdirArgs:
		fhs[0] = a.Where.Dir
	case *nfs3.SymlinkArgs:
		fhs[0] = a.Where.Dir
	case *nfs3.RenameArgs:
		fhs[0], fhs[1] = a.From.Dir, a.To.Dir
	case *nfs3.LinkArgs:
		fhs[0], fhs[1] = a.FH, a.Link.Dir
	case *nfs3.ReaddirArgs:
		fhs[0] = a.Dir
	case *nfs3.ReaddirplusArgs:
		fhs[0] = a.Dir
	}
	remove, all := proc == nfs3.ProcRemove, proc == nfs3.ProcRmdir || proc == nfs3.ProcRename
	for w := p.cache.awaitRemoves(p.clk, all, fhs, remove, name); w != nil; w = p.cache.awaitRemoves(p.clk, all, fhs, remove, name) {
		p.clk.WaitAs(w, "remove barrier")
	}
}

// drainRemoves parks the caller until no REMOVE is pending (Stop).
func (p *ProxyClient) drainRemoves() {
	var none [2]nfs3.FH
	for w := p.cache.awaitRemoves(p.clk, true, none, false, ""); w != nil; w = p.cache.awaitRemoves(p.clk, true, none, false, "") {
		p.clk.WaitAs(w, "remove drain")
	}
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
func (sc *sessionCache) absorbRemove(dir nfs3.FH, name string, uid, gid uint32) (a nfs3.Fattr, pr *pendingRemove, tk invTicket, ok bool) {
	sc.mu.Lock()
	dfc := sc.files[dir.Key()]
	h, ok := sc.nameHitLocked(dfc, name)
	if !ok || h.negative || h.child.attr.Type != nfs3.TypeReg || h.child.attr.Nlink != 1 ||
		nfs3.AccessForAttr(h.dir.attr, uid, gid, nfs3.AccessDelete) == 0 {
		sc.mu.Unlock()
		return a, nil, tk, false
	}
	tk = invTicket{rec: dfc, inv: dfc.invs, taken: true}
	parked := sc.forgetLocked(h.fh.Key())
	sc.namesTakenLocked(dfc)
	sc.putLookupLocked(dfc, name, nfs3.FH{}, true, false)
	sc.dropListingLocked(dfc)
	pr = &pendingRemove{dir: dfc.key, victim: h.fh.Key(), name: name}
	sc.removing = append(sc.removing, pr)
	sc.nremoving.Add(1)
	sc.mu.Unlock()
	for _, w := range parked {
		w.Wake()
	}
	return h.dir.attr, pr, tk, true
}

// landRemove lands pr's reply (nil: no reply came) and takes it off the
// pending table, returning the actors waiting for it, to be woken, and
// whether the REMOVE was refused. OK and NOENT mean the name is gone on the
// server: the directory's post-op attributes and the negative entry are
// installed, unless the polling channel invalidated the directory meanwhile
// (tk). Anything else means the session's view of the directory was wrong:
// everything cached under it goes, attributes included, so the next access
// asks the server.
func (sc *sessionCache) landRemove(pr *pendingRemove, tk invTicket, res *nfs3.WccRes) (ws []*vclock.Waiter, refused bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dfc := sc.files[pr.dir]
	switch {
	case res == nil || res.Status != nfs3.OK && res.Status != nfs3.ErrNoEnt:
		refused = true
		if dfc != nil {
			sc.dropAttrLocked(dfc)
			sc.flushDirLocked(dfc)
		}
	case !sc.heldLocked(tk, dfc):
	case !res.Wcc.After.Present:
		sc.dropAttrLocked(dfc)
	default:
		sc.putAttrLocked(dfc, res.Wcc.After.Attr)
		sc.namesTakenLocked(dfc)
		sc.putLookupLocked(dfc, pr.name, nfs3.FH{}, true, false)
	}
	for i, x := range sc.removing {
		if x == pr {
			sc.removing = append(sc.removing[:i], sc.removing[i+1:]...)
			sc.nremoving.Add(-1)
			break
		}
	}
	return pr.waiters, refused
}

// awaitRemoves parks a new waiter on the first pending REMOVE that orders a
// call naming fhs (a REMOVE of name, with remove set) and returns it, in the
// critical section that saw it pending, so the landing that ends it cannot be
// missed. all parks it on any pending REMOVE. nil: nothing orders the call.
func (sc *sessionCache) awaitRemoves(clk *vclock.Clock, all bool, fhs [2]nfs3.FH, remove bool, name string) *vclock.Waiter {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, pr := range sc.removing {
		if all || pr.orders(fhs, remove, name) {
			w := clk.NewWaiter()
			pr.waiters = append(pr.waiters, w)
			return w
		}
	}
	return nil
}
