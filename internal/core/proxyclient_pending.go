package core

import (
	"repro/internal/nfs3"
	"repro/internal/vclock"
)

// The table of absorbed namespace operations still on their way
// (proxyclient_remove.go, proxyclient_create.go) and the barrier it puts at
// the upstream boundary.

// handlesOf returns where the arguments of an NFS call name file handles (at
// most two, nil for none) and, for a call on a directory entry by its name
// alone (LOOKUP, REMOVE, RMDIR), that name: what the barrier orders a call by
// (awaitPending), what leaves the session as the server's (toServer), and
// whose record the call's ticket takes (startUpstream).
func handlesOf(args wireEnc) (fhs [2]*nfs3.FH, name string) {
	switch a := args.(type) {
	case *nfs3.GetattrArgs:
		fhs[0] = &a.FH
	case *nfs3.SetattrArgs:
		fhs[0] = &a.FH
	case *nfs3.AccessArgs:
		fhs[0] = &a.FH
	case *nfs3.ReadArgs:
		fhs[0] = &a.FH
	case *nfs3.WriteArgs:
		fhs[0] = &a.FH
	case *nfs3.CommitArgs:
		fhs[0] = &a.FH
	case *nfs3.DirOpArgs: // LOOKUP, REMOVE, RMDIR
		fhs[0], name = &a.Dir, a.Name
	case *nfs3.CreateArgs:
		fhs[0] = &a.Where.Dir
	case *nfs3.MkdirArgs:
		fhs[0] = &a.Where.Dir
	case *nfs3.SymlinkArgs:
		fhs[0] = &a.Where.Dir
	case *nfs3.RenameArgs:
		fhs[0], fhs[1] = &a.From.Dir, &a.To.Dir
	case *nfs3.LinkArgs:
		fhs[0], fhs[1] = &a.FH, &a.Link.Dir
	case *nfs3.ReaddirArgs:
		fhs[0] = &a.Dir
	case *nfs3.ReaddirplusArgs:
		fhs[0] = &a.Dir
	}
	return fhs, name
}

// awaitPending parks the caller until no pending operation orders the call
// proc whose arguments name the handles fhs and the entry name (handlesOf).
// An RMDIR or a RENAME may name, by its entry in the parent, a directory a
// pending REMOVE is emptying (rm -r, or a rename over an emptied directory),
// which the server would find not empty, or one a pending CREATE is filling:
// each waits for every pending operation.
func (p *ProxyClient) awaitPending(proc uint32, fhs [2]*nfs3.FH, name string) {
	var named [2]nfs3.FH
	for i, fh := range fhs {
		if fh != nil {
			named[i] = *fh
		}
	}
	remove, all := proc == nfs3.ProcRemove, proc == nfs3.ProcRmdir || proc == nfs3.ProcRename
	for w := p.cache.awaitPending(p.clk, all, named, remove, name); w != nil; w = p.cache.awaitPending(p.clk, all, named, remove, name) {
		p.clk.WaitAs(w, "namespace barrier")
	}
}

// drainPending parks the caller until no operation is pending (Stop, MOUNT).
func (p *ProxyClient) drainPending() {
	var none [2]nfs3.FH
	for w := p.cache.awaitPending(p.clk, true, none, false, ""); w != nil; w = p.cache.awaitPending(p.clk, true, none, false, "") {
		p.clk.WaitAs(w, "namespace drain")
	}
}

// awaitBefore parks an absorbed operation's sender until no operation
// absorbed before it on the same name is pending: a REMOVE of a file the
// session has just created crosses behind that CREATE, a CREATE of a name it
// has just removed behind that REMOVE.
func (p *ProxyClient) awaitBefore(op *pendingOp) {
	for w := p.cache.awaitBefore(p.clk, op); w != nil; w = p.cache.awaitBefore(p.clk, op) {
		p.clk.WaitAs(w, "namespace order")
	}
}

// --- session cache side -------------------------------------------------------

// pendLocked adds an absorbed operation on name in the directory dir, whose
// object is victim, to the pending table.
func (sc *sessionCache) pendLocked(dir, victim, name string) *pendingOp {
	op := &pendingOp{dir: dir, victim: victim, name: name}
	sc.pending = append(sc.pending, op)
	sc.boundaryLocked()
	return op
}

// unpendLocked takes op off the pending table and returns the actors waiting
// for it, to be woken.
func (sc *sessionCache) unpendLocked(op *pendingOp) []*vclock.Waiter {
	for i, x := range sc.pending {
		if x == op {
			sc.pending = append(sc.pending[:i], sc.pending[i+1:]...)
			break
		}
	}
	sc.boundaryLocked()
	return op.waiters
}

// boundaryLocked republishes how much the upstream boundary has to look at:
// the pending operations and the minted handles (sessionCache.held).
func (sc *sessionCache) boundaryLocked() {
	sc.held.Store(int32(len(sc.pending) + len(sc.mints.byP)))
}

// awaitPending parks a new waiter on the first pending operation that orders a
// call naming fhs (a REMOVE of name, with remove set) and returns it, in the
// critical section that saw it pending, so the landing that ends it cannot be
// missed. all parks it on any pending operation. nil: nothing orders the call.
func (sc *sessionCache) awaitPending(clk *vclock.Clock, all bool, fhs [2]nfs3.FH, remove bool, name string) *vclock.Waiter {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, op := range sc.pending {
		if all || op.orders(fhs, remove, name) {
			w := clk.NewWaiter()
			op.waiters = append(op.waiters, w)
			return w
		}
	}
	return nil
}

// awaitBefore parks a new waiter on the latest operation pending ahead of op
// on its name, nil when there is none.
func (sc *sessionCache) awaitBefore(clk *vclock.Clock, op *pendingOp) *vclock.Waiter {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ahead := sc.aheadLocked(op)
	if ahead == nil {
		return nil
	}
	w := clk.NewWaiter()
	ahead.waiters = append(ahead.waiters, w)
	return w
}

// aheadLocked returns the latest operation absorbed before op on the same
// name in the same directory that is still pending, nil when there is none.
func (sc *sessionCache) aheadLocked(op *pendingOp) *pendingOp {
	var ahead *pendingOp
	for _, x := range sc.pending {
		if x == op {
			break
		}
		if x.dir == op.dir && x.name == op.name {
			ahead = x
		}
	}
	return ahead
}
