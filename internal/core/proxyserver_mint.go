package core

import (
	"repro/internal/nfs3"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// A polling session under write-back answers a CREATE at home under a handle
// it mints and sends it behind the reply (proxyclient_create.go). The CREATE
// reaches the proxy server as an NFS CREATE with the session's verifier behind
// its arguments (MintedCreate); the file's first write-back may reach it
// before the session knows the file's handle, as a MINT-WRITE naming the
// create instead (MintWriteArgs). The server runs each minted create once per
// session and verifier and holds a MINT-WRITE until the create it names has
// run, so the two calls may be served in either order.

// mintKey names a minted create: the session that made it and its verifier.
type mintKey struct {
	client string
	verf   uint64
}

// mintRun is a minted create the server is running or has run, and the
// calls waiting for its outcome.
type mintRun struct {
	done    bool
	res     nfs3.CreateRes
	waiters []*vclock.Waiter
}

// maxMintRuns bounds ProxyServer.mints. A run dropped from the table is run
// again if a late call names it, which the verifier makes safe: the create
// finds the file its first run made.
const maxMintRuns = 4096

// mintCreate returns what the minted create a names came to, running it if no
// run of it is on record and waiting (inside yield) for one that is under way.
// A run that could not reach the NFS server is not recorded: it is JUKEBOX,
// and the next call that names the create runs it again.
func (s *ProxyServer) mintCreate(rid uint64, c *clientState, a *MintedCreate, yield func(func())) nfs3.CreateRes {
	k := mintKey{c.rec.ID, a.Verf}
	s.mu.Lock()
	if r := s.mints[k]; r != nil {
		for !r.done {
			w := s.clk.NewWaiter()
			r.waiters = append(r.waiters, w)
			s.mu.Unlock()
			yield(func() { s.clk.WaitAs(w, "minted create") })
			s.mu.Lock()
		}
		s.mu.Unlock()
		return r.res
	}
	if len(s.mints) >= maxMintRuns {
		for k, r := range s.mints {
			if r.done {
				delete(s.mints, k)
			}
		}
	}
	r := &mintRun{}
	s.mints[k] = r
	s.mu.Unlock()
	res, ran := s.runMintedCreate(rid, c, a)
	s.mu.Lock()
	r.done, r.res = true, res
	if !ran {
		delete(s.mints, k)
	}
	ws := r.waiters
	r.waiters = nil
	s.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
	return res
}

// runMintedCreate makes the file across the LAN: an exclusive CREATE under
// the session's verifier, then a SETATTR of the attributes the kernel asked
// for (all but a size: the file is new). The directory's change is queued for
// the other sessions, as a forwarded CREATE's is. ran is false when the NFS
// server could not be reached.
func (s *ProxyServer) runMintedCreate(rid uint64, c *clientState, a *MintedCreate) (res nfs3.CreateRes, ran bool) {
	s.met.forwards.Inc()
	excl := nfs3.CreateArgs{Where: a.Where, Mode: nfs3.CreateExclusive, Verf: a.Verf}
	if s.callLAN(rid, nfs3.ProcCreate, &excl, &res) != nil {
		return nfs3.CreateRes{Status: nfs3.ErrJukebox}, false
	}
	if res.Status != nfs3.OK || !res.FHFollows {
		return res, true
	}
	sa := a.Attr
	sa.Size = nil
	if sa.Mode != nil || sa.UID != nil || sa.GID != nil || sa.Mtime != nil || sa.MtimeServer {
		var sr nfs3.WccRes
		if s.callLAN(rid, nfs3.ProcSetattr, &nfs3.SetattrArgs{FH: res.FH, Attr: sa}, &sr) == nil && sr.Status == nfs3.OK && sr.Wcc.After.Present {
			res.Attr = sr.Wcc.After
		}
	}
	s.committed(c, a.Where.Dir)
	return res, true
}

// committed records a change the session c made to fh that another route
// than dispatchNFS carried to the NFS server: ground truth for the staleness
// observatory, and news for the other sessions.
func (s *ProxyServer) committed(c *clientState, fh nfs3.FH) {
	if s.cfg.Staleness != nil {
		s.cfg.Staleness.RecordCommit(fh.Key(), c.rec.ID)
	}
	s.queueInvalidations(c.rec.ID, []nfs3.FH{fh})
}

// mintWrite serves a MINT-WRITE: once the create it names has run, the WRITE
// goes to the file that create made, or, if it made none, nowhere, and the
// reply says what the create came to. Only a polling server serves it: under
// delegation a WRITE must pass the sharer table, and the client's create was
// forwarded anyway.
func (s *ProxyServer) mintWrite(call *sunrpc.Call) sunrpc.AcceptStat {
	if s.cfg.Model != ModelPolling {
		return sunrpc.ProcUnavail
	}
	var args MintWriteArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	if s.cfg.ProxyDelay > 0 {
		s.clk.Sleep(s.cfg.ProxyDelay)
	}
	c := s.ensureClient(call.Cred)
	res := MintWriteRes{Create: s.mintCreate(call.ReqID, c, &args.Create, call.Yield)}
	if res.Create.Status != nfs3.OK || !res.Create.FHFollows {
		res.Write.Status = res.Create.Status
		if res.Write.Status == nfs3.OK {
			res.Write.Status = nfs3.ErrIO
		}
		return encodeReply(call, &res)
	}
	args.Write.FH = res.Create.FH
	spanFH(call, args.Write.FH)
	e := xdr.NewEncoder()
	tail := args.Write.EncodeHead(e)
	s.met.forwards.Inc()
	rep, err := s.up.CallParts(call.ReqID, nfs3.Program, nfs3.Version, nfs3.ProcWrite, e.Bytes(), tail, s.cfg.CallTimeout)
	if err != nil {
		return sunrpc.SystemErr
	}
	err = res.Write.Decode(rep.Body)
	rep.Release()
	if err != nil {
		return sunrpc.SystemErr
	}
	if res.Write.Status == nfs3.OK {
		s.committed(c, args.Write.FH)
	}
	return encodeReply(call, &res)
}

// callLAN makes one NFS call to the NFS server and decodes its result.
func (s *ProxyServer) callLAN(rid uint64, proc uint32, args wireEnc, res wireDec) error {
	e := xdr.NewEncoder()
	args.Encode(e)
	rep, err := s.up.CallParts(rid, nfs3.Program, nfs3.Version, proc, e.Bytes(), nil, s.cfg.CallTimeout)
	if err != nil {
		return err
	}
	defer rep.Release()
	return res.Decode(rep.Body)
}
