package core

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
)

// A CREATE under write-back is answered at home (DESIGN.md, "A CREATE is
// absorbed under write-back") when the session's cache proves the name
// absent: the reply carries a handle and a fileid the session mints (P), and
// the CREATE crosses behind it (createBehind) as a REMOVE does. The kernel's
// next call names P, which the server has never seen, so the session keeps the
// file under P for its whole life and translates at the upstream boundary
// only: arguments leave with the server's handle (R) in P's place
// (sessionCache.toServer), and results, GETINV handle lists and listings come
// back with R and its fileid mapped to P and the minted fileid
// (sessionCache.fromServer). A call that names P while its CREATE is on its
// way waits for that CREATE (the pending table's barrier), but for the file's
// first write-back, which crosses at once as a MINT-WRITE naming the create
// (writeByCreate): the proxy server holds it until the create has run.

// mintedFile is a file the session created at home: the handle and fileid the
// kernel knows it by, the server's once the CREATE lands, and what crossed.
type mintedFile struct {
	p, r           nfs3.FH
	fileid, realID uint64
	create         MintedCreate
	// op is the CREATE while its reply has not landed, nil after. tk is the
	// ticket it went out under, the directory's when the CREATE was absorbed:
	// the landing installs only what the landing rule lets land.
	op *pendingOp
	tk ticket
}

// mintTable holds the session's minted files by P, by R and by the server's
// fileid, and what the next handle is minted from.
type mintTable struct {
	byP, byR map[string]*mintedFile
	byID     map[uint64]*mintedFile
	nonce    uint64
	next     uint64
}

// mintMark fills the high half of a minted handle's generation word: a handle
// no NFS server of this repository makes (theirs is the server's generation),
// so one that strays to the server is answered STALE.
const mintMark = 0x47564653 << 32

// mintLocked mints the next handle and fileid. The nonce sets each proxy
// client's handles apart from an earlier incarnation's, whose verifiers would
// otherwise name the same files.
func (t *mintTable) mintLocked() (fh nfs3.FH, fileid uint64) {
	t.next++
	return nfs3.MakeFH(mintMark|t.nonce&0xffffffff, t.next), 1<<63 | t.nonce&0x7fffffff<<32 | t.next&0xffffffff
}

// verifier is the exclusive-create verifier of the file minted as fh by the
// session id: the same for every time the CREATE crosses, and no other's.
func verifier(id string, fh nfs3.FH) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write(fh.Bytes())
	return h.Sum64() | 1 // zero is no verifier
}

// absorbCreate answers the kernel's CREATE at home if the cache can prove the
// name absent (sessionCache.absorbCreate) and sends it upstream behind the
// reply. The reply's wcc carries the directory's cached attributes as before
// and none after.
func (p *ProxyClient) absorbCreate(call *sunrpc.Call, args *nfs3.CreateArgs) (sunrpc.AcceptStat, bool) {
	if args.Mode == nfs3.CreateExclusive || args.Attr.Size != nil && *args.Attr.Size != 0 {
		return 0, false
	}
	uid, gid, idOK := call.Cred.SysIdentity()
	if !idOK {
		uid, gid = 0, 0
	}
	dir, a, m, ok := p.cache.absorbCreate(args, uid, gid, nfs3.TimeFromDuration(p.node.Now()), p.cred.ClientID)
	if !ok {
		return 0, false
	}
	p.met.createAbsorbed.Inc()
	p.createBehind(call.ReqID, m)
	call.SpanNote = obs.NoteLocal
	p.hitLocal(call)
	return encodeReply(call, &nfs3.CreateRes{Status: nfs3.OK, FHFollows: true, FH: m.p,
		Attr: nfs3.PostOpAttr{Present: true, Attr: a},
		DirWcc: nfs3.WccData{
			Before: nfs3.PreOpAttr{Present: true, Attr: nfs3.WccAttr{Size: dir.Size, Mtime: dir.Mtime, Ctime: dir.Ctime}},
		}}), true
}

// createBehind sends an absorbed CREATE from an actor of its own, at once,
// with the session's verifier behind its arguments (MintedCreate), again until
// a reply comes or the session stops, as removeBehind sends a REMOVE. A
// REMOVE of the name still on its way goes first (awaitBefore).
func (p *ProxyClient) createBehind(parent uint64, m *mintedFile) {
	rid := p.node.Mint()
	op := m.op
	p.clk.Go("gvfs-create:"+p.cred.ClientID, func() {
		sp := obs.Span{Req: rid, Parent: parent, Op: "CREATE behind", Model: shortModel(p.cfg.Model), Start: p.node.Now()}
		p.awaitBefore(op)
		var res *nfs3.CreateRes
		for {
			var r nfs3.CreateRes
			rep, _, err := p.finishUpstream(p.sendUpstream(rid, nfs3.ProcCreate, &m.create, m.tk), &r, []nfs3.FH{m.create.Where.Dir})
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
		p.landCreate(m, res, &sp)
		if p.node.Tracing() {
			sp.FH = m.create.Where.Dir.String()
		}
		sp.End = p.node.Now()
		p.node.Record(sp)
	})
}

// landCreate lands what a reply says the CREATE came to (nil: no reply came),
// once, whichever of the CREATE and the first MINT-WRITE brings it first; sp,
// when not nil, is marked with a refusal: "refused", the name, and the status
// (RefusedCreate reads it back).
func (p *ProxyClient) landCreate(m *mintedFile, res *nfs3.CreateRes, sp *obs.Span) {
	ws, refused, first := p.cache.landCreate(m, res)
	if refused && first {
		p.met.createRefused.Inc()
	}
	if refused && sp != nil {
		why := "no reply"
		if res != nil {
			why = res.Status.String()
		}
		sp.Err = "refused " + m.create.Where.Name + ": " + why
	}
	for _, w := range ws {
		w.Wake()
	}
}

// writeByCreate sends a write-back WRITE of a file whose CREATE is still on
// its way as a MINT-WRITE naming that create, data by reference as flushBlock
// sends it, and lands the create the reply reports. ok is false when no
// MINT-WRITE could be had (no reply, or an error in its place): the caller
// sends the WRITE as usual, behind the create. An upstream that serves none
// (a plain NFS server, a proxy server under delegation) is asked no more.
func (p *ProxyClient) writeByCreate(rid uint64, m *mintedFile, args *nfs3.WriteArgs) (res nfs3.WriteRes, ok bool) {
	if p.noMintWrite.Load() {
		return res, false
	}
	e := bufpool.GetEncoder()
	call := MintWriteArgs{Create: m.create, Write: *args}
	call.Write.FH = nfs3.FH{}
	c := upstreamCall{rid: rid, prog: InvProgram, vers: InvVersion, proc: ProcMintWrite,
		tail: call.EncodeHead(e), enc: e, start: p.node.Now()}
	c.args = e.Bytes()
	p.send(&c)
	// One try: a WRITE that has to go again goes as usual, with the
	// reconnections waitCall makes, behind the create.
	rep, err := c.Wait()
	bufpool.PutEncoder(e)
	if err != nil {
		// Only an upstream that does not serve the procedure is asked no
		// more; any other failure (proxyd's SystemErr when its LAN WRITE
		// failed, an overload reply) is one failed try.
		var rejected *sunrpc.Error
		if errors.As(err, &rejected) && (rejected.Stat == sunrpc.ProcUnavail || rejected.Stat == sunrpc.ProgUnavail || rejected.Stat == sunrpc.ProgMismatch) {
			p.noMintWrite.Store(true)
		}
		return res, false
	}
	var mr MintWriteRes
	err = mr.Decode(rep.Body)
	rep.Release()
	if err != nil || mr.Create.Status == nfs3.ErrJukebox {
		return res, false
	}
	p.met.forwardLatency.ObserveDuration(p.node.Now() - c.start)
	p.landCreate(m, &mr.Create, nil)
	p.cache.fromServer(&mr.Write)
	return mr.Write, true
}

// RefusedCreate reports whether s is the span of an absorbed CREATE the
// server refused, and the name it was of.
func RefusedCreate(s obs.Span) (name string, ok bool) {
	if s.Op != "CREATE behind" || !strings.HasPrefix(s.Err, "refused ") {
		return "", false
	}
	name, _, ok = strings.Cut(strings.TrimPrefix(s.Err, "refused "), ": ")
	return name, ok
}

// --- session cache side -------------------------------------------------------

// absorbCreate applies a CREATE the session answers at home, if its cache
// proves it would make a new file: the directory's attributes are servable
// and let uid/gid add a name, and the name is known absent, by a negative
// entry or by a finished walk of the directory (dirWalk.done) that has lost no
// entry since (dirWalk.evicted) and binds no entry to the name. In the same
// critical section the new file's record gets the attributes a fresh file
// has under a minted handle and fileid, the name is bound to it, the
// directory's listing goes, and the CREATE joins the pending table. It
// returns the directory's attributes, the new file's and the minted file.
func (sc *sessionCache) absorbCreate(args *nfs3.CreateArgs, uid, gid uint32, now nfs3.Time, id string) (dir, a nfs3.Fattr, m *mintedFile, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	name := args.Where.Name
	dfc := sc.files[args.Where.Dir.Key()]
	h, ok := sc.hitLocked(dfc)
	if !ok || h.attr.Type != nfs3.TypeDir || name == "" || len(name) > nfs3.MaxNameLen ||
		nfs3.AccessForAttr(h.attr, uid, gid, nfs3.AccessExtend) == 0 {
		return dir, a, nil, false
	}
	switch ent := sc.lookupLocked(dfc, name); {
	case ent != nil && ent.negative:
	case ent == nil && dfc.walk.done && !dfc.walk.evicted:
	default:
		return dir, a, nil, false
	}
	t := &sc.mints
	if t.byP == nil {
		t.byP, t.byR, t.byID = make(map[string]*mintedFile), make(map[string]*mintedFile), make(map[uint64]*mintedFile)
	}
	fh, fileid := t.mintLocked()
	m = &mintedFile{p: fh, fileid: fileid, create: MintedCreate{CreateArgs: *args, Verf: verifier(id, fh)},
		tk: sc.ticketLocked(args.Where.Dir)}
	a = nfs3.Fattr{Type: nfs3.TypeReg, Mode: 0o644, Nlink: 1, FSID: h.attr.FSID, FileID: fileid, Atime: now, Mtime: now, Ctime: now}
	s := args.Attr
	if s.Mode != nil {
		a.Mode = *s.Mode
	}
	if s.UID != nil {
		a.UID = *s.UID
	}
	if s.GID != nil {
		a.GID = *s.GID
	}
	if s.Mtime != nil {
		a.Mtime = *s.Mtime
	}
	sc.putAttrLocked(sc.record(fh.Key()), a)
	sc.namesTakenLocked(dfc)
	sc.putLookupLocked(dfc, name, fh, false, false)
	sc.dropListingLocked(dfc)
	t.byP[fh.Key()] = m
	m.op = sc.pendLocked(dfc.key, fh.Key(), name)
	return h.attr, a, m, true
}

// landCreate lands m's CREATE (res nil: no reply came) and takes it off the
// pending table, returning the actors waiting for it, whether the create was
// refused, and whether this was its landing (false: it had landed already). A
// made file is known by R from here on; its attributes, the server's with the
// minted fileid, and the directory's post-op attributes are installed as the
// landing rule lets them under the CREATE's ticket: the file's only if no
// invalidation was delivered since the CREATE was absorbed (news of R could not
// be told from news of nothing while R was unknown). A refusal (another client
// holds the name, or no reply) means the session's view of the directory was
// wrong: everything cached under it goes, attributes included, and so does what
// the session wrote to the file, which its next COMMIT reports lost.
func (sc *sessionCache) landCreate(m *mintedFile, res *nfs3.CreateRes) (ws []*vclock.Waiter, refused, first bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if m.op == nil {
		return nil, false, false
	}
	ws = sc.unpendLocked(m.op)
	m.op = nil
	dfc := sc.files[m.create.Where.Dir.Key()]
	fc := sc.files[m.p.Key()]
	if res == nil || res.Status != nfs3.OK || !res.FHFollows {
		sc.dropMintLocked(m)
		if dfc != nil {
			sc.dropAttrLocked(dfc)
			sc.flushDirLocked(dfc)
		}
		if fc != nil {
			if fc.blocks != nil {
				sc.discardDirtyLocked(fc, true)
			}
			sc.dropAttrLocked(fc)
		}
		return ws, true, true
	}
	m.r = res.FH
	if fc == nil {
		// Removed meanwhile: nothing is left to translate.
		sc.dropMintLocked(m)
	} else {
		sc.mints.byR[m.r.Key()] = m
		if res.Attr.Present {
			m.realID = res.Attr.Attr.FileID
			sc.mints.byID[m.realID] = m
		}
		if a := res.Attr.Attr; res.Attr.Present && sc.landsLocked(m.tk, fc, 0, false) {
			a.FileID = m.fileid
			sc.putAttrLocked(fc, a)
		} else {
			sc.dropAttrLocked(fc)
		}
	}
	if dfc != nil && sc.landsLocked(m.tk, dfc, 0, false) {
		if after := res.DirWcc.After; after.Present {
			sc.putAttrLocked(dfc, after.Attr)
			if fc != nil {
				sc.namesTakenLocked(dfc)
				sc.putLookupLocked(dfc, m.create.Where.Name, m.p, false, false)
			}
		} else {
			sc.dropAttrLocked(dfc)
		}
	}
	return ws, false, true
}

// dropMintLocked forgets a minted file's translation.
func (sc *sessionCache) dropMintLocked(m *mintedFile) {
	delete(sc.mints.byP, m.p.Key())
	if !m.r.IsZero() && sc.mints.byR[m.r.Key()] == m {
		delete(sc.mints.byR, m.r.Key())
	}
	if m.realID != 0 && sc.mints.byID[m.realID] == m {
		delete(sc.mints.byID, m.realID)
	}
	sc.boundaryLocked()
}

// pendingMint returns the minted file fh names if its CREATE has not landed
// and a MINT-WRITE may name it: no operation absorbed before the CREATE on
// its name is pending. A REMOVE of the file the name held still on its way
// is not behind the MINT-WRITE, whose create would run first and find that
// file there; the WRITE then goes as usual, behind the CREATE, which waits
// for the REMOVE (awaitBefore).
func (sc *sessionCache) pendingMint(fh nfs3.FH) *mintedFile {
	if sc.held.Load() == 0 {
		return nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if m := sc.mints.byP[fh.Key()]; m != nil && m.op != nil && sc.aheadLocked(m.op) == nil {
		return m
	}
	return nil
}

// serverFHLocked returns the handle the server knows fh by: R for a minted handle
// whose CREATE made the file, fh itself otherwise.
func (sc *sessionCache) serverFHLocked(fh nfs3.FH) (nfs3.FH, bool) {
	if m := sc.mints.byP[fh.Key()]; m != nil && !m.r.IsZero() {
		return m.r, true
	}
	return fh, false
}

// sessionKeyLocked returns the key the session knows a handle the server
// named by: P's for a file the session minted, key itself otherwise.
func (sc *sessionCache) sessionKeyLocked(key string) string {
	if m := sc.mints.byR[key]; m != nil {
		return m.p.Key()
	}
	return key
}

// toServer rewrites in place each handle fhs points to (handlesOf) that the
// session minted to the server's, and returns the handles as they were, for
// the caller to put back once the call is encoded (putBack): the caller's
// arguments keep P. changed is false when none was minted.
func (sc *sessionCache) toServer(fhs [2]*nfs3.FH) (was [2]nfs3.FH, changed bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, fh := range fhs {
		if fh == nil {
			continue
		}
		was[i] = *fh
		if r, ok := sc.serverFHLocked(*fh); ok {
			*fh, changed = r, true
		}
	}
	return was, changed
}

// putBack undoes toServer.
func putBack(fhs [2]*nfs3.FH, was [2]nfs3.FH) {
	for i, fh := range fhs {
		if fh != nil {
			*fh = was[i]
		}
	}
}

// fromServer maps what a result says of a file the session minted to the
// names the session knows it by: R to P, the server's fileid to the minted.
func (sc *sessionCache) fromServer(res wireDec) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.mints.byR) == 0 {
		return
	}
	fh := func(h *nfs3.FH) {
		if m := sc.mints.byR[h.Key()]; m != nil {
			*h = m.p
		}
	}
	id := func(v *uint64) {
		if m := sc.mints.byID[*v]; m != nil {
			*v = m.fileid
		}
	}
	attr := func(a *nfs3.PostOpAttr) {
		if a.Present {
			id(&a.Attr.FileID)
		}
	}
	switch r := res.(type) {
	case *nfs3.GetattrRes:
		id(&r.Attr.FileID)
	case *nfs3.LookupRes:
		fh(&r.FH)
		attr(&r.Attr)
	case *nfs3.ReadRes:
		attr(&r.Attr)
	case *nfs3.WriteRes:
		attr(&r.Wcc.After)
	case *nfs3.CommitRes:
		attr(&r.Wcc.After)
	case *nfs3.AccessRes:
		attr(&r.Attr)
	case *nfs3.WccRes:
		attr(&r.Wcc.After)
	case *nfs3.CreateRes:
		fh(&r.FH)
		attr(&r.Attr)
	case *nfs3.LinkRes:
		attr(&r.Attr)
	case *nfs3.ReaddirRes:
		for i := range r.Entries {
			id(&r.Entries[i].FileID)
		}
	case *nfs3.ReaddirplusRes:
		sc.pageFromServerLocked(r)
	}
}

// pageFromServerLocked is fromServer for a listing page, wherever it came
// from: a READDIRPLUS, a walk, a LOOKUP that carried it, a MOUNT's bundle.
func (sc *sessionCache) pageFromServerLocked(r *nfs3.ReaddirplusRes) {
	if len(sc.mints.byR) == 0 {
		return
	}
	for i := range r.Entries {
		ent := &r.Entries[i]
		if m := sc.mints.byID[ent.FileID]; m != nil {
			ent.FileID = m.fileid
		}
		if ent.Attr.Present {
			if m := sc.mints.byID[ent.Attr.Attr.FileID]; m != nil {
				ent.Attr.Attr.FileID = m.fileid
			}
		}
		if m := sc.mints.byR[ent.FH.Key()]; ent.FHFollows && m != nil {
			ent.FH = m.p
		}
	}
}

// mintNonce is what a proxy client's minted handles are told apart by from
// an earlier incarnation's: its session and the time it started.
func mintNonce(id string, now time.Duration) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(now))
	h.Write(b[:])
	return h.Sum64()
}
