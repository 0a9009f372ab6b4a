// Package nfsserver exports a memfs filesystem over NFSv3 via sunrpc: the
// stand-in for the kernel NFS server in the paper's testbed. It also
// implements the trivial subset of the MOUNT v3 protocol clients use to
// obtain the export's root file handle.
package nfsserver

import (
	"errors"

	"repro/internal/bufpool"
	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// Server translates NFSv3 RPCs into memfs operations.
type Server struct {
	fs *memfs.FS
	// generation distinguishes handle spaces across server incarnations.
	generation uint64
	// verf is the write verifier returned by WRITE/COMMIT; it changes when a
	// server instance restarts, telling clients to resend uncommitted data.
	verf uint64
}

// New wraps fs for export. generation becomes part of every file handle.
func New(fs *memfs.FS, generation uint64) *Server {
	return &Server{fs: fs, generation: generation, verf: generation}
}

// RootFH returns the export's root file handle.
func (s *Server) RootFH() nfs3.FH {
	return nfs3.MakeFH(s.generation, uint64(s.fs.Root()))
}

// Register installs the NFS and MOUNT programs on rpc.
func (s *Server) Register(rpc *sunrpc.Server) {
	rpc.Register(nfs3.Program, nfs3.Version, s.dispatch)
	rpc.SetReadOnly(nfs3.Program, nfs3.Version, nfs3.ReadOnlyProcs()...)
	rpc.Register(nfs3.MountProgram, nfs3.MountVersion, s.dispatchMount)
}

func (s *Server) dispatchMount(call *sunrpc.Call) sunrpc.AcceptStat {
	switch call.Proc {
	case nfs3.MountProcNull:
		return sunrpc.Success
	case nfs3.MountProcMnt:
		if _, err := call.Args.String(nfs3.MaxPathLen); err != nil {
			return sunrpc.GarbageArgs
		}
		call.Reply.Uint32(0) // MNT3_OK
		call.Reply.Opaque(s.RootFH().Bytes())
		call.Reply.Uint32(1) // one auth flavor
		call.Reply.Uint32(sunrpc.AuthSys)
		return sunrpc.Success
	case nfs3.MountProcUmnt:
		return sunrpc.Success
	default:
		return sunrpc.ProcUnavail
	}
}

func (s *Server) dispatch(call *sunrpc.Call) sunrpc.AcceptStat {
	switch call.Proc {
	case nfs3.ProcNull:
		return sunrpc.Success
	case nfs3.ProcGetattr:
		return s.getattr(call)
	case nfs3.ProcSetattr:
		return s.setattr(call)
	case nfs3.ProcLookup:
		return s.lookup(call)
	case nfs3.ProcAccess:
		return s.access(call)
	case nfs3.ProcReadlink:
		return s.readlink(call)
	case nfs3.ProcRead:
		return s.read(call)
	case nfs3.ProcWrite:
		return s.write(call)
	case nfs3.ProcCreate:
		return s.create(call)
	case nfs3.ProcMkdir:
		return s.mkdir(call)
	case nfs3.ProcSymlink:
		return s.symlink(call)
	case nfs3.ProcRemove:
		return s.remove(call)
	case nfs3.ProcRmdir:
		return s.rmdir(call)
	case nfs3.ProcRename:
		return s.rename(call)
	case nfs3.ProcLink:
		return s.link(call)
	case nfs3.ProcReaddir:
		return s.readdir(call)
	case nfs3.ProcReaddirplus:
		return s.readdirplus(call)
	case nfs3.ProcFsstat:
		return s.fsstat(call)
	case nfs3.ProcFsinfo:
		return s.fsinfo(call)
	case nfs3.ProcCommit:
		return s.commit(call)
	default:
		return sunrpc.ProcUnavail
	}
}

// mapErr converts memfs errors to NFSv3 status codes.
func mapErr(err error) nfs3.Status {
	switch {
	case err == nil:
		return nfs3.OK
	case errors.Is(err, memfs.ErrNotExist):
		return nfs3.ErrNoEnt
	case errors.Is(err, memfs.ErrExist):
		return nfs3.ErrExist
	case errors.Is(err, memfs.ErrNotDir):
		return nfs3.ErrNotDir
	case errors.Is(err, memfs.ErrIsDir):
		return nfs3.ErrIsDir
	case errors.Is(err, memfs.ErrNotEmpty):
		return nfs3.ErrNotEmpty
	case errors.Is(err, memfs.ErrStale):
		return nfs3.ErrStale
	case errors.Is(err, memfs.ErrNameTooLong):
		return nfs3.ErrNameLong
	case errors.Is(err, memfs.ErrInvalid):
		return nfs3.ErrInval
	default:
		return nfs3.ErrIO
	}
}

func attrFromFS(a memfs.Attr) nfs3.Fattr {
	var typ nfs3.FType
	switch a.Type {
	case memfs.TypeFile:
		typ = nfs3.TypeReg
	case memfs.TypeDir:
		typ = nfs3.TypeDir
	case memfs.TypeSymlink:
		typ = nfs3.TypeLnk
	}
	return nfs3.Fattr{
		Type:   typ,
		Mode:   a.Mode,
		Nlink:  a.Nlink,
		UID:    a.UID,
		GID:    a.GID,
		Size:   a.Size,
		Used:   a.Size,
		FSID:   1,
		FileID: uint64(a.ID),
		Atime:  nfs3.TimeFromDuration(a.Atime),
		// Mtime carries the change counter in the nanoseconds field so
		// clients relying on mtime comparison observe every modification,
		// even several within one virtual-time instant.
		Mtime: changeTime(a),
		Ctime: nfs3.TimeFromDuration(a.Ctime),
	}
}

// changeTime folds the inode change counter into an nfstime3 so that any
// modification yields a distinct, monotonically increasing mtime, as coarse
// real-world timestamp granularity is the enemy of NFS cache consistency.
func changeTime(a memfs.Attr) nfs3.Time {
	return nfs3.Time{Sec: uint32(a.Change >> 16), Nsec: uint32(a.Change & 0xFFFF)}
}

func (s *Server) postOp(id memfs.ID) nfs3.PostOpAttr {
	a, err := s.fs.Stat(id)
	if err != nil {
		return nfs3.PostOpAttr{}
	}
	return nfs3.PostOpAttr{Present: true, Attr: attrFromFS(a)}
}

func (s *Server) preOp(id memfs.ID) nfs3.PreOpAttr {
	a, err := s.fs.Stat(id)
	if err != nil {
		return nfs3.PreOpAttr{}
	}
	fa := attrFromFS(a)
	return nfs3.PreOpAttr{Present: true, Attr: nfs3.WccAttr{Size: fa.Size, Mtime: fa.Mtime, Ctime: fa.Ctime}}
}

// resolve validates a handle and returns the memfs ID.
func (s *Server) resolve(fh nfs3.FH) (memfs.ID, nfs3.Status) {
	gen, id := fh.Split()
	if fh.IsZero() || gen != s.generation {
		return 0, nfs3.ErrStale
	}
	return memfs.ID(id), nfs3.OK
}

func (s *Server) fh(id memfs.ID) nfs3.FH {
	return nfs3.MakeFH(s.generation, uint64(id))
}

func reply(call *sunrpc.Call, res interface{ Encode(*xdr.Encoder) }) sunrpc.AcceptStat {
	res.Encode(call.Reply)
	return sunrpc.Success
}

func (s *Server) getattr(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.GetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.GetattrRes
	id, st := s.resolve(args.FH)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	a, err := s.fs.Stat(id)
	if err != nil {
		res.Status = mapErr(err)
		return reply(call, &res)
	}
	res.Status = nfs3.OK
	res.Attr = attrFromFS(a)
	return reply(call, &res)
}

func (s *Server) setattr(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.SetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.WccRes
	id, st := s.resolve(args.FH)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	res.Wcc.Before = s.preOp(id)
	sa := memfs.SetAttr{Mode: args.Attr.Mode, UID: args.Attr.UID, GID: args.Attr.GID, Size: args.Attr.Size}
	if args.Attr.Mtime != nil {
		d := args.Attr.Mtime.Duration()
		sa.Mtime = &d
	}
	_, err := s.fs.Apply(id, sa)
	res.Status = mapErr(err)
	res.Wcc.After = s.postOp(id)
	return reply(call, &res)
}

func (s *Server) lookup(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.DirOpArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.LookupRes
	dirID, st := s.resolve(args.Dir)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	attr, err := s.fs.Lookup(dirID, args.Name)
	if err != nil {
		res.Status = mapErr(err)
		res.DirAttr = s.postOp(dirID)
		return reply(call, &res)
	}
	res.Status = nfs3.OK
	res.FH = s.fh(attr.ID)
	res.Attr = nfs3.PostOpAttr{Present: true, Attr: attrFromFS(attr)}
	res.DirAttr = s.postOp(dirID)
	return reply(call, &res)
}

func (s *Server) access(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.AccessArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.AccessRes
	id, st := s.resolve(args.FH)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	res.Status = nfs3.OK
	res.Attr = s.postOp(id)
	res.Access = args.Access
	if uid, gid, ok := call.Cred.SysIdentity(); ok && res.Attr.Present {
		// AUTH_SYS callers get mode-bit evaluation. Other flavors — the
		// GVFS session credential in particular — arrive over a channel the
		// middleware already authenticated, and the export carries no ACLs
		// beyond the mode bits, so they keep the open-export answer.
		res.Access = nfs3.AccessForAttr(res.Attr.Attr, uid, gid, args.Access)
	}
	return reply(call, &res)
}

func (s *Server) readlink(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.GetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.ReadlinkRes
	id, st := s.resolve(args.FH)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	target, err := s.fs.Readlink(id)
	if err != nil {
		res.Status = mapErr(err)
		res.Attr = s.postOp(id)
		return reply(call, &res)
	}
	res.Status = nfs3.OK
	res.Attr = s.postOp(id)
	res.Path = target
	return reply(call, &res)
}

func (s *Server) read(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReadArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.ReadRes
	id, st := s.resolve(args.FH)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	// Decode already clamps Count to MaxIOSize, but never size an allocation
	// from the wire without a local bound: a forged count must degrade to a
	// short read, not a make([]byte, 4GiB).
	count := args.Count
	if count > nfs3.MaxIOSize {
		count = nfs3.MaxIOSize
	}
	buf := bufpool.Get(int(count))
	defer bufpool.Put(buf)
	n, eof, err := s.fs.ReadAt(id, buf, args.Offset)
	if err != nil {
		res.Status = mapErr(err)
		res.Attr = s.postOp(id)
		return reply(call, &res)
	}
	res.Status = nfs3.OK
	res.Attr = s.postOp(id)
	res.Count = uint32(n)
	res.EOF = eof
	res.Data = buf[:n]
	return reply(call, &res)
}

func (s *Server) write(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.WriteArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.WriteRes
	id, st := s.resolve(args.FH)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	res.Wcc.Before = s.preOp(id)
	data := args.Data
	if uint32(len(data)) > args.Count {
		data = data[:args.Count]
	}
	_, err := s.fs.WriteAt(id, data, args.Offset)
	res.Status = mapErr(err)
	res.Wcc.After = s.postOp(id)
	if err == nil {
		res.Count = uint32(len(data))
		// The export uses synchronous access (Section 5): every write is
		// durable before the reply.
		res.Committed = nfs3.FileSync
		res.Verf = s.verf
	}
	return reply(call, &res)
}

func (s *Server) create(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.CreateArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.CreateRes
	dirID, st := s.resolve(args.Where.Dir)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	res.DirWcc.Before = s.preOp(dirID)
	mode := uint32(0o644)
	if args.Attr.Mode != nil {
		mode = *args.Attr.Mode
	}
	var attr memfs.Attr
	var err error
	if args.Mode == nfs3.CreateExclusive {
		// The verifier is kept with the file: the same create sent again
		// finds it and succeeds (RFC 1813). Its attributes follow by SETATTR.
		attr, err = s.fs.CreateExclusive(dirID, args.Where.Name, mode, args.Verf)
	} else {
		attr, err = s.fs.Create(dirID, args.Where.Name, mode, args.Mode == nfs3.CreateGuarded)
	}
	res.Status = mapErr(err)
	if err == nil {
		if args.Attr.Size != nil || args.Attr.UID != nil || args.Attr.GID != nil {
			s.fs.Apply(attr.ID, memfs.SetAttr{Size: args.Attr.Size, UID: args.Attr.UID, GID: args.Attr.GID})
		}
		res.FHFollows = true
		res.FH = s.fh(attr.ID)
		res.Attr = s.postOp(attr.ID)
	}
	res.DirWcc.After = s.postOp(dirID)
	return reply(call, &res)
}

func (s *Server) mkdir(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.MkdirArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.CreateRes
	dirID, st := s.resolve(args.Where.Dir)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	res.DirWcc.Before = s.preOp(dirID)
	mode := uint32(0o755)
	if args.Attr.Mode != nil {
		mode = *args.Attr.Mode
	}
	attr, err := s.fs.Mkdir(dirID, args.Where.Name, mode)
	res.Status = mapErr(err)
	if err == nil {
		res.FHFollows = true
		res.FH = s.fh(attr.ID)
		res.Attr = s.postOp(attr.ID)
	}
	res.DirWcc.After = s.postOp(dirID)
	return reply(call, &res)
}

func (s *Server) symlink(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.SymlinkArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.CreateRes
	dirID, st := s.resolve(args.Where.Dir)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	res.DirWcc.Before = s.preOp(dirID)
	attr, err := s.fs.Symlink(dirID, args.Where.Name, args.Path)
	res.Status = mapErr(err)
	if err == nil {
		res.FHFollows = true
		res.FH = s.fh(attr.ID)
		res.Attr = s.postOp(attr.ID)
	}
	res.DirWcc.After = s.postOp(dirID)
	return reply(call, &res)
}

func (s *Server) remove(call *sunrpc.Call) sunrpc.AcceptStat {
	return s.unlinkCommon(call, false)
}

func (s *Server) rmdir(call *sunrpc.Call) sunrpc.AcceptStat {
	return s.unlinkCommon(call, true)
}

func (s *Server) unlinkCommon(call *sunrpc.Call, isDir bool) sunrpc.AcceptStat {
	var args nfs3.DirOpArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.WccRes
	dirID, st := s.resolve(args.Dir)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	res.Wcc.Before = s.preOp(dirID)
	var err error
	if isDir {
		err = s.fs.Rmdir(dirID, args.Name)
	} else {
		err = s.fs.Remove(dirID, args.Name)
	}
	res.Status = mapErr(err)
	res.Wcc.After = s.postOp(dirID)
	return reply(call, &res)
}

func (s *Server) rename(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.RenameArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.RenameRes
	fromID, st := s.resolve(args.From.Dir)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	toID, st := s.resolve(args.To.Dir)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	res.FromWcc.Before = s.preOp(fromID)
	res.ToWcc.Before = s.preOp(toID)
	err := s.fs.Rename(fromID, args.From.Name, toID, args.To.Name)
	res.Status = mapErr(err)
	res.FromWcc.After = s.postOp(fromID)
	res.ToWcc.After = s.postOp(toID)
	return reply(call, &res)
}

func (s *Server) link(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.LinkArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.LinkRes
	fileID, st := s.resolve(args.FH)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	dirID, st := s.resolve(args.Link.Dir)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	res.LinkWcc.Before = s.preOp(dirID)
	_, err := s.fs.Link(dirID, args.Link.Name, fileID)
	res.Status = mapErr(err)
	res.Attr = s.postOp(fileID)
	res.LinkWcc.After = s.postOp(dirID)
	return reply(call, &res)
}

func (s *Server) readdir(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReaddirArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.ReaddirRes
	dirID, st := s.resolve(args.Dir)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	ents, err := s.fs.ReadDir(dirID)
	if err != nil {
		res.Status = mapErr(err)
		return reply(call, &res)
	}
	res.Status = nfs3.OK
	res.DirAttr = s.postOp(dirID)
	res.CookieVerf = 1
	// Cookies are 1-based positions in the sorted entry list. Count bounds the
	// whole encoded result (RFC 1813): every entry is charged what it adds to
	// the wire, after the fixed part. The first entry is returned whatever it
	// costs, or a small count could never make progress.
	budget := int(args.Count) - nfs3.DirResOverhead
	for i := int(min(args.Cookie, uint64(len(ents)))); i < len(ents); i++ {
		ent := nfs3.DirEntry{FileID: uint64(ents[i].ID), Name: ents[i].Name, Cookie: uint64(i + 1)}
		if budget -= ent.WireSize(); budget < 0 && len(res.Entries) > 0 {
			return reply(call, &res)
		}
		res.Entries = append(res.Entries, ent)
	}
	res.EOF = true
	return reply(call, &res)
}

func (s *Server) readdirplus(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReaddirplusArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.ReaddirplusRes
	dirID, st := s.resolve(args.Dir)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	ents, err := s.fs.ReadDir(dirID)
	if err != nil {
		res.Status = mapErr(err)
		return reply(call, &res)
	}
	res.Status = nfs3.OK
	res.DirAttr = s.postOp(dirID)
	res.CookieVerf = 1
	// MaxCount bounds the whole encoded result, DirCount the part of it a plain
	// READDIR would have carried (file ids, names, cookies); both are charged
	// what each entry really adds, and as in readdir the first entry always
	// goes.
	budget := int(args.MaxCount) - nfs3.DirResOverhead
	dirBudget := int(args.DirCount)
	for i := int(min(args.Cookie, uint64(len(ents)))); i < len(ents); i++ {
		ent := nfs3.DirEntryPlus{
			FileID:    uint64(ents[i].ID),
			Name:      ents[i].Name,
			Cookie:    uint64(i + 1),
			Attr:      s.postOp(ents[i].ID),
			FHFollows: true,
			FH:        s.fh(ents[i].ID),
		}
		budget -= ent.WireSize()
		dirBudget -= (&nfs3.DirEntry{Name: ent.Name}).WireSize()
		if (budget < 0 || dirBudget < 0) && len(res.Entries) > 0 {
			return reply(call, &res)
		}
		res.Entries = append(res.Entries, ent)
	}
	res.EOF = true
	return reply(call, &res)
}

func (s *Server) fsstat(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.GetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.FsstatRes
	id, st := s.resolve(args.FH)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	stats := s.fs.Stats()
	res.Status = nfs3.OK
	res.Attr = s.postOp(id)
	res.TBytes = 1 << 40
	res.FBytes = 1<<40 - stats.TotalBytes
	res.ABytes = res.FBytes
	res.TFiles = 1 << 20
	res.FFiles = 1<<20 - uint64(stats.Inodes)
	res.AFiles = res.FFiles
	res.Invarsec = 0
	return reply(call, &res)
}

func (s *Server) fsinfo(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.GetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.FsinfoRes
	id, st := s.resolve(args.FH)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	res.Status = nfs3.OK
	res.Attr = s.postOp(id)
	res.RtMax = 65536
	res.RtPref = 32768
	res.WtMax = 65536
	res.WtPref = 32768
	res.DtPref = 8192
	res.MaxFileSize = 1 << 50
	res.TimeDelta = nfs3.Time{Nsec: 1}
	res.Properties = 0x1B // LINK | SYMLINK | HOMOGENEOUS | CANSETTIME
	return reply(call, &res)
}

func (s *Server) commit(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.CommitArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	var res nfs3.CommitRes
	id, st := s.resolve(args.FH)
	if st != nfs3.OK {
		res.Status = st
		return reply(call, &res)
	}
	// All writes are synchronous, so COMMIT is trivially satisfied.
	res.Status = nfs3.OK
	res.Wcc.After = s.postOp(id)
	res.Verf = s.verf
	return reply(call, &res)
}
