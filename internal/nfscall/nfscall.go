// Package nfscall provides typed client stubs for the NFSv3 and MOUNT
// procedures over a sunrpc client. The emulated kernel NFS client, the GVFS
// proxy client, and the test suites all issue their wire calls through this
// layer.
package nfscall

import (
	"time"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// Conn wraps an RPC client with NFSv3 procedure stubs. The returned errors
// cover transport- and RPC-layer failures only; NFS-level status codes are
// carried in each result struct.
type Conn struct {
	rpc *sunrpc.Client
	// Timeout bounds each call; zero waits forever.
	Timeout time.Duration
}

// New wraps rpc.
func New(rpc *sunrpc.Client) *Conn { return &Conn{rpc: rpc} }

// RPC exposes the underlying client (for counters and credential changes).
func (c *Conn) RPC() *sunrpc.Client { return c.rpc }

// Close closes the underlying RPC client.
func (c *Conn) Close() error { return c.rpc.Close() }

func (c *Conn) call(proc uint32, args interface{ Encode(*xdr.Encoder) }, res interface{ Decode(*xdr.Decoder) error }) error {
	// Pooled: CallTimeout copies the argument bytes into the outgoing frame
	// before it returns, so the encoder can be recycled immediately after.
	e := bufpool.GetEncoder()
	if args != nil {
		args.Encode(e)
	}
	d, err := c.rpc.CallTimeout(nfs3.Program, nfs3.Version, proc, e.Bytes(), c.Timeout)
	bufpool.PutEncoder(e)
	if err != nil {
		return err
	}
	return res.Decode(d)
}

// Mount retrieves the root file handle of the server's export.
func (c *Conn) Mount(path string) (nfs3.FH, error) {
	e := xdr.NewEncoder()
	e.String(path)
	d, err := c.rpc.CallTimeout(nfs3.MountProgram, nfs3.MountVersion, nfs3.MountProcMnt, e.Bytes(), c.Timeout)
	if err != nil {
		return nfs3.FH{}, err
	}
	if st, err := d.Uint32(); err != nil || st != 0 {
		return nfs3.FH{}, &nfs3.Error{Status: nfs3.Status(st), Proc: nfs3.MountProcMnt}
	}
	b, err := d.Opaque(nfs3.MaxFHSize)
	if err != nil {
		return nfs3.FH{}, err
	}
	return nfs3.FHFromBytes(b)
}

// Getattr fetches attributes.
func (c *Conn) Getattr(fh nfs3.FH) (nfs3.GetattrRes, error) {
	var res nfs3.GetattrRes
	err := c.call(nfs3.ProcGetattr, &nfs3.GetattrArgs{FH: fh}, &res)
	return res, err
}

// Setattr updates attributes.
func (c *Conn) Setattr(fh nfs3.FH, attr nfs3.Sattr) (nfs3.WccRes, error) {
	var res nfs3.WccRes
	err := c.call(nfs3.ProcSetattr, &nfs3.SetattrArgs{FH: fh, Attr: attr}, &res)
	return res, err
}

// Lookup resolves name in dir.
func (c *Conn) Lookup(dir nfs3.FH, name string) (nfs3.LookupRes, error) {
	var res nfs3.LookupRes
	err := c.call(nfs3.ProcLookup, &nfs3.DirOpArgs{Dir: dir, Name: name}, &res)
	return res, err
}

// Access checks permissions.
func (c *Conn) Access(fh nfs3.FH, mask uint32) (nfs3.AccessRes, error) {
	var res nfs3.AccessRes
	err := c.call(nfs3.ProcAccess, &nfs3.AccessArgs{FH: fh, Access: mask}, &res)
	return res, err
}

// Readlink reads a symlink target.
func (c *Conn) Readlink(fh nfs3.FH) (nfs3.ReadlinkRes, error) {
	var res nfs3.ReadlinkRes
	err := c.call(nfs3.ProcReadlink, &nfs3.GetattrArgs{FH: fh}, &res)
	return res, err
}

// Read reads count bytes at offset.
func (c *Conn) Read(fh nfs3.FH, offset uint64, count uint32) (nfs3.ReadRes, error) {
	var res nfs3.ReadRes
	err := c.call(nfs3.ProcRead, &nfs3.ReadArgs{FH: fh, Offset: offset, Count: count}, &res)
	return res, err
}

// Write writes data at offset with the given stability.
func (c *Conn) Write(fh nfs3.FH, offset uint64, data []byte, stable uint32) (nfs3.WriteRes, error) {
	var res nfs3.WriteRes
	err := c.call(nfs3.ProcWrite, &nfs3.WriteArgs{
		FH: fh, Offset: offset, Count: uint32(len(data)), Stable: stable, Data: data,
	}, &res)
	return res, err
}

// Create makes a regular file.
func (c *Conn) Create(dir nfs3.FH, name string, mode uint32, how uint32) (nfs3.CreateRes, error) {
	return c.CreateAs(dir, name, mode, how, 0, 0)
}

// CreateAs makes a regular file owned by (uid, gid).
func (c *Conn) CreateAs(dir nfs3.FH, name string, mode uint32, how uint32, uid, gid uint32) (nfs3.CreateRes, error) {
	var res nfs3.CreateRes
	attr := nfs3.Sattr{Mode: &mode}
	if uid != 0 || gid != 0 {
		attr.UID = &uid
		attr.GID = &gid
	}
	err := c.call(nfs3.ProcCreate, &nfs3.CreateArgs{
		Where: nfs3.DirOpArgs{Dir: dir, Name: name},
		Mode:  how,
		Attr:  attr,
	}, &res)
	return res, err
}

// Mkdir makes a directory.
func (c *Conn) Mkdir(dir nfs3.FH, name string, mode uint32) (nfs3.CreateRes, error) {
	var res nfs3.CreateRes
	err := c.call(nfs3.ProcMkdir, &nfs3.MkdirArgs{
		Where: nfs3.DirOpArgs{Dir: dir, Name: name},
		Attr:  nfs3.Sattr{Mode: &mode},
	}, &res)
	return res, err
}

// Symlink makes a symbolic link.
func (c *Conn) Symlink(dir nfs3.FH, name, target string) (nfs3.CreateRes, error) {
	var res nfs3.CreateRes
	err := c.call(nfs3.ProcSymlink, &nfs3.SymlinkArgs{
		Where: nfs3.DirOpArgs{Dir: dir, Name: name},
		Path:  target,
	}, &res)
	return res, err
}

// Remove unlinks a file.
func (c *Conn) Remove(dir nfs3.FH, name string) (nfs3.WccRes, error) {
	var res nfs3.WccRes
	err := c.call(nfs3.ProcRemove, &nfs3.DirOpArgs{Dir: dir, Name: name}, &res)
	return res, err
}

// Rmdir removes a directory.
func (c *Conn) Rmdir(dir nfs3.FH, name string) (nfs3.WccRes, error) {
	var res nfs3.WccRes
	err := c.call(nfs3.ProcRmdir, &nfs3.DirOpArgs{Dir: dir, Name: name}, &res)
	return res, err
}

// Rename moves a directory entry.
func (c *Conn) Rename(fromDir nfs3.FH, fromName string, toDir nfs3.FH, toName string) (nfs3.RenameRes, error) {
	var res nfs3.RenameRes
	err := c.call(nfs3.ProcRename, &nfs3.RenameArgs{
		From: nfs3.DirOpArgs{Dir: fromDir, Name: fromName},
		To:   nfs3.DirOpArgs{Dir: toDir, Name: toName},
	}, &res)
	return res, err
}

// Link creates a hard link.
func (c *Conn) Link(fh nfs3.FH, dir nfs3.FH, name string) (nfs3.LinkRes, error) {
	var res nfs3.LinkRes
	err := c.call(nfs3.ProcLink, &nfs3.LinkArgs{FH: fh, Link: nfs3.DirOpArgs{Dir: dir, Name: name}}, &res)
	return res, err
}

// Readdir lists directory entries from cookie.
func (c *Conn) Readdir(dir nfs3.FH, cookie, cookieVerf uint64, count uint32) (nfs3.ReaddirRes, error) {
	var res nfs3.ReaddirRes
	err := c.call(nfs3.ProcReaddir, &nfs3.ReaddirArgs{Dir: dir, Cookie: cookie, CookieVerf: cookieVerf, Count: count}, &res)
	return res, err
}

// Readdirplus lists entries with attributes and handles.
func (c *Conn) Readdirplus(dir nfs3.FH, cookie, cookieVerf uint64, dirCount, maxCount uint32) (nfs3.ReaddirplusRes, error) {
	var res nfs3.ReaddirplusRes
	err := c.call(nfs3.ProcReaddirplus, &nfs3.ReaddirplusArgs{
		Dir: dir, Cookie: cookie, CookieVerf: cookieVerf, DirCount: dirCount, MaxCount: maxCount,
	}, &res)
	return res, err
}

// Fsstat reports filesystem usage.
func (c *Conn) Fsstat(fh nfs3.FH) (nfs3.FsstatRes, error) {
	var res nfs3.FsstatRes
	err := c.call(nfs3.ProcFsstat, &nfs3.GetattrArgs{FH: fh}, &res)
	return res, err
}

// Fsinfo reports static filesystem parameters.
func (c *Conn) Fsinfo(fh nfs3.FH) (nfs3.FsinfoRes, error) {
	var res nfs3.FsinfoRes
	err := c.call(nfs3.ProcFsinfo, &nfs3.GetattrArgs{FH: fh}, &res)
	return res, err
}

// Commit flushes unstable writes.
func (c *Conn) Commit(fh nfs3.FH, offset uint64, count uint32) (nfs3.CommitRes, error) {
	var res nfs3.CommitRes
	err := c.call(nfs3.ProcCommit, &nfs3.CommitArgs{FH: fh, Offset: offset, Count: count}, &res)
	return res, err
}
