// Package nfs3 defines the NFS version 3 protocol (RFC 1813) subset spoken
// by every component in this repository: the in-memory NFS server, the
// emulated kernel NFS client, and the GVFS proxies that interpose between
// them. Wire encoding follows the RFC's XDR definitions so the same messages
// could interoperate with a real NFSv3 peer at the RPC level.
package nfs3

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/xdr"
)

// Program identification.
const (
	Program = 100003
	Version = 3
)

// Procedure numbers (RFC 1813 section 3).
const (
	ProcNull        = 0
	ProcGetattr     = 1
	ProcSetattr     = 2
	ProcLookup      = 3
	ProcAccess      = 4
	ProcReadlink    = 5
	ProcRead        = 6
	ProcWrite       = 7
	ProcCreate      = 8
	ProcMkdir       = 9
	ProcSymlink     = 10
	ProcMknod       = 11
	ProcRemove      = 12
	ProcRmdir       = 13
	ProcRename      = 14
	ProcLink        = 15
	ProcReaddir     = 16
	ProcReaddirplus = 17
	ProcFsstat      = 18
	ProcFsinfo      = 19
	ProcPathconf    = 20
	ProcCommit      = 21
)

// ReadOnlyProcs lists the procedures that change nothing at whoever executes
// them, so that executing a retransmitted duplicate again is as good as
// replaying the first reply. Servers of this program declare them to the RPC
// layer (sunrpc.Server.SetReadOnly), whose duplicate-request cache then keeps
// no copy of their replies — READ's above all.
func ReadOnlyProcs() []uint32 {
	return []uint32{
		ProcNull, ProcGetattr, ProcLookup, ProcAccess, ProcReadlink, ProcRead,
		ProcReaddir, ProcReaddirplus, ProcFsstat, ProcFsinfo, ProcPathconf,
	}
}

// ProcName returns the conventional name of an NFSv3 procedure, for
// reporting RPC counts the way the paper's figures do.
func ProcName(proc uint32) string {
	names := [...]string{
		"NULL", "GETATTR", "SETATTR", "LOOKUP", "ACCESS", "READLINK",
		"READ", "WRITE", "CREATE", "MKDIR", "SYMLINK", "MKNOD",
		"REMOVE", "RMDIR", "RENAME", "LINK", "READDIR", "READDIRPLUS",
		"FSSTAT", "FSINFO", "PATHCONF", "COMMIT",
	}
	if int(proc) < len(names) {
		return names[proc]
	}
	return fmt.Sprintf("PROC%d", proc)
}

// Status is an nfsstat3 result code.
type Status uint32

// NFSv3 status codes (RFC 1813 section 2.6).
const (
	OK          Status = 0
	ErrPerm     Status = 1
	ErrNoEnt    Status = 2
	ErrIO       Status = 5
	ErrAcces    Status = 13
	ErrExist    Status = 17
	ErrXDev     Status = 18
	ErrNoDev    Status = 19
	ErrNotDir   Status = 20
	ErrIsDir    Status = 21
	ErrInval    Status = 22
	ErrFBig     Status = 27
	ErrNoSpc    Status = 28
	ErrROFS     Status = 30
	ErrMLink    Status = 31
	ErrNameLong Status = 63
	ErrNotEmpty Status = 66
	ErrDQuot    Status = 69
	ErrStale    Status = 70
	ErrRemote   Status = 71
	ErrBadHandl Status = 10001
	ErrNotSync  Status = 10002
	ErrBadCooki Status = 10003
	ErrNotSupp  Status = 10004
	ErrTooSmall Status = 10005
	ErrServerFa Status = 10006
	ErrBadType  Status = 10007
	ErrJukebox  Status = 10008
)

func (s Status) String() string {
	switch s {
	case OK:
		return "NFS3_OK"
	case ErrNoEnt:
		return "NFS3ERR_NOENT"
	case ErrExist:
		return "NFS3ERR_EXIST"
	case ErrNotDir:
		return "NFS3ERR_NOTDIR"
	case ErrIsDir:
		return "NFS3ERR_ISDIR"
	case ErrNotEmpty:
		return "NFS3ERR_NOTEMPTY"
	case ErrStale:
		return "NFS3ERR_STALE"
	case ErrInval:
		return "NFS3ERR_INVAL"
	case ErrNameLong:
		return "NFS3ERR_NAMETOOLONG"
	case ErrJukebox:
		return "NFS3ERR_JUKEBOX"
	default:
		return fmt.Sprintf("NFS3ERR(%d)", uint32(s))
	}
}

// Error wraps a non-OK Status as a Go error.
type Error struct {
	Status Status
	Proc   uint32
}

func (e *Error) Error() string {
	return fmt.Sprintf("nfs3: %s: %s", ProcName(e.Proc), e.Status)
}

// IsStatus reports whether err is an *Error carrying st.
func IsStatus(err error, st Status) bool {
	var ne *Error
	return AsError(err, &ne) && ne.Status == st
}

// AsError is errors.As specialized for *Error (avoids the import in hot
// paths).
func AsError(err error, target **Error) bool {
	for err != nil {
		if ne, ok := err.(*Error); ok {
			*target = ne
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// FHSize is the fixed size of file handles minted by this implementation:
// an 8-byte server generation plus an 8-byte file ID. RFC 1813 allows up to
// 64 bytes.
const FHSize = 16

// MaxFHSize bounds handles accepted on the wire.
const MaxFHSize = 64

// FH is an NFSv3 file handle: opaque to clients, minted by the server.
type FH struct {
	b [FHSize]byte
	n int
	// key is the handle bytes as a string, materialized once at construction
	// so Key() — called on every cache-map access along the block hot path —
	// never allocates. It is fully determined by (b, n), so == comparison
	// semantics are unchanged and the zero FH's empty key stays consistent.
	key string
}

// MakeFH builds a handle from a server generation and file ID.
func MakeFH(generation, fileID uint64) FH {
	var fh FH
	binary.BigEndian.PutUint64(fh.b[0:8], generation)
	binary.BigEndian.PutUint64(fh.b[8:16], fileID)
	fh.n = FHSize
	fh.key = string(fh.b[:fh.n])
	return fh
}

// FHFromBytes wraps raw handle bytes (up to MaxFHSize, truncated to the
// implementation size if minted here).
func FHFromBytes(b []byte) (FH, error) {
	var fh FH
	if len(b) > FHSize {
		return fh, fmt.Errorf("nfs3: handle of %d bytes unsupported", len(b))
	}
	copy(fh.b[:], b)
	fh.n = len(b)
	fh.key = string(fh.b[:fh.n])
	return fh, nil
}

// Split returns the generation and file ID of a handle minted by MakeFH.
func (fh FH) Split() (generation, fileID uint64) {
	return binary.BigEndian.Uint64(fh.b[0:8]), binary.BigEndian.Uint64(fh.b[8:16])
}

// Bytes returns the handle's wire bytes.
func (fh FH) Bytes() []byte { return fh.b[:fh.n] }

// IsZero reports whether the handle is empty.
func (fh FH) IsZero() bool { return fh.n == 0 }

// Equal compares handles.
func (fh FH) Equal(other FH) bool {
	return fh.n == other.n && bytes.Equal(fh.b[:fh.n], other.b[:other.n])
}

// String renders a short hex form for logs. Not through fmt: handing it the
// handle's bytes would move the receiver to the heap wherever String is
// inlined, on every call, whether or not the string is ever made.
func (fh FH) String() string { return "fh:" + hex.EncodeToString(fh.b[:fh.n]) }

// Key returns the handle as a map key without allocating (the string is
// materialized once when the handle is constructed).
func (fh FH) Key() string { return fh.key }

func encodeFH(e *xdr.Encoder, fh FH) { e.Opaque(fh.Bytes()) }

func decodeFH(d *xdr.Decoder) (FH, error) {
	// OpaqueRef is safe here: FHFromBytes copies into the FH's fixed array
	// before the frame can be recycled, so no alias escapes.
	b, err := d.OpaqueRef(MaxFHSize)
	if err != nil {
		return FH{}, err
	}
	return FHFromBytes(b)
}

// FType is an NFSv3 file type (ftype3).
type FType uint32

// File types.
const (
	TypeReg  FType = 1
	TypeDir  FType = 2
	TypeBlk  FType = 3
	TypeChr  FType = 4
	TypeLnk  FType = 5
	TypeSock FType = 6
	TypeFifo FType = 7
)

// Time is an nfstime3.
type Time struct {
	Sec  uint32
	Nsec uint32
}

// TimeFromDuration converts a clock reading into nfstime3.
func TimeFromDuration(d time.Duration) Time {
	return Time{Sec: uint32(d / time.Second), Nsec: uint32(d % time.Second)}
}

// Duration converts back to a duration since the clock origin.
func (t Time) Duration() time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Nsec)
}

// Less orders times.
func (t Time) Less(o Time) bool {
	if t.Sec != o.Sec {
		return t.Sec < o.Sec
	}
	return t.Nsec < o.Nsec
}

func (t Time) encode(e *xdr.Encoder) {
	e.Uint32(t.Sec)
	e.Uint32(t.Nsec)
}

func decodeTime(d *xdr.Decoder) (Time, error) {
	sec, err := d.Uint32()
	if err != nil {
		return Time{}, err
	}
	nsec, err := d.Uint32()
	if err != nil {
		return Time{}, err
	}
	return Time{Sec: sec, Nsec: nsec}, nil
}

// Fattr is fattr3: the full attribute set returned by the server.
type Fattr struct {
	Type   FType
	Mode   uint32
	Nlink  uint32
	UID    uint32
	GID    uint32
	Size   uint64
	Used   uint64
	Rdev   [2]uint32
	FSID   uint64
	FileID uint64
	Atime  Time
	Mtime  Time
	Ctime  Time
}

// Encode writes the fattr3 wire form.
func (a *Fattr) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(a.Type))
	e.Uint32(a.Mode)
	e.Uint32(a.Nlink)
	e.Uint32(a.UID)
	e.Uint32(a.GID)
	e.Uint64(a.Size)
	e.Uint64(a.Used)
	e.Uint32(a.Rdev[0])
	e.Uint32(a.Rdev[1])
	e.Uint64(a.FSID)
	e.Uint64(a.FileID)
	a.Atime.encode(e)
	a.Mtime.encode(e)
	a.Ctime.encode(e)
}

// Decode reads the fattr3 wire form.
func (a *Fattr) Decode(d *xdr.Decoder) error {
	typ, err := d.Uint32()
	if err != nil {
		return err
	}
	a.Type = FType(typ)
	if a.Mode, err = d.Uint32(); err != nil {
		return err
	}
	if a.Nlink, err = d.Uint32(); err != nil {
		return err
	}
	if a.UID, err = d.Uint32(); err != nil {
		return err
	}
	if a.GID, err = d.Uint32(); err != nil {
		return err
	}
	if a.Size, err = d.Uint64(); err != nil {
		return err
	}
	if a.Used, err = d.Uint64(); err != nil {
		return err
	}
	if a.Rdev[0], err = d.Uint32(); err != nil {
		return err
	}
	if a.Rdev[1], err = d.Uint32(); err != nil {
		return err
	}
	if a.FSID, err = d.Uint64(); err != nil {
		return err
	}
	if a.FileID, err = d.Uint64(); err != nil {
		return err
	}
	if a.Atime, err = decodeTime(d); err != nil {
		return err
	}
	if a.Mtime, err = decodeTime(d); err != nil {
		return err
	}
	if a.Ctime, err = decodeTime(d); err != nil {
		return err
	}
	return nil
}

// Same reports whether two attribute snapshots indicate unchanged file
// content, the test NFS clients use for revalidation (mtime + size, plus the
// ctime that changes with metadata).
func (a *Fattr) Same(b *Fattr) bool {
	return a.Mtime == b.Mtime && a.Size == b.Size && a.Ctime == b.Ctime
}

// PostOpAttr is post_op_attr: optional attributes.
type PostOpAttr struct {
	Present bool
	Attr    Fattr
}

// Encode writes the post_op_attr wire form.
func (p *PostOpAttr) Encode(e *xdr.Encoder) {
	e.Bool(p.Present)
	if p.Present {
		p.Attr.Encode(e)
	}
}

// Decode reads the post_op_attr wire form.
func (p *PostOpAttr) Decode(d *xdr.Decoder) error {
	present, err := d.Bool()
	if err != nil {
		return err
	}
	p.Present = present
	if present {
		return p.Attr.Decode(d)
	}
	return nil
}

// WccAttr is wcc_attr: the pre-operation attribute subset.
type WccAttr struct {
	Size  uint64
	Mtime Time
	Ctime Time
}

// PreOpAttr is pre_op_attr.
type PreOpAttr struct {
	Present bool
	Attr    WccAttr
}

// Encode writes the pre_op_attr wire form.
func (p *PreOpAttr) Encode(e *xdr.Encoder) {
	e.Bool(p.Present)
	if p.Present {
		e.Uint64(p.Attr.Size)
		p.Attr.Mtime.encode(e)
		p.Attr.Ctime.encode(e)
	}
}

// Decode reads the pre_op_attr wire form.
func (p *PreOpAttr) Decode(d *xdr.Decoder) error {
	present, err := d.Bool()
	if err != nil {
		return err
	}
	p.Present = present
	if !present {
		return nil
	}
	if p.Attr.Size, err = d.Uint64(); err != nil {
		return err
	}
	if p.Attr.Mtime, err = decodeTime(d); err != nil {
		return err
	}
	p.Attr.Ctime, err = decodeTime(d)
	return err
}

// WccData is wcc_data: weak cache consistency information.
type WccData struct {
	Before PreOpAttr
	After  PostOpAttr
}

// Encode writes the wcc_data wire form.
func (w *WccData) Encode(e *xdr.Encoder) {
	w.Before.Encode(e)
	w.After.Encode(e)
}

// Decode reads the wcc_data wire form.
func (w *WccData) Decode(d *xdr.Decoder) error {
	if err := w.Before.Decode(d); err != nil {
		return err
	}
	return w.After.Decode(d)
}

// Sattr is sattr3: settable attributes.
type Sattr struct {
	Mode  *uint32
	UID   *uint32
	GID   *uint32
	Size  *uint64
	Mtime *Time
	// SetAtimeToServer/SetMtimeToServer model SET_TO_SERVER_TIME.
	MtimeServer bool
}

// Encode writes the sattr3 wire form.
func (s *Sattr) Encode(e *xdr.Encoder) {
	encodeOpt32 := func(v *uint32) {
		if v != nil {
			e.Bool(true)
			e.Uint32(*v)
		} else {
			e.Bool(false)
		}
	}
	encodeOpt32(s.Mode)
	encodeOpt32(s.UID)
	encodeOpt32(s.GID)
	if s.Size != nil {
		e.Bool(true)
		e.Uint64(*s.Size)
	} else {
		e.Bool(false)
	}
	// atime: DONT_CHANGE
	e.Uint32(0)
	// mtime: DONT_CHANGE(0) / SET_TO_SERVER_TIME(1) / SET_TO_CLIENT_TIME(2)
	switch {
	case s.Mtime != nil:
		e.Uint32(2)
		s.Mtime.encode(e)
	case s.MtimeServer:
		e.Uint32(1)
	default:
		e.Uint32(0)
	}
}

// Decode reads the sattr3 wire form.
func (s *Sattr) Decode(d *xdr.Decoder) error {
	decodeOpt32 := func() (*uint32, error) {
		ok, err := d.Bool()
		if err != nil || !ok {
			return nil, err
		}
		v, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		return &v, nil
	}
	var err error
	if s.Mode, err = decodeOpt32(); err != nil {
		return err
	}
	if s.UID, err = decodeOpt32(); err != nil {
		return err
	}
	if s.GID, err = decodeOpt32(); err != nil {
		return err
	}
	ok, err := d.Bool()
	if err != nil {
		return err
	}
	if ok {
		v, err := d.Uint64()
		if err != nil {
			return err
		}
		s.Size = &v
	}
	// atime
	how, err := d.Uint32()
	if err != nil {
		return err
	}
	if how == 2 {
		if _, err := decodeTime(d); err != nil {
			return err
		}
	}
	// mtime
	if how, err = d.Uint32(); err != nil {
		return err
	}
	switch how {
	case 1:
		s.MtimeServer = true
	case 2:
		t, err := decodeTime(d)
		if err != nil {
			return err
		}
		s.Mtime = &t
	}
	return nil
}

// MOUNT v3 protocol identification (RFC 1813 appendix I). The trivial MNT
// procedure is how clients obtain an export's root file handle.
const (
	MountProgram  = 100005
	MountVersion  = 3
	MountProcNull = 0
	MountProcMnt  = 1
	MountProcUmnt = 3
)
