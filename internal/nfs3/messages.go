package nfs3

import (
	"repro/internal/xdr"
)

// Write stability levels (stable_how).
const (
	Unstable = 0
	DataSync = 1
	FileSync = 2
)

// Create modes (createmode3).
const (
	CreateUnchecked = 0
	CreateGuarded   = 1
	CreateExclusive = 2
)

// ACCESS bits.
const (
	AccessRead    = 0x01
	AccessLookup  = 0x02
	AccessModify  = 0x04
	AccessExtend  = 0x08
	AccessDelete  = 0x10
	AccessExecute = 0x20
)

// GetattrArgs is GETATTR3args.
type GetattrArgs struct {
	FH FH
}

// Encode writes the wire form.
func (a *GetattrArgs) Encode(e *xdr.Encoder) { encodeFH(e, a.FH) }

// Decode reads the wire form.
func (a *GetattrArgs) Decode(d *xdr.Decoder) error {
	var err error
	a.FH, err = decodeFH(d)
	return err
}

// GetattrRes is GETATTR3res.
type GetattrRes struct {
	Status Status
	Attr   Fattr
}

// Encode writes the wire form.
func (r *GetattrRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == OK {
		r.Attr.Encode(e)
	}
}

// Decode reads the wire form.
func (r *GetattrRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if r.Status == OK {
		return r.Attr.Decode(d)
	}
	return nil
}

// SetattrArgs is SETATTR3args (the ctime guard is carried but this
// implementation's callers do not use it).
type SetattrArgs struct {
	FH        FH
	Attr      Sattr
	Guard     bool
	GuardTime Time
}

// Encode writes the wire form.
func (a *SetattrArgs) Encode(e *xdr.Encoder) {
	encodeFH(e, a.FH)
	a.Attr.Encode(e)
	e.Bool(a.Guard)
	if a.Guard {
		a.GuardTime.encode(e)
	}
}

// Decode reads the wire form.
func (a *SetattrArgs) Decode(d *xdr.Decoder) error {
	var err error
	if a.FH, err = decodeFH(d); err != nil {
		return err
	}
	if err = a.Attr.Decode(d); err != nil {
		return err
	}
	if a.Guard, err = d.Bool(); err != nil {
		return err
	}
	if a.Guard {
		a.GuardTime, err = decodeTime(d)
	}
	return err
}

// WccRes is the common {status, wcc_data} result (SETATTR, REMOVE, RMDIR).
type WccRes struct {
	Status Status
	Wcc    WccData
}

// Encode writes the wire form.
func (r *WccRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Wcc.Encode(e)
}

// Decode reads the wire form.
func (r *WccRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	return r.Wcc.Decode(d)
}

// DirOpArgs is diropargs3: a directory handle and a name.
type DirOpArgs struct {
	Dir  FH
	Name string
}

// Encode writes the wire form.
func (a *DirOpArgs) Encode(e *xdr.Encoder) {
	encodeFH(e, a.Dir)
	e.String(a.Name)
}

// Decode reads the wire form.
func (a *DirOpArgs) Decode(d *xdr.Decoder) error {
	var err error
	if a.Dir, err = decodeFH(d); err != nil {
		return err
	}
	a.Name, err = d.String(MaxNameLen)
	return err
}

// MaxNameLen bounds path components on the wire.
const MaxNameLen = 255

// MaxPathLen bounds symlink targets on the wire.
const MaxPathLen = 1024

// MaxIOSize bounds every wire value that sizes a data allocation: READ/WRITE
// payloads, READ counts, and directory-listing byte budgets. It is well above
// the advertised rtmax/wtmax (so coalesced multi-block WRITEs fit) and well
// below the transport frame limit; a frame claiming more is either hostile or
// corrupted, and must never be trusted into make([]byte, n).
const MaxIOSize = 1 << 20

// LookupRes is LOOKUP3res.
type LookupRes struct {
	Status  Status
	FH      FH
	Attr    PostOpAttr
	DirAttr PostOpAttr
}

// Encode writes the wire form.
func (r *LookupRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == OK {
		encodeFH(e, r.FH)
		r.Attr.Encode(e)
	}
	r.DirAttr.Encode(e)
}

// Decode reads the wire form.
func (r *LookupRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if r.Status == OK {
		if r.FH, err = decodeFH(d); err != nil {
			return err
		}
		if err = r.Attr.Decode(d); err != nil {
			return err
		}
	}
	return r.DirAttr.Decode(d)
}

// AccessArgs is ACCESS3args.
type AccessArgs struct {
	FH     FH
	Access uint32
}

// Encode writes the wire form.
func (a *AccessArgs) Encode(e *xdr.Encoder) {
	encodeFH(e, a.FH)
	e.Uint32(a.Access)
}

// Decode reads the wire form.
func (a *AccessArgs) Decode(d *xdr.Decoder) error {
	var err error
	if a.FH, err = decodeFH(d); err != nil {
		return err
	}
	a.Access, err = d.Uint32()
	return err
}

// AccessRes is ACCESS3res.
type AccessRes struct {
	Status Status
	Attr   PostOpAttr
	Access uint32
}

// Encode writes the wire form.
func (r *AccessRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Attr.Encode(e)
	if r.Status == OK {
		e.Uint32(r.Access)
	}
}

// Decode reads the wire form.
func (r *AccessRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.Attr.Decode(d); err != nil {
		return err
	}
	if r.Status == OK {
		r.Access, err = d.Uint32()
	}
	return err
}

// ReadlinkRes is READLINK3res.
type ReadlinkRes struct {
	Status Status
	Attr   PostOpAttr
	Path   string
}

// Encode writes the wire form.
func (r *ReadlinkRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Attr.Encode(e)
	if r.Status == OK {
		e.String(r.Path)
	}
}

// Decode reads the wire form.
func (r *ReadlinkRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.Attr.Decode(d); err != nil {
		return err
	}
	if r.Status == OK {
		r.Path, err = d.String(MaxPathLen)
	}
	return err
}

// ReadArgs is READ3args.
type ReadArgs struct {
	FH     FH
	Offset uint64
	Count  uint32
}

// Encode writes the wire form.
func (a *ReadArgs) Encode(e *xdr.Encoder) {
	encodeFH(e, a.FH)
	e.Uint64(a.Offset)
	e.Uint32(a.Count)
}

// Decode reads the wire form.
func (a *ReadArgs) Decode(d *xdr.Decoder) error {
	var err error
	if a.FH, err = decodeFH(d); err != nil {
		return err
	}
	if a.Offset, err = d.Uint64(); err != nil {
		return err
	}
	if a.Count, err = d.Uint32(); err != nil {
		return err
	}
	// Clamp rather than reject: RFC 1813 lets the server return fewer bytes
	// than requested, so an oversized count degrades to a short read instead
	// of sizing an allocation from the wire.
	if a.Count > MaxIOSize {
		a.Count = MaxIOSize
	}
	return nil
}

// ReadRes is READ3res.
type ReadRes struct {
	Status Status
	Attr   PostOpAttr
	Count  uint32
	EOF    bool
	Data   []byte
}

// Encode writes the wire form.
func (r *ReadRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Attr.Encode(e)
	if r.Status == OK {
		e.Uint32(r.Count)
		e.Bool(r.EOF)
		e.Opaque(r.Data)
	}
}

// Decode reads the wire form.
func (r *ReadRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.Attr.Decode(d); err != nil {
		return err
	}
	if r.Status != OK {
		return nil
	}
	if r.Count, err = d.Uint32(); err != nil {
		return err
	}
	if r.EOF, err = d.Bool(); err != nil {
		return err
	}
	// Data aliases the reply frame (consumers copy what they cache); the
	// bound still rejects frames claiming more than MaxIOSize.
	r.Data, err = d.OpaqueRef(MaxIOSize)
	return err
}

// WriteArgs is WRITE3args.
type WriteArgs struct {
	FH     FH
	Offset uint64
	Count  uint32
	Stable uint32
	Data   []byte
}

// Encode writes the wire form.
func (a *WriteArgs) Encode(e *xdr.Encoder) { e.FixedOpaque(a.EncodeHead(e)) }

// EncodeHead writes the wire form up to and including the data's length and
// returns what follows: the data itself, for the caller to send by reference
// behind the head (sunrpc.Client.StartParts). Data whose length is not a
// multiple of four must be followed by its XDR padding, so it is encoded whole
// and nothing is returned.
func (a *WriteArgs) EncodeHead(e *xdr.Encoder) []byte {
	encodeFH(e, a.FH)
	e.Uint64(a.Offset)
	e.Uint32(a.Count)
	e.Uint32(a.Stable)
	if len(a.Data)%4 != 0 {
		e.Opaque(a.Data)
		return nil
	}
	e.Uint32(uint32(len(a.Data)))
	return a.Data
}

// Decode reads the wire form.
func (a *WriteArgs) Decode(d *xdr.Decoder) error {
	var err error
	if a.FH, err = decodeFH(d); err != nil {
		return err
	}
	if a.Offset, err = d.Uint64(); err != nil {
		return err
	}
	if a.Count, err = d.Uint32(); err != nil {
		return err
	}
	if a.Stable, err = d.Uint32(); err != nil {
		return err
	}
	// Data aliases the request frame — every server-side consumer copies or
	// applies it before the handler returns and the frame is recycled.
	a.Data, err = d.OpaqueRef(MaxIOSize)
	return err
}

// WriteRes is WRITE3res.
type WriteRes struct {
	Status    Status
	Wcc       WccData
	Count     uint32
	Committed uint32
	Verf      uint64
}

// Encode writes the wire form.
func (r *WriteRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Wcc.Encode(e)
	if r.Status == OK {
		e.Uint32(r.Count)
		e.Uint32(r.Committed)
		e.Uint64(r.Verf)
	}
}

// Decode reads the wire form.
func (r *WriteRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.Wcc.Decode(d); err != nil {
		return err
	}
	if r.Status != OK {
		return nil
	}
	if r.Count, err = d.Uint32(); err != nil {
		return err
	}
	if r.Committed, err = d.Uint32(); err != nil {
		return err
	}
	r.Verf, err = d.Uint64()
	return err
}

// CreateArgs is CREATE3args.
type CreateArgs struct {
	Where DirOpArgs
	Mode  uint32 // CreateUnchecked / CreateGuarded / CreateExclusive
	Attr  Sattr
	Verf  uint64 // exclusive-create verifier
}

// Encode writes the wire form.
func (a *CreateArgs) Encode(e *xdr.Encoder) {
	a.Where.Encode(e)
	e.Uint32(a.Mode)
	if a.Mode == CreateExclusive {
		e.Uint64(a.Verf)
	} else {
		a.Attr.Encode(e)
	}
}

// Decode reads the wire form.
func (a *CreateArgs) Decode(d *xdr.Decoder) error {
	if err := a.Where.Decode(d); err != nil {
		return err
	}
	mode, err := d.Uint32()
	if err != nil {
		return err
	}
	a.Mode = mode
	if mode == CreateExclusive {
		a.Verf, err = d.Uint64()
		return err
	}
	return a.Attr.Decode(d)
}

// CreateRes is CREATE3res, also used for MKDIR and SYMLINK which share its
// shape.
type CreateRes struct {
	Status Status
	// FHFollows mirrors post_op_fh3.
	FHFollows bool
	FH        FH
	Attr      PostOpAttr
	DirWcc    WccData
}

// Encode writes the wire form.
func (r *CreateRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == OK {
		e.Bool(r.FHFollows)
		if r.FHFollows {
			encodeFH(e, r.FH)
		}
		r.Attr.Encode(e)
	}
	r.DirWcc.Encode(e)
}

// Decode reads the wire form.
func (r *CreateRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if r.Status == OK {
		if r.FHFollows, err = d.Bool(); err != nil {
			return err
		}
		if r.FHFollows {
			if r.FH, err = decodeFH(d); err != nil {
				return err
			}
		}
		if err = r.Attr.Decode(d); err != nil {
			return err
		}
	}
	return r.DirWcc.Decode(d)
}

// MkdirArgs is MKDIR3args.
type MkdirArgs struct {
	Where DirOpArgs
	Attr  Sattr
}

// Encode writes the wire form.
func (a *MkdirArgs) Encode(e *xdr.Encoder) {
	a.Where.Encode(e)
	a.Attr.Encode(e)
}

// Decode reads the wire form.
func (a *MkdirArgs) Decode(d *xdr.Decoder) error {
	if err := a.Where.Decode(d); err != nil {
		return err
	}
	return a.Attr.Decode(d)
}

// SymlinkArgs is SYMLINK3args.
type SymlinkArgs struct {
	Where DirOpArgs
	Attr  Sattr
	Path  string
}

// Encode writes the wire form.
func (a *SymlinkArgs) Encode(e *xdr.Encoder) {
	a.Where.Encode(e)
	a.Attr.Encode(e)
	e.String(a.Path)
}

// Decode reads the wire form.
func (a *SymlinkArgs) Decode(d *xdr.Decoder) error {
	if err := a.Where.Decode(d); err != nil {
		return err
	}
	if err := a.Attr.Decode(d); err != nil {
		return err
	}
	var err error
	a.Path, err = d.String(MaxPathLen)
	return err
}

// RenameArgs is RENAME3args.
type RenameArgs struct {
	From DirOpArgs
	To   DirOpArgs
}

// Encode writes the wire form.
func (a *RenameArgs) Encode(e *xdr.Encoder) {
	a.From.Encode(e)
	a.To.Encode(e)
}

// Decode reads the wire form.
func (a *RenameArgs) Decode(d *xdr.Decoder) error {
	if err := a.From.Decode(d); err != nil {
		return err
	}
	return a.To.Decode(d)
}

// RenameRes is RENAME3res.
type RenameRes struct {
	Status  Status
	FromWcc WccData
	ToWcc   WccData
}

// Encode writes the wire form.
func (r *RenameRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.FromWcc.Encode(e)
	r.ToWcc.Encode(e)
}

// Decode reads the wire form.
func (r *RenameRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.FromWcc.Decode(d); err != nil {
		return err
	}
	return r.ToWcc.Decode(d)
}

// LinkArgs is LINK3args.
type LinkArgs struct {
	FH   FH
	Link DirOpArgs
}

// Encode writes the wire form.
func (a *LinkArgs) Encode(e *xdr.Encoder) {
	encodeFH(e, a.FH)
	a.Link.Encode(e)
}

// Decode reads the wire form.
func (a *LinkArgs) Decode(d *xdr.Decoder) error {
	var err error
	if a.FH, err = decodeFH(d); err != nil {
		return err
	}
	return a.Link.Decode(d)
}

// LinkRes is LINK3res.
type LinkRes struct {
	Status  Status
	Attr    PostOpAttr
	LinkWcc WccData
}

// Encode writes the wire form.
func (r *LinkRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Attr.Encode(e)
	r.LinkWcc.Encode(e)
}

// Decode reads the wire form.
func (r *LinkRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.Attr.Decode(d); err != nil {
		return err
	}
	return r.LinkWcc.Decode(d)
}

// ReaddirArgs is READDIR3args.
type ReaddirArgs struct {
	Dir        FH
	Cookie     uint64
	CookieVerf uint64
	Count      uint32
}

// Encode writes the wire form.
func (a *ReaddirArgs) Encode(e *xdr.Encoder) {
	encodeFH(e, a.Dir)
	e.Uint64(a.Cookie)
	e.Uint64(a.CookieVerf)
	e.Uint32(a.Count)
}

// Decode reads the wire form.
func (a *ReaddirArgs) Decode(d *xdr.Decoder) error {
	var err error
	if a.Dir, err = decodeFH(d); err != nil {
		return err
	}
	if a.Cookie, err = d.Uint64(); err != nil {
		return err
	}
	if a.CookieVerf, err = d.Uint64(); err != nil {
		return err
	}
	if a.Count, err = d.Uint32(); err != nil {
		return err
	}
	if a.Count > MaxIOSize {
		a.Count = MaxIOSize
	}
	return nil
}

// DirEntry is entry3.
type DirEntry struct {
	FileID uint64
	Name   string
	Cookie uint64
}

// DirResOverhead is what an OK READDIR or READDIRPLUS result with its
// directory attributes occupies on the wire besides its entries: status,
// post-op attributes, cookie verifier, the end of the entry list and the EOF
// flag. A server holding a reply to the client's count charges it first.
const DirResOverhead = 4 + (4 + fattrWireSize) + 8 + 4 + 4

// fattrWireSize is the wire size of fattr3.
const fattrWireSize = 84

// opaqueWireSize is the wire size of a variable-length opaque or string of n
// bytes: the length, the bytes, padding to a multiple of four.
func opaqueWireSize(n int) int { return 4 + (n+3)&^3 }

// WireSize is what the entry adds to an encoded READDIR result.
func (ent *DirEntry) WireSize() int { return 4 + 8 + opaqueWireSize(len(ent.Name)) + 8 }

// ReaddirRes is READDIR3res.
type ReaddirRes struct {
	Status     Status
	DirAttr    PostOpAttr
	CookieVerf uint64
	Entries    []DirEntry
	EOF        bool
}

// Encode writes the wire form.
func (r *ReaddirRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.DirAttr.Encode(e)
	if r.Status != OK {
		return
	}
	e.Uint64(r.CookieVerf)
	for i := range r.Entries {
		e.Bool(true)
		e.Uint64(r.Entries[i].FileID)
		e.String(r.Entries[i].Name)
		e.Uint64(r.Entries[i].Cookie)
	}
	e.Bool(false)
	e.Bool(r.EOF)
}

// Decode reads the wire form.
func (r *ReaddirRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.DirAttr.Decode(d); err != nil {
		return err
	}
	if r.Status != OK {
		return nil
	}
	if r.CookieVerf, err = d.Uint64(); err != nil {
		return err
	}
	r.Entries = r.Entries[:0]
	for {
		more, err := d.Bool()
		if err != nil {
			return err
		}
		if !more {
			break
		}
		var ent DirEntry
		if ent.FileID, err = d.Uint64(); err != nil {
			return err
		}
		if ent.Name, err = d.String(MaxNameLen); err != nil {
			return err
		}
		if ent.Cookie, err = d.Uint64(); err != nil {
			return err
		}
		r.Entries = append(r.Entries, ent)
	}
	r.EOF, err = d.Bool()
	return err
}

// ReaddirplusArgs is READDIRPLUS3args.
type ReaddirplusArgs struct {
	Dir        FH
	Cookie     uint64
	CookieVerf uint64
	DirCount   uint32
	MaxCount   uint32
}

// Encode writes the wire form.
func (a *ReaddirplusArgs) Encode(e *xdr.Encoder) {
	encodeFH(e, a.Dir)
	e.Uint64(a.Cookie)
	e.Uint64(a.CookieVerf)
	e.Uint32(a.DirCount)
	e.Uint32(a.MaxCount)
}

// Decode reads the wire form.
func (a *ReaddirplusArgs) Decode(d *xdr.Decoder) error {
	var err error
	if a.Dir, err = decodeFH(d); err != nil {
		return err
	}
	if a.Cookie, err = d.Uint64(); err != nil {
		return err
	}
	if a.CookieVerf, err = d.Uint64(); err != nil {
		return err
	}
	if a.DirCount, err = d.Uint32(); err != nil {
		return err
	}
	if a.DirCount > MaxIOSize {
		a.DirCount = MaxIOSize
	}
	if a.MaxCount, err = d.Uint32(); err != nil {
		return err
	}
	if a.MaxCount > MaxIOSize {
		a.MaxCount = MaxIOSize
	}
	return nil
}

// DirEntryPlus is entryplus3.
type DirEntryPlus struct {
	FileID    uint64
	Name      string
	Cookie    uint64
	Attr      PostOpAttr
	FHFollows bool
	FH        FH
}

// WireSize is what the entry adds to an encoded READDIRPLUS result.
func (ent *DirEntryPlus) WireSize() int {
	n := 4 + 8 + opaqueWireSize(len(ent.Name)) + 8 + 4 + 4
	if ent.Attr.Present {
		n += fattrWireSize
	}
	if ent.FHFollows {
		n += opaqueWireSize(len(ent.FH.Bytes()))
	}
	return n
}

// ReaddirplusRes is READDIRPLUS3res.
type ReaddirplusRes struct {
	Status     Status
	DirAttr    PostOpAttr
	CookieVerf uint64
	Entries    []DirEntryPlus
	EOF        bool
}

// Encode writes the wire form.
func (r *ReaddirplusRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.DirAttr.Encode(e)
	if r.Status != OK {
		return
	}
	e.Uint64(r.CookieVerf)
	for i := range r.Entries {
		ent := &r.Entries[i]
		e.Bool(true)
		e.Uint64(ent.FileID)
		e.String(ent.Name)
		e.Uint64(ent.Cookie)
		ent.Attr.Encode(e)
		e.Bool(ent.FHFollows)
		if ent.FHFollows {
			encodeFH(e, ent.FH)
		}
	}
	e.Bool(false)
	e.Bool(r.EOF)
}

// Decode reads the wire form.
func (r *ReaddirplusRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.DirAttr.Decode(d); err != nil {
		return err
	}
	if r.Status != OK {
		return nil
	}
	if r.CookieVerf, err = d.Uint64(); err != nil {
		return err
	}
	r.Entries = r.Entries[:0]
	for {
		more, err := d.Bool()
		if err != nil {
			return err
		}
		if !more {
			break
		}
		var ent DirEntryPlus
		if ent.FileID, err = d.Uint64(); err != nil {
			return err
		}
		if ent.Name, err = d.String(MaxNameLen); err != nil {
			return err
		}
		if ent.Cookie, err = d.Uint64(); err != nil {
			return err
		}
		if err = ent.Attr.Decode(d); err != nil {
			return err
		}
		if ent.FHFollows, err = d.Bool(); err != nil {
			return err
		}
		if ent.FHFollows {
			if ent.FH, err = decodeFH(d); err != nil {
				return err
			}
		}
		r.Entries = append(r.Entries, ent)
	}
	r.EOF, err = d.Bool()
	return err
}

// FsstatRes is FSSTAT3res.
type FsstatRes struct {
	Status   Status
	Attr     PostOpAttr
	TBytes   uint64
	FBytes   uint64
	ABytes   uint64
	TFiles   uint64
	FFiles   uint64
	AFiles   uint64
	Invarsec uint32
}

// Encode writes the wire form.
func (r *FsstatRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Attr.Encode(e)
	if r.Status != OK {
		return
	}
	e.Uint64(r.TBytes)
	e.Uint64(r.FBytes)
	e.Uint64(r.ABytes)
	e.Uint64(r.TFiles)
	e.Uint64(r.FFiles)
	e.Uint64(r.AFiles)
	e.Uint32(r.Invarsec)
}

// Decode reads the wire form.
func (r *FsstatRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.Attr.Decode(d); err != nil {
		return err
	}
	if r.Status != OK {
		return nil
	}
	if r.TBytes, err = d.Uint64(); err != nil {
		return err
	}
	if r.FBytes, err = d.Uint64(); err != nil {
		return err
	}
	if r.ABytes, err = d.Uint64(); err != nil {
		return err
	}
	if r.TFiles, err = d.Uint64(); err != nil {
		return err
	}
	if r.FFiles, err = d.Uint64(); err != nil {
		return err
	}
	if r.AFiles, err = d.Uint64(); err != nil {
		return err
	}
	r.Invarsec, err = d.Uint32()
	return err
}

// FsinfoRes is FSINFO3res.
type FsinfoRes struct {
	Status      Status
	Attr        PostOpAttr
	RtMax       uint32
	RtPref      uint32
	RtMult      uint32
	WtMax       uint32
	WtPref      uint32
	WtMult      uint32
	DtPref      uint32
	MaxFileSize uint64
	TimeDelta   Time
	Properties  uint32
}

// Encode writes the wire form.
func (r *FsinfoRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Attr.Encode(e)
	if r.Status != OK {
		return
	}
	e.Uint32(r.RtMax)
	e.Uint32(r.RtPref)
	e.Uint32(r.RtMult)
	e.Uint32(r.WtMax)
	e.Uint32(r.WtPref)
	e.Uint32(r.WtMult)
	e.Uint32(r.DtPref)
	e.Uint64(r.MaxFileSize)
	r.TimeDelta.encode(e)
	e.Uint32(r.Properties)
}

// Decode reads the wire form.
func (r *FsinfoRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.Attr.Decode(d); err != nil {
		return err
	}
	if r.Status != OK {
		return nil
	}
	if r.RtMax, err = d.Uint32(); err != nil {
		return err
	}
	if r.RtPref, err = d.Uint32(); err != nil {
		return err
	}
	if r.RtMult, err = d.Uint32(); err != nil {
		return err
	}
	if r.WtMax, err = d.Uint32(); err != nil {
		return err
	}
	if r.WtPref, err = d.Uint32(); err != nil {
		return err
	}
	if r.WtMult, err = d.Uint32(); err != nil {
		return err
	}
	if r.DtPref, err = d.Uint32(); err != nil {
		return err
	}
	if r.MaxFileSize, err = d.Uint64(); err != nil {
		return err
	}
	if r.TimeDelta, err = decodeTime(d); err != nil {
		return err
	}
	r.Properties, err = d.Uint32()
	return err
}

// CommitArgs is COMMIT3args.
type CommitArgs struct {
	FH     FH
	Offset uint64
	Count  uint32
}

// Encode writes the wire form.
func (a *CommitArgs) Encode(e *xdr.Encoder) {
	encodeFH(e, a.FH)
	e.Uint64(a.Offset)
	e.Uint32(a.Count)
}

// Decode reads the wire form.
func (a *CommitArgs) Decode(d *xdr.Decoder) error {
	var err error
	if a.FH, err = decodeFH(d); err != nil {
		return err
	}
	if a.Offset, err = d.Uint64(); err != nil {
		return err
	}
	a.Count, err = d.Uint32()
	return err
}

// CommitRes is COMMIT3res.
type CommitRes struct {
	Status Status
	Wcc    WccData
	Verf   uint64
}

// Encode writes the wire form.
func (r *CommitRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Wcc.Encode(e)
	if r.Status == OK {
		e.Uint64(r.Verf)
	}
}

// Decode reads the wire form.
func (r *CommitRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err = r.Wcc.Decode(d); err != nil {
		return err
	}
	if r.Status == OK {
		r.Verf, err = d.Uint64()
	}
	return err
}
