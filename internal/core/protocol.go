// Package core implements the paper's contribution: GVFS user-level proxy
// clients and servers that interpose on NFSv3 traffic and overlay
// application-tailored cache consistency on top of it.
//
// Two consistency models are provided, selectable per session:
//
//   - Invalidation polling (Section 4.2): the proxy server records logically
//     time-stamped invalidations in per-client circular buffers; proxy
//     clients batch-fetch them with the GETINV protocol extension.
//   - Delegation + callback (Section 4.3): the proxy server grants per-file
//     read/write delegations based on speculated open/close state and
//     revokes them with server-to-client callback RPCs, including partial
//     write-back of large dirty sets.
//
// This file defines the GVFS wire protocol extensions: the GETINV program,
// the callback program, the session credential, and what the proxy server
// piggybacks on native NFS replies — the delegation trailers, on a LOOKUP
// under polling a small directory's listing, and on a polling session's MNT
// the listings of the top of the export.
package core

import (
	"fmt"

	"repro/internal/nfs3"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// GVFS extension program numbers (in the transient range reserved for
// site-local Sun RPC programs).
const (
	// InvProgram is served by the proxy server: GETINV polls.
	InvProgram = 395700
	InvVersion = 1
	// ProcGetInv requests the contents of the caller's invalidation buffer.
	ProcGetInv = 1
	// ProcMintWrite writes to the file a create of the caller's made, named
	// by that create rather than by a handle (MintWriteArgs).
	ProcMintWrite = 2

	// CallbackProgram is served by each proxy client; the proxy server
	// calls it to recall delegations and to reconstruct state.
	CallbackProgram = 395701
	CallbackVersion = 1
	// ProcRecall revokes a delegation on one file.
	ProcRecall = 1
	// ProcRecallAll targets the entire cache (server state reconstruction
	// after a crash, Section 4.3.4).
	ProcRecallAll = 2
)

// SessionCred is the GVFS credential a proxy client encapsulates in every
// RPC request: session key for authentication/isolation, client ID, and the
// callback address the server can connect back to (Section 4.3.2).
type SessionCred struct {
	SessionKey   string
	ClientID     string
	CallbackAddr string
	// NoListings says the session caches no metadata, so neither a LOOKUP
	// reply nor a MNT reply carries it a directory listing
	// (ProxyServer.smallListing, mountBundle). It is encoded only when set: a
	// credential without it is the three strings.
	NoListings bool
}

// Encode renders the credential as a sunrpc.Cred with the AuthGVFS flavor.
func (sc *SessionCred) Encode() sunrpc.Cred {
	e := xdr.NewEncoder()
	e.String(sc.SessionKey)
	e.String(sc.ClientID)
	e.String(sc.CallbackAddr)
	if sc.NoListings {
		e.Bool(true)
	}
	return sunrpc.Cred{Flavor: sunrpc.AuthGVFS, Body: e.Bytes()}
}

// DecodeSessionCred parses an AuthGVFS credential.
func DecodeSessionCred(cred sunrpc.Cred) (SessionCred, error) {
	var sc SessionCred
	if cred.Flavor != sunrpc.AuthGVFS {
		return sc, fmt.Errorf("core: credential flavor %d is not AuthGVFS", cred.Flavor)
	}
	d := xdr.NewDecoder(cred.Body)
	var err error
	if sc.SessionKey, err = d.String(64); err != nil {
		return sc, err
	}
	if sc.ClientID, err = d.String(64); err != nil {
		return sc, err
	}
	if sc.CallbackAddr, err = d.String(128); err != nil || d.Remaining() == 0 {
		return sc, err
	}
	sc.NoListings, err = d.Bool()
	return sc, err
}

// checkCount rejects a decoded element count that cannot possibly be
// satisfied by the bytes remaining in the frame (each element consumes at
// least per bytes on the wire). Counts arrive from the network, so looping
// or allocating on them without this check lets a small hostile frame drive
// unbounded work.
func checkCount(d *xdr.Decoder, n uint32, per int) error {
	if int64(n)*int64(per) > int64(d.Remaining()) {
		return fmt.Errorf("%w: count %d", xdr.ErrLength, n)
	}
	return nil
}

// GetInvArgs is the GETINV request: the logical timestamp of the last
// invalidation the client has applied (0 = bootstrap null argument), and the
// maximum number of handles the client will accept in one reply.
type GetInvArgs struct {
	Timestamp  uint64
	MaxHandles uint32
}

// Encode writes the wire form.
func (a *GetInvArgs) Encode(e *xdr.Encoder) {
	e.Uint64(a.Timestamp)
	e.Uint32(a.MaxHandles)
}

// Decode reads the wire form.
func (a *GetInvArgs) Decode(d *xdr.Decoder) error {
	var err error
	if a.Timestamp, err = d.Uint64(); err != nil {
		return err
	}
	a.MaxHandles, err = d.Uint32()
	return err
}

// GetInvRes is the GETINV reply (Section 4.2.1).
type GetInvRes struct {
	// Timestamp is the server's updated logical timestamp.
	Timestamp uint64
	// ForceInvalidate tells the client to invalidate its entire attribute
	// cache (bootstrap, buffer wrap-around, server restart).
	ForceInvalidate bool
	// PollAgain is set when the buffer did not fit in one reply; the client
	// must immediately issue another GETINV.
	PollAgain bool
	// Remaining is the number of entries still queued in the server's
	// invalidation buffer after this reply. The client's freshness-horizon
	// accounting uses it: a round sent at T is fully covered once Remaining
	// further handles have been delivered, even if the poll as a whole is
	// later capped. Zero whenever PollAgain is false.
	Remaining uint32
	// Handles are the file handles to invalidate.
	Handles []nfs3.FH
}

// Encode writes the wire form.
func (r *GetInvRes) Encode(e *xdr.Encoder) {
	e.Uint64(r.Timestamp)
	e.Bool(r.ForceInvalidate)
	e.Bool(r.PollAgain)
	e.Uint32(r.Remaining)
	e.Uint32(uint32(len(r.Handles)))
	for _, fh := range r.Handles {
		e.Opaque(fh.Bytes())
	}
}

// Decode reads the wire form.
func (r *GetInvRes) Decode(d *xdr.Decoder) error {
	var err error
	if r.Timestamp, err = d.Uint64(); err != nil {
		return err
	}
	if r.ForceInvalidate, err = d.Bool(); err != nil {
		return err
	}
	if r.PollAgain, err = d.Bool(); err != nil {
		return err
	}
	if r.Remaining, err = d.Uint32(); err != nil {
		return err
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	// Each handle is at least a 4-byte length plus the handle bytes.
	if err := checkCount(d, n, 4+nfs3.FHSize); err != nil {
		return err
	}
	r.Handles = r.Handles[:0]
	for i := uint32(0); i < n; i++ {
		b, err := d.Opaque(nfs3.MaxFHSize)
		if err != nil {
			return err
		}
		fh, err := nfs3.FHFromBytes(b)
		if err != nil {
			return err
		}
		r.Handles = append(r.Handles, fh)
	}
	return nil
}

// Delegation types.
type DelegType uint32

// Delegation states carried in reply trailers and recalls.
const (
	DelegNone DelegType = 0
	DelegRead DelegType = 1
	// DelegWrite also implies read.
	DelegWrite DelegType = 2
)

func (t DelegType) String() string {
	switch t {
	case DelegNone:
		return "none"
	case DelegRead:
		return "read"
	case DelegWrite:
		return "write"
	default:
		return fmt.Sprintf("deleg(%d)", uint32(t))
	}
}

// Trailer is the proxy server's delegation decision for one file the call
// touched, piggybacked on the native NFS reply (Section 4.3.1): the
// delegation granted, or none. A grant of none is the paper's non-cacheable
// verdict; nothing else is, so the decision is the whole entry. Only the
// delegation model decides: under polling the list is empty. The proxy client
// strips the list before answering the kernel client.
type Trailer struct {
	// Deleg is the delegation now held by the calling client for FH.
	Deleg DelegType
	// FH identifies the file the decision applies to.
	FH nfs3.FH
	// Seq orders this grant against recalls: the server stamps every grant
	// and recall from one monotonic counter, and a client ignores a grant
	// whose stamp is older than the last recall it served for the same
	// file. Without this fence a grant reply racing with a recall for a
	// concurrent destructive operation could leave the client caching a
	// delegation (and a name binding) the server already revoked.
	Seq uint64
}

// Encode appends the trailer to a reply.
func (t *Trailer) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(t.Deleg))
	e.Opaque(t.FH.Bytes())
	e.Uint64(t.Seq)
}

// Decode reads a trailer.
func (t *Trailer) Decode(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	t.Deleg = DelegType(v)
	b, err := d.Opaque(nfs3.MaxFHSize)
	if err != nil {
		return err
	}
	if t.FH, err = nfs3.FHFromBytes(b); err != nil {
		return err
	}
	t.Seq, err = d.Uint64()
	return err
}

// Trailers is the full piggyback appended to a native NFS reply: one
// decision per file handle the call touched (e.g. a LOOKUP carries one for
// the directory and one for the resolved child), none under polling.
type Trailers []Trailer

// Encode writes the list with a count prefix.
func (ts Trailers) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(len(ts)))
	for i := range ts {
		ts[i].Encode(e)
	}
}

// DecodeTrailers reads a trailer list and, into page when page is not nil,
// the listing that may follow it: under polling, a LOOKUP reply that resolved
// a directory carries that directory's first READDIRPLUS page behind its
// (empty) trailer list when the page completes the listing
// (ProxyServer.smallListing). No bytes after the list means no page. A page
// that does not decode whole is dropped, not an error: the reply and its
// trailers stand, and page is left zero, which lists nothing and is not EOF.
func DecodeTrailers(d *xdr.Decoder, page *nfs3.ReaddirplusRes) (Trailers, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > 16 {
		return nil, fmt.Errorf("core: %d trailers", n)
	}
	ts, err := decodeTrailerList(d, n)
	if err != nil {
		return nil, err
	}
	if page != nil && d.Remaining() > 0 && page.Decode(d) != nil {
		*page = nfs3.ReaddirplusRes{}
	}
	return ts, nil
}

// decodeTrailerList reads n trailers, the count already read.
func decodeTrailerList(d *xdr.Decoder, n uint32) (Trailers, error) {
	ts := make(Trailers, 0, n)
	for i := uint32(0); i < n; i++ {
		var t Trailer
		if err := t.Decode(d); err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// seqOf is the stamp of ts's decision about fh, 0 when ts decides nothing
// about it.
func (ts Trailers) seqOf(fh nfs3.FH) uint64 {
	for i := range ts {
		if ts[i].FH.Equal(fh) {
			return ts[i].Seq
		}
	}
	return 0
}

// MountPage is one directory's listing in a MountBundle: the directory's
// handle and its first READDIRPLUS page, which the server sends only when the
// page completes the listing.
type MountPage struct {
	Dir  nfs3.FH
	Page nfs3.ReaddirplusRes
}

// MountBundle is what the proxy server appends to a session's MNT reply,
// behind the NFS server's mountres3 (ProxyServer.mountBundle): the listings
// of the top of the export, breadth-first from the root; Stamp, the server's
// invalidation timestamp when it began to read them; and Grants, one read
// delegation per listed handle granted, empty under polling. A polling
// session installs the pages only if its bootstrap GETINV's timestamp is no
// later than Stamp: then every change made after the pages were read is
// queued for it (ProxyClient.dispatchMount). A session under delegation
// installs what a grant it applied covers (sessionCache.seedMount).
type MountBundle struct {
	Stamp  uint64
	Pages  []MountPage
	Grants Trailers
}

// mountPageMin is the least a MountPage takes on the wire: a handle and a
// result that is a status and an absent attribute. trailerMin is the least a
// Trailer does.
const (
	mountPageMin = 4 + nfs3.FHSize + 8
	trailerMin   = 4 + 4 + nfs3.FHSize + 8
)

// encodeMountBundleHead starts a bundle of n pages; each follows as its
// directory's handle and the page's bytes, as nfsd sent them, and the grants
// end it.
func encodeMountBundleHead(e *xdr.Encoder, stamp uint64, n int) {
	e.Uint64(stamp)
	e.Uint32(uint32(n))
}

// Decode reads a bundle.
func (b *MountBundle) Decode(d *xdr.Decoder) error {
	var err error
	if b.Stamp, err = d.Uint64(); err != nil {
		return err
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if err := checkCount(d, n, mountPageMin); err != nil {
		return err
	}
	b.Pages = make([]MountPage, n)
	for i := range b.Pages {
		fh, err := d.Opaque(nfs3.MaxFHSize)
		if err != nil {
			return err
		}
		if b.Pages[i].Dir, err = nfs3.FHFromBytes(fh); err != nil {
			return err
		}
		if err := b.Pages[i].Page.Decode(d); err != nil {
			return err
		}
	}
	if n, err = d.Uint32(); err != nil {
		return err
	}
	if err := checkCount(d, n, trailerMin); err != nil {
		return err
	}
	b.Grants, err = decodeTrailerList(d, n)
	return err
}

// splitMountReply parses the mountres3 at the head of a MNT reply: it returns
// the root handle (ok: the mount succeeded), how many bytes the mountres3
// takes, and the bundle that follows it, nil when none does or when it does
// not decode whole. A reply whose mountres3 does not parse is n = len(b): it
// is relayed as it came, and nothing of it is installed.
func splitMountReply(b []byte) (root nfs3.FH, n int, bundle *MountBundle) {
	d := xdr.NewDecoder(b)
	st, err := d.Uint32()
	if err != nil || st != 0 {
		return root, len(b), nil
	}
	fh, err := d.Opaque(nfs3.MaxFHSize)
	if err != nil {
		return root, len(b), nil
	}
	flavors, err := d.Uint32()
	if err != nil || checkCount(d, flavors, 4) != nil {
		return root, len(b), nil
	}
	for i := uint32(0); i < flavors; i++ {
		d.Uint32()
	}
	if root, err = nfs3.FHFromBytes(fh); err != nil {
		return nfs3.FH{}, len(b), nil
	}
	n = len(b) - d.Remaining()
	if d.Remaining() == 0 {
		return root, n, nil
	}
	bundle = new(MountBundle)
	if bundle.Decode(d) != nil {
		bundle = nil
	}
	return root, n, bundle
}

// MintedCreate is a CREATE a polling session answered at home under a handle
// it minted (proxyclient_create.go): the kernel's CREATE3args, GUARDED or
// UNCHECKED with its attributes, and behind them, where a plain CREATE ends,
// Verf, the verifier the proxy server creates the file under. The proxy
// server makes it an exclusive create (RFC 1813) and then applies the
// attributes across its LAN: sent again, after a reconnect or a restart of
// the proxy server, the create finds the file its first run made and succeeds
// again, and a name another client holds fails with EXIST, whatever the mode.
type MintedCreate struct {
	nfs3.CreateArgs
	Verf uint64
}

// Encode writes the wire form.
func (a *MintedCreate) Encode(e *xdr.Encoder) {
	a.CreateArgs.Encode(e)
	e.Uint64(a.Verf)
}

// Decode reads the wire form.
func (a *MintedCreate) Decode(d *xdr.Decoder) error {
	if err := a.CreateArgs.Decode(d); err != nil {
		return err
	}
	var err error
	a.Verf, err = d.Uint64()
	return err
}

// MintWriteArgs is ProcMintWrite's call: a WRITE to the file Create makes,
// sent before the session knows the file's handle. The proxy server holds it
// until that create has run on its LAN (running it itself if it has no record
// of it), then writes to the file the create made, and to no other. Write's
// handle is not read.
type MintWriteArgs struct {
	Create MintedCreate
	Write  nfs3.WriteArgs
}

// EncodeHead writes the call up to the data's length and returns the data,
// to be sent by reference behind it (nfs3.WriteArgs.EncodeHead).
func (a *MintWriteArgs) EncodeHead(e *xdr.Encoder) []byte {
	a.Create.Encode(e)
	return a.Write.EncodeHead(e)
}

// Encode writes the wire form.
func (a *MintWriteArgs) Encode(e *xdr.Encoder) { e.FixedOpaque(a.EncodeHead(e)) }

// Decode reads the wire form; Write.Data aliases the frame.
func (a *MintWriteArgs) Decode(d *xdr.Decoder) error {
	if err := a.Create.Decode(d); err != nil {
		return err
	}
	return a.Write.Decode(d)
}

// MintWriteRes answers a MintWriteArgs: what the create came to, and the
// WRITE's result. A create that did not make the file (EXIST: another client
// holds the name) is the WRITE's status too, and nothing was written.
type MintWriteRes struct {
	Create nfs3.CreateRes
	Write  nfs3.WriteRes
}

// Encode writes the wire form.
func (r *MintWriteRes) Encode(e *xdr.Encoder) {
	r.Create.Encode(e)
	r.Write.Encode(e)
}

// Decode reads the wire form.
func (r *MintWriteRes) Decode(d *xdr.Decoder) error {
	if err := r.Create.Decode(d); err != nil {
		return err
	}
	return r.Write.Decode(d)
}

// RecallArgs asks a proxy client to give up a delegation on FH. For write
// recalls triggered by another client's access to a specific block, Offset
// carries that block's offset so the client can write it back first
// (Section 4.3.2's optimization).
type RecallArgs struct {
	FH        nfs3.FH
	Deleg     DelegType // the delegation level being revoked
	HasOffset bool
	Offset    uint64
	// Seq fences this recall against in-flight grants (see Trailer.Seq).
	Seq uint64
	// Name, when non-empty, is a directory entry being removed or replaced
	// by the operation that triggered the recall: the client must drop its
	// cached (FH, Name) binding.
	Name string
}

// Encode writes the wire form.
func (a *RecallArgs) Encode(e *xdr.Encoder) {
	e.Opaque(a.FH.Bytes())
	e.Uint32(uint32(a.Deleg))
	e.Bool(a.HasOffset)
	e.Uint64(a.Offset)
	e.Uint64(a.Seq)
	e.String(a.Name)
}

// Decode reads the wire form.
func (a *RecallArgs) Decode(d *xdr.Decoder) error {
	b, err := d.Opaque(nfs3.MaxFHSize)
	if err != nil {
		return err
	}
	if a.FH, err = nfs3.FHFromBytes(b); err != nil {
		return err
	}
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	a.Deleg = DelegType(v)
	if a.HasOffset, err = d.Bool(); err != nil {
		return err
	}
	if a.Offset, err = d.Uint64(); err != nil {
		return err
	}
	if a.Seq, err = d.Uint64(); err != nil {
		return err
	}
	a.Name, err = d.String(nfs3.MaxNameLen)
	return err
}

// RecallRes is the proxy client's answer to a recall. If the client held
// many dirty blocks, Pending lists the byte offsets it has NOT yet written
// back; the server tracks their progress (Section 4.3.2).
type RecallRes struct {
	Status  nfs3.Status
	Pending []uint64
}

// Encode writes the wire form.
func (r *RecallRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	e.Uint32(uint32(len(r.Pending)))
	for _, off := range r.Pending {
		e.Uint64(off)
	}
}

// Decode reads the wire form.
func (r *RecallRes) Decode(d *xdr.Decoder) error {
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Status = nfs3.Status(st)
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if err := checkCount(d, n, 8); err != nil {
		return err
	}
	r.Pending = r.Pending[:0]
	for i := uint32(0); i < n; i++ {
		off, err := d.Uint64()
		if err != nil {
			return err
		}
		r.Pending = append(r.Pending, off)
	}
	return nil
}

// RecallAllRes is the reply to a whole-cache callback issued during server
// state reconstruction: the handles of files for which the client holds
// locally modified (dirty) data, so the server can rebuild its open-file
// table (Section 4.3.4).
type RecallAllRes struct {
	DirtyFiles []nfs3.FH
}

// Encode writes the wire form.
func (r *RecallAllRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(len(r.DirtyFiles)))
	for _, fh := range r.DirtyFiles {
		e.Opaque(fh.Bytes())
	}
}

// Decode reads the wire form.
func (r *RecallAllRes) Decode(d *xdr.Decoder) error {
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if err := checkCount(d, n, 4+nfs3.FHSize); err != nil {
		return err
	}
	r.DirtyFiles = r.DirtyFiles[:0]
	for i := uint32(0); i < n; i++ {
		b, err := d.Opaque(nfs3.MaxFHSize)
		if err != nil {
			return err
		}
		fh, err := nfs3.FHFromBytes(b)
		if err != nil {
			return err
		}
		r.DirtyFiles = append(r.DirtyFiles, fh)
	}
	return nil
}
