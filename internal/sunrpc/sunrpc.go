// Package sunrpc implements the ONC RPC v2 protocol (RFC 5531) message
// format and a concurrent client and server over the transport abstraction.
// NFSv3, the GVFS GETINV extension, and the GVFS callback program all run on
// top of this layer, exactly as the paper's proxies speak Sun RPC.
package sunrpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/xdr"
)

// RPC message types.
const (
	msgCall  = 0
	msgReply = 1
)

// Reply status.
const (
	msgAccepted = 0
	msgDenied   = 1
)

// AcceptStat values (RFC 5531 section 9).
type AcceptStat uint32

// Accept status codes.
const (
	Success      AcceptStat = 0
	ProgUnavail  AcceptStat = 1
	ProgMismatch AcceptStat = 2
	ProcUnavail  AcceptStat = 3
	GarbageArgs  AcceptStat = 4
	SystemErr    AcceptStat = 5
	// TryLater is a private accept status (numbered in the same private
	// range as AuthGVFS) the server's admission controller returns when it
	// sheds a request instead of queueing it. It is retryable by
	// construction: the at-least-once client treats it exactly like a lost
	// reply and retransmits the same XID after backoff, so a shed costs one
	// round trip of delay, never a failed operation. Clients without a
	// retransmit policy see it as a regular RPC error.
	TryLater AcceptStat = 395650
)

func (s AcceptStat) String() string {
	switch s {
	case Success:
		return "SUCCESS"
	case ProgUnavail:
		return "PROG_UNAVAIL"
	case ProgMismatch:
		return "PROG_MISMATCH"
	case ProcUnavail:
		return "PROC_UNAVAIL"
	case GarbageArgs:
		return "GARBAGE_ARGS"
	case SystemErr:
		return "SYSTEM_ERR"
	case TryLater:
		return "TRY_LATER"
	default:
		return fmt.Sprintf("AcceptStat(%d)", uint32(s))
	}
}

// Auth flavors.
const (
	AuthNone = 0
	AuthSys  = 1
	// AuthGVFS is the private credential flavor GVFS proxy clients use to
	// encapsulate their session key, client ID and callback address in every
	// RPC request (paper sections 4.3.2-4.3.3).
	AuthGVFS = 395648
	// AuthTrace is a private *verifier* flavor carrying an 8-byte trace
	// request ID. Verifiers are orthogonal to credentials, so any call —
	// whatever its auth flavor — can carry a request ID without changing the
	// argument encoding; peers that do not understand the flavor ignore the
	// verifier, as RFC 5531 allows.
	AuthTrace = 395649
)

// Cred is an opaque RPC credential (flavor + body).
type Cred struct {
	Flavor uint32
	Body   []byte
}

// NoneCred returns an AUTH_NONE credential.
func NoneCred() Cred { return Cred{Flavor: AuthNone} }

// SysCred returns an AUTH_SYS credential for the given identity.
func SysCred(machine string, uid, gid uint32) Cred {
	e := xdr.NewEncoder()
	e.Uint32(0) // stamp
	e.String(machine)
	e.Uint32(uid)
	e.Uint32(gid)
	e.Uint32(0) // no auxiliary gids
	return Cred{Flavor: AuthSys, Body: e.Bytes()}
}

// SysIdentity decodes the uid/gid of an AUTH_SYS credential. ok is false
// for other flavors or a malformed body; callers then apply their own
// policy for the unauthenticated or middleware-authenticated cases.
func (c Cred) SysIdentity() (uid, gid uint32, ok bool) {
	if c.Flavor != AuthSys {
		return 0, 0, false
	}
	d := xdr.NewDecoder(c.Body)
	if _, err := d.Uint32(); err != nil { // stamp
		return 0, 0, false
	}
	if _, err := d.String(maxCred); err != nil { // machine name
		return 0, 0, false
	}
	if uid, err := d.Uint32(); err == nil {
		if gid, err := d.Uint32(); err == nil {
			return uid, gid, true
		}
	}
	return 0, 0, false
}

// maxCred bounds credential bodies (RFC 5531 limits them to 400 bytes).
const maxCred = 400

// Call is a received RPC call as presented to server dispatch functions.
type Call struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	Cred Cred
	// ReqID is the trace request ID carried in the call's AuthTrace
	// verifier, or 0 when the caller sent none. Servers that forward the
	// call downstream propagate it so the whole chain shares one ID.
	ReqID uint64
	// Args decodes the procedure arguments.
	Args *xdr.Decoder
	// Reply accumulates the procedure results on Success.
	Reply *xdr.Encoder

	// Traced reports whether a tracer will consume the span annotations
	// below. Dispatch functions should skip computing expensive labels
	// (e.g. formatting a file handle) when it is false — the hot path pays
	// for trace strings only when someone is recording them.
	Traced bool

	// Span annotations. A dispatch function may fill these in so the
	// server's tracer records a richer serve span (file handle, how the call
	// was answered, payload size) without the RPC layer understanding the
	// program's argument encoding.
	SpanFH    string
	SpanNote  obs.Note
	SpanBytes int64

	// req is the server's record of the call; see Yield.
	req *request
}

// Yield runs fn with this call's worker-pool slot released, re-acquiring it
// (with priority over freshly queued requests) before returning. Handlers
// that block waiting on *other RPCs through the same pool* — a proxy server
// issuing a callback recall that the client can only answer after flushing
// WRITEs back through this server — must wrap the blocking section in Yield
// or a full pool can deadlock on itself. When the call holds no pool slot fn
// just runs inline.
func (c *Call) Yield(fn func()) {
	if r := c.req; r != nil && r.pool != nil {
		r.pool.yield(r, fn)
		return
	}
	fn()
}

// Errors returned by the client.
var (
	ErrTimeout = errors.New("sunrpc: call timed out")
	ErrClosed  = errors.New("sunrpc: connection closed")
)

// Error is a non-Success RPC-level response.
type Error struct {
	Stat AcceptStat
}

func (e *Error) Error() string { return "sunrpc: " + e.Stat.String() }

// marshalCall encodes the wire form of a call message into e, which the
// caller supplies (typically pooled) and owns; the returned bytes alias it.
// A non-zero reqID is carried in an AuthTrace verifier; zero keeps the
// traditional AUTH_NONE verifier so untraced calls are byte-identical to the
// pre-tracing wire format.
func marshalCall(e *xdr.Encoder, xid, prog, vers, proc uint32, cred Cred, reqID uint64, args []byte) []byte {
	e.Uint32(xid)
	e.Uint32(msgCall)
	e.Uint32(2) // RPC version
	e.Uint32(prog)
	e.Uint32(vers)
	e.Uint32(proc)
	e.Uint32(cred.Flavor)
	e.Opaque(cred.Body)
	if reqID != 0 {
		e.Uint32(AuthTrace)
		e.Uint32(8) // verifier body: the 8-byte request ID, no padding needed
		e.Uint64(reqID)
	} else {
		e.Uint32(AuthNone)
		e.Opaque(nil)
	}
	e.FixedOpaque(args)
	// FixedOpaque pads, but args are already XDR so always 4-aligned.
	return e.Bytes()
}

// Accepted-reply header layout, used by the server's reused reply encoders:
// xid, msgReply, msgAccepted, verifier flavor, empty verifier body, stat.
const (
	replyHeaderLen = 24
	replyStatOff   = 20
)

// beginReply writes the accepted-reply header into e with a Success stat that
// the server patches via SetUint32At(replyStatOff) once the handler returns.
// Procedure results append directly after the header, so a reply is encoded
// once, in place, with no results-to-message copy.
func beginReply(e *xdr.Encoder, xid uint32) {
	e.Uint32(xid)
	e.Uint32(msgReply)
	e.Uint32(msgAccepted)
	e.Uint32(AuthNone) // verifier
	e.Opaque(nil)
	e.Uint32(uint32(Success))
}

// marshalReply builds the wire form of an accepted reply.
func marshalReply(xid uint32, stat AcceptStat, results []byte) []byte {
	e := xdr.NewEncoder()
	e.Uint32(xid)
	e.Uint32(msgReply)
	e.Uint32(msgAccepted)
	e.Uint32(AuthNone) // verifier
	e.Opaque(nil)
	e.Uint32(uint32(stat))
	e.FixedOpaque(results)
	return e.Bytes()
}

// parsedMsg is a decoded RPC message header plus remaining payload decoder.
// The credential body and the payload alias the frame.
type parsedMsg struct {
	xid   uint32
	mtype uint32
	// call fields
	prog, vers, proc uint32
	cred             Cred
	reqID            uint64
	// reply fields
	replyStat  uint32
	acceptStat AcceptStat
	// body decodes the procedure args/results out of the frame.
	body xdr.Decoder
	// raw is the received frame body aliases. Servers recycle it to the
	// buffer pool once the request reaches its terminal state (handled,
	// shed, or discarded: request.release); clients leave it nil — a
	// completed reply's frame goes to the caller with the body (Reply), so
	// the demux recycles only frames no caller will ever see (garbage, shed
	// retries, duplicate replies).
	raw []byte
}

// parse decodes raw's header into m and points m.body at the rest.
func (m *parsedMsg) parse(raw []byte) error {
	d := &m.body
	d.Reset(raw)
	var err error
	if m.xid, err = d.Uint32(); err != nil {
		return err
	}
	if m.mtype, err = d.Uint32(); err != nil {
		return err
	}
	switch m.mtype {
	case msgCall:
		rpcvers, err := d.Uint32()
		if err != nil {
			return err
		}
		if rpcvers != 2 {
			return fmt.Errorf("sunrpc: unsupported RPC version %d", rpcvers)
		}
		if m.prog, err = d.Uint32(); err != nil {
			return err
		}
		if m.vers, err = d.Uint32(); err != nil {
			return err
		}
		if m.proc, err = d.Uint32(); err != nil {
			return err
		}
		if m.cred.Flavor, err = d.Uint32(); err != nil {
			return err
		}
		if m.cred.Body, err = d.OpaqueRef(maxCred); err != nil {
			return err
		}
		// Verifier: AuthTrace carries the trace request ID; anything else
		// is ignored.
		vflavor, err := d.Uint32()
		if err != nil {
			return err
		}
		vbody, err := d.OpaqueRef(maxCred) // consumed before returning
		if err != nil {
			return err
		}
		if vflavor == AuthTrace && len(vbody) == 8 {
			m.reqID = binary.BigEndian.Uint64(vbody)
		}
	case msgReply:
		if m.replyStat, err = d.Uint32(); err != nil {
			return err
		}
		if m.replyStat != msgAccepted {
			return fmt.Errorf("sunrpc: call denied by server")
		}
		// Verifier (discarded).
		if _, err = d.Uint32(); err != nil {
			return err
		}
		if _, err = d.OpaqueRef(maxCred); err != nil {
			return err
		}
		stat, err := d.Uint32()
		if err != nil {
			return err
		}
		m.acceptStat = AcceptStat(stat)
	default:
		return fmt.Errorf("sunrpc: unknown message type %d", m.mtype)
	}
	return nil
}
