package sunrpc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/xdr"
)

// TestCallWireFormatMatchesRFC5531 checks the exact byte layout of a call
// message against the RFC's XDR definition, field by field.
func TestCallWireFormatMatchesRFC5531(t *testing.T) {
	cred := SysCred("host", 7, 9)
	msg := marshalCall(xdr.NewEncoder(), 0x11223344, 100003, 3, 1, cred, 0, []byte{0xAA, 0xBB, 0xCC, 0xDD})

	u32 := func(off int) uint32 { return binary.BigEndian.Uint32(msg[off:]) }
	if u32(0) != 0x11223344 {
		t.Errorf("xid = %#x", u32(0))
	}
	if u32(4) != 0 { // CALL
		t.Errorf("mtype = %d", u32(4))
	}
	if u32(8) != 2 { // rpcvers
		t.Errorf("rpcvers = %d", u32(8))
	}
	if u32(12) != 100003 {
		t.Errorf("prog = %d", u32(12))
	}
	if u32(16) != 3 {
		t.Errorf("vers = %d", u32(16))
	}
	if u32(20) != 1 {
		t.Errorf("proc = %d", u32(20))
	}
	if u32(24) != AuthSys {
		t.Errorf("cred flavor = %d", u32(24))
	}
	credLen := int(u32(28))
	if credLen != len(cred.Body) {
		t.Errorf("cred length = %d, want %d", credLen, len(cred.Body))
	}
	off := 32 + credLen + (4-credLen%4)%4
	if u32(off) != AuthNone {
		t.Errorf("verf flavor = %d", u32(off))
	}
	if u32(off+4) != 0 {
		t.Errorf("verf length = %d", u32(off+4))
	}
	if !bytes.Equal(msg[off+8:], []byte{0xAA, 0xBB, 0xCC, 0xDD}) {
		t.Errorf("args = %x", msg[off+8:])
	}
	if len(msg)%4 != 0 {
		t.Errorf("message length %d not 4-aligned", len(msg))
	}
}

// TestReplyWireFormatMatchesRFC5531 checks an accepted reply's layout.
func TestReplyWireFormatMatchesRFC5531(t *testing.T) {
	msg := marshalReply(0xCAFEBABE, Success, []byte{1, 2, 3, 4})
	u32 := func(off int) uint32 { return binary.BigEndian.Uint32(msg[off:]) }
	if u32(0) != 0xCAFEBABE {
		t.Errorf("xid = %#x", u32(0))
	}
	if u32(4) != 1 { // REPLY
		t.Errorf("mtype = %d", u32(4))
	}
	if u32(8) != 0 { // MSG_ACCEPTED
		t.Errorf("reply_stat = %d", u32(8))
	}
	if u32(12) != AuthNone || u32(16) != 0 {
		t.Errorf("verf = %d/%d", u32(12), u32(16))
	}
	if u32(20) != uint32(Success) {
		t.Errorf("accept_stat = %d", u32(20))
	}
	if !bytes.Equal(msg[24:], []byte{1, 2, 3, 4}) {
		t.Errorf("results = %x", msg[24:])
	}
}

// TestParseRejectsGarbage ensures the parser fails cleanly on corrupt and
// truncated messages instead of panicking.
func TestParseRejectsGarbage(t *testing.T) {
	good := marshalCall(xdr.NewEncoder(), 1, 2, 3, 4, NoneCred(), 0, nil)
	for cut := 0; cut < len(good); cut += 3 {
		if _, err := parseMsg(good[:cut]); err == nil && cut < 32 {
			t.Errorf("truncated message of %d bytes parsed", cut)
		}
	}
	// Wrong RPC version.
	bad := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(bad[8:], 3)
	if _, err := parseMsg(bad); err == nil {
		t.Error("rpcvers 3 accepted")
	}
	// Unknown message type.
	bad = append([]byte(nil), good...)
	binary.BigEndian.PutUint32(bad[4:], 9)
	if _, err := parseMsg(bad); err == nil {
		t.Error("mtype 9 accepted")
	}
}

func TestParseRoundTrip(t *testing.T) {
	cred := SysCred("machine-name", 1000, 2000)
	raw := marshalCall(xdr.NewEncoder(), 42, 100003, 3, 6, cred, 0, []byte{9, 9, 9, 9})
	m, err := parseMsg(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.xid != 42 || m.prog != 100003 || m.vers != 3 || m.proc != 6 {
		t.Fatalf("parsed header = %+v", m)
	}
	if m.cred.Flavor != AuthSys || !bytes.Equal(m.cred.Body, cred.Body) {
		t.Fatal("cred corrupted")
	}
	body, _ := m.body.FixedOpaque(4)
	if !bytes.Equal(body, []byte{9, 9, 9, 9}) {
		t.Fatalf("body = %x", body)
	}

	reply := marshalReply(42, GarbageArgs, nil)
	rm, err := parseMsg(reply)
	if err != nil {
		t.Fatal(err)
	}
	if rm.xid != 42 || rm.acceptStat != GarbageArgs {
		t.Fatalf("parsed reply = %+v", rm)
	}
}

// TestTraceVerifierRoundTrip: a non-zero request ID rides the AuthTrace
// verifier and survives a parse; a zero ID keeps the legacy AUTH_NONE
// verifier so untraced traffic is byte-identical to the old wire format.
func TestTraceVerifierRoundTrip(t *testing.T) {
	const rid = uint64(3)<<48 | 77
	raw := marshalCall(xdr.NewEncoder(), 7, 100003, 3, 6, NoneCred(), rid, []byte{1, 2, 3, 4})
	m, err := parseMsg(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.reqID != rid {
		t.Fatalf("reqID = %#x, want %#x", m.reqID, rid)
	}

	untraced := marshalCall(xdr.NewEncoder(), 7, 100003, 3, 6, NoneCred(), 0, []byte{1, 2, 3, 4})
	u32 := func(msg []byte, off int) uint32 { return binary.BigEndian.Uint32(msg[off:]) }
	if u32(untraced, 32) != AuthNone || u32(untraced, 36) != 0 {
		t.Fatalf("untraced verifier = %d/%d, want AUTH_NONE/empty", u32(untraced, 32), u32(untraced, 36))
	}
	um, err := parseMsg(untraced)
	if err != nil {
		t.Fatal(err)
	}
	if um.reqID != 0 {
		t.Fatalf("untraced reqID = %d", um.reqID)
	}
}

// parseMsg parses raw into a message of its own.
func parseMsg(raw []byte) (*parsedMsg, error) {
	m := new(parsedMsg)
	if err := m.parse(raw); err != nil {
		return nil, err
	}
	return m, nil
}
