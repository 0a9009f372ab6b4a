package nfs3

import (
	"errors"
	"testing"

	"repro/internal/xdr"
)

// These tests pin the wire-driven allocation bounds: a hostile frame may
// claim any count or opaque length it likes, but decoding must never size an
// allocation (or a loop) from the claim. Before the MaxIOSize clamps they
// fail — WriteArgs would accept a 2 GiB claimed payload and ReadArgs.Count
// would pass 0xffffffff through to the server's reply buffer.

// hostileWriteArgs builds WRITE3args whose opaque data field claims
// claimedLen bytes but carries only len(actual) on the wire.
func hostileWriteArgs(claimedLen uint32, actual []byte) []byte {
	e := xdr.NewEncoder()
	encodeFH(e, MakeFH(1, 2))
	e.Uint64(0)          // offset
	e.Uint32(claimedLen) // count
	e.Uint32(FileSync)   // stable
	e.Uint32(claimedLen) // opaque length, lying
	e.FixedOpaque(actual)
	return e.Bytes()
}

func TestWriteArgsRejectsOversizedData(t *testing.T) {
	for _, claimed := range []uint32{MaxIOSize + 1, 1 << 30, 0xffffffff} {
		var a WriteArgs
		err := a.Decode(xdr.NewDecoder(hostileWriteArgs(claimed, []byte("tiny"))))
		if !errors.Is(err, xdr.ErrLength) {
			t.Errorf("claimed %d bytes: err = %v, want ErrLength", claimed, err)
		}
	}
	// At the bound with too few actual bytes: short buffer, not a huge alloc.
	var a WriteArgs
	err := a.Decode(xdr.NewDecoder(hostileWriteArgs(MaxIOSize, []byte("tiny"))))
	if !errors.Is(err, xdr.ErrShortBuffer) {
		t.Errorf("claimed MaxIOSize with 4 real bytes: err = %v, want ErrShortBuffer", err)
	}
}

func TestReadResRejectsOversizedData(t *testing.T) {
	e := xdr.NewEncoder()
	e.Uint32(uint32(OK))
	(&PostOpAttr{}).Encode(e)
	e.Uint32(MaxIOSize + 1) // count
	e.Bool(true)            // eof
	e.Uint32(MaxIOSize + 1) // opaque length, lying
	var r ReadRes
	if err := r.Decode(xdr.NewDecoder(e.Bytes())); !errors.Is(err, xdr.ErrLength) {
		t.Errorf("err = %v, want ErrLength", err)
	}
}

func TestReadArgsClampsCount(t *testing.T) {
	in := ReadArgs{FH: MakeFH(1, 2), Offset: 8, Count: 0xffffffff}
	e := xdr.NewEncoder()
	in.Encode(e)
	var out ReadArgs
	if err := out.Decode(xdr.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if out.Count != MaxIOSize {
		t.Errorf("Count = %d, want clamped to %d", out.Count, MaxIOSize)
	}
}

func TestReaddirCountsClamp(t *testing.T) {
	e := xdr.NewEncoder()
	(&ReaddirArgs{Dir: MakeFH(1, 2), Count: 0xffffffff}).Encode(e)
	var rd ReaddirArgs
	if err := rd.Decode(xdr.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rd.Count != MaxIOSize {
		t.Errorf("ReaddirArgs.Count = %d, want %d", rd.Count, MaxIOSize)
	}

	e = xdr.NewEncoder()
	(&ReaddirplusArgs{Dir: MakeFH(1, 2), DirCount: 0xffffffff, MaxCount: 0xffffffff}).Encode(e)
	var rdp ReaddirplusArgs
	if err := rdp.Decode(xdr.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rdp.DirCount != MaxIOSize || rdp.MaxCount != MaxIOSize {
		t.Errorf("ReaddirplusArgs counts = (%d, %d), want both %d", rdp.DirCount, rdp.MaxCount, MaxIOSize)
	}
}

// TestWriteArgsDataAliasesFrame pins the zero-copy contract: the decoded
// Data field aliases the input frame rather than copying it. Consumers rely
// on this (and must copy anything they cache) — if a copy sneaks back in,
// the hot path silently regresses to one allocation per WRITE.
func TestWriteArgsDataAliasesFrame(t *testing.T) {
	in := WriteArgs{FH: MakeFH(1, 2), Offset: 0, Count: 8, Stable: FileSync, Data: []byte("8 bytes!")}
	e := xdr.NewEncoder()
	in.Encode(e)
	frame := e.Bytes()
	var out WriteArgs
	if err := out.Decode(xdr.NewDecoder(frame)); err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xFF // scribble on the frame tail (inside Data)
	if out.Data[len(out.Data)-1] == '!' {
		t.Error("WriteArgs.Data does not alias the frame; zero-copy decode regressed")
	}
}
