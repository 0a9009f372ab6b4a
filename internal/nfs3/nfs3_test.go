package nfs3

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xdr"
)

// roundTrip encodes msg, decodes into fresh, and compares.
type wireMsg interface {
	Encode(*xdr.Encoder)
	Decode(*xdr.Decoder) error
}

func roundTrip(t *testing.T, in, out wireMsg) {
	t.Helper()
	e := xdr.NewEncoder()
	in.Encode(e)
	if e.Len()%4 != 0 {
		t.Fatalf("%T encoded to unaligned %d bytes", in, e.Len())
	}
	d := xdr.NewDecoder(e.Bytes())
	if err := out.Decode(d); err != nil {
		t.Fatalf("%T decode: %v", in, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%T left %d undecoded bytes", in, d.Remaining())
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("%T round trip mismatch:\n in: %+v\nout: %+v", in, in, out)
	}
}

func sampleAttr() Fattr {
	return Fattr{
		Type: TypeReg, Mode: 0o644, Nlink: 2, UID: 7, GID: 8,
		Size: 4096, Used: 4096, FSID: 99, FileID: 1234,
		Atime: Time{Sec: 10, Nsec: 1}, Mtime: Time{Sec: 20, Nsec: 2}, Ctime: Time{Sec: 30, Nsec: 3},
	}
}

func TestFHSplitAndEqual(t *testing.T) {
	fh := MakeFH(77, 1234)
	gen, id := fh.Split()
	if gen != 77 || id != 1234 {
		t.Fatalf("split = (%d, %d)", gen, id)
	}
	if !fh.Equal(MakeFH(77, 1234)) || fh.Equal(MakeFH(77, 1235)) || fh.IsZero() {
		t.Fatal("FH equality broken")
	}
	back, err := FHFromBytes(fh.Bytes())
	if err != nil || !back.Equal(fh) {
		t.Fatalf("FHFromBytes: %v", err)
	}
	if _, err := FHFromBytes(make([]byte, 65)); err == nil {
		t.Fatal("oversize handle accepted")
	}
}

func TestTimeConversions(t *testing.T) {
	d := 90*time.Second + 123*time.Nanosecond
	nt := TimeFromDuration(d)
	if nt.Sec != 90 || nt.Nsec != 123 {
		t.Fatalf("TimeFromDuration = %+v", nt)
	}
	if nt.Duration() != d {
		t.Fatalf("Duration = %v", nt.Duration())
	}
	if !(Time{Sec: 1}).Less(Time{Sec: 2}) || !(Time{Sec: 1, Nsec: 1}).Less(Time{Sec: 1, Nsec: 2}) {
		t.Fatal("Less ordering broken")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	fh := MakeFH(1, 42)
	dir := MakeFH(1, 7)
	attr := sampleAttr()
	mode := uint32(0o600)
	size := uint64(100)

	cases := []struct{ in, out wireMsg }{
		{&GetattrArgs{FH: fh}, &GetattrArgs{}},
		{&GetattrRes{Status: OK, Attr: attr}, &GetattrRes{}},
		{&GetattrRes{Status: ErrStale}, &GetattrRes{}},
		{&SetattrArgs{FH: fh, Attr: Sattr{Mode: &mode, Size: &size}}, &SetattrArgs{}},
		{&SetattrArgs{FH: fh, Attr: Sattr{MtimeServer: true}, Guard: true, GuardTime: Time{Sec: 5}}, &SetattrArgs{}},
		{&WccRes{Status: OK, Wcc: WccData{
			Before: PreOpAttr{Present: true, Attr: WccAttr{Size: 9, Mtime: Time{Sec: 1}, Ctime: Time{Sec: 2}}},
			After:  PostOpAttr{Present: true, Attr: attr},
		}}, &WccRes{}},
		{&DirOpArgs{Dir: dir, Name: "file.txt"}, &DirOpArgs{}},
		{&LookupRes{Status: OK, FH: fh, Attr: PostOpAttr{Present: true, Attr: attr}, DirAttr: PostOpAttr{Present: true, Attr: attr}}, &LookupRes{}},
		{&LookupRes{Status: ErrNoEnt, DirAttr: PostOpAttr{Present: true, Attr: attr}}, &LookupRes{}},
		{&AccessArgs{FH: fh, Access: AccessRead | AccessModify}, &AccessArgs{}},
		{&AccessRes{Status: OK, Attr: PostOpAttr{Present: true, Attr: attr}, Access: AccessRead}, &AccessRes{}},
		{&ReadlinkRes{Status: OK, Attr: PostOpAttr{}, Path: "a/b"}, &ReadlinkRes{}},
		{&ReadArgs{FH: fh, Offset: 8192, Count: 32768}, &ReadArgs{}},
		{&ReadRes{Status: OK, Attr: PostOpAttr{Present: true, Attr: attr}, Count: 3, EOF: true, Data: []byte("abc")}, &ReadRes{}},
		{&ReadRes{Status: ErrIO, Attr: PostOpAttr{}}, &ReadRes{}},
		{&WriteArgs{FH: fh, Offset: 4, Count: 5, Stable: FileSync, Data: []byte("hello")}, &WriteArgs{}},
		{&WriteRes{Status: OK, Count: 5, Committed: FileSync, Verf: 777}, &WriteRes{}},
		{&CreateArgs{Where: DirOpArgs{Dir: dir, Name: "n"}, Mode: CreateUnchecked, Attr: Sattr{Mode: &mode}}, &CreateArgs{}},
		{&CreateArgs{Where: DirOpArgs{Dir: dir, Name: "n"}, Mode: CreateExclusive, Verf: 42}, &CreateArgs{}},
		{&CreateRes{Status: OK, FHFollows: true, FH: fh, Attr: PostOpAttr{Present: true, Attr: attr}}, &CreateRes{}},
		{&CreateRes{Status: ErrExist}, &CreateRes{}},
		{&MkdirArgs{Where: DirOpArgs{Dir: dir, Name: "d"}, Attr: Sattr{Mode: &mode}}, &MkdirArgs{}},
		{&SymlinkArgs{Where: DirOpArgs{Dir: dir, Name: "l"}, Path: "../target"}, &SymlinkArgs{}},
		{&RenameArgs{From: DirOpArgs{Dir: dir, Name: "a"}, To: DirOpArgs{Dir: fh, Name: "b"}}, &RenameArgs{}},
		{&RenameRes{Status: OK}, &RenameRes{}},
		{&LinkArgs{FH: fh, Link: DirOpArgs{Dir: dir, Name: "ln"}}, &LinkArgs{}},
		{&LinkRes{Status: ErrExist, Attr: PostOpAttr{Present: true, Attr: attr}}, &LinkRes{}},
		{&ReaddirArgs{Dir: dir, Cookie: 3, CookieVerf: 4, Count: 1000}, &ReaddirArgs{}},
		{&ReaddirRes{Status: OK, CookieVerf: 4, Entries: []DirEntry{{FileID: 1, Name: "x", Cookie: 1}, {FileID: 2, Name: "y", Cookie: 2}}, EOF: true}, &ReaddirRes{Entries: []DirEntry{}}},
		{&ReaddirplusArgs{Dir: dir, Cookie: 1, DirCount: 512, MaxCount: 4096}, &ReaddirplusArgs{}},
		{&ReaddirplusRes{Status: OK, Entries: []DirEntryPlus{{FileID: 9, Name: "z", Cookie: 5, Attr: PostOpAttr{Present: true, Attr: attr}, FHFollows: true, FH: fh}}, EOF: false}, &ReaddirplusRes{Entries: []DirEntryPlus{}}},
		{&FsstatRes{Status: OK, TBytes: 1 << 40, FBytes: 1 << 39, ABytes: 1 << 39, TFiles: 100, FFiles: 50, AFiles: 50, Invarsec: 1}, &FsstatRes{}},
		{&FsinfoRes{Status: OK, RtMax: 65536, RtPref: 32768, WtMax: 65536, WtPref: 32768, DtPref: 8192, MaxFileSize: 1 << 50, TimeDelta: Time{Nsec: 1}, Properties: 0x1b}, &FsinfoRes{}},
		{&CommitArgs{FH: fh, Offset: 0, Count: 0}, &CommitArgs{}},
		{&CommitRes{Status: OK, Verf: 99}, &CommitRes{}},
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("%02d_%T", i, c.in), func(t *testing.T) {
			roundTrip(t, c.in, c.out)
		})
	}
}

func TestErrorWrapping(t *testing.T) {
	err := fmt.Errorf("call failed: %w", &Error{Status: ErrStale, Proc: ProcGetattr})
	if !IsStatus(err, ErrStale) {
		t.Fatal("IsStatus failed through wrapping")
	}
	if IsStatus(err, ErrNoEnt) {
		t.Fatal("IsStatus matched wrong status")
	}
	if IsStatus(errors.New("other"), ErrStale) {
		t.Fatal("IsStatus matched non-nfs error")
	}
}

func TestProcNames(t *testing.T) {
	if ProcName(ProcGetattr) != "GETATTR" || ProcName(ProcReaddirplus) != "READDIRPLUS" {
		t.Fatal("proc names wrong")
	}
	if ProcName(99) != "PROC99" {
		t.Fatalf("unknown proc name = %s", ProcName(99))
	}
}

func TestAttrSame(t *testing.T) {
	a := sampleAttr()
	b := a
	if !a.Same(&b) {
		t.Fatal("identical attrs not Same")
	}
	b.Mtime.Nsec++
	if a.Same(&b) {
		t.Fatal("mtime change not detected")
	}
	b = a
	b.Size++
	if a.Same(&b) {
		t.Fatal("size change not detected")
	}
}

func TestPropertyReadWriteArgsRoundTrip(t *testing.T) {
	f := func(fileID uint64, off uint64, data []byte) bool {
		in := &WriteArgs{FH: MakeFH(1, fileID), Offset: off, Count: uint32(len(data)), Stable: Unstable, Data: data}
		e := xdr.NewEncoder()
		in.Encode(e)
		var out WriteArgs
		if err := out.Decode(xdr.NewDecoder(e.Bytes())); err != nil {
			return false
		}
		if len(data) == 0 {
			// reflect.DeepEqual treats nil and empty slices differently.
			return out.Offset == off && len(out.Data) == 0
		}
		return reflect.DeepEqual(in, &out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDecodersRejectJunkWithoutPanic(t *testing.T) {
	msgs := []func() wireMsg{
		func() wireMsg { return &GetattrRes{} },
		func() wireMsg { return &LookupRes{} },
		func() wireMsg { return &ReadRes{} },
		func() wireMsg { return &WriteRes{} },
		func() wireMsg { return &CreateRes{} },
		func() wireMsg { return &ReaddirRes{} },
		func() wireMsg { return &ReaddirplusRes{} },
	}
	f := func(junk []byte, pick uint8) bool {
		m := msgs[int(pick)%len(msgs)]()
		_ = m.Decode(xdr.NewDecoder(junk)) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDirEntryWireSizes: the sizes a server budgets a directory reply with
// are exactly what the encoder writes, for every name length mod 4 and with
// and without the optional parts.
func TestDirEntryWireSizes(t *testing.T) {
	size := func(m interface{ Encode(*xdr.Encoder) }) int {
		e := xdr.NewEncoder()
		m.Encode(e)
		return e.Len()
	}
	dirAttr := PostOpAttr{Present: true}
	if got := size(&ReaddirRes{Status: OK, DirAttr: dirAttr}); got != DirResOverhead {
		t.Errorf("an empty READDIR result encodes to %d bytes, DirResOverhead = %d", got, DirResOverhead)
	}
	if got := size(&ReaddirplusRes{Status: OK, DirAttr: dirAttr}); got != DirResOverhead {
		t.Errorf("an empty READDIRPLUS result encodes to %d bytes, DirResOverhead = %d", got, DirResOverhead)
	}
	for n := 1; n <= 9; n++ {
		name := fmt.Sprintf("%0*d", n, 7)
		ent := DirEntry{FileID: 1, Name: name, Cookie: 2}
		if got := size(&ReaddirRes{Status: OK, DirAttr: dirAttr, Entries: []DirEntry{ent}}) - DirResOverhead; got != ent.WireSize() {
			t.Errorf("READDIR entry %q adds %d bytes, WireSize = %d", name, got, ent.WireSize())
		}
		for _, plus := range []DirEntryPlus{
			{Name: name},
			{Name: name, Attr: PostOpAttr{Present: true}},
			{Name: name, Attr: PostOpAttr{Present: true}, FHFollows: true, FH: MakeFH(1, 2)},
		} {
			if got := size(&ReaddirplusRes{Status: OK, DirAttr: dirAttr, Entries: []DirEntryPlus{plus}}) - DirResOverhead; got != plus.WireSize() {
				t.Errorf("READDIRPLUS entry %+v adds %d bytes, WireSize = %d", plus, got, plus.WireSize())
			}
		}
	}
}
