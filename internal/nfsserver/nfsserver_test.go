package nfsserver

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// env is a simulated NFS server plus one connected typed client.
type env struct {
	clk  *vclock.Clock
	fs   *memfs.FS
	srv  *Server
	nfs  *nfscall.Conn
	root nfs3.FH
}

func setup(t *testing.T) (*env, func()) {
	t.Helper()
	clk := vclock.NewVirtual()
	n := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	fs := memfs.New(clk.Now)
	srv := New(fs, 1)
	rpcSrv := sunrpc.NewServer(clk)
	srv.Register(rpcSrv)

	e := &env{clk: clk, fs: fs, srv: srv}
	done := make(chan struct{})
	clk.Go("setup", func() {
		defer close(done)
		l, err := n.Host("server").Listen(":2049")
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		rpcSrv.Serve(l)
		conn, err := n.Host("client").Dial("server:2049")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		e.nfs = nfscall.New(sunrpc.NewClient(clk, conn, sunrpc.SysCred("client", 0, 0)))
		e.root, err = e.nfs.Mount("/export")
		if err != nil {
			t.Errorf("mount: %v", err)
		}
	})
	<-done
	if e.nfs == nil || e.root.IsZero() {
		t.Fatal("setup failed")
	}
	return e, func() {
		e.nfs.Close()
		rpcSrv.Close()
		clk.Stop()
	}
}

func (e *env) run(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	e.clk.Go("test", func() {
		defer close(done)
		fn()
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simulation hung")
	}
}

func TestMountReturnsRootHandle(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		res, err := e.nfs.Getattr(e.root)
		if err != nil || res.Status != nfs3.OK {
			t.Errorf("getattr root: %v / %v", err, res.Status)
			return
		}
		if res.Attr.Type != nfs3.TypeDir {
			t.Errorf("root type = %v", res.Attr.Type)
		}
	})
}

func TestCreateWriteReadOverWire(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		cr, err := e.nfs.Create(e.root, "data.bin", 0o644, nfs3.CreateUnchecked)
		if err != nil || cr.Status != nfs3.OK || !cr.FHFollows {
			t.Errorf("create: %v / %+v", err, cr)
			return
		}
		payload := bytes.Repeat([]byte("wide-area "), 100)
		wr, err := e.nfs.Write(cr.FH, 0, payload, nfs3.FileSync)
		if err != nil || wr.Status != nfs3.OK || wr.Count != uint32(len(payload)) {
			t.Errorf("write: %v / %+v", err, wr)
			return
		}
		if wr.Committed != nfs3.FileSync {
			t.Errorf("committed = %d, want FILE_SYNC (synchronous export)", wr.Committed)
		}
		rr, err := e.nfs.Read(cr.FH, 0, uint32(len(payload)+10))
		if err != nil || rr.Status != nfs3.OK {
			t.Errorf("read: %v / %v", err, rr.Status)
			return
		}
		if !bytes.Equal(rr.Data, payload) || !rr.EOF {
			t.Errorf("read data mismatch (%d bytes, eof=%v)", len(rr.Data), rr.EOF)
		}
	})
}

func TestLookupAndStaleHandles(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		e.nfs.Create(e.root, "f", 0o644, nfs3.CreateUnchecked)
		lr, err := e.nfs.Lookup(e.root, "f")
		if err != nil || lr.Status != nfs3.OK {
			t.Errorf("lookup: %v / %v", err, lr.Status)
			return
		}
		if !lr.DirAttr.Present {
			t.Error("lookup missing dir post-op attributes")
		}
		if lr2, _ := e.nfs.Lookup(e.root, "missing"); lr2.Status != nfs3.ErrNoEnt {
			t.Errorf("missing lookup = %v", lr2.Status)
		}
		// A handle from another generation must be stale.
		bad := nfs3.MakeFH(999, 1)
		if gr, _ := e.nfs.Getattr(bad); gr.Status != nfs3.ErrStale {
			t.Errorf("foreign-generation getattr = %v, want STALE", gr.Status)
		}
	})
}

func TestMtimeChangesOnEveryWrite(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		cr, _ := e.nfs.Create(e.root, "f", 0o644, nfs3.CreateUnchecked)
		g1, _ := e.nfs.Getattr(cr.FH)
		e.nfs.Write(cr.FH, 0, []byte("v2"), nfs3.FileSync)
		g2, _ := e.nfs.Getattr(cr.FH)
		if g1.Attr.Same(&g2.Attr) {
			t.Error("attributes unchanged after write; revalidation would miss the update")
		}
		if !g1.Attr.Mtime.Less(g2.Attr.Mtime) {
			t.Errorf("mtime not increasing: %+v -> %+v", g1.Attr.Mtime, g2.Attr.Mtime)
		}
	})
}

func TestLinkExclusionPrimitive(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		cr, _ := e.nfs.Create(e.root, "tmp1", 0o644, nfs3.CreateUnchecked)
		cr2, _ := e.nfs.Create(e.root, "tmp2", 0o644, nfs3.CreateUnchecked)
		if lr, err := e.nfs.Link(cr.FH, e.root, "lockfile"); err != nil || lr.Status != nfs3.OK {
			t.Errorf("first link: %v / %v", err, lr.Status)
			return
		}
		if lr, _ := e.nfs.Link(cr2.FH, e.root, "lockfile"); lr.Status != nfs3.ErrExist {
			t.Errorf("second link = %v, want EXIST", lr.Status)
		}
		if wr, _ := e.nfs.Remove(e.root, "lockfile"); wr.Status != nfs3.OK {
			t.Errorf("unlock failed: %v", wr.Status)
		}
		if lr, _ := e.nfs.Link(cr2.FH, e.root, "lockfile"); lr.Status != nfs3.OK {
			t.Errorf("relock after unlock = %v", lr.Status)
		}
	})
}

func TestReaddirPagination(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		dir, _ := e.nfs.Mkdir(e.root, "big", 0o755)
		want := map[string]bool{}
		for i := 0; i < 50; i++ {
			name := "file" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			e.nfs.Create(dir.FH, name, 0o644, nfs3.CreateUnchecked)
			want[name] = true
		}
		got := map[string]bool{}
		var cookie uint64
		for {
			res, err := e.nfs.Readdir(dir.FH, cookie, 1, 512)
			if err != nil || res.Status != nfs3.OK {
				t.Errorf("readdir: %v / %v", err, res.Status)
				return
			}
			for _, ent := range res.Entries {
				if got[ent.Name] {
					t.Errorf("duplicate entry %q", ent.Name)
				}
				got[ent.Name] = true
				cookie = ent.Cookie
			}
			if res.EOF {
				break
			}
		}
		if len(got) != len(want) {
			t.Errorf("got %d entries, want %d", len(got), len(want))
		}
	})
}

// TestReaddirRepliesHonourTheCount: the count a client sends bounds the whole
// encoded result (RFC 1813 — READDIR's count, READDIRPLUS's maxcount, and
// dircount for the part a plain READDIR would carry), a single first entry
// that is larger than the count excepted; and following the cookies to EOF
// still lists every name exactly once, whatever the page size.
func TestReaddirRepliesHonourTheCount(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	const files = 300
	want := map[string]bool{}
	for i := 0; i < files; i++ {
		// Names of every length mod 4, so the padding is charged too.
		name := fmt.Sprintf("%s%03d", strings.Repeat("n", 1+i%9), i)
		if _, err := e.fs.WriteFile("big/"+name, nil); err != nil {
			t.Fatal(err)
		}
		want[name] = true
	}
	encoded := func(res interface{ Encode(*xdr.Encoder) }) int {
		enc := xdr.NewEncoder()
		res.Encode(enc)
		return enc.Len()
	}
	one := (&nfs3.DirEntryPlus{Name: "nnnnnnnnn000", Attr: nfs3.PostOpAttr{Present: true}, FHFollows: true, FH: e.root}).WireSize()
	e.run(t, func() {
		lk, err := e.nfs.Lookup(e.root, "big")
		if err != nil || lk.Status != nfs3.OK {
			t.Errorf("lookup: %v %v", err, lk.Status)
			return
		}
		// list follows cookies to EOF through page, which fetches one page and
		// reports its names, its last cookie, its encoded size and EOF.
		list := func(what string, count uint32, page func(cookie uint64) (names []string, last uint64, size int, eof bool, ok bool)) {
			got := map[string]bool{}
			var cookie uint64
			for pages := 0; ; pages++ {
				names, last, size, eof, ok := page(cookie)
				if !ok || pages > files+1 {
					t.Errorf("%s count %d: page %d failed or the listing does not end", what, count, pages)
					return
				}
				if size > int(count) && len(names) > 1 {
					t.Errorf("%s count %d: a reply of %d entries encodes to %d bytes", what, count, len(names), size)
				}
				for _, n := range names {
					if got[n] {
						t.Errorf("%s count %d: %q listed twice", what, count, n)
					}
					got[n] = true
				}
				cookie = last
				if eof {
					break
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s count %d: %d names listed, want %d", what, count, len(got), len(want))
			}
		}
		for _, count := range []uint32{uint32(one), uint32(nfs3.DirResOverhead + one), 512, 4096, 8192, 32768, 65536, nfs3.MaxIOSize} {
			list("READDIRPLUS", count, func(cookie uint64) (names []string, last uint64, size int, eof, ok bool) {
				res, err := e.nfs.Readdirplus(lk.FH, cookie, 1, count, count)
				for _, ent := range res.Entries {
					names, last = append(names, ent.Name), ent.Cookie
				}
				return names, last, encoded(&res), res.EOF, err == nil && res.Status == nfs3.OK
			})
			list("READDIR", count, func(cookie uint64) (names []string, last uint64, size int, eof, ok bool) {
				res, err := e.nfs.Readdir(lk.FH, cookie, 1, count)
				for _, ent := range res.Entries {
					names, last = append(names, ent.Name), ent.Cookie
				}
				return names, last, encoded(&res), res.EOF, err == nil && res.Status == nfs3.OK
			})
		}
		// DirCount bounds the names' share on its own: a generous MaxCount
		// does not lift it.
		res, err := e.nfs.Readdirplus(lk.FH, 0, 1, 512, 65536)
		if err != nil || res.Status != nfs3.OK {
			t.Errorf("readdirplus: %v %v", err, res.Status)
			return
		}
		dir := 0
		for _, ent := range res.Entries {
			dir += (&nfs3.DirEntry{Name: ent.Name}).WireSize()
		}
		if dir > 512 || len(res.Entries) < 2 {
			t.Errorf("DirCount 512: %d entries carrying %d bytes of directory information", len(res.Entries), dir)
		}
	})
}

func TestReaddirplusReturnsHandles(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		e.nfs.Create(e.root, "x", 0o644, nfs3.CreateUnchecked)
		res, err := e.nfs.Readdirplus(e.root, 0, 0, 1024, 8192)
		if err != nil || res.Status != nfs3.OK || len(res.Entries) == 0 {
			t.Errorf("readdirplus: %v / %+v", err, res.Status)
			return
		}
		ent := res.Entries[0]
		if !ent.FHFollows || !ent.Attr.Present {
			t.Errorf("entry missing handle or attrs: %+v", ent)
		}
		if g, _ := e.nfs.Getattr(ent.FH); g.Status != nfs3.OK {
			t.Errorf("returned handle unusable: %v", g.Status)
		}
	})
}

func TestRenameRemoveRmdir(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		d, _ := e.nfs.Mkdir(e.root, "d", 0o755)
		e.nfs.Create(d.FH, "a", 0o644, nfs3.CreateUnchecked)
		if rr, _ := e.nfs.Rename(d.FH, "a", e.root, "b"); rr.Status != nfs3.OK {
			t.Errorf("rename: %v", rr.Status)
		}
		if rm, _ := e.nfs.Rmdir(e.root, "d"); rm.Status != nfs3.OK {
			t.Errorf("rmdir: %v", rm.Status)
		}
		if rm, _ := e.nfs.Remove(e.root, "b"); rm.Status != nfs3.OK {
			t.Errorf("remove: %v", rm.Status)
		}
		if rm, _ := e.nfs.Remove(e.root, "b"); rm.Status != nfs3.ErrNoEnt {
			t.Errorf("double remove = %v", rm.Status)
		}
	})
}

func TestSetattrTruncateAndWcc(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		cr, _ := e.nfs.Create(e.root, "f", 0o644, nfs3.CreateUnchecked)
		e.nfs.Write(cr.FH, 0, []byte("0123456789"), nfs3.FileSync)
		size := uint64(3)
		res, err := e.nfs.Setattr(cr.FH, nfs3.Sattr{Size: &size})
		if err != nil || res.Status != nfs3.OK {
			t.Errorf("setattr: %v / %v", err, res.Status)
			return
		}
		if !res.Wcc.Before.Present || res.Wcc.Before.Attr.Size != 10 {
			t.Errorf("wcc before = %+v", res.Wcc.Before)
		}
		if !res.Wcc.After.Present || res.Wcc.After.Attr.Size != 3 {
			t.Errorf("wcc after = %+v", res.Wcc.After)
		}
	})
}

func TestSymlinkReadlink(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		sr, err := e.nfs.Symlink(e.root, "ln", "over/there")
		if err != nil || sr.Status != nfs3.OK {
			t.Errorf("symlink: %v / %v", err, sr.Status)
			return
		}
		rl, err := e.nfs.Readlink(sr.FH)
		if err != nil || rl.Status != nfs3.OK || rl.Path != "over/there" {
			t.Errorf("readlink = %+v, %v", rl, err)
		}
	})
}

func TestFsstatFsinfoCommit(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		fsr, err := e.nfs.Fsstat(e.root)
		if err != nil || fsr.Status != nfs3.OK || fsr.TBytes == 0 {
			t.Errorf("fsstat: %v / %+v", err, fsr)
		}
		fir, err := e.nfs.Fsinfo(e.root)
		if err != nil || fir.Status != nfs3.OK || fir.WtMax == 0 {
			t.Errorf("fsinfo: %v / %+v", err, fir)
		}
		cr, _ := e.nfs.Create(e.root, "f", 0o644, nfs3.CreateUnchecked)
		cm, err := e.nfs.Commit(cr.FH, 0, 0)
		if err != nil || cm.Status != nfs3.OK {
			t.Errorf("commit: %v / %v", err, cm.Status)
		}
	})
}

// TestOversizedReadCountStaysBounded is the regression net for the
// wire-driven allocation fix: a READ asking for 4 GiB must cost the server
// a MaxIOSize-bounded buffer and come back as a short read, not a 4 GiB
// make(). Run with a memory-limited process, the old code OOMed here.
func TestOversizedReadCountStaysBounded(t *testing.T) {
	e, cleanup := setup(t)
	defer cleanup()
	e.run(t, func() {
		cr, err := e.nfs.Create(e.root, "small", 0o644, nfs3.CreateUnchecked)
		if err != nil || cr.Status != nfs3.OK {
			t.Errorf("create: %v / %+v", err, cr)
			return
		}
		payload := []byte("twelve bytes")
		if wr, err := e.nfs.Write(cr.FH, 0, payload, nfs3.FileSync); err != nil || wr.Status != nfs3.OK {
			t.Errorf("write: %v / %+v", err, wr)
			return
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rr, err := e.nfs.Read(cr.FH, 0, 0xffffffff)
		runtime.ReadMemStats(&after)
		if err != nil || rr.Status != nfs3.OK {
			t.Errorf("oversized read: %v / %v", err, rr.Status)
			return
		}
		if !bytes.Equal(rr.Data, payload) || !rr.EOF {
			t.Errorf("short read = %d bytes (eof=%v), want the %d-byte file", len(rr.Data), rr.EOF, len(payload))
		}
		// The request may allocate a clamped reply buffer (<= MaxIOSize) but
		// nothing within an order of magnitude of the claimed 4 GiB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*nfs3.MaxIOSize {
			t.Errorf("oversized READ allocated %d bytes; count clamp missing", grew)
		}
	})
}
