package gvfs

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
)

// The absorbed CREATE end to end (DESIGN.md, "A CREATE is absorbed under
// write-back"): polling sessions with write-back over the paper's 40 ms link,
// whose MOUNT lists the small export and so proves a new name absent.

const crBS = 32 << 10

// crBlock is block bn of what writer w puts in a file.
func crBlock(w byte, bn int) []byte { return bytes.Repeat([]byte{w, byte(bn)}, crBS/2) }

// writeCommit writes two blocks of w's bytes to fh and commits them; it
// returns the COMMIT's reply and the WRITEs' replies.
func writeCommit(t *testing.T, c *nfscall.Conn, fh nfs3.FH, w byte) (nfs3.CommitRes, []nfs3.WriteRes) {
	t.Helper()
	var wrs []nfs3.WriteRes
	for bn := 0; bn < 2; bn++ {
		wr, err := c.Write(fh, uint64(bn*crBS), crBlock(w, bn), nfs3.Unstable)
		if err != nil || wr.Status != nfs3.OK {
			t.Fatalf("write block %d: %v %v", bn, err, wr.Status)
		}
		wrs = append(wrs, wr)
	}
	cm, err := c.Commit(fh, 0, 0)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return cm, wrs
}

// holds reports whether the server's file at path holds w's two blocks.
func holds(d *Deployment, path string, w byte) bool {
	a, err := d.FS.LookupPath(path)
	if err != nil || a.Size != 2*crBS {
		return false
	}
	got := make([]byte, 2*crBS)
	n, _, _ := d.FS.ReadAt(a.ID, got, 0)
	return n == 2*crBS && bytes.Equal(got[:crBS], crBlock(w, 0)) && bytes.Equal(got[crBS:], crBlock(w, 1))
}

// names counts the names in the export's root.
func names(d *Deployment) int {
	ents, _ := d.FS.ReadDir(d.FS.Root())
	return len(ents)
}

// crSession opens a polling write-back session over a root holding "a" and
// mounts it on each host.
func crSession(t *testing.T, d *Deployment, cfg core.Config, hosts ...string) (*Session, []*Mount) {
	t.Helper()
	cfg.Model, cfg.WriteBack = core.ModelPolling, true
	sess, err := d.NewSession("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ms []*Mount
	for _, h := range hosts {
		m, err := sess.Mount(h, kernelNoac())
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return sess, ms
}

// TestCreatedFileKeepsOneIdentity: the kernel that created a file at home
// knows it by one handle and one fileid for the file's whole life — in the
// CREATE's reply, the WRITEs' and the COMMIT's, a GETATTR, and, once another
// client has written the file and created a name beside it, a GETATTR that
// revalidates, a LOOKUP, a READDIRPLUS and a READDIR that cross. The other
// client knows the file by the server's handle.
func TestCreatedFileKeepsOneIdentity(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("a", []byte("x"))
	d.Run("test", func() {
		_, ms := crSession(t, d, core.Config{PollPeriod: time.Second}, "C1", "C2")
		c1, c2 := ms[0].Client.Conn(), ms[1].Client.Conn()
		root1, root2 := ms[0].Client.Root(), ms[1].Client.Root()
		start := d.Clock.Now()
		cr, err := c1.Create(root1, "n", 0o644, nfs3.CreateGuarded)
		if err != nil || cr.Status != nfs3.OK || !cr.FHFollows || !cr.Attr.Present {
			t.Fatalf("create: %v %v", err, cr.Status)
		}
		if waited := d.Clock.Now() - start; waited > 10*time.Millisecond {
			t.Errorf("the CREATE took %v: it was not answered at home", waited)
		}
		p, id := cr.FH, cr.Attr.Attr.FileID
		cm, wrs := writeCommit(t, c1, p, 1)
		if cm.Status != nfs3.OK || !cm.Wcc.After.Present || cm.Wcc.After.Attr.FileID != id {
			t.Errorf("commit: %v, attributes %+v, want fileid %d", cm.Status, cm.Wcc.After, id)
		}
		for _, wr := range wrs {
			if wr.Wcc.After.Attr.FileID != id {
				t.Errorf("a WRITE's reply carries fileid %d, want %d", wr.Wcc.After.Attr.FileID, id)
			}
		}
		if !holds(d, "n", 1) {
			t.Fatal("the committed file is not on the server")
		}
		r, _ := d.FHForPath("n")
		if r.Equal(p) {
			t.Fatal("the CREATE's reply carried the server's handle: nothing was minted")
		}
		if ga, err := c1.Getattr(p); err != nil || ga.Status != nfs3.OK || ga.Attr.FileID != id || ga.Attr.Size != 2*crBS {
			t.Errorf("getattr: %v %v %+v", err, ga.Status, ga.Attr)
		}

		// The other client knows the file by the server's handle, writes it
		// and creates a name beside it.
		lk, err := c2.Lookup(root2, "n")
		if err != nil || lk.Status != nfs3.OK || !lk.FH.Equal(r) || lk.Attr.Attr.FileID == id {
			t.Fatalf("the other client's lookup: %v %v %v (fileid %d)", err, lk.Status, lk.FH, lk.Attr.Attr.FileID)
		}
		if cm, _ := writeCommit(t, c2, r, 2); cm.Status != nfs3.OK {
			t.Fatalf("the other client's commit: %v", cm.Status)
		}
		if cr, err := c2.Create(root2, "m", 0o644, nfs3.CreateGuarded); err != nil || cr.Status != nfs3.OK {
			t.Fatalf("the other client's create: %v %v", err, cr.Status)
		}
		if cm, err := c2.Commit(root2, 0, 0); err != nil || cm.Status != nfs3.OK {
			t.Fatalf("the other client's commit of its create: %v %v", err, cm.Status)
		}
		d.Clock.Sleep(4 * time.Second) // the GETINVs naming n and the root
		before := ms[0].WANCounts()
		ga, err := c1.Getattr(p)
		if err != nil || ga.Status != nfs3.OK || ga.Attr.FileID != id {
			t.Errorf("getattr after the other client's write: %v %v fileid %d, want %d", err, ga.Status, ga.Attr.FileID, id)
		}
		if n := ms[0].WANCounts()["GETATTR"] - before["GETATTR"]; n != 1 {
			t.Errorf("%d GETATTRs crossed after the GETINV naming the file, want 1", n)
		}
		if rd, err := c1.Read(p, 0, crBS); err != nil || rd.Status != nfs3.OK || !bytes.Equal(rd.Data, crBlock(2, 0)) {
			t.Errorf("read after the other client's write: %v %v", err, rd.Status)
		}
		lk, err = c1.Lookup(root1, "n")
		if err != nil || lk.Status != nfs3.OK || !lk.FH.Equal(p) || lk.Attr.Attr.FileID != id {
			t.Errorf("lookup: %v %v %v fileid %d, want %v %d", err, lk.Status, lk.FH, lk.Attr.Attr.FileID, p, id)
		}
		if n := ms[0].WANCounts()["LOOKUP"] - before["LOOKUP"]; n != 1 {
			t.Errorf("%d LOOKUPs crossed after the GETINV naming the root, want 1", n)
		}
		rp, err := c1.Readdirplus(root1, 0, 0, 4096, 32768)
		if err != nil || rp.Status != nfs3.OK {
			t.Fatalf("readdirplus: %v %v", err, rp.Status)
		}
		rd, err := c1.Readdir(root1, 0, 0, 32768)
		if err != nil || rd.Status != nfs3.OK {
			t.Fatalf("readdir: %v %v", err, rd.Status)
		}
		seen := 0
		for _, e := range rp.Entries {
			if e.Name == "n" {
				seen++
				if !e.FH.Equal(p) || e.FileID != id || e.Attr.Attr.FileID != id {
					t.Errorf("readdirplus lists n as %v fileid %d/%d, want %v %d", e.FH, e.FileID, e.Attr.Attr.FileID, p, id)
				}
			}
		}
		for _, e := range rd.Entries {
			if e.Name == "n" {
				seen++
				if e.FileID != id {
					t.Errorf("readdir lists n with fileid %d, want %d", e.FileID, id)
				}
			}
		}
		if seen != 2 {
			t.Errorf("n listed %d times by READDIRPLUS and READDIR, want once each", seen)
		}
	})
}

// TestRefusedCreateSurfacesAtCommit: another client creates a name inside the
// polling bound, so this session's cache still proves it absent and answers
// its own GUARDED create of it at home. The server refuses that CREATE; the
// refusal is counted, the session's names and attributes of the directory
// go, and the file's COMMIT reports an error. The other client's file is left
// byte for byte as it wrote it, and the next LOOKUP crosses and finds it.
func TestRefusedCreateSurfacesAtCommit(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("a", []byte("x"))
	d.Run("test", func() {
		_, ms := crSession(t, d, core.Config{PollPeriod: time.Hour}, "C1", "C2")
		c1, c2 := ms[0].Client.Conn(), ms[1].Client.Conn()
		cr2, err := c2.Create(ms[1].Client.Root(), "x", 0o644, nfs3.CreateGuarded)
		if err != nil || cr2.Status != nfs3.OK {
			t.Fatalf("the other client's create: %v %v", err, cr2.Status)
		}
		if cm, _ := writeCommit(t, c2, cr2.FH, 2); cm.Status != nfs3.OK {
			t.Fatalf("the other client's commit: %v", cm.Status)
		}
		cr, err := c1.Create(ms[0].Client.Root(), "x", 0o644, nfs3.CreateGuarded)
		if err != nil || cr.Status != nfs3.OK {
			t.Fatalf("create: %v %v (the polling bound hides the other client's file)", err, cr.Status)
		}
		if n := clientCount(d, ms[0], "gvfs_client_create_absorbed_total"); n != 1 {
			t.Fatalf("%d CREATEs answered at home, want 1", n)
		}
		if cm, _ := writeCommit(t, c1, cr.FH, 1); cm.Status == nfs3.OK {
			t.Error("the COMMIT of a file whose CREATE was refused succeeded")
		}
		if n := clientCount(d, ms[0], "gvfs_client_create_refused_total"); n != 1 {
			t.Errorf("gvfs_client_create_refused_total = %d, want 1", n)
		}
		if !holds(d, "x", 2) {
			t.Error("the other client's x changed")
		}
		before := ms[0].WANCounts()
		lk, err := c1.Lookup(ms[0].Client.Root(), "x")
		r, _ := d.FHForPath("x")
		if err != nil || lk.Status != nfs3.OK || !lk.FH.Equal(r) {
			t.Errorf("lookup x after the refusal: %v %v %v, want the other client's %v", err, lk.Status, lk.FH, r)
		}
		if n := ms[0].WANCounts()["LOOKUP"] - before["LOOKUP"]; n != 1 {
			t.Errorf("%d LOOKUPs crossed after the refusal, want 1: the directory's names were kept", n)
		}
	})
}

// TestAbsorbedCreateExactlyOnce: the CREATE behind the kernel's reply and the
// MINT-WRITE of the file's first write-back cross a lossy moment — the
// CREATE's reply lost to a partition, the MINT-WRITE's lost the same way, the
// proxy server restarted after the CREATE ran and before the write-back. Each
// time the COMMIT succeeds and the server holds exactly one new file with the
// bytes written.
func TestAbsorbedCreateExactlyOnce(t *testing.T) {
	cut := func(d *Deployment) {
		d.Net.Partition("C1", "server")
		d.Clock.Sleep(2 * time.Second)
		d.Net.Heal("C1", "server")
	}
	for _, tc := range []struct {
		name string
		// after runs once the CREATE has reached the server; during runs
		// beside the COMMIT, once the write has.
		after, during func(d *Deployment, sess *Session)
	}{
		{name: "the CREATE's reply lost", after: func(d *Deployment, _ *Session) { cut(d) }},
		{name: "the MINT-WRITE's reply lost", during: func(d *Deployment, _ *Session) { cut(d) }},
		{name: "the proxy server restarted between them", after: func(d *Deployment, sess *Session) {
			d.Net.Partition("C1", "server")
			if err := sess.RestartProxyServer(); err != nil {
				panic(err)
			}
			d.Clock.Sleep(time.Second)
			d.Net.Heal("C1", "server")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDeployment(t)
			d.FS.WriteFile("a", []byte("x"))
			d.Run("test", func() {
				sess, ms := crSession(t, d, core.Config{PollPeriod: time.Hour}, "C1")
				c := ms[0].Client.Conn()
				before := names(d)
				cr, err := c.Create(ms[0].Client.Root(), "n", 0o644, nfs3.CreateGuarded)
				if err != nil || cr.Status != nfs3.OK {
					t.Fatalf("create: %v %v", err, cr.Status)
				}
				if tc.after != nil {
					for _, err := d.FS.LookupPath("n"); err != nil; _, err = d.FS.LookupPath("n") {
						d.Clock.Sleep(time.Millisecond)
					}
					tc.after(d, sess)
				}
				if tc.during != nil {
					d.Go("during", func() {
						for !holds(d, "n", 1) {
							d.Clock.Sleep(time.Millisecond)
						}
						tc.during(d, sess)
					})
				}
				if cm, _ := writeCommit(t, c, cr.FH, 1); cm.Status != nfs3.OK {
					t.Errorf("commit: %v", cm.Status)
				}
				d.Clock.Sleep(5 * time.Second)
				if !holds(d, "n", 1) {
					t.Error("the server does not hold the bytes written")
				}
				if n := names(d); n != before+1 {
					t.Errorf("the root holds %d names, want %d", n, before+1)
				}
				if n := clientCount(d, ms[0], "gvfs_client_create_refused_total"); n != 0 {
					t.Errorf("%d CREATEs refused: the session's own create came back EXIST", n)
				}
			})
		})
	}
}

// TestChaosCheckerMatchesRefusedCreates: the chaos checker accepts a refused
// create only against another client's create of the name inside the
// polling bound (matchRefusedCreates), and then drops the refused create's
// event, which made nothing. Without the other client's create in the log,
// the same refusal is a violation.
func TestChaosCheckerMatchesRefusedCreates(t *testing.T) {
	for _, theirs := range []bool{true, false} {
		d := newDeployment(t)
		d.FS.WriteFile("meta/a", []byte("x"))
		d.Run("test", func() {
			_, ms := crSession(t, d, core.Config{PollPeriod: time.Hour}, "C1", "C2")
			clients := []*chaosClient{{d: d, m: ms[0], id: 0}, {d: d, m: ms[1], id: 1}}
			create := func(c *chaosClient) {
				op := chaosOp{kind: 'c', path: "meta/x", start: d.Clock.Now()}
				f, err := c.m.Client.Create(op.path, 0o644, true)
				if err == nil {
					err = f.Close()
				}
				op.err, op.end = err, d.Clock.Now()
				op.setName(c.id, op.path, true, time.Minute)
				c.log = append(c.log, op)
			}
			create(clients[1])
			d.Clock.Sleep(time.Second) // landed
			if !theirs {
				clients[1].log = nil
			}
			create(clients[0])
			d.Clock.Sleep(time.Second) // refused
			if n := clientCount(d, ms[0], "gvfs_client_create_refused_total"); n != 1 {
				t.Fatalf("%d creates refused, want 1", n)
			}
			v := matchRefusedCreates(d, clients, time.Minute)
			if theirs && (len(v) != 0 || len(clients[0].log[0].events) != 0) {
				t.Errorf("a refusal matched by the other client's create: violations %v, the refused create's events %v", v, clients[0].log[0].events)
			}
			if !theirs && len(v) != 1 {
				t.Errorf("a refusal no other create explains: violations %v, want one", v)
			}
		})
	}
}
