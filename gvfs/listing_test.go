package gvfs

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
)

// TestListingForgetsRemoteRemove: a polling client whose LOOKUP of a small
// directory brought the directory's listing answers the names in it at home;
// once another client removes one of them and a poll has delivered the news,
// the removed name is asked of the server again and is gone, and the name
// beside it is still found.
func TestListingForgetsRemoteRemove(t *testing.T) {
	d, err := NewDeployment(Config{WAN: fastWAN})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, name := range []string{"dir/gone", "dir/kept"} {
		if _, err := d.FS.WriteFile(name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	d.Run("listing", func() {
		sess, err := d.NewSession("s", core.Config{Model: core.ModelPolling, PollPeriod: time.Second})
		if err != nil {
			t.Error(err)
			return
		}
		a, err := sess.Mount("A", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		b, err := sess.Mount("B", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		d.Clock.Sleep(time.Second) // the bootstrap polls have landed
		lookup := func(m *Mount, dir nfs3.FH, name string) (nfs3.LookupRes, int64) {
			before := m.WANCounts()["LOOKUP"]
			lk, err := m.Client.Conn().Lookup(dir, name)
			if err != nil {
				t.Errorf("%s: lookup %s: %v", m.Host(), name, err)
			}
			return lk, m.WANCounts()["LOOKUP"] - before
		}
		dirA, _ := lookup(a, a.Client.Root(), "dir")
		if lk, crossed := lookup(a, dirA.FH, "gone"); lk.Status != nfs3.OK || crossed != 0 {
			t.Errorf("before the remove: gone is %v, %d LOOKUPs crossed; want found at home", lk.Status, crossed)
		}
		dirB, _ := lookup(b, b.Client.Root(), "dir")
		if rm, err := b.Client.Conn().Remove(dirB.FH, "gone"); err != nil || rm.Status != nfs3.OK {
			t.Errorf("B's remove: %v %v", err, rm.Status)
			return
		}
		d.Clock.Sleep(5 * time.Second) // several poll periods: A has heard of it
		if lk, crossed := lookup(a, dirA.FH, "gone"); lk.Status != nfs3.ErrNoEnt || crossed != 1 {
			t.Errorf("after the remove and a poll: gone is %v, %d LOOKUPs crossed; want NOENT from the server", lk.Status, crossed)
		}
		if lk, _ := lookup(a, dirA.FH, "kept"); lk.Status != nfs3.OK {
			t.Errorf("after the remove: kept is %v", lk.Status)
		}
	})
}
