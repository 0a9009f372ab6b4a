package gvfs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
)

// TestFirstWriteRecallsSharersInParallel: six sessions mounted the export, so
// each holds a read delegation on the file its MOUNT granted. The first WRITE
// to the file by another client must take all six back before it runs; the
// proxy server calls them back at once, not one after another, so the writer
// waits one callback round trip on top of its own, where it waited six.
func TestFirstWriteRecallsSharersInParallel(t *testing.T) {
	const sharers = 6
	// The deployment's default link: 40 ms, and 32 KiB takes 65 ms at 4 Mbit/s.
	rtt, own := 40*time.Millisecond, 105*time.Millisecond
	d := newDeployment(t)
	d.FS.WriteFile("file", make([]byte, streamBS))
	d.Run("test", func() {
		sess, err := d.NewSession("s", core.Config{Model: core.ModelDelegation, FlushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		a, err := sess.Mount("A", kernelNoac())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sharers; i++ {
			if _, err := sess.Mount(fmt.Sprintf("R%d", i), kernelNoac()); err != nil {
				t.Fatal(err)
			}
		}
		w := &streamReader{t: t, d: d, m: a, conn: a.Client.Conn()}
		fh := w.lookup("file")
		before := callbacksSent(d, sess)
		start := d.Clock.Now()
		if wr, err := w.conn.Write(fh, 0, streamData(7, 1), nfs3.FileSync); err != nil || wr.Status != nfs3.OK {
			t.Fatalf("A's write: %v %v", err, wr.Status)
		}
		took := d.Clock.Now() - start
		if sent := callbacksSent(d, sess) - before; sent != sharers {
			t.Errorf("A's first WRITE sent %d callbacks, want %d (one per MOUNT's grant)", sent, sharers)
		}
		// Its own round trip, the callbacks' (each sharer's, at once) and
		// slack for the proxy hops; one after another the callbacks would
		// add six.
		if bound := own + 3*rtt; took >= bound {
			t.Errorf("A's first WRITE took %v against %d sharers: the callbacks went one after another (bound %v)", took, sharers, bound)
		}
		t.Logf("first WRITE against %d sharers: %v", sharers, took)
	})
}
