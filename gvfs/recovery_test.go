package gvfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
)

// TestInvalidationBufferOverflow forces a reader's per-client circular
// invalidation buffer to wrap (more pending invalidations than
// InvBufferEntries) and asserts the proxy server falls back to a
// whole-cache force-invalidate on the next poll — and that the reader
// still observes every new value afterwards.
func TestInvalidationBufferOverflow(t *testing.T) {
	const nfiles = 10
	d := newDeployment(t)
	for i := 0; i < nfiles; i++ {
		d.FS.WriteFile(fmt.Sprintf("o/f%d", i), []byte(fmt.Sprintf("old-%d", i)))
	}
	d.Run("overflow", func() {
		cfg := core.Config{
			Model:            core.ModelPolling,
			WriteBack:        true,
			InvBufferEntries: 4, // far fewer than the invalidations below
			PollPeriod:       60 * time.Second,
			PollBackoffMax:   60 * time.Second,
			FlushInterval:    5 * time.Second,
		}
		sess, err := d.NewSession("overflow", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		writer, err := sess.Mount("W", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		reader, err := sess.Mount("R", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}

		// Warm the reader's cache, let the bootstrap poll(s) settle, then
		// take the force-invalidation baseline.
		warm := func() {
			for i := 0; i < nfiles; i++ {
				if _, err := reader.Client.ReadFile(fmt.Sprintf("o/f%d", i)); err != nil {
					t.Errorf("warm read f%d: %v", i, err)
				}
			}
		}
		warm()
		d.Clock.Sleep(cfg.PollPeriod + 5*time.Second)
		warm()
		base := clientCount(d, reader, "gvfs_client_force_invalidations_total")

		// Overwrite every file from the writer: each write queues at least
		// one invalidation entry for the reader, wrapping its 4-entry
		// buffer well before the next poll drains it.
		for i := 0; i < nfiles; i++ {
			p := fmt.Sprintf("o/f%d", i)
			if err := writer.Client.WriteFile(p, []byte(fmt.Sprintf("new-%d", i))); err != nil {
				t.Fatalf("overwrite %s: %v", p, err)
			}
		}

		// One flush tick lands the data, the next poll hits the overflowed
		// buffer and must force-invalidate the reader's whole cache.
		d.Clock.Sleep(2*cfg.FlushInterval + cfg.PollPeriod + 10*time.Second)

		if got := clientCount(d, reader, "gvfs_client_force_invalidations_total"); got <= base {
			t.Errorf("ForceInvalidations = %d after overflow, want > baseline %d", got, base)
		}
		for i := 0; i < nfiles; i++ {
			p := fmt.Sprintf("o/f%d", i)
			got, err := reader.Client.ReadFile(p)
			if err != nil {
				t.Errorf("post-overflow read %s: %v", p, err)
				continue
			}
			if want := fmt.Sprintf("new-%d", i); string(got) != want {
				t.Errorf("post-overflow %s = %q, want %q", p, got, want)
			}
		}
	})
}

// TestRestartProxyServerRecallsDirty crashes and restarts the proxy server
// while a client holds a write delegation with unflushed dirty blocks. The
// restarted server's recovery round (whole-cache callbacks) must re-grant
// the write delegation, so a cross-client read still observes the dirty
// data via a recall — the in-flight write survives the crash.
func TestRestartProxyServerRecallsDirty(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("d/f", []byte("v0"))
	d.Run("restart", func() {
		cfg := core.Config{
			Model: core.ModelDelegation,
			// Keep the write dirty across the restart: no flush tick fires
			// during the test.
			FlushInterval: 10 * time.Minute,
		}
		sess, err := d.NewSession("restart", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ms := mountClients(t, sess, 2)
		// Only the writer touches the file before the restart: a read from
		// ms[1] here would make the file shared and deny ms[0] the write
		// delegation, turning its write into a synchronous write-through
		// with nothing left dirty to recover.
		if got, err := ms[0].Client.ReadFile("d/f"); err != nil || string(got) != "v0" {
			t.Fatalf("initial read = %q, %v", got, err)
		}

		if err := ms[0].Client.WriteFile("d/f", []byte("v1-dirty")); err != nil {
			t.Fatalf("write: %v", err)
		}

		if err := sess.RestartProxyServer(); err != nil {
			t.Fatalf("restart: %v", err)
		}

		// Read-your-writes must hold for the writer across the restart.
		if got, err := ms[0].Client.ReadFile("d/f"); err != nil || string(got) != "v1-dirty" {
			t.Errorf("writer read after restart = %q, %v, want v1-dirty", got, err)
		}
		// The other client's read reaches the recovered server, which must
		// know (from its recovery round) that ms[0] holds dirty data and
		// recall it before answering.
		if got, err := ms[1].Client.ReadFile("d/f"); err != nil || string(got) != "v1-dirty" {
			t.Errorf("cross-client read after restart = %q, %v, want v1-dirty", got, err)
		}
		if clientCount(d, ms[0], "gvfs_client_flushed_blocks_total") == 0 {
			t.Error("writer flushed no blocks; recovery never recalled its dirty data")
		}
	})
}

// TestRemountFromDiskFlushesDirty crashes a client machine (kernel caches,
// proxy process and its memory lost, disk cache intact) while it holds dirty
// delegated blocks. The recovered proxy must write the surviving dirty
// blocks back so both the remounted client and other clients read the
// pre-crash data.
func TestRemountFromDiskFlushesDirty(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("d/g", []byte("v0"))
	d.Run("crash", func() {
		cfg := core.Config{
			Model:         core.ModelDelegation,
			FlushInterval: 10 * time.Minute,
			DiskCacheDir:  t.TempDir(),
		}
		sess, err := d.NewSession("crash", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ms := mountClients(t, sess, 2)
		if err := ms[0].Client.WriteFile("d/g", []byte("v1-precrash")); err != nil {
			t.Fatalf("write: %v", err)
		}

		nm, err := sess.RemountFromDisk(ms[0], kernelNoac())
		if err != nil {
			t.Fatalf("remount after crash: %v", err)
		}
		if dirty, flushed := clientCount(d, nm, "gvfs_client_recovered_dirty_blocks_total"), clientCount(d, nm, "gvfs_client_flushed_blocks_total"); dirty == 0 || flushed == 0 {
			t.Errorf("recovered proxy flushed nothing: %d dirty blocks recovered, %d flushed", dirty, flushed)
		}
		if got, err := nm.Client.ReadFile("d/g"); err != nil || string(got) != "v1-precrash" {
			t.Errorf("remounted client read = %q, %v, want v1-precrash", got, err)
		}
		if got, err := ms[1].Client.ReadFile("d/g"); err != nil || string(got) != "v1-precrash" {
			t.Errorf("other client read = %q, %v, want v1-precrash", got, err)
		}
	})
}

// TestPartialWritebackOnRecall makes a recall hit a client whose dirty
// list exceeds DirtyListThreshold: the client may answer the recall before
// writing everything back (RecallRes.Pending), and the server must protect
// reads of the still-pending blocks until the write-back lands. A
// competing reader that immediately reads the whole file must see every
// byte of the writer's data.
func TestPartialWritebackOnRecall(t *testing.T) {
	const (
		blockSize = 4096
		nblocks   = 10
	)
	d := newDeployment(t)
	d.FS.WriteFile("d/big", nil) // precreate so WriteFile needn't Mkdir
	d.Run("partial", func() {
		cfg := core.Config{
			Model:              core.ModelDelegation,
			BlockSize:          blockSize,
			DirtyListThreshold: 2, // well below the 10 dirty blocks written
			FlushInterval:      10 * time.Minute,
		}
		sess, err := d.NewSession("partial", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		kopts := nfsclient.Options{NoAC: true, BlockSize: blockSize}
		writerM, err := sess.Mount("C1", kopts)
		if err != nil {
			t.Fatalf("mount writer: %v", err)
		}
		readerM, err := sess.Mount("C2", kopts)
		if err != nil {
			t.Fatalf("mount reader: %v", err)
		}

		content := make([]byte, nblocks*blockSize)
		for b := 0; b < nblocks; b++ {
			for i := 0; i < blockSize; i++ {
				content[b*blockSize+i] = byte('a' + b)
			}
		}
		if err := writerM.Client.WriteFile("d/big", content); err != nil {
			t.Fatalf("write: %v", err)
		}

		// Immediate cross-client read: triggers the recall; the writer
		// reports most blocks as pending, and each subsequent read of a
		// pending block must chase the write-back rather than serve stale
		// server-side data.
		got, err := readerM.Client.ReadFile("d/big")
		if err != nil {
			t.Fatalf("cross-client read: %v", err)
		}
		if !bytes.Equal(got, content) {
			i := 0
			for i < len(got) && i < len(content) && got[i] == content[i] {
				i++
			}
			t.Errorf("cross-client read diverges at byte %d (len %d vs %d)", i, len(got), len(content))
		}
		if clientCount(d, writerM, "gvfs_client_recalls_total") == 0 {
			t.Error("writer served no recalls")
		}
		if flushed := clientCount(d, writerM, "gvfs_client_flushed_blocks_total"); flushed < nblocks {
			t.Errorf("writer flushed %d blocks, want >= %d", flushed, nblocks)
		}
	})
}

// TestRecallFenceDiesWithTheServer: a recall fence orders grants and recalls
// within one proxy-server instance's sequence. A restarted server counts from
// zero again, so a client that kept its fences across RECALL_ALL would drop
// every grant for a file recalled before the crash — and forward every access
// to it — until the new counter happened to pass the old fence.
func TestRecallFenceDiesWithTheServer(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("fence/f", []byte("v0"))
	d.Run("fence", func() {
		sess, err := d.NewSession("fence", core.Config{Model: core.ModelDelegation})
		if err != nil {
			t.Error(err)
			return
		}
		ms := mountClients(t, sess, 2)
		f, err := ms[0].Client.Open("fence/f")
		if err != nil {
			t.Error(err)
			return
		}
		fh, reader := f.FH(), ms[0].Client.Conn()
		// Reader and writer take turns, so the server's sequence is well past
		// what one client's remount traffic reaches, and the last thing the
		// reader hears before the crash is a recall.
		for i := 0; i < 8; i++ {
			if res, err := reader.Getattr(fh); err != nil || res.Status != nfs3.OK {
				t.Errorf("getattr %d: %v %v", i, err, res.Status)
				return
			}
			if err := ms[1].Client.WriteFile("fence/f", []byte(fmt.Sprintf("v%d", i+1))); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		if clientCount(d, ms[0], "gvfs_client_recalls_total") == 0 {
			t.Error("the reader was never recalled: no fence to outlive the server")
		}
		if err := sess.RestartProxyServer(); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		// The first access re-registers with the new server and is granted a
		// delegation; the second is served under it.
		for i, wantLocal := range []bool{false, true} {
			hits, forwards := clientCount(d, ms[0], "gvfs_client_meta_hits_total", "cache", "attr"), clientCount(d, ms[0], "gvfs_client_forwards_total")
			if res, err := reader.Getattr(fh); err != nil || res.Status != nfs3.OK {
				t.Errorf("getattr %d after restart: %v %v", i, err, res.Status)
				return
			}
			served := clientCount(d, ms[0], "gvfs_client_meta_hits_total", "cache", "attr") > hits
			if local := served && clientCount(d, ms[0], "gvfs_client_forwards_total") == forwards; local != wantLocal {
				t.Errorf("access %d after the restart: served locally = %v, want %v", i+1, local, wantLocal)
			}
		}
	})
}

// TestPartitionLongerThanExpiryFencesWriteBack: a client buffers dirty blocks
// under a write delegation and is then partitioned for longer than
// DelegExpiry, so the recall that takes the delegation back comes from the
// idle sweep, and is lost. The sweep must settle that like a lost recall on
// any other path: when the link heals, the client's write-back — older than
// what another client has written since — is refused with NFS3ERR_STALE and
// discarded (Section 4.3.4), instead of landing last.
func TestPartitionLongerThanExpiryFencesWriteBack(t *testing.T) {
	const size = 4 * 32 * 1024
	d := newDeployment(t)
	d.FS.WriteFile("px/f", bytes.Repeat([]byte("0"), size))
	onServer := func() []byte {
		attr, err := d.FS.LookupPath("px/f")
		if err != nil {
			t.Fatalf("server lost the file: %v", err)
		}
		buf := make([]byte, size+1)
		n, _, _ := d.FS.ReadAt(attr.ID, buf, 0)
		return buf[:n]
	}
	d.Run("partition", func() {
		cfg := core.Config{
			Model:         core.ModelDelegation,
			DelegExpiry:   time.Minute,
			DelegRenew:    45 * time.Second,
			FlushInterval: 5 * time.Second,
			CallTimeout:   4 * time.Second,
		}
		sess, err := d.NewSession("px", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ms := mountClients(t, sess, 2)
		a, b := ms[0], ms[1]

		older, newer := bytes.Repeat([]byte("A"), size), bytes.Repeat([]byte("B"), size)
		if err := a.Client.WriteFile("px/f", older); err != nil {
			t.Errorf("A write: %v", err)
			return
		}
		if bytes.Equal(onServer(), older) {
			t.Error("A's write went through: nothing is buffered under a write delegation")
			return
		}
		d.Net.Partition(a.Host(), "server")

		// A idles past DelegExpiry with its flushes failing; the sweep's
		// recall cannot reach it either.
		for waited := 0; callbacksSent(d, sess) == 0; waited++ {
			if waited > 180 {
				t.Error("the idle sweep never recalled A's write delegation")
				return
			}
			d.Clock.Sleep(time.Second)
		}
		d.Clock.Sleep(2 * time.Second) // the unreachable dial has failed by now

		// Only then does B write the file, and its bytes reach the server.
		if err := b.Client.WriteFile("px/f", newer); err != nil {
			t.Errorf("B write: %v", err)
			return
		}
		d.Clock.Sleep(2 * cfg.FlushInterval)
		if !bytes.Equal(onServer(), newer) {
			t.Error("B's bytes never reached the server")
			return
		}

		// The link heals and A's flush loop runs.
		d.Net.Heal(a.Host(), "server")
		d.Clock.Sleep(4*cfg.FlushInterval + 2*cfg.CallTimeout)
		if got := onServer(); !bytes.Equal(got, newer) {
			t.Errorf("server holds %q..., want B's bytes: A's stale write-back landed over them", got[:8])
		}
		if errs, flushed := clientCount(d, a, "gvfs_client_flush_errors_total"), clientCount(d, a, "gvfs_client_flushed_blocks_total"); errs == 0 || flushed != 0 {
			t.Errorf("A's write-back was not refused and discarded: %d flush errors, %d blocks flushed", errs, flushed)
		}
		if got, err := a.Client.ReadFile("px/f"); err != nil || !bytes.Equal(got, newer) {
			t.Errorf("A reads %d bytes (%q...), %v after the discard; want B's", len(got), got[:min(8, len(got))], err)
		}
	})
}

// TestFencedWriteBackWithoutConflictLands: a client buffers writes under a
// write delegation and is partitioned; another client's read makes the
// server recall the delegation, and the recall is lost. Nobody writes the
// file meanwhile. When the link heals, the lost-recall fence refuses the
// client's write-back — but the file is as it was under the dirty blocks, so
// discarding them would lose writes the kernel was told had succeeded, with
// nothing newer to protect. They must land, and the writer read them back.
// (TestPartitionLongerThanExpiryFencesWriteBack is the other side: a
// revocation another client did write behind is discarded.)
func TestFencedWriteBackWithoutConflictLands(t *testing.T) {
	const size = 4 * 32 * 1024
	d := newDeployment(t)
	d.FS.WriteFile("px/f", bytes.Repeat([]byte("0"), size))
	onServer := func() []byte {
		attr, err := d.FS.LookupPath("px/f")
		if err != nil {
			t.Fatalf("server lost the file: %v", err)
		}
		buf := make([]byte, size+1)
		n, _, _ := d.FS.ReadAt(attr.ID, buf, 0)
		return buf[:n]
	}
	d.Run("partition", func() {
		cfg := core.Config{
			Model:         core.ModelDelegation,
			DelegExpiry:   2 * time.Minute,
			DelegRenew:    time.Minute,
			FlushInterval: 5 * time.Second,
			CallTimeout:   4 * time.Second,
		}
		sess, err := d.NewSession("px", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ms := mountClients(t, sess, 2)
		a, b := ms[0], ms[1]

		// The first block's WRITE crosses and brings the write delegation;
		// the other three are buffered under it.
		written := bytes.Repeat([]byte("A"), size)
		if err := chaosOverwrite(a, "px/f", string(written), 0); err != nil {
			t.Errorf("A write: %v", err)
			return
		}
		if bytes.Equal(onServer(), written) {
			t.Error("A's write went through: nothing is buffered under a write delegation")
			return
		}
		d.Net.Partition(a.Host(), "server")

		// B's read recalls A's delegation; the recall is lost and the server
		// revokes it. B writes nothing.
		if _, err := b.Client.ReadFile("px/f"); err != nil {
			t.Errorf("B read: %v", err)
			return
		}
		if callbacksSent(d, sess) == 0 {
			t.Error("B's read recalled nothing: no fence to refuse A's write-back")
			return
		}

		d.Net.Heal(a.Host(), "server")
		d.Clock.Sleep(4*cfg.FlushInterval + 2*cfg.CallTimeout)
		if !bytes.Equal(onServer(), written) {
			t.Errorf("server holds %q... in block 1, want A's bytes: the fenced write-back was discarded", onServer()[32*1024:32*1024+8])
		}
		if n := d.PublishMetrics().Counters[`gvfs_client_flush_errors_total{node="C1/px"}`]; n != 0 {
			t.Errorf("%d write-back errors at A", n)
		}
		if got, err := a.Client.ReadFile("px/f"); err != nil || !bytes.Equal(got, written) {
			t.Errorf("A reads %d bytes (%q...), %v; want its own", len(got), got[:min(8, len(got))], err)
		}
	})
}
