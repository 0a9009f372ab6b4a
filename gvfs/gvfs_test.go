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

// thirty is the fixed 30-second attribute/invalidation period used across
// the paper's experiments.
const thirty = 30 * time.Second

func newDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewDeployment(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// kernelDefault mirrors the experiments' kernel client: 30 s revalidation.
func kernelDefault() nfsclient.Options {
	return nfsclient.Options{AttrMin: thirty, AttrMax: thirty}
}

// kernelNoac is the noac mount used under the strong model (GVFS2).
func kernelNoac() nfsclient.Options {
	return nfsclient.Options{NoAC: true}
}

func TestPollingSessionServesRepeatedStatsLocally(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("repo/tool.bin", bytes.Repeat([]byte{1}, 100_000))
	d.Run("test", func() {
		sess, err := d.NewSession("repo", core.Config{Model: core.ModelPolling, PollPeriod: thirty})
		if err != nil {
			t.Error(err)
			return
		}
		// noac kernel client: every stat reaches the proxy, so local
		// absorption is entirely the proxy's doing.
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := m.Client.ReadFile("repo/tool.bin"); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		base := m.WANCounts()["GETATTR"]
		for i := 0; i < 200; i++ {
			d.Clock.Sleep(100 * time.Millisecond)
			if _, err := m.Client.Stat("repo/tool.bin"); err != nil {
				t.Errorf("stat: %v", err)
				return
			}
		}
		// 20 s of per-second stats, all absorbed by the disk cache.
		if got := m.WANCounts()["GETATTR"]; got != base {
			t.Errorf("WAN GETATTRs grew %d -> %d; proxy cache not absorbing", base, got)
		}
		if hits := clientCount(d, m, "gvfs_client_local_hits_total"); hits < 200 {
			t.Errorf("local hits = %d, want >= 200", hits)
		}
	})
}

func TestPollingInvalidationPropagates(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("shared/data", []byte("v1"))
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelPolling, PollPeriod: 10 * time.Second})
		reader, _ := sess.Mount("C1", kernelNoac())
		writer, _ := sess.Mount("C2", kernelNoac())

		if got, _ := reader.Client.ReadFile("shared/data"); string(got) != "v1" {
			t.Errorf("initial read = %q", got)
			return
		}
		if err := writer.Client.WriteFile("shared/data", []byte("v2-longer")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		// Within the polling window the reader may still see v1 (relaxed
		// consistency); after one full window plus slack it must see v2.
		d.Clock.Sleep(12 * time.Second)
		if got, _ := reader.Client.ReadFile("shared/data"); string(got) != "v2-longer" {
			t.Errorf("after polling window read = %q, want v2-longer", got)
		}
		if inv := clientCount(d, reader, "gvfs_client_invalidations_total"); inv == 0 {
			t.Error("reader proxy processed no invalidations")
		}
	})
}

func TestPollingStaleReadWithinWindow(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("f", []byte("old"))
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelPolling, PollPeriod: time.Hour})
		reader, _ := sess.Mount("C1", kernelNoac())
		writer, _ := sess.Mount("C2", kernelNoac())
		reader.Client.ReadFile("f")
		writer.Client.WriteFile("f", []byte("new"))
		// The reader's next read within the (huge) window is stale: this is
		// the inconsistency the paper accepts for performance (Sec. 4.2.3).
		got, _ := reader.Client.ReadFile("f")
		if string(got) != "old" {
			t.Errorf("read within window = %q, want stale %q", got, "old")
		}
	})
}

func TestPollingGetInvBatchesManyUpdates(t *testing.T) {
	d := newDeployment(t)
	for i := 0; i < 50; i++ {
		d.FS.WriteFile(fmt.Sprintf("pkg/f%02d", i), []byte("x"))
	}
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelPolling, PollPeriod: 10 * time.Second})
		reader, _ := sess.Mount("C1", kernelNoac())
		admin, _ := sess.Mount("C2", kernelNoac())

		// Reader caches the whole tree.
		for i := 0; i < 50; i++ {
			reader.Client.Stat(fmt.Sprintf("pkg/f%02d", i))
		}
		getinvBefore := reader.WANCounts()["GETINV"]
		// Admin updates every file.
		for i := 0; i < 50; i++ {
			admin.Client.WriteFile(fmt.Sprintf("pkg/f%02d", i), []byte("y"))
		}
		d.Clock.Sleep(12 * time.Second)
		// 50 invalidations must have arrived in very few GETINV replies.
		polls := reader.WANCounts()["GETINV"] - getinvBefore
		if polls == 0 || polls > 3 {
			t.Errorf("50 invalidations took %d GETINV calls, want 1-3 (batching)", polls)
		}
		if inv := clientCount(d, reader, "gvfs_client_invalidations_total"); inv < 50 {
			t.Errorf("invalidations processed = %d, want >= 50", inv)
		}
	})
}

func TestPollingBufferOverflowForcesInvalidation(t *testing.T) {
	d := newDeployment(t)
	for i := 0; i < 40; i++ {
		d.FS.WriteFile(fmt.Sprintf("many/f%02d", i), []byte("x"))
	}
	d.Run("test", func() {
		cfg := core.Config{Model: core.ModelPolling, PollPeriod: 10 * time.Second, InvBufferEntries: 8}
		sess, _ := d.NewSession("s", cfg)
		reader, _ := sess.Mount("C1", kernelNoac())
		writer, _ := sess.Mount("C2", kernelNoac())

		reader.Client.Stat("many/f00")
		d.Clock.Sleep(11 * time.Second) // complete bootstrap poll
		forcedBefore := clientCount(d, reader, "gvfs_client_force_invalidations_total")
		for i := 0; i < 40; i++ {
			writer.Client.WriteFile(fmt.Sprintf("many/f%02d", i), []byte("y"))
		}
		d.Clock.Sleep(12 * time.Second)
		if got := clientCount(d, reader, "gvfs_client_force_invalidations_total"); got <= forcedBefore {
			t.Errorf("buffer wrap-around did not force-invalidate (forced %d -> %d)", forcedBefore, got)
		}
		// Correctness after the force: fresh data visible.
		if got, _ := reader.Client.ReadFile("many/f00"); string(got) != "y" {
			t.Errorf("post-force read = %q, want %q", got, "y")
		}
	})
}

func TestPollingPollAgainDrainsLargeBuffer(t *testing.T) {
	d := newDeployment(t)
	for i := 0; i < 30; i++ {
		d.FS.WriteFile(fmt.Sprintf("big/f%02d", i), []byte("x"))
	}
	d.Run("test", func() {
		cfg := core.Config{
			Model: core.ModelPolling, PollPeriod: 10 * time.Second,
			InvBufferEntries: 1024, MaxHandlesPerReply: 5,
		}
		sess, _ := d.NewSession("s", cfg)
		reader, _ := sess.Mount("C1", kernelNoac())
		writer, _ := sess.Mount("C2", kernelNoac())
		for i := 0; i < 30; i++ {
			reader.Client.Stat(fmt.Sprintf("big/f%02d", i))
		}
		d.Clock.Sleep(11 * time.Second)
		for i := 0; i < 30; i++ {
			writer.Client.WriteFile(fmt.Sprintf("big/f%02d", i), []byte("y"))
		}
		invBefore := clientCount(d, reader, "gvfs_client_invalidations_total")
		d.Clock.Sleep(11 * time.Second)
		if got := clientCount(d, reader, "gvfs_client_invalidations_total") - invBefore; got < 30 {
			t.Errorf("drained %d invalidations, want 30 (poll-again)", got)
		}
	})
}

func TestPollingExponentialBackoffReducesIdlePolls(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("f", []byte("x"))
	d.Run("test", func() {
		fixed, _ := d.NewSession("fixed", core.Config{Model: core.ModelPolling, PollPeriod: 10 * time.Second})
		backoff, _ := d.NewSession("backoff", core.Config{
			Model: core.ModelPolling, PollPeriod: 10 * time.Second, PollBackoffMax: 80 * time.Second,
		})
		mf, _ := fixed.Mount("C1", kernelNoac())
		mb, _ := backoff.Mount("C2", kernelNoac())
		mf.Client.Stat("f")
		mb.Client.Stat("f")
		d.Clock.Sleep(10 * time.Minute) // idle
		fixedPolls := mf.WANCounts()["GETINV"]
		backoffPolls := mb.WANCounts()["GETINV"]
		if backoffPolls*3 >= fixedPolls {
			t.Errorf("backoff polls = %d vs fixed = %d; want far fewer when idle", backoffPolls, fixedPolls)
		}
	})
}

func TestDelegationAbsorbsNoacGetattrStorm(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("data/file", bytes.Repeat([]byte{2}, 64_000))
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelDelegation})
		m, _ := sess.Mount("C1", kernelNoac())
		if _, err := m.Client.ReadFile("data/file"); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		base := m.WANCounts()["GETATTR"]
		for i := 0; i < 300; i++ {
			if _, err := m.Client.Stat("data/file"); err != nil {
				t.Errorf("stat: %v", err)
				return
			}
		}
		grew := m.WANCounts()["GETATTR"] - base
		if grew > 1 {
			t.Errorf("noac GETATTR storm leaked %d calls to the WAN; read delegation should absorb them", grew)
		}
	})
}

func TestDelegationStrongConsistencyOnWrite(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("strong/f", []byte("version-one"))
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelDelegation})
		a, _ := sess.Mount("C1", kernelNoac())
		b, _ := sess.Mount("C2", kernelNoac())

		if got, _ := a.Client.ReadFile("strong/f"); string(got) != "version-one" {
			t.Errorf("a initial read = %q", got)
			return
		}
		// B writes; A's read delegation must be recalled and A must see the
		// new contents immediately — no staleness window at all.
		if err := b.Client.WriteFile("strong/f", []byte("version-TWO")); err != nil {
			t.Errorf("b write: %v", err)
			return
		}
		if got, _ := a.Client.ReadFile("strong/f"); string(got) != "version-TWO" {
			t.Errorf("a read after b's write = %q, want immediate version-TWO", got)
		}
		if cb := callbacksSent(d, sess); cb == 0 {
			t.Error("no callbacks sent; conflict was not mediated by recall")
		}
	})
}

func TestWriteDelegationAbsorbsWritesUntilRecall(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("wb/file", nil)
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelDelegation, FlushInterval: time.Hour})
		a, _ := sess.Mount("C1", kernelNoac())
		b, _ := sess.Mount("C2", kernelNoac())

		payload := bytes.Repeat([]byte("W"), 200_000)
		if err := a.Client.WriteFile("wb/file", payload); err != nil {
			t.Errorf("a write: %v", err)
			return
		}
		// First write forwarded (grants delegation); the rest absorbed.
		writes := a.WANCounts()["WRITE"]
		blocks := int64((len(payload) + 32*1024 - 1) / (32 * 1024))
		if writes >= blocks {
			t.Errorf("WAN writes = %d of %d blocks; write delegation not absorbing", writes, blocks)
		}
		// B's read forces write-back via callback and must see everything.
		got, err := b.Client.ReadFile("wb/file")
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("b read after recall: %d bytes, err=%v", len(got), err)
		}
	})
}

// TestConcurrentReadersCostOneRecall: A holds a write delegation with blocks
// it has not written back; six clients open the file at the same instant.
// The first access that conflicts recalls A's delegation and the others wait
// for that recall to settle rather than each calling A back: one callback,
// and every reader still sees every byte A wrote, never the server's copy from
// before A's write-back.
func TestConcurrentReadersCostOneRecall(t *testing.T) {
	const readers, blocks = 6, 4
	d := newDeployment(t)
	d.FS.WriteFile("file", make([]byte, blocks*streamBS))
	payload := streamData(50, blocks)
	d.Run("test", func() {
		sess, err := d.NewSession("s", core.Config{Model: core.ModelDelegation, FlushInterval: time.Hour})
		if err != nil {
			t.Error(err)
			return
		}
		a, err := sess.Mount("A", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		var mounts []*Mount
		for i := 0; i < readers; i++ {
			m, err := sess.Mount(fmt.Sprintf("R%d", i), kernelNoac())
			if err != nil {
				t.Error(err)
				return
			}
			mounts = append(mounts, m)
		}
		// A's first WRITE crosses and is granted the write delegation (A is the
		// file's only sharer); the rest stay in A's cache.
		w := &streamReader{t: t, d: d, m: a, conn: a.Client.Conn()}
		fh := w.lookup("file")
		for bn := 0; bn < blocks; bn++ {
			if wr, err := w.conn.Write(fh, uint64(bn)*streamBS, payload[bn*streamBS:(bn+1)*streamBS], nfs3.FileSync); err != nil || wr.Status != nfs3.OK {
				t.Errorf("A's write of block %d: %v %v", bn, err, wr.Status)
				return
			}
		}
		if sent := a.WANCounts()["WRITE"]; sent != 1 {
			t.Fatalf("A sent %d WRITEs, want 1: the test needs blocks left to write back", sent)
		}
		// Each reader's MOUNT granted it a read delegation on the file, which
		// A's first WRITE called back, once each, before A was granted its own.
		granted := callbacksSent(d, sess)
		if granted != readers {
			t.Errorf("A's first WRITE sent %d callbacks, want one for each of the %d readers' MOUNT grants", granted, readers)
		}
		g := d.NewGroup()
		for _, m := range mounts {
			g.Go("reader "+m.Host(), func() {
				if got, err := m.Client.ReadFile("file"); err != nil || !bytes.Equal(got, payload) {
					t.Errorf("%s read %d bytes (%v), not what A wrote", m.Host(), len(got), err)
				}
			})
		}
		g.Wait()
		if sent, served := callbacksSent(d, sess)-granted, clientCount(d, a, "gvfs_client_recalls_total"); sent != 1 || served != 1 {
			t.Errorf("%d callbacks sent, %d recalls served at A; want one for %d readers", sent, served, readers)
		}
	})
}

func TestPartialWriteBackPendingList(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("big/file", nil)
	d.Run("test", func() {
		cfg := core.Config{Model: core.ModelDelegation, DirtyListThreshold: 3, FlushInterval: time.Hour}
		sess, _ := d.NewSession("s", cfg)
		a, _ := sess.Mount("C1", kernelNoac())
		b, _ := sess.Mount("C2", kernelNoac())

		// A buffers 10 dirty blocks under its write delegation.
		payload := bytes.Repeat([]byte("Z"), 10*32*1024)
		if err := a.Client.WriteFile("big/file", payload); err != nil {
			t.Errorf("a write: %v", err)
			return
		}
		// B reads one block in the middle: the recall must return a pending
		// list and still deliver that block's data correctly.
		f, err := b.Client.Open("big/file")
		if err != nil {
			t.Errorf("b open: %v", err)
			return
		}
		buf := make([]byte, 32*1024)
		if _, err := f.ReadAt(buf, 5*32*1024); err != nil && err.Error() != "EOF" {
			t.Errorf("b read: %v", err)
		}
		if !bytes.Equal(buf, payload[5*32*1024:6*32*1024]) {
			t.Error("b read stale data for the contended block")
		}
		f.Close()
		// Background flushing completes eventually.
		d.Clock.Sleep(time.Minute)
		got, err := b.Client.ReadFile("big/file")
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("final read: %d bytes, err=%v", len(got), err)
		}
	})
}

func TestDelegationExpiryShrinksServerState(t *testing.T) {
	d := newDeployment(t)
	for i := 0; i < 10; i++ {
		d.FS.WriteFile(fmt.Sprintf("exp/f%d", i), []byte("x"))
	}
	d.Run("test", func() {
		cfg := core.Config{Model: core.ModelDelegation, DelegExpiry: time.Minute, DelegRenew: 45 * time.Second}
		sess, _ := d.NewSession("s", cfg)
		m, _ := sess.Mount("C1", kernelNoac())
		for i := 0; i < 10; i++ {
			m.Client.ReadFile(fmt.Sprintf("exp/f%d", i))
		}
		files, _ := sess.ProxyServer().StateSize()
		if files == 0 {
			t.Error("no server state after reads")
			return
		}
		d.Clock.Sleep(5 * time.Minute) // idle well past expiry
		files, sharers := sess.ProxyServer().StateSize()
		if files != 0 || sharers != 0 {
			t.Errorf("state after expiry = %d files / %d sharers, want 0/0", files, sharers)
		}
	})
}

func TestDelegationRenewalKeepsDelegationAlive(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("hot/f", []byte("x"))
	d.Run("test", func() {
		cfg := core.Config{Model: core.ModelDelegation, DelegExpiry: time.Minute, DelegRenew: 40 * time.Second}
		sess, _ := d.NewSession("s", cfg)
		m, _ := sess.Mount("C1", kernelNoac())
		m.Client.ReadFile("hot/f")
		// Access continuously for 5 minutes: renewals must keep the server
		// state alive without any expiry recalls.
		for i := 0; i < 30; i++ {
			d.Clock.Sleep(10 * time.Second)
			if _, err := m.Client.Stat("hot/f"); err != nil {
				t.Errorf("stat: %v", err)
				return
			}
		}
		if cb := callbacksSent(d, sess); cb != 0 {
			t.Errorf("%d callbacks sent to a continuously active sole client", cb)
		}
		// Most stats still served locally: renewal forwards are periodic,
		// not per-access. 30 noac polls issue ~90 GETATTR-class RPCs at the
		// proxy; only the periodic renewals (root + file, every 40 s) may
		// cross the WAN.
		if leaked := m.WANCounts()["GETATTR"]; leaked > 30 {
			t.Errorf("renewal leaked %d GETATTRs over 5 min, want <= 30", leaked)
		}
	})
}

func TestProxyServerRestartRecovery(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("rec/f", []byte("before"))
	d.Run("test", func() {
		cfg := core.Config{Model: core.ModelDelegation, FlushInterval: time.Hour}
		sess, _ := d.NewSession("s", cfg)
		a, _ := sess.Mount("C1", kernelNoac())
		b, _ := sess.Mount("C2", kernelNoac())

		// A holds a write delegation with dirty data.
		if err := a.Client.WriteFile("rec/f", []byte("dirty-in-cache")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := sess.RestartProxyServer(); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		// After the grace period, B must be able to read and must observe
		// A's data (A's dirty state was reported via the whole-cache
		// callback and is recalled on B's conflicting access).
		got, err := b.Client.ReadFile("rec/f")
		if err != nil {
			t.Errorf("b read after restart: %v", err)
			return
		}
		if string(got) != "dirty-in-cache" {
			t.Errorf("b read %q after restart, want A's dirty data", got)
		}
	})
}

func TestProxyClientCrashRecovery(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("crash/f", []byte("original"))
	d.Run("test", func() {
		cfg := core.Config{Model: core.ModelDelegation, FlushInterval: time.Hour, DiskCacheDir: t.TempDir()}
		sess, _ := d.NewSession("s", cfg)
		a, _ := sess.Mount("C1", kernelNoac())

		if err := a.Client.WriteFile("crash/f", []byte("dirty-unflushed")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		// Crash the client machine; the proxy disk cache survives.
		a2, err := sess.RemountFromDisk(a, kernelNoac())
		if err != nil {
			t.Errorf("remount: %v", err)
			return
		}
		// Recovery wrote back at least one block; reading through the new
		// mount must yield the dirty data, not the original.
		got, err := a2.Client.ReadFile("crash/f")
		if err != nil || string(got) != "dirty-unflushed" {
			t.Errorf("read after crash recovery = %q, %v", got, err)
		}
		// And the data eventually reaches the real server.
		d.Clock.Sleep(2 * time.Hour)
		if attr, err := d.FS.LookupPath("crash/f"); err != nil || attr.Size != uint64(len("dirty-unflushed")) {
			t.Errorf("server-side size = %d, %v", attr.Size, err)
		}
	})
}

func TestPartitionThenHealRetries(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("part/f", []byte("x"))
	d.Run("test", func() {
		cfg := core.Config{Model: core.ModelPolling, PollPeriod: 5 * time.Second, CallTimeout: 3 * time.Second}
		sess, _ := d.NewSession("s", cfg)
		m, _ := sess.Mount("C1", kernelNoac())
		if _, err := m.Client.ReadFile("part/f"); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		// Reads served from cache keep working through the partition.
		d.Net.Partition("C1", "server")
		if _, err := m.Client.Stat("part/f"); err != nil {
			t.Errorf("cached stat during partition: %v", err)
		}
		d.Clock.Sleep(20 * time.Second)
		d.Net.Heal("C1", "server")
		d.Clock.Sleep(20 * time.Second)
		// After healing, polling resumes and forwarding works again.
		if _, err := m.Client.ReadFile("part/f"); err != nil {
			t.Errorf("read after heal: %v", err)
		}
	})
}

func TestTwoSessionsAreIsolated(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("iso/f", []byte("x"))
	d.Run("test", func() {
		// One relaxed session and one strong session over the same export:
		// the per-application tailoring the paper is about (Figure 1).
		weak, _ := d.NewSession("weak", core.Config{Model: core.ModelPolling, PollPeriod: time.Hour})
		strong, _ := d.NewSession("strong", core.Config{Model: core.ModelDelegation})
		mw, _ := weak.Mount("C1", kernelNoac())
		ms, _ := strong.Mount("C2", kernelNoac())
		writer, _ := strong.Mount("C3", kernelNoac())

		mw.Client.ReadFile("iso/f")
		ms.Client.ReadFile("iso/f")
		writer.Client.WriteFile("iso/f", []byte("y"))

		// The strong session's reader sees the update instantly.
		if got, _ := ms.Client.ReadFile("iso/f"); string(got) != "y" {
			t.Errorf("strong session read = %q, want fresh", got)
		}
		// The weak session (1-hour window, and the write came from another
		// session so no invalidation reaches it) still serves its cache.
		if got, _ := mw.Client.ReadFile("iso/f"); string(got) != "x" {
			t.Errorf("weak session read = %q, want cached %q", got, "x")
		}
	})
}

func TestReadDelegationSharedByMultipleReaders(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("ro/f", bytes.Repeat([]byte{3}, 10_000))
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelDelegation})
		var mounts []*Mount
		for i := 0; i < 4; i++ {
			m, err := sess.Mount(fmt.Sprintf("C%d", i+1), kernelNoac())
			if err != nil {
				t.Error(err)
				return
			}
			mounts = append(mounts, m)
		}
		for _, m := range mounts {
			if _, err := m.Client.ReadFile("ro/f"); err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
		// Concurrent read sharing must not generate callbacks.
		if cb := callbacksSent(d, sess); cb != 0 {
			t.Errorf("read sharing caused %d callbacks", cb)
		}
		// And every client's repeat stats are local.
		for _, m := range mounts {
			base := m.WANCounts()["GETATTR"]
			for i := 0; i < 50; i++ {
				m.Client.Stat("ro/f")
			}
			if got := m.WANCounts()["GETATTR"]; got-base > 1 {
				t.Errorf("%s leaked %d GETATTRs", m.Host(), got-base)
			}
		}
	})
}

func TestWriteBackSessionCoalescesWrites(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("wb2/f", nil)
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{
			Model: core.ModelPolling, WriteBack: true, FlushInterval: 20 * time.Second,
		})
		m, _ := sess.Mount("C1", kernelDefault())
		// Rewrite the same block 10 times.
		for i := 0; i < 10; i++ {
			if err := m.Client.WriteFile("wb2/f", bytes.Repeat([]byte{byte(i)}, 32*1024)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		d.Clock.Sleep(30 * time.Second) // let the flusher run
		// 10 rewrites of one block coalesce into very few WAN WRITEs. The
		// first write forwards (cold attrs); later ones are absorbed.
		if writes := m.WANCounts()["WRITE"]; writes > 3 {
			t.Errorf("WAN WRITEs = %d for 10 rewrites of one block, want <= 3", writes)
		}
		// Durability after flush.
		if attr, err := d.FS.LookupPath("wb2/f"); err != nil || attr.Size != 32*1024 {
			t.Errorf("server copy size = %d, %v", attr.Size, err)
		}
	})
}

func TestMountsSurviveManyFilesAndDirs(t *testing.T) {
	d := newDeployment(t)
	for i := 0; i < 20; i++ {
		for j := 0; j < 5; j++ {
			d.FS.WriteFile(fmt.Sprintf("tree/d%02d/f%d", i, j), []byte("content"))
		}
	}
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelPolling, PollPeriod: thirty})
		m, _ := sess.Mount("C1", kernelDefault())
		names, err := m.Client.ReadDir("tree")
		if err != nil || len(names) != 20 {
			t.Errorf("readdir: %v, %d entries", err, len(names))
			return
		}
		for _, dir := range names {
			files, err := m.Client.ReadDir("tree/" + dir)
			if err != nil || len(files) != 5 {
				t.Errorf("readdir %s: %v", dir, err)
				return
			}
			for _, f := range files {
				if got, err := m.Client.ReadFile("tree/" + dir + "/" + f); err != nil || string(got) != "content" {
					t.Errorf("read %s/%s: %q, %v", dir, f, got, err)
					return
				}
			}
		}
	})
}

func TestConcurrentClientsWithGroup(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("conc/shared", bytes.Repeat([]byte{9}, 100_000))
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelPolling, PollPeriod: thirty})
		g := d.NewGroup()
		errs := make(chan error, 6)
		for i := 0; i < 6; i++ {
			m, err := sess.Mount(fmt.Sprintf("C%d", i+1), kernelDefault())
			if err != nil {
				t.Error(err)
				return
			}
			g.Go(fmt.Sprintf("reader%d", i), func() {
				for r := 0; r < 5; r++ {
					if _, err := m.Client.ReadFile("conc/shared"); err != nil {
						errs <- err
						return
					}
					d.Clock.Sleep(time.Second)
				}
				errs <- nil
			})
		}
		g.Wait()
		for i := 0; i < 6; i++ {
			if err := <-errs; err != nil {
				t.Errorf("client error: %v", err)
			}
		}
	})
}

func TestEncryptedSessionEndToEnd(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("private/data", bytes.Repeat([]byte{7}, 50_000))
	d.Run("test", func() {
		// Per-session private channels: the wide-area leg is sealed with a
		// key derived from the session key; everything must keep working,
		// including delegation callbacks (server-dialed connections).
		sess, err := d.NewSession("classified", core.Config{Model: core.ModelDelegation, Encrypt: true})
		if err != nil {
			t.Error(err)
			return
		}
		a, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		b, err := sess.Mount("C2", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		got, err := a.Client.ReadFile("private/data")
		if err != nil || len(got) != 50_000 {
			t.Errorf("read over encrypted channel: %d bytes, %v", len(got), err)
			return
		}
		// A write by B recalls A's delegation over the sealed callback
		// channel; A must see fresh data.
		if err := b.Client.WriteFile("private/data", []byte("rotated")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if got, _ := a.Client.ReadFile("private/data"); string(got) != "rotated" {
			t.Errorf("stale read %q through encrypted session", got)
		}
		if cb := callbacksSent(d, sess); cb == 0 {
			t.Error("no callbacks crossed the encrypted channel")
		}
	})
}

func TestEncryptedSessionSurvivesServerRestart(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("p/f", []byte("v1"))
	d.Run("test", func() {
		sess, _ := d.NewSession("classified", core.Config{Model: core.ModelDelegation, Encrypt: true})
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		m.Client.ReadFile("p/f")
		if err := sess.RestartProxyServer(); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		if got, err := m.Client.ReadFile("p/f"); err != nil || string(got) != "v1" {
			t.Errorf("read after encrypted restart = %q, %v", got, err)
		}
	})
}

func TestIdentityMappingAtProxy(t *testing.T) {
	d := newDeployment(t)
	d.Run("test", func() {
		// The client domain's uid 1001 maps to the grid account 40001.
		sess, err := d.NewSession("mapped", core.Config{
			Model:  core.ModelPolling,
			UIDMap: map[uint32]uint32{1001: 40001},
			GIDMap: map[uint32]uint32{100: 500},
		})
		if err != nil {
			t.Error(err)
			return
		}
		m, err := sess.Mount("C1", nfsclient.Options{UID: 1001, GID: 100})
		if err != nil {
			t.Error(err)
			return
		}
		if err := m.Client.WriteFile("owned.txt", []byte("x")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		attr, err := d.FS.LookupPath("owned.txt")
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		if attr.UID != 40001 || attr.GID != 500 {
			t.Errorf("server-side identity = %d:%d, want mapped 40001:500", attr.UID, attr.GID)
		}

		// Unmapped identities pass through unchanged (direct mounts have no
		// proxy, so they always pass through).
		dm, err := d.DirectMount("C2", nfsclient.Options{UID: 1001, GID: 100})
		if err != nil {
			t.Error(err)
			return
		}
		if err := dm.Client.WriteFile("unmapped.txt", []byte("x")); err != nil {
			t.Errorf("direct write: %v", err)
			return
		}
		attr, _ = d.FS.LookupPath("unmapped.txt")
		if attr.UID != 1001 || attr.GID != 100 {
			t.Errorf("direct identity = %d:%d, want 1001:100", attr.UID, attr.GID)
		}
	})
}

func TestDelegationServesThroughPartition(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("dp/f", bytes.Repeat([]byte{4}, 60_000))
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelDelegation})
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		// Warm: acquires a read delegation and the data.
		if _, err := m.Client.ReadFile("dp/f"); err != nil {
			t.Errorf("warm read: %v", err)
			return
		}
		// Cut the wide area. The paper: "delegations also provide the proxy
		// clients opportunities to continue serving application data
		// requests even in presence of server crash or network partition."
		d.Net.Partition("C1", "server")
		for i := 0; i < 10; i++ {
			if _, err := m.Client.Stat("dp/f"); err != nil {
				t.Errorf("stat during partition: %v", err)
				return
			}
			if got, err := m.Client.ReadFile("dp/f"); err != nil || len(got) != 60_000 {
				t.Errorf("read during partition: %d bytes, %v", len(got), err)
				return
			}
			d.Clock.Sleep(time.Second)
		}
		d.Net.Heal("C1", "server")
		// After healing, writes work again end to end.
		d.Clock.Sleep(20 * time.Second)
		if err := m.Client.WriteFile("dp/g", []byte("post-heal")); err != nil {
			t.Errorf("write after heal: %v", err)
		}
	})
}

func TestProxyServerProactiveStateEviction(t *testing.T) {
	d := newDeployment(t)
	for i := 0; i < 30; i++ {
		d.FS.WriteFile(fmt.Sprintf("lru/f%02d", i), []byte("x"))
	}
	d.Run("test", func() {
		// Tiny state budget: the server must recall and evict LRU entries
		// instead of tracking every file (Section 4.3.3).
		cfg := core.Config{Model: core.ModelDelegation, MaxOpenFiles: 10, DelegExpiry: time.Hour}
		sess, _ := d.NewSession("s", cfg)
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 30; i++ {
			if _, err := m.Client.ReadFile(fmt.Sprintf("lru/f%02d", i)); err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
		// Let the expiry/eviction loop run (period = expiry/4 is capped by
		// the hour-long expiry, so nudge virtual time well past one period).
		d.Clock.Sleep(16 * time.Minute)
		files, _ := sess.ProxyServer().StateSize()
		if files > 10 {
			t.Errorf("server tracks %d files, budget 10", files)
		}
		if cb := callbacksSent(d, sess); cb == 0 {
			t.Error("eviction issued no recalls")
		}
		// Evicted files are still readable (delegation re-granted on demand).
		if got, err := m.Client.ReadFile("lru/f00"); err != nil || string(got) != "x" {
			t.Errorf("read after eviction = %q, %v", got, err)
		}
	})
}

// TestEvictedWriterIsStillTheWriterAfterItsWriteBack: a writer recalled for
// the state budget writes its dirty blocks back, and as the file's only
// sharer those WRITEs grant it the write delegation again — stamped after the
// recall, so its proxy client honours it and goes on buffering. The server
// must still know: the next reader has to recall what the writer wrote since.
func TestEvictedWriterIsStillTheWriterAfterItsWriteBack(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("ev/f", []byte("zero"))
	d.FS.WriteFile("ev/g", []byte("x"))
	d.Run("test", func() {
		cfg := core.Config{Model: core.ModelDelegation, MaxOpenFiles: 1, DelegExpiry: 4 * time.Minute, FlushInterval: time.Hour}
		sess, _ := d.NewSession("s", cfg)
		ms := mountClients(t, sess, 2)
		a, b := ms[0], ms[1]
		if err := a.Client.WriteFile("ev/f", []byte("first")); err != nil {
			t.Errorf("A write: %v", err)
			return
		}
		a.Client.ReadFile("ev/g") // ev/f is now the least recently accessed
		// The sweeps call back what the MOUNTs granted on the files ev/f is
		// older than first: A's write delegation goes when A writes back.
		for waited := 0; clientCount(d, a, "gvfs_client_flushed_blocks_total") == 0; waited++ {
			if waited > 120 {
				t.Error("the budget sweep never recalled A: A wrote nothing back")
				return
			}
			d.Clock.Sleep(time.Second)
		}
		d.Clock.Sleep(2 * time.Second) // A's answer is in
		// Overwritten in place: nothing about it need cross the wide area.
		f, err := a.Client.Open("ev/f")
		if err != nil {
			t.Errorf("A reopen: %v", err)
			return
		}
		f.WriteAt([]byte("later"), 0)
		f.Close()
		if got, err := b.Client.ReadFile("ev/f"); err != nil || string(got) != "later" {
			t.Errorf("B reads %q, %v; want A's latest write, recalled from it", got, err)
		}
	})
}

func TestWriteBackConvergesWhenFileRemovedBehindProxy(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("wbr/victim", []byte("original"))
	d.Run("test", func() {
		cfg := core.Config{Model: core.ModelPolling, WriteBack: true, PollPeriod: time.Hour, FlushInterval: 20 * time.Second}
		sess, _ := d.NewSession("s", cfg)
		writer, err := sess.Mount("C1", kernelDefault())
		if err != nil {
			t.Error(err)
			return
		}
		remover, err := sess.Mount("C2", kernelDefault())
		if err != nil {
			t.Error(err)
			return
		}
		// Writer buffers dirty data for the file...
		f, err := writer.Client.Open("wbr/victim")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		f.WriteAt([]byte("buffered-and-doomed"), 0)
		f.Close() // kernel flush lands in the proxy's write-back cache
		// ...and another client removes it. The writer's proxy knows
		// nothing (hour-long polling window).
		if err := remover.Client.Remove("wbr/victim"); err != nil {
			t.Errorf("remove: %v", err)
			return
		}
		// The writer's flusher hits NFS3ERR_STALE. It must drop the dirty
		// data (the paper's "corrupted" dirty-data rule) and converge —
		// regression test for a retry-forever storm.
		d.Clock.Sleep(5 * time.Minute)
		errs := clientCount(d, writer, "gvfs_client_flush_errors_total")
		if errs == 0 {
			t.Error("no flush error recorded; scenario did not exercise the stale write-back")
		}
		if errs > 3 {
			t.Errorf("flusher retried a doomed block %d times; must converge promptly", errs)
		}
		// The proxy remains fully usable.
		if err := writer.Client.WriteFile("wbr/fresh", []byte("ok")); err != nil {
			t.Errorf("write after convergence: %v", err)
		}
		d.Clock.Sleep(30 * time.Second)
		if attr, err := d.FS.LookupPath("wbr/fresh"); err != nil || attr.Size != 2 {
			t.Errorf("fresh file not flushed: %v", err)
		}
	})
}

func TestReaddirServedFromProxyCache(t *testing.T) {
	d := newDeployment(t)
	for i := 0; i < 12; i++ {
		d.FS.WriteFile(fmt.Sprintf("listing/f%02d", i), []byte("x"))
	}
	d.Run("test", func() {
		sess, _ := d.NewSession("s", core.Config{Model: core.ModelDelegation})
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		names, err := m.Client.ReadDir("listing")
		if err != nil || len(names) != 12 {
			t.Errorf("readdir: %v, %d entries", err, len(names))
			return
		}
		base := m.WANCounts()["READDIR"]
		for i := 0; i < 20; i++ {
			if got, err := m.Client.ReadDir("listing"); err != nil || len(got) != 12 {
				t.Errorf("repeat readdir: %v", err)
				return
			}
		}
		if grew := m.WANCounts()["READDIR"] - base; grew > 0 {
			t.Errorf("20 repeated listings forwarded %d READDIRs; cached listing should serve", grew)
		}

		// Another client changes the directory: the next listing must be
		// fresh (delegation recall invalidates the dir; the listing tag
		// dies with the mtime change).
		other, err := sess.Mount("C2", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		if err := other.Client.WriteFile("listing/f99", []byte("new")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		names, err = m.Client.ReadDir("listing")
		if err != nil || len(names) != 13 {
			t.Errorf("post-change listing = %d entries, %v; want 13 fresh", len(names), err)
		}
	})
}
