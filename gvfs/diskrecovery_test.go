package gvfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// fixedVal builds a 64-byte value with a distinguishing prefix, so
// overwrites never change file size (every access stays one block).
func fixedVal(tag string) []byte {
	b := bytes.Repeat([]byte{'.'}, 64)
	copy(b, tag)
	return b
}

// readServerFile reads a path's content directly from the server-side
// filesystem, bypassing every cache — the ground truth for landing checks.
func readServerFile(t *testing.T, d *Deployment, path string, size int) []byte {
	t.Helper()
	attr, err := d.FS.LookupPath(path)
	if err != nil {
		t.Fatalf("server lookup %s: %v", path, err)
	}
	buf := make([]byte, size)
	if _, _, err := d.FS.ReadAt(attr.ID, buf, 0); err != nil {
		t.Fatalf("server read %s: %v", path, err)
	}
	return buf
}

// TestWarmRestartRevalidatesInsteadOfRefetch is the tentpole's core claim:
// after a client-machine power loss and restart on the same disk cache
// directory, surviving clean blocks are revalidated through the model's
// normal attribute channel — the warm WAN READ count is O(changed blocks),
// not O(cached blocks) — and files changed on the server while the client
// was down are refetched, never served stale.
func TestWarmRestartRevalidatesInsteadOfRefetch(t *testing.T) {
	const nfiles = 8
	const changed = 2
	for _, mode := range []struct {
		name  string
		model core.Model
	}{
		{"polling", core.ModelPolling},
		{"delegation", core.ModelDelegation},
	} {
		t.Run(mode.name, func(t *testing.T) {
			d := newDeployment(t)
			for i := 0; i < nfiles; i++ {
				d.FS.WriteFile(fmt.Sprintf("wr/f%d", i), fixedVal(fmt.Sprintf("v0-%d", i)))
			}
			d.Run("warm-restart", func() {
				cfg := core.Config{
					Model:          mode.model,
					PollPeriod:     30 * time.Second,
					PollBackoffMax: 30 * time.Second,
					DiskCacheDir:   t.TempDir(),
				}
				sess, err := d.NewSession("wr", cfg)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := sess.Mount("C1", kernelNoac())
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < nfiles; i++ {
					p := fmt.Sprintf("wr/f%d", i)
					got, err := m.Client.ReadFile(p)
					if err != nil {
						t.Fatalf("cold read %s: %v", p, err)
					}
					if want := fixedVal(fmt.Sprintf("v0-%d", i)); !bytes.Equal(got, want) {
						t.Errorf("cold %s = %q", p, got)
					}
				}
				if cold := m.WANCounts()["READ"]; cold < nfiles {
					t.Errorf("cold WAN READs = %d, want >= %d", cold, nfiles)
				}

				// Power loss: the proxy dies without any shutdown and the
				// machine stays down while the server-side content moves
				// underneath two of its cached files.
				m.Proxy.Crash()
				m.conn.Close()
				d.Clock.Sleep(5 * time.Second)
				for i := 0; i < changed; i++ {
					p := fmt.Sprintf("wr/f%d", i)
					if _, err := d.FS.WriteFile(p, fixedVal(fmt.Sprintf("v1-%d", i))); err != nil {
						t.Fatalf("server-side change %s: %v", p, err)
					}
				}

				// Restart on the same disk directory: the new proxy client
				// finds the store warm and recovers as it starts.
				nm, err := sess.Mount("C1", kernelNoac())
				if err != nil {
					t.Errorf("remount from disk: %v", err)
					return
				}

				for i := 0; i < nfiles; i++ {
					p := fmt.Sprintf("wr/f%d", i)
					want := fixedVal(fmt.Sprintf("v0-%d", i))
					if i < changed {
						want = fixedVal(fmt.Sprintf("v1-%d", i))
					}
					got, err := nm.Client.ReadFile(p)
					if err != nil {
						t.Fatalf("warm read %s: %v", p, err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("warm %s = %q, want %q", p, got, want)
					}
				}
				if warm := nm.WANCounts()["READ"]; warm != changed {
					t.Errorf("warm WAN READs = %d, want %d (changed blocks only)", warm, changed)
				}
				if got := clientCount(d, nm, "gvfs_client_recovered_blocks_total"); got != nfiles {
					t.Errorf("recovered blocks = %d, want %d", got, nfiles)
				}
				if got := clientCount(d, nm, "gvfs_client_revalidated_blocks_total"); got != nfiles-changed {
					t.Errorf("revalidated blocks = %d, want %d", got, nfiles-changed)
				}
				if got := clientCount(d, nm, "gvfs_client_refetched_blocks_total"); got != changed {
					t.Errorf("refetched blocks = %d, want %d", got, changed)
				}
			})
			if v := d.PublishMetrics().SumCounters("gvfs_staleness_violations_total"); v != 0 {
				t.Errorf("staleness violations = %d, want 0", v)
			}
		})
	}
}

// TestWarmRestartRecoversDirtyBlocksMidFlush crashes a write-back client
// while its dirty block is mid-flush — the flush attempts are failing into
// a partition when the power is cut — and asserts the recovered proxy
// re-enters the block into write-back and lands it exactly once: the server
// converges to the written value, the writer keeps read-your-writes across
// the restart, a second client observes the value within its poll window,
// and the staleness oracle records nothing.
func TestWarmRestartRecoversDirtyBlocksMidFlush(t *testing.T) {
	const path = "wb/f0"
	d := newDeployment(t)
	d.FS.WriteFile(path, fixedVal("old"))
	d.Run("dirty-crash", func() {
		cfg := core.Config{
			Model:          core.ModelPolling,
			WriteBack:      true,
			FlushInterval:  5 * time.Second,
			PollPeriod:     10 * time.Second,
			PollBackoffMax: 10 * time.Second,
			CallTimeout:    4 * time.Second,
			DiskCacheDir:   t.TempDir(),
		}
		sess, err := d.NewSession("dirty", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		other, err := sess.Mount("C2", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}

		if _, err := m.Client.ReadFile(path); err != nil {
			t.Fatalf("warm read: %v", err)
		}
		newVal := fixedVal("new")
		if err := chaosOverwrite(m, path, string(newVal), 0); err != nil {
			t.Fatalf("write-back write: %v", err)
		}

		// Partition the writer before any flush tick: every flush attempt
		// now fails in flight, so the dirty block is exactly the mid-flush
		// state the crash must preserve. A flush attempt only surfaces an
		// error after its full retransmission window (~3 call timeouts), so
		// wait several flush intervals for one to fail.
		d.Net.Partition("C1", "server")
		d.Clock.Sleep(6 * cfg.FlushInterval)
		if got := clientCount(d, m, "gvfs_client_flushed_blocks_total"); got != 0 {
			t.Fatalf("FlushedBlocks = %d before crash, want 0 (partition must hold the flush in flight)", got)
		}
		if got := readServerFile(t, d, path, 64); !bytes.Equal(got, fixedVal("old")) {
			t.Fatalf("server content landed before crash: %q", got)
		}

		// Power cut and restart on the same disk directory. Heal first so
		// the new incarnation can mount; no virtual time passes between the
		// heal and the crash, so the old incarnation's pending retries
		// cannot land in between.
		d.Net.Heal("C1", "server")
		nm, err := sess.RemountFromDisk(m, kernelNoac())
		if err != nil {
			t.Errorf("remount from disk: %v", err)
			return
		}
		if got := clientCount(d, nm, "gvfs_client_recovered_dirty_blocks_total"); got < 1 {
			t.Errorf("recovered dirty blocks = %d, want >= 1", got)
		}
		// Recovery writes dirty blocks back synchronously: the
		// value must be on the server before any further activity.
		if got := readServerFile(t, d, path, 64); !bytes.Equal(got, newVal) {
			t.Errorf("server content after recovery = %q, want %q", got, newVal)
		}
		got, err := nm.Client.ReadFile(path)
		if err != nil {
			t.Fatalf("read-your-write after restart: %v", err)
		}
		if !bytes.Equal(got, newVal) {
			t.Errorf("read-your-write after restart = %q, want %q", got, newVal)
		}

		d.Clock.Sleep(cfg.PollPeriod + 10*time.Second)
		got, err = other.Client.ReadFile(path)
		if err != nil {
			t.Fatalf("observer read: %v", err)
		}
		if !bytes.Equal(got, newVal) {
			t.Errorf("observer read = %q, want %q", got, newVal)
		}
	})
	if v := d.PublishMetrics().SumCounters("gvfs_staleness_violations_total"); v != 0 {
		t.Errorf("staleness violations = %d, want 0", v)
	}
}

// TestChaosWarmRestartBothModels is the acceptance scenario for the
// persistent disk cache: lossy links, a partition/heal cycle, a
// proxy-server restart, AND two client power-loss/remount-from-disk cycles
// with dirty write-back blocks in play — in both models, with zero
// visibility-rule violations and zero measured staleness violations.
func TestChaosWarmRestartBothModels(t *testing.T) {
	for _, mode := range []struct {
		name  string
		model core.Model
	}{
		{"polling", core.ModelPolling},
		{"delegation", core.ModelDelegation},
	} {
		t.Run(mode.name, func(t *testing.T) {
			seed := testSeed(t, 11)
			rep, err := RunChaos(ChaosOptions{
				Model:        mode.model,
				Seed:         seed,
				Faults:       chaosFaults(),
				DiskCacheDir: t.TempDir(),
				WarmRestarts: 2,
			})
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			requireClean(t, rep)
			if rep.WarmRestarts != 2 {
				t.Errorf("warm restarts = %d, want 2", rep.WarmRestarts)
			}
			if rep.StalenessViolations != 0 {
				t.Errorf("staleness violations = %d, want 0", rep.StalenessViolations)
			}
			recovered := rep.Metrics.SumCounters("gvfs_client_recovered_blocks_total")
			if recovered == 0 {
				t.Errorf("no block recovered across %d warm restarts", rep.WarmRestarts)
			}
			t.Logf("ops=%d errors=%d warmRestarts=%d recovered=%d dirty=%d revalidated=%d refetched=%d dropped=%d",
				rep.Ops, rep.OpErrors, rep.WarmRestarts, recovered,
				rep.Metrics.SumCounters("gvfs_client_recovered_dirty_blocks_total"),
				rep.Metrics.SumCounters("gvfs_client_revalidated_blocks_total"),
				rep.Metrics.SumCounters("gvfs_client_refetched_blocks_total"),
				rep.Metrics.SumCounters("gvfs_client_recovery_dropped_total"))
		})
	}
}
