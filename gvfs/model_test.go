package gvfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
)

// TestModelRandomOpsMatchShadow drives a random single-client operation
// sequence through the entire stack (kernel client -> proxy client -> WAN ->
// proxy server -> NFS server) and cross-checks every observable result
// against a trivial in-memory shadow model. Any cache-coherence bug between
// the four caching layers shows up as a divergence.
func TestModelRandomOpsMatchShadow(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  core.Config
		opts nfsclient.Options
	}{
		{"polling", core.Config{Model: core.ModelPolling, WriteBack: true}, nfsclient.Options{}},
		{"delegation", core.Config{Model: core.ModelDelegation}, nfsclient.Options{NoAC: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			d := newDeployment(t)
			d.Run("model", func() {
				sess, err := d.NewSession("model", mode.cfg)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := sess.Mount("C1", mode.opts)
				if err != nil {
					t.Error(err)
					return
				}
				runModel(t, d, m, 400, testSeed(t, 99))
			})
		})
	}
}

func runModel(t *testing.T, d *Deployment, m *Mount, steps int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	shadow := map[string][]byte{} // path -> contents
	paths := make([]string, 0, 16)
	for i := 0; i < 8; i++ {
		paths = append(paths, fmt.Sprintf("m/f%d", i))
	}
	m.Client.Mkdir("m", 0o755)

	randData := func() []byte {
		n := r.Intn(100_000)
		b := make([]byte, n)
		r.Read(b)
		return b
	}

	for step := 0; step < steps; step++ {
		p := paths[r.Intn(len(paths))]
		switch r.Intn(10) {
		case 0, 1, 2: // write
			data := randData()
			if err := m.Client.WriteFile(p, data); err != nil {
				t.Fatalf("step %d write %s: %v", step, p, err)
			}
			shadow[p] = data
		case 3: // remove
			err := m.Client.Remove(p)
			_, exists := shadow[p]
			if exists && err != nil {
				t.Fatalf("step %d remove %s: %v", step, p, err)
			}
			if !exists && !nfs3.IsStatus(err, nfs3.ErrNoEnt) {
				t.Fatalf("step %d remove missing %s: err=%v, want NOENT", step, p, err)
			}
			delete(shadow, p)
		case 4: // rename
			q := paths[r.Intn(len(paths))]
			err := m.Client.Rename(p, q)
			if data, exists := shadow[p]; exists {
				if err != nil && p != q {
					t.Fatalf("step %d rename %s->%s: %v", step, p, q, err)
				}
				if err == nil && p != q {
					shadow[q] = data
					delete(shadow, p)
				}
			} else if err == nil {
				t.Fatalf("step %d rename of missing %s succeeded", step, p)
			}
		case 5: // stat
			attr, err := m.Client.Stat(p)
			data, exists := shadow[p]
			if exists {
				if err != nil {
					t.Fatalf("step %d stat %s: %v", step, p, err)
				}
				if attr.Size != uint64(len(data)) {
					t.Fatalf("step %d stat %s size=%d, want %d", step, p, attr.Size, len(data))
				}
			} else if err == nil {
				t.Fatalf("step %d stat of missing %s succeeded", step, p)
			}
		case 6: // partial overwrite
			if data, exists := shadow[p]; exists && len(data) > 2 {
				f, err := m.Client.Open(p)
				if err != nil {
					t.Fatalf("step %d open %s: %v", step, p, err)
				}
				off := uint64(r.Intn(len(data) - 1))
				patch := make([]byte, 1+r.Intn(5000))
				r.Read(patch)
				if _, err := f.WriteAt(patch, off); err != nil {
					t.Fatalf("step %d patch %s: %v", step, p, err)
				}
				f.Close()
				end := int(off) + len(patch)
				if end > len(data) {
					grown := make([]byte, end)
					copy(grown, data)
					data = grown
				}
				copy(data[off:], patch)
				shadow[p] = data
			}
		default: // read
			got, err := m.Client.ReadFile(p)
			data, exists := shadow[p]
			if exists {
				if err != nil {
					t.Fatalf("step %d read %s: %v", step, p, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("step %d read %s: %d bytes != shadow %d bytes", step, p, len(got), len(data))
				}
			} else if err == nil {
				t.Fatalf("step %d read of missing %s succeeded", step, p)
			}
		}
		// Occasionally let background machinery (polls, flushes) run.
		if r.Intn(20) == 0 {
			d.Clock.Sleep(35_000_000_000) // 35s
		}
	}

	// Final: flush everything and verify the SERVER's view matches the
	// shadow (end-to-end durability through all cache layers).
	if m.Proxy != nil {
		d.Clock.Sleep(120_000_000_000) // beyond any flush interval
	}
	for p, want := range shadow {
		attr, err := d.FS.LookupPath(p)
		if err != nil {
			t.Fatalf("final: %s missing on server: %v", p, err)
		}
		got := make([]byte, attr.Size)
		if attr.Size > 0 {
			if _, _, err := d.FS.ReadAt(attr.ID, got, 0); err != nil {
				t.Fatalf("final read %s: %v", p, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final: server copy of %s diverged (%d vs %d bytes)", p, len(got), len(want))
		}
	}
}

// TestModelMultiClientVisibility drives three concurrent mounts through a
// directed write/read schedule and asserts each model's visibility
// contract: polling bounds staleness by the flush + poll window; delegation
// makes a completed write visible to the very next cross-client read (the
// read triggers a recall that flushes the writer's dirty data first). Both
// models must provide read-your-writes.
func TestModelMultiClientVisibility(t *testing.T) {
	readExpect := func(t *testing.T, m *Mount, path, want, when string) {
		t.Helper()
		got, err := m.Client.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %s reads %s: %v", when, m.Host(), path, err)
		}
		if string(got) != want {
			t.Fatalf("%s: %s read %q from %s, want %q", when, m.Host(), got, path, want)
		}
	}
	write := func(t *testing.T, m *Mount, path, val, when string) {
		t.Helper()
		if err := m.Client.WriteFile(path, []byte(val)); err != nil {
			t.Fatalf("%s: %s writes %s: %v", when, m.Host(), path, err)
		}
	}

	t.Run("polling", func(t *testing.T) {
		d := newDeployment(t)
		d.Run("multi", func() {
			cfg := core.Config{
				Model:         core.ModelPolling,
				WriteBack:     true,
				PollPeriod:    10 * time.Second,
				FlushInterval: 10 * time.Second,
			}
			sess, err := d.NewSession("multi", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			ms := mountClients(t, sess, 3)
			d.FS.WriteFile("shared/f", []byte("v0"))
			for _, m := range ms {
				readExpect(t, m, "shared/f", "v0", "initial")
			}

			// The window within which a write-back write must become
			// visible: a flush tick lands it, the next poll invalidates.
			window := cfg.FlushInterval + cfg.PollPeriod + 10*time.Second

			write(t, ms[0], "shared/f", "v1", "round 1")
			readExpect(t, ms[0], "shared/f", "v1", "read-your-writes")
			d.Clock.Sleep(window)
			readExpect(t, ms[1], "shared/f", "v1", "after poll window")
			readExpect(t, ms[2], "shared/f", "v1", "after poll window")

			write(t, ms[1], "shared/f", "v2", "round 2")
			readExpect(t, ms[1], "shared/f", "v2", "read-your-writes")
			d.Clock.Sleep(window)
			readExpect(t, ms[0], "shared/f", "v2", "after poll window")
			readExpect(t, ms[2], "shared/f", "v2", "after poll window")
		})
	})

	t.Run("delegation", func(t *testing.T) {
		d := newDeployment(t)
		d.Run("multi", func() {
			sess, err := d.NewSession("multi", core.Config{Model: core.ModelDelegation})
			if err != nil {
				t.Error(err)
				return
			}
			ms := mountClients(t, sess, 3)
			d.FS.WriteFile("shared/f", []byte("v0"))
			for _, m := range ms {
				readExpect(t, m, "shared/f", "v0", "initial")
			}

			// No sleeps: every cross-client read right after a write must
			// already observe it (callback ordering recalls the writer's
			// delegation and flushes before the read is served).
			write(t, ms[0], "shared/f", "v1", "round 1")
			readExpect(t, ms[0], "shared/f", "v1", "read-your-writes")
			readExpect(t, ms[1], "shared/f", "v1", "immediate cross-client")
			readExpect(t, ms[2], "shared/f", "v1", "immediate cross-client")

			write(t, ms[1], "shared/f", "v2", "round 2")
			readExpect(t, ms[1], "shared/f", "v2", "read-your-writes")
			readExpect(t, ms[0], "shared/f", "v2", "immediate cross-client")
			readExpect(t, ms[2], "shared/f", "v2", "immediate cross-client")

			if clientCount(d, ms[0], "gvfs_client_recalls_total") == 0 {
				t.Error("no recalls on the first writer despite cross-client reads")
			}
		})
	})
}

// mountClients mounts n NoAC kernel clients C1..Cn on the session.
func mountClients(t *testing.T, sess *Session, n int) []*Mount {
	t.Helper()
	ms := make([]*Mount, n)
	for i := range ms {
		m, err := sess.Mount(fmt.Sprintf("C%d", i+1), nfsclient.Options{NoAC: true})
		if err != nil {
			t.Fatalf("mount C%d: %v", i+1, err)
		}
		ms[i] = m
	}
	return ms
}

// TestModelMultiClientRandom runs three concurrent mounts through the
// chaos harness's random schedule and visibility checker on a clean
// network (no faults, no disruptions): a pure multi-client coherence test
// of both models.
func TestModelMultiClientRandom(t *testing.T) {
	for _, mode := range []struct {
		name  string
		model core.Model
	}{
		{"polling", core.ModelPolling},
		{"delegation", core.ModelDelegation},
	} {
		t.Run(mode.name, func(t *testing.T) {
			seed := testSeed(t, 5)
			rep, err := RunChaos(ChaosOptions{
				Model:          mode.model,
				Clients:        3,
				Steps:          80,
				Seed:           seed,
				Partitions:     -1,
				ServerRestarts: -1,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			requireClean(t, rep)
			if rep.OpErrors != 0 {
				t.Errorf("%d op errors on a clean network: %v", rep.OpErrors, rep.ErrorSamples)
			}
			if rep.Reads == 0 || rep.Writes == 0 {
				t.Errorf("degenerate schedule: %d reads, %d writes", rep.Reads, rep.Writes)
			}
		})
	}
}
