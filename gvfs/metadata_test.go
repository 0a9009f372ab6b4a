package gvfs

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// metaWAN sums the wide-area RPCs a metadata workload generates. GETINV is
// deliberately excluded: the polling model's whole point is that one GETINV
// per window replaces per-object revalidation, so the invariant under test
// is "metadata RPCs stay flat while GETINV ticks along at O(1) per window".
func metaWAN(counts map[string]int64) int64 {
	return counts["GETATTR"] + counts["LOOKUP"] + counts["ACCESS"] + counts["READDIR"]
}

// TestMetadataFastPathO1WANPerPollInterval is the tentpole assertion: after
// one warm pass over a source tree, N further stats (plus access checks and
// negative probes) must cost O(1) wide-area RPCs per poll interval — the
// GETINV heartbeat — not O(N) revalidations. The same storm with the fast
// path disabled must cost O(N), proving the measurement can tell the
// difference. Runs under both consistency models: the fast path rides each
// model's own invalidation channel, so the guarantee is model-invariant.
func TestMetadataFastPathO1WANPerPollInterval(t *testing.T) {
	storm := workload.StatStormConfig{Files: 40, Misses: 12, Passes: 1, Think: 500 * time.Millisecond}
	models := []struct {
		name string
		cfg  core.Config
	}{
		{"polling", core.Config{Model: core.ModelPolling, PollPeriod: thirty}},
		{"delegation", core.Config{Model: core.ModelDelegation}},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			d := newDeployment(t)
			if err := workload.SetupStatTree(d.FS, storm); err != nil {
				t.Fatal(err)
			}
			d.Run("storm", func() {
				sess, err := d.NewSession("s", tc.cfg)
				if err != nil {
					t.Error(err)
					return
				}
				// noac kernel mount: every stat, access check, and lookup
				// reaches the proxy, so any absorption is the fast path's.
				m, err := sess.Mount("C1", kernelNoac())
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := workload.RunStatStorm(d.Clock, m.Client, storm); err != nil {
					t.Errorf("warm pass: %v", err)
					return
				}
				warm := metaWAN(m.WANCounts())
				if warm == 0 {
					t.Error("warm pass crossed no WAN metadata RPCs; measurement broken")
					return
				}

				// The storm proper: several full passes over the warm tree.
				passes := storm
				passes.Passes = 4
				st, err := workload.RunStatStorm(d.Clock, m.Client, passes)
				if err != nil {
					t.Errorf("storm: %v", err)
					return
				}
				if got := metaWAN(m.WANCounts()); got != warm {
					t.Errorf("warm-tree storm grew WAN metadata RPCs %d -> %d over %d stats; want O(1) per poll interval",
						warm, got, st.Stats)
				}

				// Cross a poll boundary and storm again: still no metadata
				// revalidation; under polling only GETINV may tick.
				getinv := m.WANCounts()["GETINV"]
				d.Clock.Sleep(thirty + time.Second)
				if _, err := workload.RunStatStorm(d.Clock, m.Client, storm); err != nil {
					t.Errorf("post-poll storm: %v", err)
					return
				}
				if got := metaWAN(m.WANCounts()); got != warm {
					t.Errorf("storm after poll boundary grew WAN metadata RPCs %d -> %d; want flat", warm, got)
				}
				if tc.cfg.Model == core.ModelPolling {
					if got := m.WANCounts()["GETINV"]; got <= getinv {
						t.Errorf("GETINV did not tick across the window: %d -> %d", getinv, got)
					}
				}

				ps := m.Proxy.Stats()
				if ps.AttrHits == 0 || ps.DentryHits == 0 || ps.NegLookupHits == 0 || ps.AccessHits == 0 {
					t.Errorf("fast-path hits: attr=%d dentry=%d neg=%d access=%d; want all nonzero",
						ps.AttrHits, ps.DentryHits, ps.NegLookupHits, ps.AccessHits)
				}
			})
		})
	}
}

// TestMetadataFastPathDisabledIsON proves the baseline the fast path is
// measured against: with DisableMetaCache every warm-tree stat costs wide-area
// RPCs proportional to the tree size.
func TestMetadataFastPathDisabledIsON(t *testing.T) {
	storm := workload.StatStormConfig{Files: 40, Misses: 12, Passes: 1, Think: 500 * time.Millisecond}
	d := newDeployment(t)
	if err := workload.SetupStatTree(d.FS, storm); err != nil {
		t.Fatal(err)
	}
	d.Run("storm", func() {
		sess, err := d.NewSession("s", core.Config{
			Model: core.ModelPolling, PollPeriod: thirty, DisableMetaCache: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := workload.RunStatStorm(d.Clock, m.Client, storm); err != nil {
			t.Errorf("warm pass: %v", err)
			return
		}
		warm := metaWAN(m.WANCounts())
		st, err := workload.RunStatStorm(d.Clock, m.Client, storm)
		if err != nil {
			t.Errorf("storm: %v", err)
			return
		}
		delta := metaWAN(m.WANCounts()) - warm
		if delta < int64(storm.Files) {
			t.Errorf("disabled-cache storm of %d stats crossed only %d WAN metadata RPCs; want O(N) >= %d",
				st.Stats, delta, storm.Files)
		}
		ps := m.Proxy.Stats()
		if ps.AttrHits != 0 || ps.DentryHits != 0 || ps.NegLookupHits != 0 || ps.AccessHits != 0 {
			t.Errorf("disabled cache still served hits: %+v", ps)
		}
	})
}

// TestListingThatCrossedAnInvalidationIsServedNotCached: a READDIRPLUS reply
// held up on the wide area while another client removes a name it lists, and
// while this client's GETINV poll drains the invalidations of that REMOVE,
// still answers the kernel that asked — but the cache does not keep it. Kept,
// it would bind the removed name again after its invalidation had been
// consumed, and nothing would ever take the binding back.
func TestListingThatCrossedAnInvalidationIsServedNotCached(t *testing.T) {
	const poll = 300 * time.Millisecond
	d := newDeployment(t)
	for _, name := range []string{"dir/kept", "dir/gone"} {
		if _, err := d.FS.WriteFile(name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	d.Run("test", func() {
		sess, err := d.NewSession("s", core.Config{Model: core.ModelPolling, PollPeriod: poll})
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
		conn := a.Client.Conn()
		dir, err := conn.Lookup(a.Client.Root(), "dir")
		if err != nil || dir.Status != nfs3.OK {
			t.Errorf("lookup dir: %v %v", err, dir.Status)
			return
		}
		// Start just after one of A's polls, so that the next is a whole period
		// away: after B's REMOVE, before the held-up reply.
		for polls := a.WANCounts()["GETINV"]; a.WANCounts()["GETINV"] == polls; {
			d.Clock.Sleep(time.Millisecond)
		}
		d.Clock.Sleep(50 * time.Millisecond)

		var listed bool
		invalidated := a.Proxy.Stats().Invalidations
		g := d.Clock.NewGroup()
		g.Go("kernel A", func() {
			res, err := conn.Readdirplus(dir.FH, 0, 0, 4096, 32768)
			if err != nil || res.Status != nfs3.OK {
				t.Errorf("readdirplus: %v %v", err, res.Status)
			}
			for _, ent := range res.Entries {
				listed = listed || ent.Name == "gone"
			}
		})
		// The request is on the wire at the link's usual speed; its reply leaves
		// the server while the link is slow, and nothing else does. The delay
		// stays under the proxy client's first retransmission.
		slow := simnet.WAN
		slow.RTT = 1400 * time.Millisecond
		d.Clock.Sleep(10 * time.Millisecond)
		d.Net.SetLink("C1", "server", slow)
		d.Clock.Sleep(20 * time.Millisecond)
		d.Net.SetLink("C1", "server", simnet.WAN)
		if err := b.Client.Remove("dir/gone"); err != nil {
			t.Errorf("B remove: %v", err)
		}
		g.Wait()
		if !listed {
			t.Error("the kernel's READDIRPLUS was not answered with what the server listed when it asked")
		}
		if a.Proxy.Stats().Invalidations == invalidated {
			t.Error("A's poll did not drain the REMOVE's invalidations while the reply was held up; the test is not testing the race")
		}
		before := a.Proxy.Stats().DentryHits
		lk, err := conn.Lookup(dir.FH, "gone")
		if err != nil || lk.Status != nfs3.ErrNoEnt {
			t.Errorf("LOOKUP of the removed name after the late reply: %v status %v, want NOENT", err, lk.Status)
		}
		if a.Proxy.Stats().DentryHits != before {
			t.Error("the removed name was a local hit: the late reply was cached across its invalidation")
		}
		if lk, err := conn.Lookup(dir.FH, "kept"); err != nil || lk.Status != nfs3.OK {
			t.Errorf("LOOKUP of the name that stayed: %v status %v", err, lk.Status)
		}
	})
}
