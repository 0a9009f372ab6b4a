package gvfs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// sumCounterFamily totals every series of one counter family in a snapshot,
// optionally filtered by a label substring.
func sumCounterFamily(snap obs.Snapshot, family, contains string) int64 {
	var total int64
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, family) {
			continue
		}
		if contains != "" && !strings.Contains(name, contains) {
			continue
		}
		total += v
	}
	return total
}

// TestSchedPoolPreservesWANConcurrency is the scheduling half of the overload
// suite: N independent reads from N clients must complete in about the time
// one client needs (the wide-area round trips overlap) even when the proxy
// server executes at most W handlers at once — the pool serializes only the
// sub-millisecond loopback forwards, never the WAN waits. The inflight
// high-water must respect W exactly, for every W, under both models.
func TestSchedPoolPreservesWANConcurrency(t *testing.T) {
	const clients = 8
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		for _, workers := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%v/W%d", model, workers), func(t *testing.T) {
				d := newDeployment(t)
				for i := 0; i < clients; i++ {
					d.FS.WriteFile(fmt.Sprintf("data/solo%d", i), bytes.Repeat([]byte{byte(i)}, 2000))
					d.FS.WriteFile(fmt.Sprintf("data/conc%d", i), bytes.Repeat([]byte{byte(i)}, 2000))
				}
				d.Run("test", func() {
					cfg := core.Config{Model: model, PollPeriod: thirty, ServerWorkers: workers}
					sess, err := d.NewSession("s", cfg)
					if err != nil {
						t.Error(err)
						return
					}
					mounts := make([]*Mount, clients)
					for i := range mounts {
						if mounts[i], err = sess.Mount(fmt.Sprintf("C%d", i), kernelNoac()); err != nil {
							t.Error(err)
							return
						}
					}
					// Baseline: one client reads one cold file alone.
					base := d.Elapsed(func() {
						if _, err := mounts[0].Client.ReadFile("data/solo0"); err != nil {
							t.Errorf("solo read: %v", err)
						}
					})
					// All clients read distinct cold files concurrently.
					errs := make(chan error, clients)
					elapsed := d.Elapsed(func() {
						g := d.NewGroup()
						for i := range mounts {
							m, path := mounts[i], fmt.Sprintf("data/conc%d", i)
							g.Go(fmt.Sprintf("reader%d", i), func() {
								_, err := m.Client.ReadFile(path)
								errs <- err
							})
						}
						g.Wait()
					})
					for i := 0; i < clients; i++ {
						if err := <-errs; err != nil {
							t.Errorf("concurrent read: %v", err)
						}
					}
					// The WAN round trips must overlap: N clients take about
					// what one took, nowhere near N times it.
					if elapsed > 2*base {
						t.Errorf("%d concurrent reads took %v, solo read %v: pool serialized the WAN", clients, elapsed, base)
					}
					running, peak := sess.ProxyServer().Inflight()
					if peak > workers {
						t.Errorf("inflight peak %d exceeds worker bound %d", peak, workers)
					}
					if peak == 0 {
						t.Error("inflight peak 0: scheduler saw no requests")
					}
					if running != 0 {
						t.Errorf("running = %d after quiesce, want 0", running)
					}
					snap := d.PublishMetrics()
					gauge := `gvfs_server_inflight_peak{node="proxyd:s"}`
					if got := snap.Gauges[gauge]; got != int64(peak) {
						t.Errorf("%s = %d, want %d", gauge, got, peak)
					}
				})
			})
		}
	}
}

// TestSchedRecallFlushStormBounded drives the proxy client's background
// recall-flush path into a storm: many files with large dirty sets are
// recalled at once, and each recall queues a background write-back. The
// client must drain the queue with a bounded number of flusher actors (the
// old code spawned one per recall) while still landing every byte.
func TestSchedRecallFlushStormBounded(t *testing.T) {
	const (
		files     = 8
		blockSize = 32 * 1024
		blocks    = 6
	)
	d := newDeployment(t)
	for i := 0; i < files; i++ {
		d.FS.WriteFile(fmt.Sprintf("storm/f%d", i), nil)
	}
	d.Run("test", func() {
		cfg := core.Config{
			Model: core.ModelDelegation,
			// Every recall sees a large dirty set and takes the pending-list
			// path; only recalls write back (no periodic flush).
			DirtyListThreshold: 2,
			FlushInterval:      time.Hour,
		}
		sess, err := d.NewSession("s", cfg)
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

		// The writer buffers a large dirty set in every file under its write
		// delegations.
		payloads := make([][]byte, files)
		for i := 0; i < files; i++ {
			payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, blocks*blockSize)
			if err := writer.Client.WriteFile(fmt.Sprintf("storm/f%d", i), payloads[i]); err != nil {
				t.Errorf("writer file %d: %v", i, err)
				return
			}
		}
		// The reader touches one block of every file at once: each read
		// recalls a write delegation, and each recall queues a background
		// flush of the remaining dirty blocks.
		g := d.NewGroup()
		for i := 0; i < files; i++ {
			i := i
			g.Go(fmt.Sprintf("reader%d", i), func() {
				f, err := reader.Client.Open(fmt.Sprintf("storm/f%d", i))
				if err != nil {
					t.Errorf("open f%d: %v", i, err)
					return
				}
				defer f.Close()
				buf := make([]byte, blockSize)
				if _, err := f.ReadAt(buf, 2*blockSize); err != nil && err.Error() != "EOF" {
					t.Errorf("read f%d: %v", i, err)
					return
				}
				if !bytes.Equal(buf, payloads[i][2*blockSize:3*blockSize]) {
					t.Errorf("f%d: stale data for the contended block", i)
				}
			})
		}
		g.Wait()

		// Background flushing drains the whole queue.
		d.Clock.Sleep(2 * time.Minute)
		for i := 0; i < files; i++ {
			got, err := reader.Client.ReadFile(fmt.Sprintf("storm/f%d", i))
			if err != nil || !bytes.Equal(got, payloads[i]) {
				t.Errorf("final read f%d: %d bytes, err=%v", i, len(got), err)
			}
		}
		hw := clientCount(d, writer, "gvfs_client_recall_flushers_peak")
		if hw == 0 {
			t.Error("no background recall flush ran: storm never hit the pending-list path")
		}
		// 2 == core's recallFlushWorkers: the regression this guards is one
		// drainer actor per recalled file.
		if hw > 2 {
			t.Errorf("recall-flush concurrency high-water %d, want <= 2", hw)
		}
	})
}

// TestSchedFairnessShedsLandOnFlooder floods the session's proxy server from
// one client while three others issue sparse stats. The per-client token
// buckets must aim every shed at the flooder: sparse clients never retry a
// shed and their per-op latency stays bounded, while the flooder is throttled
// yet loses nothing — every shed write is retransmitted and lands exactly
// once.
func TestSchedFairnessShedsLandOnFlooder(t *testing.T) {
	const (
		sparseClients = 3
		sparseOps     = 10
		floodWrites   = 120
	)
	d := newDeployment(t)
	for i := 0; i < sparseClients; i++ {
		d.FS.WriteFile(fmt.Sprintf("meta/f%d", i), []byte("x"))
	}
	d.FS.MkdirAll("flood")
	d.Run("test", func() {
		cfg := core.Config{
			Model:      core.ModelPolling,
			PollPeriod: thirty,
			// A small pool plus a per-client bucket calibrated so the
			// flooder's write storm overdraws it while a stat every 500 ms
			// never does.
			ServerWorkers:        2,
			ClientRateLimitOps:   20,
			ClientRateLimitBurst: 5,
			RetransmitInitial:    200 * time.Millisecond,
			RetransmitMax:        time.Second,
		}
		sess, err := d.NewSession("s", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		flooder, err := sess.Mount("F0", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		sparse := make([]*Mount, sparseClients)
		for i := range sparse {
			if sparse[i], err = sess.Mount(fmt.Sprintf("S%d", i), kernelNoac()); err != nil {
				t.Error(err)
				return
			}
		}

		g := d.NewGroup()
		g.Go("flooder", func() {
			// Back-to-back creates: far beyond 20 ops/s.
			for i := 0; i < floodWrites; i++ {
				if err := flooder.Client.WriteFile(fmt.Sprintf("flood/w%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Errorf("flood write %d: %v", i, err)
					return
				}
			}
		})
		var worst time.Duration
		lat := make(chan time.Duration, sparseClients*sparseOps)
		for i := range sparse {
			m, path := sparse[i], fmt.Sprintf("meta/f%d", i)
			g.Go(fmt.Sprintf("sparse%d", i), func() {
				for op := 0; op < sparseOps; op++ {
					d.Clock.Sleep(500 * time.Millisecond)
					start := d.Clock.Now()
					if _, err := m.Client.Stat(path); err != nil {
						t.Errorf("sparse stat: %v", err)
						return
					}
					lat <- d.Clock.Now() - start
				}
			})
		}
		g.Wait()
		close(lat)
		for l := range lat {
			if l > worst {
				worst = l
			}
		}

		// Sparse tail latency stays bounded: a stat may queue behind a couple
		// of admitted writes but never behind a retransmit backoff.
		if limit := 150 * time.Millisecond; worst > limit {
			t.Errorf("sparse worst-case stat latency %v, want <= %v", worst, limit)
		}

		snap := d.PublishMetrics()
		if sheds := sumCounterFamily(snap, "gvfs_server_shed_total", `reason="client-rate"`); sheds == 0 {
			t.Error("flood never overdrew the per-client bucket: no client-rate sheds")
		}
		if got := sumCounterFamily(snap, "gvfs_rpc_shed_retries_total", "proxyc:F0/s"); got == 0 {
			t.Error("flooder absorbed no shed retries")
		}
		for i := 0; i < sparseClients; i++ {
			node := fmt.Sprintf("proxyc:S%d/s", i)
			if got := sumCounterFamily(snap, "gvfs_rpc_shed_retries_total", node); got != 0 {
				t.Errorf("sparse client %s absorbed %d sheds, want 0", node, got)
			}
		}

		// Exactly-once through the DRC: every shed-then-retransmitted write
		// landed once, with the content of its single execution.
		for i := 0; i < floodWrites; i++ {
			path := fmt.Sprintf("flood/w%03d", i)
			attr, err := d.FS.LookupPath(path)
			if err != nil {
				t.Errorf("%s missing on the server: %v", path, err)
				continue
			}
			buf := make([]byte, attr.Size)
			if _, _, err := d.FS.ReadAt(attr.ID, buf, 0); err != nil {
				t.Errorf("read %s: %v", path, err)
				continue
			}
			if want := fmt.Sprintf("v%d", i); string(buf) != want {
				t.Errorf("%s = %q, want %q", path, buf, want)
			}
		}
	})
}
