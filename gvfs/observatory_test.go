package gvfs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfsclient"
	"repro/internal/obs"
	"repro/internal/obs/attr"
)

// observatoryWorkload runs the canonical cross-client conflict: C1 warms its
// cache over the working set, C2 commits new versions, C1 keeps re-reading.
// It returns the deployment with all spans and oracle state intact.
func observatoryWorkload(t *testing.T, model core.Model) *Deployment {
	t.Helper()
	d, err := NewDeployment(Config{TraceRing: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	for _, p := range []string{"w/a", "w/b"} {
		if _, err := d.FS.WriteFile(p, bytes.Repeat([]byte("v0"), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.Config{Model: model}
	if model == core.ModelPolling {
		cfg.PollPeriod = 30 * time.Second
	}
	d.Run("observatory", func() {
		sess, err := d.NewSession("obs", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		reader, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			t.Error(err)
			return
		}
		writer, err := sess.Mount("C2", nfsclient.Options{NoAC: true})
		if err != nil {
			t.Error(err)
			return
		}
		scan := func() {
			for _, p := range []string{"w/a", "w/b"} {
				if _, err := reader.Client.Stat(p); err != nil {
					t.Errorf("stat %s: %v", p, err)
				}
				if _, err := reader.Client.ReadFile(p); err != nil {
					t.Errorf("read %s: %v", p, err)
				}
			}
		}
		scan() // warm C1's proxy cache
		for r := 0; r < 4; r++ {
			if err := writer.Client.WriteFile("w/a", bytes.Repeat([]byte{byte('1' + r)}, 8192)); err != nil {
				t.Errorf("write round %d: %v", r, err)
			}
			scan() // under polling these serves are stale-but-in-bound
			d.Clock.Sleep(5 * time.Second)
		}
		d.Clock.Sleep(31 * time.Second) // let the last poll drain
		scan()
	})
	return d
}

// TestStalenessObservatoryBothModels: the oracle must measure real staleness
// under polling (stale-but-in-bound serves between polls), keep delegation
// essentially fresh, see its invalidation channel carry load — and count
// zero violations of either model's advertised bound.
func TestStalenessObservatoryBothModels(t *testing.T) {
	for _, mode := range []struct {
		name    string
		model   core.Model
		short   string
		channel string
	}{
		{"polling", core.ModelPolling, "poll", "poll"},
		{"delegation", core.ModelDelegation, "deleg", "recall"},
	} {
		t.Run(mode.name, func(t *testing.T) {
			d := observatoryWorkload(t, mode.model)
			if t.Failed() {
				return
			}
			snap := d.PublishMetrics()
			if v := snap.Counters[obs.Label("gvfs_staleness_violations_total", "model", mode.short)]; v != 0 {
				t.Errorf("%d staleness violations — %s broke its advertised bound", v, mode.name)
			}
			age := snap.Histograms[obs.Label("gvfs_staleness_age", "model", mode.short)]
			if age.Count == 0 {
				t.Fatal("no cache serves scored by the oracle — observatory not wired")
			}
			if mode.model == core.ModelPolling {
				if age.Sum == 0 {
					t.Error("polling measured zero total staleness despite cross-client writes between polls")
				}
				// Permitted staleness is bounded by the poll period plus one
				// poll round trip; well under a minute here.
				if max := time.Duration(age.Bounds[len(age.Bounds)-1]); age.Counts[len(age.Counts)-1] != 0 {
					t.Errorf("measured staleness beyond the largest bucket (%v)", max)
				}
			} else if age.Sum != 0 {
				t.Errorf("delegation served stale data (total age %v) despite synchronous recalls",
					time.Duration(age.Sum))
			}
			prop := snap.Histograms[obs.Label("gvfs_inv_propagation", "channel", mode.channel)]
			if prop.Count == 0 {
				t.Errorf("invalidation channel %q recorded no propagations", mode.channel)
			}
		})
	}
}

// TestAttributionExactPartition: every attributed request's segments must
// sum exactly to its measured end-to-end latency, and PublishMetrics must
// export the per-op, per-segment histograms.
func TestAttributionExactPartition(t *testing.T) {
	d := observatoryWorkload(t, core.ModelPolling)
	if t.Failed() {
		return
	}
	bds := d.Attribution()
	if len(bds) == 0 {
		t.Fatal("no requests attributed")
	}
	for _, bd := range bds {
		var sum time.Duration
		for seg, dur := range bd.Seg {
			if dur < 0 {
				t.Errorf("req %d: negative %s segment", bd.Req, seg)
			}
			sum += dur
		}
		if sum != bd.Total() {
			t.Errorf("req %d (%s): segments sum to %v, end-to-end is %v", bd.Req, bd.Op, sum, bd.Total())
		}
	}
	snap := d.PublishMetrics()
	total := snap.Histograms[obs.Label(obs.Label("gvfs_attr_seconds", "op", "READ"), "segment", "total")]
	if total.Count == 0 {
		t.Error("gvfs_attr_seconds READ/total histogram empty after PublishMetrics")
	}
	// Publishing again must not double-count.
	again := d.PublishMetrics().Histograms[obs.Label(obs.Label("gvfs_attr_seconds", "op", "READ"), "segment", "total")]
	if again.Count != total.Count {
		t.Errorf("repeated publish double-counted attribution: %d then %d", total.Count, again.Count)
	}
}

// TestAttributionRecallSegment: under delegation, a conflicting write blocks
// behind the recall callback, and attribution must name that time SegRecall
// on the writer's request.
func TestAttributionRecallSegment(t *testing.T) {
	d := observatoryWorkload(t, core.ModelDelegation)
	if t.Failed() {
		return
	}
	var recalled time.Duration
	for _, bd := range d.Attribution() {
		recalled += bd.Seg[attr.SegRecall]
	}
	if recalled == 0 {
		t.Error("no recall blocking attributed despite cross-client write conflicts under delegation")
	}
}

// TestAttributionWritebackCoalesced: write-back caching coalesces several
// dirty runs into fewer upstream WRITEs whose flush spans ride background
// request IDs. Attribution must stay an exact partition for the kernel
// requests, and local-root analysis must handle the flush groups too —
// byte-identically across two identical virtual-time runs.
func TestAttributionWritebackCoalesced(t *testing.T) {
	run := func() (string, string) {
		d, err := NewDeployment(Config{TraceRing: 1 << 15})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.FS.WriteFile("w/data", make([]byte, 256<<10)); err != nil {
			t.Fatal(err)
		}
		d.Run("coalesce", func() {
			sess, err := d.NewSession("wb", core.Config{
				Model: core.ModelPolling, PollPeriod: 30 * time.Second, WriteBack: true,
			})
			if err != nil {
				t.Error(err)
				return
			}
			m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
			if err != nil {
				t.Error(err)
				return
			}
			f, err := m.Client.Open("w/data")
			if err != nil {
				t.Error(err)
				return
			}
			// Two separated dirty runs, twice, then sync: the write-back
			// flusher coalesces each run's blocks into single upstream WRITEs.
			chunk := bytes.Repeat([]byte("x"), 64<<10)
			for pass := 0; pass < 2; pass++ {
				for _, off := range []uint64{0, 128 << 10} {
					if _, err := f.WriteAt(chunk, off); err != nil {
						t.Errorf("write at %d: %v", off, err)
					}
				}
				if err := f.Sync(); err != nil {
					t.Errorf("sync: %v", err)
				}
			}
			if err := f.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		})
		spans := d.Obs.Spans()
		kernel := attr.Analyze(spans)
		if len(kernel) == 0 {
			t.Fatal("no kernel requests attributed")
		}
		local := attr.AnalyzeLocal(spans)
		if len(local) < len(kernel) {
			t.Fatalf("local-root analysis found %d groups, fewer than %d kernel roots", len(local), len(kernel))
		}
		for _, bd := range append(kernel, local...) {
			var sum time.Duration
			for _, dur := range bd.Seg {
				sum += dur
			}
			if sum != bd.Total() {
				t.Errorf("req %d (%s at %s): segments sum to %v, end-to-end is %v",
					bd.Req, bd.Op, bd.Node, sum, bd.Total())
			}
		}
		return attr.FormatReport(kernel, 5), attr.FormatReport(local, 5)
	}
	k1, l1 := run()
	if t.Failed() {
		return
	}
	k2, l2 := run()
	if k1 != k2 {
		t.Errorf("kernel attribution differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", k1, k2)
	}
	if l1 != l2 {
		t.Errorf("local attribution differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", l1, l2)
	}
	if !strings.Contains(k1, "WRITE") {
		t.Errorf("no WRITE requests in attribution report:\n%s", k1)
	}
}
