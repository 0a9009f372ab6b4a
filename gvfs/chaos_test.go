package gvfs

import (
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/attr"
	"repro/internal/simnet"
)

// seedFlag lets a failing randomized test be replayed deterministically:
//
//	go test ./gvfs/ -run TestChaos -gvfs.seed=12345
var seedFlag = flag.Int64("gvfs.seed", 0, "override the seed of randomized gvfs tests (0 = per-test default)")

// testSeed resolves the seed for a randomized test and guarantees it is
// printed when the test fails, so any failure is replayable.
func testSeed(t *testing.T, def int64) int64 {
	seed := def
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("replay with: go test ./gvfs/ -run '%s' -gvfs.seed=%d", t.Name(), seed)
		}
	})
	return seed
}

func chaosFaults() simnet.Faults {
	return simnet.Faults{
		DropProb:    0.02,
		DupProb:     0.02,
		ReorderProb: 0.05,
		JitterMax:   5 * time.Millisecond,
	}
}

// requireClean fails the test for every visibility violation in rep and,
// only if there is one, logs every path's span trace for diagnosis.
func requireClean(t *testing.T, rep *ChaosReport) {
	t.Helper()
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if len(rep.Violations) == 0 {
		return
	}
	for p, trace := range rep.Traces {
		t.Logf("span trace for %s:\n%s", p, trace)
	}
}

// TestChaosBothModels is the acceptance scenario: message drops,
// duplication, a partition/heal cycle, and a proxy-server crash/restart
// over concurrent clients, in both consistency models, with zero
// visibility-rule violations.
func TestChaosBothModels(t *testing.T) {
	for _, mode := range []struct {
		name  string
		model core.Model
	}{
		{"polling", core.ModelPolling},
		{"delegation", core.ModelDelegation},
	} {
		t.Run(mode.name, func(t *testing.T) {
			seed := testSeed(t, 7)
			rep, err := RunChaos(ChaosOptions{
				Model:  mode.model,
				Seed:   seed,
				Faults: chaosFaults(),
			})
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			requireClean(t, rep)
			if rep.Restarts != 1 {
				t.Errorf("proxy-server restarts = %d, want 1", rep.Restarts)
			}
			wantEvents := 0
			for _, ev := range rep.Plan.Events {
				if ev.Kind != "restart-server" {
					wantEvents++
				}
			}
			if len(rep.NetEvents) != wantEvents {
				t.Errorf("applied %d partition/heal events, plan has %d: %+v",
					len(rep.NetEvents), wantEvents, rep.NetEvents)
			}
			st := rep.NetStats
			if st.FaultDrops == 0 || st.FaultDups == 0 || st.FaultReorders == 0 {
				t.Errorf("fault counters not all active: %+v", st)
			}
			if st.Dropped == 0 {
				t.Errorf("no partition drops despite a partition/heal cycle: %+v", st)
			}
			if rep.OpErrors == rep.Ops {
				t.Errorf("every one of %d ops errored — harness not exercising the stack", rep.Ops)
			}
			t.Logf("%s: %d ops (%d writes, %d reads, %d errors), net %+v, %d local hits, %d forwards",
				mode.name, rep.Ops, rep.Writes, rep.Reads, rep.OpErrors, st,
				rep.Metrics.SumCounters("gvfs_client_local_hits_total"),
				rep.Metrics.SumCounters("gvfs_client_forwards_total"))
		})
	}
}

// lossyFaults is the acceptance fault policy for the at-least-once RPC
// machinery: every link drops well above the retransmission design point
// (>= 5% per message) and duplicates often enough to exercise the
// duplicate-request cache on every server.
func lossyFaults() simnet.Faults {
	return simnet.Faults{
		DropProb:    0.06,
		DupProb:     0.03,
		ReorderProb: 0.05,
		JitterMax:   5 * time.Millisecond,
	}
}

// TestChaosLossyLinksBothModels runs the full chaos schedule over links
// lossy enough that bare single-send RPC could not survive, and asserts the
// retransmission + duplicate-request-cache machinery both carried real load
// and preserved the visibility rules in both consistency models.
func TestChaosLossyLinksBothModels(t *testing.T) {
	for _, mode := range []struct {
		name  string
		model core.Model
	}{
		{"polling", core.ModelPolling},
		{"delegation", core.ModelDelegation},
	} {
		t.Run(mode.name, func(t *testing.T) {
			seed := testSeed(t, 23)
			rep, err := RunChaos(ChaosOptions{
				Model:  mode.model,
				Seed:   seed,
				Faults: lossyFaults(),
			})
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			requireClean(t, rep)
			if rep.NetStats.FaultDrops == 0 {
				t.Errorf("no fault drops despite DropProb=%v: %+v", lossyFaults().DropProb, rep.NetStats)
			}
			if rep.Retransmits == 0 {
				t.Error("no same-XID retransmissions on a link dropping 6% of messages")
			}
			if rep.DRCHits == 0 {
				t.Error("no duplicate-request cache hits despite drops and duplication")
			}
			if rep.OpErrors == rep.Ops {
				t.Errorf("every one of %d ops errored — harness not exercising the stack", rep.Ops)
			}
			// Whole-file reads of paths drawn at random: a polling session links
			// each file read to its end to the next one opened, believes a first
			// link at once and is usually wrong, so its window crosses a file
			// boundary now and then and is withheld after each miss (a handful of
			// blocks a run, none on some seeds). Under delegation a speculative
			// READ could recall another client's delegation: nothing is ever
			// requested across a boundary.
			spilled := rep.Metrics.SumCounters("gvfs_client_readahead_spill_blocks_total")
			if mode.model == core.ModelDelegation && spilled != 0 {
				t.Errorf("%d blocks requested across a file boundary under delegation", spilled)
			}
			t.Logf("%s: %d blocks spilled across file boundaries, %d successor misses, %d prefetched blocks wasted", mode.name, spilled,
				rep.Metrics.SumCounters("gvfs_client_readahead_successor_misses_total"),
				rep.Metrics.SumCounters("gvfs_client_readahead_wasted_total"))
			t.Logf("%s: %d ops (%d errors), %d retransmits, %d DRC hits, net %+v",
				mode.name, rep.Ops, rep.OpErrors, rep.Retransmits, rep.DRCHits, rep.NetStats)
		})
	}
}

// TestChaosMetadataBothModels drives the namespace-churn workload —
// exclusive creates, unlinks, renames, stat/access probes, name-at-a-time
// sweeps, readdir membership scans — over the lossy fault profile in both consistency
// models, and asserts the existence checker finds zero violations while
// the dentry and negative-lookup caches demonstrably carried load.
func TestChaosMetadataBothModels(t *testing.T) {
	for _, mode := range []struct {
		name  string
		model core.Model
	}{
		{"polling", core.ModelPolling},
		{"delegation", core.ModelDelegation},
	} {
		t.Run(mode.name, func(t *testing.T) {
			seed := testSeed(t, 31)
			rep, err := RunChaos(ChaosOptions{
				Model:    mode.model,
				Workload: Namespace{},
				Seed:     seed,
				Faults:   lossyFaults(),
			})
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			requireClean(t, rep)
			if rep.OpErrors == rep.Ops {
				t.Errorf("every one of %d ops errored — harness not exercising the stack", rep.Ops)
			}
			if rep.Reads == 0 {
				t.Error("no checkable existence probes recorded")
			}
			if rep.Writes == 0 {
				t.Error("no successful namespace mutations recorded")
			}
			dentry := rep.Metrics.Sum("gvfs_client_meta_hits_total", "cache", "dentry")
			negative := rep.Metrics.Sum("gvfs_client_meta_hits_total", "cache", "negative")
			if dentry == 0 || negative == 0 {
				t.Errorf("metadata caches idle under namespace churn: dentry=%d negative=%d", dentry, negative)
			}
			// The name-at-a-time sweeps make a polling proxy walk the shared
			// directory under the other clients' churn; under delegation a
			// seeded name could not be served, so no page is ever asked for.
			pages := rep.Metrics.SumCounters("gvfs_client_dirwalk_pages_total")
			if polling := mode.model == core.ModelPolling; (pages > 0) != polling {
				t.Errorf("%d directory-walk pages under %s", pages, mode.name)
			}
			// The polling sessions write back, so an unlink the cache can
			// prove is answered at home, its REMOVE crossing behind it.
			absorbed := rep.Metrics.SumCounters("gvfs_client_remove_absorbed_total")
			if polling := mode.model == core.ModelPolling; (absorbed > 0) != polling {
				t.Errorf("%d REMOVEs answered at home under %s", absorbed, mode.name)
			}
			// So is an exclusive create of a name the cache proves absent,
			// under a handle the session mints.
			created := rep.Metrics.SumCounters("gvfs_client_create_absorbed_total")
			if polling := mode.model == core.ModelPolling; (created > 0) != polling {
				t.Errorf("%d CREATEs answered at home under %s", created, mode.name)
			}
			t.Logf("%s: %d ops (%d mutations, %d probes, %d errors), %d walk pages (%d entries, %d used, %d pages discarded), %d dentry hits, %d negative hits, %d REMOVEs absorbed (%d refused), %d CREATEs absorbed (%d refused)",
				mode.name, rep.Ops, rep.Writes, rep.Reads, rep.OpErrors, pages,
				rep.Metrics.SumCounters("gvfs_client_dirwalk_entries_total"),
				rep.Metrics.SumCounters("gvfs_client_dirwalk_entries_used_total"),
				rep.Metrics.SumCounters("gvfs_client_dirwalk_discarded_total"), dentry, negative,
				absorbed, rep.Metrics.SumCounters("gvfs_client_remove_refused_total"),
				created, rep.Metrics.SumCounters("gvfs_client_create_refused_total"))
		})
	}
}

// TestChaosOverloadBothModels runs the burst fan-in overload schedule over
// lossy links with the proxy server bounded (two workers, a global admission
// bucket an order of magnitude below the opening burst): the server must
// provably shed load, the at-least-once machinery must absorb the sheds, and
// the visibility rules must survive untouched in both models.
func TestChaosOverloadBothModels(t *testing.T) {
	for _, mode := range []struct {
		name  string
		model core.Model
	}{
		{"polling", core.ModelPolling},
		{"delegation", core.ModelDelegation},
	} {
		t.Run(mode.name, func(t *testing.T) {
			seed := testSeed(t, 404)
			rep, err := RunChaos(ChaosOptions{
				Model:    mode.model,
				Overload: true,
				Seed:     seed,
				Faults:   lossyFaults(),
			})
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			requireClean(t, rep)
			if rep.Sheds == 0 {
				t.Error("bounded server shed nothing under burst fan-in: overload mode inert")
			}
			if rep.Retransmits == 0 {
				t.Error("no same-XID retransmissions despite sheds and lossy links")
			}
			if rep.OpErrors == rep.Ops {
				t.Errorf("every one of %d ops errored — harness not exercising the stack", rep.Ops)
			}
			t.Logf("%s: %d ops (%d errors), %d sheds, %d retransmits, %d DRC hits",
				mode.name, rep.Ops, rep.OpErrors, rep.Sheds, rep.Retransmits, rep.DRCHits)
		})
	}
}

// TestChaosBlocksBothModels runs the overwrite workload on multi-block files
// over lossy links: every block is a key of its own, a write overwrites one
// block, and a whole-file read observes them all. It asserts zero
// violations and that the run reached what one-block files never do: the
// readahead window in both models, and flushes that coalesce adjacent dirty
// blocks into one WRITE under polling's write-back.
func TestChaosBlocksBothModels(t *testing.T) {
	for _, mode := range []struct {
		name  string
		model core.Model
	}{
		{"polling", core.ModelPolling},
		{"delegation", core.ModelDelegation},
	} {
		t.Run(mode.name, func(t *testing.T) {
			seed := testSeed(t, 41)
			rep, err := RunChaos(ChaosOptions{
				Model:    mode.model,
				Workload: Overwrites{Blocks: 4},
				Seed:     seed,
				Faults:   lossyFaults(),
			})
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			requireClean(t, rep)
			if rep.OpErrors == rep.Ops {
				t.Errorf("every one of %d ops errored — harness not exercising the stack", rep.Ops)
			}
			readaheads := rep.Metrics.SumCounters("gvfs_client_readaheads_total")
			coalesced := rep.Metrics.SumCounters("gvfs_client_coalesced_writes_total")
			if readaheads == 0 {
				t.Error("no readahead over multi-block files")
			}
			if mode.model == core.ModelPolling && coalesced == 0 {
				t.Error("no coalesced write-back flush over multi-block files")
			}
			t.Logf("%s: %d ops (%d writes, %d reads, %d errors), %d readaheads, %d coalesced writes, %d flushed blocks",
				mode.name, rep.Ops, rep.Writes, rep.Reads, rep.OpErrors, readaheads, coalesced,
				rep.Metrics.SumCounters("gvfs_client_flushed_blocks_total"))
		})
	}
}

// TestChaosReplay runs each seeded plan twice and asserts the replays agree:
// the disruption log, the at-least-once and scheduling work, the span dump
// of every path and the attribution report, each case comparing what its
// plan exercises.
func TestChaosReplay(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		opts  ChaosOptions
		check func(t *testing.T, r1, r2 *ChaosReport)
	}{{
		// The disruption schedule replays identically (same partition/heal
		// events at the same virtual times) with fault injection active.
		name: "seed", seed: 11,
		opts: ChaosOptions{Model: core.ModelPolling, Steps: 60, Faults: chaosFaults()},
		check: func(t *testing.T, r1, r2 *ChaosReport) {
			sameNetEvents(t, r1, r2)
			for i, rep := range []*ChaosReport{r1, r2} {
				if s := rep.NetStats; s.FaultDrops == 0 || s.FaultDups == 0 {
					t.Errorf("run %d fault counters inactive: %+v", i+1, s)
				}
			}
		},
	}, {
		// Byte-identical span dumps for every contended path: the acceptance
		// bar that makes a seeded violation replayable offline.
		name: "trace", seed: 23,
		opts: ChaosOptions{Model: core.ModelPolling, Steps: 40, Faults: chaosFaults(), FlushParallelism: 1},
		check: func(t *testing.T, r1, r2 *ChaosReport) {
			if len(r1.Traces) == 0 {
				t.Fatal("no traces")
			}
			sameTraces(t, r1, r2)
		},
	}, {
		// A lossy seed: same disruption log, same retransmission work, same
		// span dump for every path. The retransmission jitter is a hash of
		// (seed, XID, attempt) rather than a shared PRNG draw precisely so
		// this holds regardless of actor scheduling.
		name: "lossy", seed: 29,
		opts: ChaosOptions{Model: core.ModelPolling, Steps: 60, Faults: lossyFaults()},
		check: func(t *testing.T, r1, r2 *ChaosReport) {
			if r1.Retransmits == 0 {
				t.Error("no retransmissions in a lossy run")
			}
			if r1.Retransmits != r2.Retransmits || r1.DRCHits != r2.DRCHits {
				t.Errorf("RPC recovery work differs across replays: %d/%d retransmits, %d/%d DRC hits",
					r1.Retransmits, r2.Retransmits, r1.DRCHits, r2.DRCHits)
			}
			sameNetEvents(t, r1, r2)
			sameTraces(t, r1, r2)
		},
	}, {
		// The scheduling layer (queue order, shed decisions, slot yields)
		// must be as deterministic as everything beneath it.
		name: "overload", seed: 505,
		opts: ChaosOptions{Model: core.ModelPolling, Overload: true, Steps: 60, Faults: lossyFaults()},
		check: func(t *testing.T, r1, r2 *ChaosReport) {
			if r1.Sheds == 0 {
				t.Error("no sheds in an overload run")
			}
			if r1.Sheds != r2.Sheds || r1.DRCHits != r2.DRCHits {
				t.Errorf("scheduling work differs across replays: %d/%d sheds, %d/%d DRC hits",
					r1.Sheds, r2.Sheds, r1.DRCHits, r2.DRCHits)
			}
			// One actor runs at a time under the virtual clock, so timers armed
			// at one instant take their sequence numbers in a replayable order.
			if r1.Retransmits != r2.Retransmits {
				t.Errorf("retransmissions differ across replays: %d/%d", r1.Retransmits, r2.Retransmits)
			}
			sameTraces(t, r1, r2)
		},
	}, {
		// Under seeded lossy-WAN overload — retransmitted calls,
		// shed-then-retried requests — the attribution report and staleness
		// accounting must be byte-identical across same-seed runs, and the
		// models must still never violate their bounds.
		name: "attribution", seed: 613,
		opts:  ChaosOptions{Model: core.ModelPolling, Overload: true, Steps: 60, Faults: lossyFaults()},
		check: sameAttribution,
	}, {
		// Multi-block files over lossy links, where connections close with
		// calls pending: the woken callers run in XID order, not map order.
		name: "blocks", seed: 101,
		opts: ChaosOptions{Model: core.ModelPolling, Workload: Overwrites{Blocks: 4}, Faults: lossyFaults()},
		check: func(t *testing.T, r1, r2 *ChaosReport) {
			sameNetEvents(t, r1, r2)
			sameTraces(t, r1, r2)
		},
	}, {
		// Warm restarts from the disk cache replay, and so does every metric
		// series: none of them reads the wall clock.
		name: "warm", seed: 11,
		opts: ChaosOptions{Model: core.ModelPolling, Faults: chaosFaults(), WarmRestarts: 2},
		check: func(t *testing.T, r1, r2 *ChaosReport) {
			if r1.WarmRestarts == 0 {
				t.Error("no warm restart in a warm-restart run")
			}
			sameTraces(t, r1, r2)
			sameMetrics(t, r1, r2)
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Seed = testSeed(t, tc.seed)
			run := func(n int) *ChaosReport {
				if opts.WarmRestarts > 0 {
					opts.DiskCacheDir = t.TempDir() // each run starts from an empty disk
				}
				rep, err := RunChaos(opts)
				if err != nil {
					t.Fatalf("run %d: %v", n, err)
				}
				return rep
			}
			r1, r2 := run(1), run(2)
			requireClean(t, r1)
			requireClean(t, r2)
			tc.check(t, r1, r2)
		})
	}
}

func sameNetEvents(t *testing.T, r1, r2 *ChaosReport) {
	t.Helper()
	if len(r1.NetEvents) != len(r2.NetEvents) {
		t.Fatalf("event logs differ in length: %d vs %d", len(r1.NetEvents), len(r2.NetEvents))
	}
	for i := range r1.NetEvents {
		if r1.NetEvents[i] != r2.NetEvents[i] {
			t.Errorf("event %d differs: %+v vs %+v", i, r1.NetEvents[i], r2.NetEvents[i])
		}
	}
}

func sameTraces(t *testing.T, r1, r2 *ChaosReport) {
	t.Helper()
	if len(r1.Traces) != len(r2.Traces) {
		t.Fatalf("trace sets differ: %d vs %d paths", len(r1.Traces), len(r2.Traces))
	}
	for p, tr1 := range r1.Traces {
		tr2, ok := r2.Traces[p]
		if !ok {
			t.Errorf("path %s traced in run 1 only", p)
			continue
		}
		if tr1 != tr2 {
			t.Errorf("trace for %s differs between identically seeded runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", p, tr1, tr2)
		}
	}
}

func sameMetrics(t *testing.T, r1, r2 *ChaosReport) {
	t.Helper()
	var b1, b2 strings.Builder
	if err := r1.Metrics.WriteProm(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Metrics.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	l1, l2 := strings.Split(b1.String(), "\n"), strings.Split(b2.String(), "\n")
	if len(l1) != len(l2) {
		t.Fatalf("metrics dumps differ: %d vs %d lines", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Errorf("metrics dumps differ between identically seeded runs:\n  %s\n  %s", l1[i], l2[i])
		}
	}
}

func sameAttribution(t *testing.T, r1, r2 *ChaosReport) {
	if r1.Attribution != r2.Attribution {
		t.Errorf("attribution differs between same-seed runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			r1.Attribution, r2.Attribution)
	}
	if r1.StalenessViolations != r2.StalenessViolations {
		t.Errorf("staleness violations differ: %d vs %d", r1.StalenessViolations, r2.StalenessViolations)
	}
	if r1.StalenessViolations != 0 {
		t.Errorf("%d staleness violations under chaos", r1.StalenessViolations)
	}
	if !strings.Contains(r1.Attribution, "CRITICAL-PATH ATTRIBUTION") {
		t.Fatalf("chaos report carries no attribution:\n%s", r1.Attribution)
	}
	// The lossy overloaded run must actually exercise the edge cases the
	// attribution decomposes: retransmits and shed backoff.
	if r1.Retransmits == 0 && r1.Sheds == 0 {
		t.Error("chaos run produced neither retransmits nor sheds; attribution edge cases not exercised")
	}
	// The itemized slowest-request lines print only nonzero segments, so
	// "retransmit=" / "shed_backoff=" there proves the stalls were attributed.
	if r1.Retransmits > 0 && !strings.Contains(r1.Attribution, attr.SegRetransmit+"=") {
		t.Errorf("%d retransmits but no %s segment in report:\n%s",
			r1.Retransmits, attr.SegRetransmit, r1.Attribution)
	}
	// Whether a shed request ranks among the report's slowest is
	// seed-dependent, so assert shed attribution through the harvested
	// per-segment histograms instead of the itemized lines.
	if r1.Sheds > 0 {
		var shed int64
		for name, h := range r1.Metrics.Histograms {
			if strings.HasPrefix(name, "gvfs_attr_seconds") &&
				strings.Contains(name, `segment="`+attr.SegShed+`"`) {
				shed += h.Sum
			}
		}
		if shed == 0 {
			t.Errorf("%d sheds but zero %s time attributed", r1.Sheds, attr.SegShed)
		}
	}
}

// TestAbsorbedRemoveCrossesAPartition pins the lag the metadata chaos checker
// allows an unlink under write-back (runChaos's absorbLag): the proxy client
// answers the REMOVE at home while the link is down for the longest partition
// a plan makes, keeps sending it, and it lands on the server within the RPC
// retry window of the heal — so within maxPartition + rpcSlack of the
// unlink's return. Nothing is refused, and the name stays absent to the
// unlinking client throughout.
func TestAbsorbedRemoveCrossesAPartition(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("rm/f", []byte("x"))
	d.Run("test", func() {
		cfg := core.Config{Model: core.ModelPolling, WriteBack: true, PollPeriod: 10 * time.Second,
			FlushInterval: 10 * time.Second, CallTimeout: 4 * time.Second}
		rpcSlack := 3*(cfg.CallTimeout+time.Second) + 5*time.Second // as runChaos bounds it
		sess, err := d.NewSession("s", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := m.Client.Stat("rm/f"); err != nil {
			t.Errorf("stat: %v", err)
			return
		}
		d.Net.Partition("C1", "server")
		start := d.Clock.Now()
		if err := m.Client.Remove("rm/f"); err != nil {
			t.Errorf("remove with the link down: %v", err)
			return
		}
		end := d.Clock.Now()
		if end-start > time.Second {
			t.Errorf("the REMOVE took %v with the link down: it was not answered at home", end-start)
		}
		d.Clock.Sleep(maxPartition - (end - start))
		if _, err := d.FS.LookupPath("rm/f"); err != nil {
			t.Error("the file left the server while the link was down")
		}
		if _, err := m.Client.Stat("rm/f"); !isNoEnt(err) {
			t.Errorf("stat on the unlinking client during the partition: %v, want NOENT", err)
		}
		d.Net.Heal("C1", "server")
		healed := d.Clock.Now()
		for {
			if _, err := d.FS.LookupPath("rm/f"); err != nil {
				break
			}
			if d.Clock.Now()-healed > rpcSlack {
				t.Fatalf("the file is still on the server %v after the heal", rpcSlack)
			}
			d.Clock.Sleep(100 * time.Millisecond)
		}
		if landed := d.Clock.Now() - end; landed > maxPartition+rpcSlack {
			t.Errorf("the REMOVE landed %v after the unlink returned, past the bound of %v", landed, maxPartition+rpcSlack)
		}
		if n := clientCount(d, m, "gvfs_client_remove_refused_total"); n != 0 {
			t.Errorf("%d REMOVEs refused", n)
		}
		t.Logf("absorbed at %v, landed %v after the heal", end, d.Clock.Now()-healed)
	})
}
