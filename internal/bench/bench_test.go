package bench

import (
	"strings"
	"testing"
	"time"
)

// The shape assertions here are the point of the reproduction: who wins,
// roughly by how much, and where crossovers fall. They run at reduced scale
// to stay fast; cmd/gvfs-bench runs the full-scale versions.

func TestFig4Shape(t *testing.T) {
	res, err := RunFig4(Options{Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	wan := map[string]Setup{}
	for _, s := range res.WAN {
		wan[s.Name] = s
	}
	lan := map[string]Setup{}
	for _, s := range res.LAN {
		lan[s.Name] = s
	}

	// GVFS is substantially faster than NFS in the WAN (paper: ~3x).
	if wan["GVFS"].Runtime*2 >= wan["NFS"].Runtime {
		t.Errorf("WAN: GVFS %.1fs vs NFS %.1fs; want >= 2x speedup",
			seconds(wan["GVFS"].Runtime), seconds(wan["NFS"].Runtime))
	}
	// The disk cache virtually eliminates GETATTR traffic.
	if g, n := wan["GVFS"].RPCs["GETATTR"], wan["NFS"].RPCs["GETATTR"]; g*10 >= n {
		t.Errorf("WAN GETATTRs: GVFS %d vs NFS %d; want >= 10x reduction", g, n)
	}
	// Only tens of GETINV polls.
	if gi := wan["GVFS"].RPCs["GETINV"]; gi == 0 || gi > 100 {
		t.Errorf("GETINV calls = %d, want a small positive number", gi)
	}
	// Write-back cuts WRITE traffic further.
	if wb, g := wan["GVFS-WB"].RPCs["WRITE"], wan["GVFS"].RPCs["WRITE"]; wb >= g {
		t.Errorf("WAN WRITEs: GVFS-WB %d vs GVFS %d; want fewer with write-back", wb, g)
	}
	// In the LAN the proxy costs a few percent, not a factor.
	if lan["GVFS"].Runtime > lan["NFS"].Runtime*13/10 {
		t.Errorf("LAN overhead too high: GVFS %.1fs vs NFS %.1fs",
			seconds(lan["GVFS"].Runtime), seconds(lan["NFS"].Runtime))
	}
	// The paper's server-load claim: the NFS server serves far fewer RPCs
	// under GVFS.
	if g, n := res.ServerLoad["GVFS"], res.ServerLoad["NFS"]; g*2 >= n {
		t.Errorf("server load: GVFS %d vs NFS %d; want >= 2x reduction", g, n)
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := RunFig5(Options{Scale: 10})
	if err != nil {
		t.Fatal(err)
	}
	get := func(rtt time.Duration, mode string) time.Duration {
		for _, p := range res.Points {
			if p.RTT == rtt && p.Setup == mode {
				return p.Runtime
			}
		}
		t.Fatalf("missing point %v/%s", rtt, mode)
		return 0
	}
	// At 0.5 ms the proxy overhead makes GVFS no better (paper: NFS wins
	// below ~10 ms).
	low := 500 * time.Microsecond
	if get(low, "GVFS1") < get(low, "NFS") {
		t.Errorf("at %v GVFS1 (%v) beat NFS (%v); proxies should cost at LAN latencies",
			low, get(low, "GVFS1"), get(low, "NFS"))
	}
	// At 40 ms both GVFS setups win clearly (paper: > 2x).
	high := 40 * time.Millisecond
	for _, mode := range []string{"GVFS1", "GVFS2"} {
		if get(high, mode)*3 >= get(high, "NFS")*2 {
			t.Errorf("at %v %s = %v vs NFS = %v; want a clear win",
				high, mode, get(high, mode), get(high, "NFS"))
		}
	}
	// NFS runtime grows with RTT.
	if get(high, "NFS") <= get(low, "NFS") {
		t.Error("NFS runtime did not grow with latency")
	}
}

func TestFig6Shape(t *testing.T) {
	// Full scale: the lock benchmark is cheap in wall time, and the
	// weak-vs-strong runtime ordering is noise-dominated at small scale.
	res, err := RunFig6(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig6Setup{}
	for _, s := range res.Setups {
		byName[s.Name] = s
	}

	// Strong consistency is fair; weak consistency reacquires.
	if byName["NFS-noac"].Reacquisitions > byName["NFS-inv"].Reacquisitions {
		t.Errorf("reacquisitions: noac %d > inv %d; strong should be fairer",
			byName["NFS-noac"].Reacquisitions, byName["NFS-inv"].Reacquisitions)
	}
	if w, s := byName["GVFS-inv"].Reacquisitions, byName["GVFS-cb"].Reacquisitions; w <= s {
		t.Errorf("reacquisitions: GVFS-inv %d <= GVFS-cb %d; weak consistency should be unfair", w, s)
	}
	// Weak-consistency runs take longer (paper: the weak bars sit higher).
	// The ordering is contention-timing dependent, so allow scheduling
	// noise; the robust unfairness signal is the reacquisition count above.
	if byName["GVFS-inv"].Runtime*100 <= byName["GVFS-cb"].Runtime*85 {
		t.Errorf("runtime: GVFS-inv %v much faster than GVFS-cb %v; stale lock views should cost time",
			byName["GVFS-inv"].Runtime, byName["GVFS-cb"].Runtime)
	}
	// GVFS uses fewer consistency RPCs than NFS at the same level
	// (paper: 44% less for polling, >10x for strong).
	if g, n := byName["GVFS-inv"].Consistency(), byName["NFS-inv"].Consistency(); g >= n {
		t.Errorf("polling consistency RPCs: GVFS %d >= NFS %d", g, n)
	}
	if g, n := byName["GVFS-cb"].Consistency(), byName["NFS-noac"].Consistency(); g*4 >= n {
		t.Errorf("strong consistency RPCs: GVFS-cb %d vs NFS-noac %d; want >= 4x reduction", g, n)
	}
	// Every client finished its acquisitions in every setup.
	for name, s := range byName {
		for i, w := range s.PerClientWins {
			if w == 0 {
				t.Errorf("%s: client %d never acquired the lock", name, i)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := RunFig7(Options{Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	for variant, series := range res.Variants {
		var nfs, gv Fig7Series
		for _, s := range series {
			if s.Setup == "NFS" {
				nfs = s
			} else {
				gv = s
			}
		}
		if len(nfs.IterRuntimes) == 0 || len(gv.IterRuntimes) == 0 {
			t.Fatalf("%s: missing series", variant)
		}
		// Steady state (iterations 2..4): GVFS at least 1.5x faster.
		if gv.IterRuntimes[2]*3 >= nfs.IterRuntimes[2]*2 {
			t.Errorf("%s iter3: GVFS %v vs NFS %v; want clear speedup",
				variant, gv.IterRuntimes[2], nfs.IterRuntimes[2])
		}
	}
	// GVFS's invalidation traffic is proportional to the update size:
	// the full-MATLAB update needs far more GETINV+GETATTR work than the
	// MPITB-only update.
	var full, small int64
	for _, s := range res.Variants["matlab"] {
		if s.Setup == "GVFS" {
			full = s.UpdateRoundRPCs
		}
	}
	for _, s := range res.Variants["mpitb"] {
		if s.Setup == "GVFS" {
			small = s.UpdateRoundRPCs
		}
	}
	if small >= full {
		t.Errorf("update-round RPCs: mpitb %d >= matlab %d; invalidations should scale with update size", small, full)
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := RunFig8(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	var nfs, gv Fig8Series
	for _, s := range res.Series {
		if s.Setup == "NFS" {
			nfs = s
		} else {
			gv = s
		}
	}
	n := len(nfs.RunTimes)
	if n < 4 || len(gv.RunTimes) != n {
		t.Fatalf("series lengths: nfs=%d gvfs=%d", n, len(gv.RunTimes))
	}
	// NFS consistency overhead grows with the dataset.
	if nfs.RunTimes[n-1] <= nfs.RunTimes[0]*3/2 {
		t.Errorf("NFS runtime not growing: first %v last %v", nfs.RunTimes[0], nfs.RunTimes[n-1])
	}
	// GVFS stays roughly constant.
	if gv.RunTimes[n-1] > gv.RunTimes[0]*2 {
		t.Errorf("GVFS runtime grew: first %v last %v", gv.RunTimes[0], gv.RunTimes[n-1])
	}
	// And wins by a growing factor (paper: 5x at run 15).
	if gv.RunTimes[n-1]*2 >= nfs.RunTimes[n-1] {
		t.Errorf("final run: GVFS %v vs NFS %v; want >= 2x speedup", gv.RunTimes[n-1], nfs.RunTimes[n-1])
	}
}

func TestLANOverheadShape(t *testing.T) {
	res, err := RunLANOverhead(Options{Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	ov := res.Overheads()
	// Small but nonzero overhead, far below a 2x penalty (paper: 4-8%).
	for name, o := range ov {
		if o < 0 {
			t.Errorf("%s faster than NFS in LAN (%.1f%%); overhead model missing", name, o*100)
		}
		if o > 0.5 {
			t.Errorf("%s overhead %.1f%% too large", name, o*100)
		}
	}
	if ov["GVFS-WB"] < ov["GVFS"]-0.05 {
		t.Errorf("write-back (%.1f%%) should not be markedly cheaper than read-only (%.1f%%)",
			ov["GVFS-WB"]*100, ov["GVFS"]*100)
	}
}

func TestRendersProduceOutput(t *testing.T) {
	// Smoke-test every Render with tiny runs.
	var sb strings.Builder
	f4, err := RunFig4(Options{Scale: 40})
	if err != nil {
		t.Fatal(err)
	}
	f4.Render(&sb)
	f5, err := RunFig5(Options{Scale: 30})
	if err != nil {
		t.Fatal(err)
	}
	f5.Render(&sb)
	f6, err := RunFig6(Options{Scale: 5})
	if err != nil {
		t.Fatal(err)
	}
	f6.Render(&sb)
	f7, err := RunFig7(Options{Scale: 50})
	if err != nil {
		t.Fatal(err)
	}
	f7.Render(&sb)
	f8, err := RunFig8(Options{Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	f8.Render(&sb)
	lo, err := RunLANOverhead(Options{Scale: 40})
	if err != nil {
		t.Fatal(err)
	}
	lo.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8",
		"GETATTR", "overhead", "reacquisitions", "MPITB",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	res, err := RunAblations(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("expected 4 sweeps, got %d", len(res))
	}
	// Polling window: tighter windows bound staleness tighter.
	poll := res[0]
	if len(poll.Rows) < 3 {
		t.Fatal("poll sweep incomplete")
	}
	if poll.Rows[0].Staleness > poll.Rows[2].Staleness {
		t.Errorf("5s window staleness %v > 120s window %v", poll.Rows[0].Staleness, poll.Rows[2].Staleness)
	}
	// Back-off idles cheaper than the tight fixed window.
	if backoff, tight := poll.Rows[3].RPCs["GETINV"], poll.Rows[0].RPCs["GETINV"]; backoff >= tight {
		t.Errorf("backoff used %d GETINVs vs fixed-5s %d; idle polls should shrink", backoff, tight)
	}
	// Buffer size: tiny buffers wrap and force-invalidate repeatedly; big
	// ones only see the one bootstrap force.
	buf := res[1]
	if buf.Rows[0].Extra == "0" || buf.Rows[0].Extra == "1" {
		t.Errorf("4-entry buffer forced only %s times; expected repeated wrap-around", buf.Rows[0].Extra)
	}
	if got := buf.Rows[len(buf.Rows)-1].Extra; got != "1" {
		t.Errorf("1024-entry buffer forced %s times, want 1 (bootstrap only)", got)
	}
	// Expiry: the short expiration recalls a still-active client's state.
	exp := res[2]
	if exp.Rows[0].Extra == "0" {
		t.Error("30s expiry issued no callbacks against an active client")
	}
	// Pipeline: parallel write-back beats serial, and readahead beats
	// one-round-trip-per-block cold reads.
	pipe := res[3]
	if len(pipe.Rows) != 16 {
		t.Fatalf("pipeline sweep has %d rows, want 16", len(pipe.Rows))
	}
	if w8, w1 := pipe.Rows[3].Staleness, pipe.Rows[0].Staleness; w8*2 >= w1 {
		t.Errorf("W=8 flush %v not meaningfully faster than W=1 %v", w8, w1)
	}
	if ra8, ra0 := pipe.Rows[7].Staleness, pipe.Rows[4].Staleness; ra8*2 >= ra0 {
		t.Errorf("RA=8 cold read %v not meaningfully faster than readahead off %v", ra8, ra0)
	}
	// On the bandwidth-limited link the sweep itself gates the readahead
	// row's utilisation and READ count; here, that it is not a near miss of
	// the serial read.
	if ra4, ra0 := pipe.Rows[9].Staleness, pipe.Rows[8].Staleness; ra4*4 >= ra0 {
		t.Errorf("RA=4 at 100 Mbit/s %v not meaningfully faster than readahead off %v", ra4, ra0)
	}
	// Small files: the sweep gates the COMMIT and READ counts; here, that the
	// default configuration's prefetch takes a round trip out of every
	// transaction.
	if def, off := pipe.Rows[10].Staleness, pipe.Rows[11].Staleness; def+30*time.Millisecond > off {
		t.Errorf("small-file transaction %v under the default config, %v with readahead off: want a round trip (40 ms) less", def, off)
	}
	// The ring: the sweep gates the second pass's utilisation, READ count and
	// waste; here, that it took the start-of-file round trips out — 40 ms a
	// file over the first pass, whose own first file also ramped the window.
	if ring := pipe.Rows[12]; !strings.HasPrefix(ring.Param, "readahead ring") || !strings.Contains(ring.Extra, "pass1=") {
		t.Errorf("row 12 is %q (%s), want the readahead ring", ring.Param, ring.Extra)
	} else if limit := time.Duration(float64(ringFiles*ringBlocks*32*1024)/float64(fastWAN.Bandwidth)*float64(time.Second)) + 2*pipelineWAN.RTT; ring.Staleness > limit {
		t.Errorf("second pass over the ring took %v, want the link's %v or less: its wire time and the one unlearned file start", ring.Staleness, limit)
	}
	// Directory walk: the sweep gates LOOKUPs against pages; here, that opening
	// 256 files by name costs a handful of round trips, not one per name.
	if walk := pipe.Rows[13]; walk.Staleness*10 > pipelineWAN.RTT || walk.RPCs["READDIRPLUS"] == 0 {
		t.Errorf("name-at-a-time open: %v a name, %v crossing; want the directory's pages instead of a round trip (%v) per name",
			walk.Staleness, walk.RPCs, pipelineWAN.RTT)
	}
	// Handoff: the sweep gates the re-read at one round trip plus the wire
	// time; here, that it is one row per model, each a round trip short of the
	// GETATTR-then-READ serial path.
	for i, model := range []string{"poll", "deleg"} {
		row := pipe.Rows[14+i]
		if !strings.HasPrefix(row.Param, "handoff re-read") || !strings.HasSuffix(row.Param, model) || row.Staleness >= 2*fastWAN.RTT {
			t.Errorf("row %d is %q in %v, want the %s handoff in under two round trips", 14+i, row.Param, row.Staleness, model)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Ablation") {
		t.Error("render empty")
	}
}

// TestRestartShape is the warm-restart gate: in both models a proxy client
// restarted on its disk cache refetches only what changed while it was down
// (under a tenth of the cold pass's wide-area READs) and revalidates the rest.
func TestRestartShape(t *testing.T) {
	res, err := RunRestart(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Setups) != 2 {
		t.Fatalf("restart covers %d set-ups, want both consistency models", len(res.Setups))
	}
	for _, s := range res.Setups {
		if s.ColdReads == 0 {
			t.Errorf("%s: the cold pass read nothing over the WAN", s.Name)
		}
		if r := s.WarmColdRatio(); r >= 0.10 {
			t.Errorf("%s: warm restart refetched %.1f%% of the cold READs, want under 10%%", s.Name, 100*r)
		}
		if s.RevalidatedBlocks == 0 {
			t.Errorf("%s: no block was revalidated", s.Name)
		}
	}
}
