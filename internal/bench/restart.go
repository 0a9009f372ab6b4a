package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/simnet"
)

// RestartSetup is one model's cold/warm comparison: a client reads a file
// set cold over the WAN, loses power, restarts on the same disk cache
// directory after a fraction of the files changed on the server, and
// re-reads the whole set warm. The claim under test is that the warm pass
// costs O(changed blocks) wide-area READs, not O(cached blocks): unchanged
// blocks are revalidated through the model's normal attribute channel.
type RestartSetup struct {
	Name string
	// ColdReads and WarmReads are wide-area READ RPCs in each pass.
	ColdReads int64
	WarmReads int64
	// ColdRPCs/WarmRPCs are the full per-procedure WAN counts of each pass.
	ColdRPCs map[string]int64
	WarmRPCs map[string]int64
	// Recovery counters from the restarted proxy.
	RecoveredBlocks   int64
	RecoveredDirty    int64
	RevalidatedBlocks int64
	RefetchedBlocks   int64
}

// WarmColdRatio is the warm pass's READ cost as a fraction of the cold
// pass's. The CI gate holds it under 0.10.
func (s RestartSetup) WarmColdRatio() float64 {
	if s.ColdReads == 0 {
		return 0
	}
	return float64(s.WarmReads) / float64(s.ColdReads)
}

// RestartResult is the committed BENCH_restart.json content.
type RestartResult struct {
	Files   int
	Changed int
	Setups  []RestartSetup
}

// RunRestart executes the warm-restart experiment on the WAN testbed in
// both consistency models.
func RunRestart(opt Options) (RestartResult, error) {
	files, changed := 64, 4
	if s := opt.scale(); s > 1 {
		files = max(files/s, 16)
		changed = max(files/16, 1)
	}
	res := RestartResult{Files: files, Changed: changed}
	for _, mode := range []struct {
		name  string
		model core.Model
	}{
		{"GVFS-poll", core.ModelPolling},
		{"GVFS-deleg", core.ModelDelegation},
	} {
		setup, err := runRestartSetup(opt, mode.name, mode.model, files, changed)
		if err != nil {
			return res, fmt.Errorf("restart %s: %w", mode.name, err)
		}
		opt.logf("restart %-11s cold-reads=%d warm-reads=%d (%.1f%%) revalidated=%d refetched=%d",
			mode.name, setup.ColdReads, setup.WarmReads, 100*setup.WarmColdRatio(),
			setup.RevalidatedBlocks, setup.RefetchedBlocks)
		res.Setups = append(res.Setups, setup)
	}
	return res, nil
}

func runRestartSetup(opt Options, name string, model core.Model, files, changed int) (RestartSetup, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: simnet.WAN})
	if err != nil {
		return RestartSetup{}, err
	}
	defer d.Close()
	dir, err := os.MkdirTemp("", "gvfs-restart-bench")
	if err != nil {
		return RestartSetup{}, err
	}
	defer os.RemoveAll(dir)

	val := func(tag string, i int) []byte {
		b := make([]byte, 4096)
		copy(b, fmt.Sprintf("%s-%d", tag, i))
		return b
	}
	path := func(i int) string { return fmt.Sprintf("restart/f%d", i) }
	for i := 0; i < files; i++ {
		if _, err := d.FS.WriteFile(path(i), val("v0", i)); err != nil {
			return RestartSetup{}, err
		}
	}

	setup := RestartSetup{Name: name}
	var runErr error
	d.Run("restart", func() {
		scfg := core.Config{
			Model: model, PollPeriod: thirty,
			ProxyDelay: proxyDelay, DiskDelay: diskDelay,
			DiskCacheDir: dir, ReadAhead: noReadAhead,
		}
		sess, err := d.NewSession("restart", scfg)
		if err != nil {
			runErr = err
			return
		}
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			runErr = err
			return
		}
		for i := 0; i < files; i++ {
			if _, err := m.Client.ReadFile(path(i)); err != nil {
				runErr = fmt.Errorf("cold read %s: %w", path(i), err)
				return
			}
		}
		setup.ColdRPCs = m.WANCounts()
		setup.ColdReads = setup.ColdRPCs["READ"]

		// The server-side content moves under `changed` files, then power
		// loss. The writes go straight to the NFS server's file system, past
		// the proxy server, so no invalidation names them: the restarted
		// client can only see them in attributes it fetches after them, and
		// so they come before its remount (whose MOUNT may carry them).
		for i := 0; i < changed; i++ {
			if _, err := d.FS.WriteFile(path(i), val("v1", i)); err != nil {
				runErr = err
				return
			}
		}
		nm, err := sess.RemountFromDisk(m, kernelNoac())
		if err != nil {
			runErr = fmt.Errorf("remount from disk: %w", err)
			return
		}
		for i := 0; i < files; i++ {
			if _, err := nm.Client.ReadFile(path(i)); err != nil {
				runErr = fmt.Errorf("warm read %s: %w", path(i), err)
				return
			}
		}
		setup.WarmRPCs = nm.WANCounts()
		setup.WarmReads = setup.WarmRPCs["READ"]
		snap, node := d.Obs.Registry().Snapshot(), nm.Host()+"/"+sess.Name
		setup.RecoveredBlocks = snap.Sum("gvfs_client_recovered_blocks_total", "node", node)
		setup.RecoveredDirty = snap.Sum("gvfs_client_recovered_dirty_blocks_total", "node", node)
		setup.RevalidatedBlocks = snap.Sum("gvfs_client_revalidated_blocks_total", "node", node)
		setup.RefetchedBlocks = snap.Sum("gvfs_client_refetched_blocks_total", "node", node)
	})
	opt.dumpMetrics(fmt.Sprintf("restart %s", name), d)
	return setup, runErr
}

// Render prints the comparison table.
func (r RestartResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Warm restart: %d cached files, %d changed while down, remount from disk on WAN\n",
		r.Files, r.Changed)
	fmt.Fprintf(w, "%-13s%12s%12s%12s%14s%12s\n",
		"setup", "cold_reads", "warm_reads", "warm/cold", "revalidated", "refetched")
	for _, s := range r.Setups {
		fmt.Fprintf(w, "%-13s%12d%12d%11.1f%%%14d%12d\n",
			s.Name, s.ColdReads, s.WarmReads, 100*s.WarmColdRatio(),
			s.RevalidatedBlocks, s.RefetchedBlocks)
	}
	fmt.Fprintln(w)
}

// restartJSON is the committed BENCH_restart.json schema. All values are
// virtual-time/simulator outputs, so reruns of the same build are
// byte-identical.
type restartJSON struct {
	Experiment string             `json:"experiment"`
	Files      int                `json:"files"`
	Changed    int                `json:"changed"`
	Setups     []restartSetupJSON `json:"setups"`
}

type restartSetupJSON struct {
	Name              string           `json:"name"`
	ColdReads         int64            `json:"cold_wan_reads"`
	WarmReads         int64            `json:"warm_wan_reads"`
	WarmColdRatio     float64          `json:"warm_cold_ratio"`
	ColdRPCs          map[string]int64 `json:"cold_rpcs"`
	WarmRPCs          map[string]int64 `json:"warm_rpcs"`
	RecoveredBlocks   int64            `json:"recovered_blocks"`
	RecoveredDirty    int64            `json:"recovered_dirty_blocks"`
	RevalidatedBlocks int64            `json:"revalidated_blocks"`
	RefetchedBlocks   int64            `json:"refetched_blocks"`
}

// WriteJSON emits the machine-readable comparison.
func (r RestartResult) WriteJSON(w io.Writer) error {
	out := restartJSON{Experiment: "restart", Files: r.Files, Changed: r.Changed}
	for _, s := range r.Setups {
		out.Setups = append(out.Setups, restartSetupJSON{
			Name:              s.Name,
			ColdReads:         s.ColdReads,
			WarmReads:         s.WarmReads,
			WarmColdRatio:     s.WarmColdRatio(),
			ColdRPCs:          s.ColdRPCs,
			WarmRPCs:          s.WarmRPCs,
			RecoveredBlocks:   s.RecoveredBlocks,
			RecoveredDirty:    s.RecoveredDirty,
			RevalidatedBlocks: s.RevalidatedBlocks,
			RefetchedBlocks:   s.RefetchedBlocks,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
