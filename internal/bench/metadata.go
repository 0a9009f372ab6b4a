package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// MetadataSetup is one bar of the metadata fast-path comparison: the
// stat-storm workload on a WAN session with the proxy's metadata caches on
// or off.
type MetadataSetup struct {
	Setup
	// Ops is the number of metadata operations the storm issued (stats +
	// access checks + negative probes + directory scans).
	Ops int
	// Hits breaks out the proxy's local metadata serves by cache.
	Hits map[string]int64
}

// OpsPerSec is the storm's throughput in virtual time.
func (s MetadataSetup) OpsPerSec() float64 {
	if s.Runtime <= 0 {
		return 0
	}
	return float64(s.Ops) / seconds(s.Runtime)
}

// WANPerOp is the wide-area cost of one metadata operation.
func (s MetadataSetup) WANPerOp() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.Total()) / float64(s.Ops)
}

// MetadataResult compares the build-like stat-storm workload with the
// metadata fast path enabled ("GVFS-meta") and disabled ("GVFS-nometa").
type MetadataResult struct {
	Workload workload.StatStormConfig
	Setups   []MetadataSetup
}

// RunMetadata executes the comparison on the WAN testbed under the polling
// model: same session configuration, same storm, the only difference being
// DisableMetaCache.
func RunMetadata(opt Options) (MetadataResult, error) {
	cfg := workload.StatStormConfig{Files: 200, Misses: 50, Passes: 5}
	if s := opt.scale(); s > 1 {
		cfg = workload.StatStormConfig{Files: max(200/s, 10), Misses: max(50/s, 5), Passes: 5}
	}
	res := MetadataResult{Workload: cfg}
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"GVFS-meta", false},
		{"GVFS-nometa", true},
	} {
		setup, err := runMetadataSetup(opt, mode.name, mode.disable, cfg)
		if err != nil {
			return res, fmt.Errorf("metadata %s: %w", mode.name, err)
		}
		opt.logf("metadata %-12s runtime=%6.1fs ops=%d wan-rpcs=%d (%.2f/op)",
			mode.name, seconds(setup.Runtime), setup.Ops, setup.Total(), setup.WANPerOp())
		res.Setups = append(res.Setups, setup)
	}
	return res, nil
}

func runMetadataSetup(opt Options, name string, disable bool, cfg workload.StatStormConfig) (MetadataSetup, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: simnet.WAN})
	if err != nil {
		return MetadataSetup{}, err
	}
	defer d.Close()
	if err := workload.SetupStatTree(d.FS, cfg); err != nil {
		return MetadataSetup{}, err
	}

	setup := MetadataSetup{Setup: Setup{Name: name, RPCs: make(map[string]int64)}}
	var runErr error
	d.Run("metadata", func() {
		scfg := core.Config{
			Model: core.ModelPolling, PollPeriod: thirty,
			ProxyDelay: proxyDelay, DiskDelay: diskDelay,
			DisableMetaCache: disable, ReadAhead: noReadAhead,
		}
		sess, err := d.NewSession("meta", scfg)
		if err != nil {
			runErr = err
			return
		}
		// noac kernel mount: every stat reaches the proxy, so the measured
		// difference is purely the proxy's metadata fast path.
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			runErr = err
			return
		}
		st, err := workload.RunStatStorm(d.Clock, m.Client, cfg)
		if err != nil {
			runErr = err
			return
		}
		setup.Runtime = st.Elapsed
		setup.Ops = st.Stats + st.Accesses + st.Misses + cfg.Passes
		addCounts(setup.RPCs, m.WANCounts())
		ps := m.Proxy.Stats()
		setup.Hits = map[string]int64{
			"attr":     ps.AttrHits,
			"dentry":   ps.DentryHits,
			"negative": ps.NegLookupHits,
			"access":   ps.AccessHits,
			"listing":  ps.ListingHits,
		}
	})
	opt.dumpMetrics(fmt.Sprintf("metadata %s", name), d)
	return setup, runErr
}

// Render prints the comparison table.
func (r MetadataResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Metadata fast path: stat storm (%d files, %d absent probes, %d passes) on WAN\n",
		r.Workload.Files, r.Workload.Misses, r.Workload.Passes)
	fmt.Fprintf(w, "%-14s%12s%12s%12s%14s\n", "setup", "runtime_s", "ops/sec", "wan_rpcs", "wan_rpcs/op")
	for _, s := range r.Setups {
		fmt.Fprintf(w, "%-14s%12.1f%12.1f%12d%14.3f\n",
			s.Name, seconds(s.Runtime), s.OpsPerSec(), s.Total(), s.WANPerOp())
	}
	fmt.Fprintln(w)
	renderRPCTable(w, setupsOf(r.Setups), []string{"GETATTR", "LOOKUP", "ACCESS", "READDIR", "GETINV"})
}

func setupsOf(ms []MetadataSetup) []Setup {
	out := make([]Setup, len(ms))
	for i, m := range ms {
		out[i] = m.Setup
	}
	return out
}

// metadataJSON is the committed BENCH_metadata.json schema. All values are
// virtual-time/simulator outputs, so reruns of the same build are
// byte-identical.
type metadataJSON struct {
	Experiment string               `json:"experiment"`
	Workload   metadataWorkloadJSON `json:"workload"`
	Setups     []metadataSetupJSON  `json:"setups"`
}

type metadataWorkloadJSON struct {
	Files  int `json:"files"`
	Misses int `json:"misses"`
	Passes int `json:"passes"`
}

type metadataSetupJSON struct {
	Name         string           `json:"name"`
	RuntimeSec   float64          `json:"runtime_s"`
	Ops          int              `json:"ops"`
	OpsPerSec    float64          `json:"ops_per_sec"`
	WANRPCs      int64            `json:"wan_rpcs"`
	WANRPCsPerOp float64          `json:"wan_rpcs_per_op"`
	RPCs         map[string]int64 `json:"rpcs"`
	Hits         map[string]int64 `json:"hits"`
}

// WriteJSON emits the machine-readable comparison.
func (r MetadataResult) WriteJSON(w io.Writer) error {
	cfg := r.Workload
	out := metadataJSON{
		Experiment: "metadata",
		Workload:   metadataWorkloadJSON{Files: cfg.Files, Misses: cfg.Misses, Passes: cfg.Passes},
	}
	for _, s := range r.Setups {
		out.Setups = append(out.Setups, metadataSetupJSON{
			Name:         s.Name,
			RuntimeSec:   seconds(s.Runtime),
			Ops:          s.Ops,
			OpsPerSec:    s.OpsPerSec(),
			WANRPCs:      s.Total(),
			WANRPCsPerOp: s.WANPerOp(),
			RPCs:         s.RPCs,
			Hits:         s.Hits,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
