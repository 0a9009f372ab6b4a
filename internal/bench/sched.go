package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// SchedSetup is one point of the server-scheduling sweep: a workload run
// against the proxy server with a given worker-pool size.
type SchedSetup struct {
	Setup
	// Workers is the ServerWorkers setting (0 = legacy unbounded spawn).
	Workers int
	// InflightPeak is the scheduler's concurrency high-water at the proxy
	// server (0 for the unbounded baseline, which records none).
	InflightPeak int64
	// Sheds counts admission-control rejections; the sweep configures no
	// rate limits, so any nonzero value is a bug.
	Sheds int64
}

// Slowdown is this setup's runtime relative to base (the unbounded run).
func (s SchedSetup) Slowdown(base SchedSetup) float64 {
	if base.Runtime <= 0 {
		return 0
	}
	return seconds(s.Runtime) / seconds(base.Runtime)
}

// SchedResult sweeps ServerWorkers over two workloads: the metadata-heavy
// stat storm (many small, latency-bound requests) and the make build (mixed
// reads/writes/compiles). The question the sweep answers: how small can the
// proxy server's worker pool get before the bound itself — not the WAN —
// becomes the bottleneck?
type SchedResult struct {
	StormCfg workload.StatStormConfig
	MakeCfg  workload.MakeConfig
	Storm    []SchedSetup
	Make     []SchedSetup
}

// schedPoint is one sweep entry: a worker-pool size and its display name.
type schedPoint struct {
	name    string
	workers int
}

// schedSweep lists the pool sizes compared against the W=0 unbounded
// baseline. The final entry is NumCPU×4, the sizing rule the daemons
// default to in real mode; it carries its own name because its value is
// machine-dependent and may coincide with a fixed point of the sweep.
func schedSweep() []schedPoint {
	return []schedPoint{
		{"W=inf", 0},
		{"W=1", 1},
		{"W=4", 4},
		{"W=16", 16},
		{"W=4xCPU", runtime.NumCPU() * 4},
	}
}

// RunSched executes the sweep on the WAN testbed under the polling model.
func RunSched(opt Options) (SchedResult, error) {
	res := SchedResult{
		StormCfg: workload.StatStormConfig{Files: 200, Misses: 50, Passes: 5},
		MakeCfg:  workload.MakeConfig{},
	}
	if s := opt.scale(); s > 1 {
		res.StormCfg = workload.StatStormConfig{Files: max(200/s, 10), Misses: max(50/s, 5), Passes: 5}
		res.MakeCfg = workload.MakeConfig{
			Sources: max(357/s, 10), Headers: max(103/s, 5), Objects: max(168/s, 4),
			CompileTime: 550 * time.Millisecond,
		}
	}
	for _, p := range schedSweep() {
		setup, err := runSchedStorm(opt, p, res.StormCfg)
		if err != nil {
			return res, fmt.Errorf("sched storm %s: %w", p.name, err)
		}
		opt.logf("sched storm %-8s runtime=%6.1fs wan-rpcs=%d peak=%d",
			p.name, seconds(setup.Runtime), setup.Total(), setup.InflightPeak)
		res.Storm = append(res.Storm, setup)
	}
	for _, p := range schedSweep() {
		setup, err := runSchedMake(opt, p, res.MakeCfg)
		if err != nil {
			return res, fmt.Errorf("sched make %s: %w", p.name, err)
		}
		opt.logf("sched make  %-8s runtime=%6.1fs wan-rpcs=%d peak=%d",
			p.name, seconds(setup.Runtime), setup.Total(), setup.InflightPeak)
		res.Make = append(res.Make, setup)
	}
	return res, nil
}

// schedStormClients is the number of clients running the stat storm
// concurrently: the storm is latency-bound per client, so the pooled server
// must overlap all of them to stay level with the unbounded baseline.
const schedStormClients = 4

func schedConfig(workers int) core.Config {
	return core.Config{
		Model: core.ModelPolling, PollPeriod: thirty,
		ProxyDelay: proxyDelay, DiskDelay: diskDelay,
		ServerWorkers: workers, ReadAhead: noReadAhead,
	}
}

// schedScrape pulls the scheduler's own metrics for the session's proxyd.
func schedScrape(d *gvfs.Deployment, setup *SchedSetup, session string) {
	snap := d.PublishMetrics()
	setup.InflightPeak = snap.Gauges[fmt.Sprintf("gvfs_server_inflight_peak{node=%q}", "proxyd:"+session)]
	setup.Sheds = snap.SumCounters("gvfs_server_shed_total")
}

func runSchedStorm(opt Options, p schedPoint, cfg workload.StatStormConfig) (SchedSetup, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: simnet.WAN})
	if err != nil {
		return SchedSetup{}, err
	}
	defer d.Close()
	if err := workload.SetupStatTree(d.FS, cfg); err != nil {
		return SchedSetup{}, err
	}
	setup := SchedSetup{Setup: Setup{Name: p.name, RPCs: make(map[string]int64)}, Workers: p.workers}
	var runErr error
	d.Run("sched-storm", func() {
		sess, err := d.NewSession("storm", schedConfig(p.workers))
		if err != nil {
			runErr = err
			return
		}
		mounts := make([]*gvfs.Mount, schedStormClients)
		for i := range mounts {
			if mounts[i], err = sess.Mount(fmt.Sprintf("C%d", i+1), kernelNoac()); err != nil {
				runErr = err
				return
			}
		}
		errs := make(chan error, schedStormClients)
		setup.Runtime = d.Elapsed(func() {
			g := d.NewGroup()
			for i := range mounts {
				m := mounts[i]
				g.Go(fmt.Sprintf("storm%d", i), func() {
					_, err := workload.RunStatStorm(d.Clock, m.Client, cfg)
					errs <- err
				})
			}
			g.Wait()
		})
		for range mounts {
			if err := <-errs; err != nil && runErr == nil {
				runErr = err
			}
		}
		for _, m := range mounts {
			addCounts(setup.RPCs, m.WANCounts())
		}
		schedScrape(d, &setup, "storm")
	})
	opt.dumpMetrics(fmt.Sprintf("sched storm %s", setup.Name), d)
	return setup, runErr
}

func runSchedMake(opt Options, p schedPoint, cfg workload.MakeConfig) (SchedSetup, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: simnet.WAN})
	if err != nil {
		return SchedSetup{}, err
	}
	defer d.Close()
	if err := workload.SetupMakeTree(d.FS, cfg); err != nil {
		return SchedSetup{}, err
	}
	setup := SchedSetup{Setup: Setup{Name: p.name, RPCs: make(map[string]int64)}, Workers: p.workers}
	var runErr error
	d.Run("sched-make", func() {
		sess, err := d.NewSession("make", schedConfig(p.workers))
		if err != nil {
			runErr = err
			return
		}
		m, err := sess.Mount("C1", kernel30())
		if err != nil {
			runErr = err
			return
		}
		st, err := workload.RunMake(d.Clock, m.Client, cfg)
		if err != nil {
			runErr = err
			return
		}
		setup.Runtime = st.Elapsed
		addCounts(setup.RPCs, m.WANCounts())
		schedScrape(d, &setup, "make")
	})
	opt.dumpMetrics(fmt.Sprintf("sched make %s", setup.Name), d)
	return setup, runErr
}

// Render prints both sweeps with slowdowns relative to the unbounded run.
func (r SchedResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Server scheduling: runtime vs worker-pool size (WAN, polling model)")
	renderSchedTable(w, "stat storm", r.Storm)
	fmt.Fprintln(w)
	renderSchedTable(w, "make", r.Make)
}

func renderSchedTable(w io.Writer, name string, setups []SchedSetup) {
	if len(setups) == 0 {
		return
	}
	base := setups[0]
	fmt.Fprintf(w, "%-12s%12s%12s%12s%12s%12s\n", name, "runtime_s", "slowdown", "wan_rpcs", "peak", "sheds")
	for _, s := range setups {
		fmt.Fprintf(w, "%-12s%12.1f%12.3f%12d%12d%12d\n",
			s.Name, seconds(s.Runtime), s.Slowdown(base), s.Total(), s.InflightPeak, s.Sheds)
	}
}

// schedJSON is the committed BENCH_sched.json schema. Everything is
// virtual-time simulator output; the only machine-dependent input is the
// NumCPU×4 sweep point, whose worker count is recorded per setup.
type schedJSON struct {
	Experiment string           `json:"experiment"`
	Workloads  []schedSweepJSON `json:"workloads"`
}

type schedSweepJSON struct {
	Name   string           `json:"name"`
	Setups []schedSetupJSON `json:"setups"`
}

type schedSetupJSON struct {
	Name         string  `json:"name"`
	Workers      int     `json:"workers"`
	RuntimeSec   float64 `json:"runtime_s"`
	Slowdown     float64 `json:"slowdown_vs_unbounded"`
	WANRPCs      int64   `json:"wan_rpcs"`
	InflightPeak int64   `json:"inflight_peak"`
	Sheds        int64   `json:"sheds"`
}

// WriteJSON emits the machine-readable sweep.
func (r SchedResult) WriteJSON(w io.Writer) error {
	out := schedJSON{Experiment: "sched"}
	for _, sweep := range []struct {
		name   string
		setups []SchedSetup
	}{
		{"stat-storm", r.Storm},
		{"make", r.Make},
	} {
		sj := schedSweepJSON{Name: sweep.name}
		if len(sweep.setups) == 0 {
			out.Workloads = append(out.Workloads, sj)
			continue
		}
		base := sweep.setups[0]
		for _, s := range sweep.setups {
			sj.Setups = append(sj.Setups, schedSetupJSON{
				Name:         s.Name,
				Workers:      s.Workers,
				RuntimeSec:   seconds(s.Runtime),
				Slowdown:     s.Slowdown(base),
				WANRPCs:      s.Total(),
				InflightPeak: s.InflightPeak,
				Sheds:        s.Sheds,
			})
		}
		out.Workloads = append(out.Workloads, sj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
