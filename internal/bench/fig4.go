package bench

import (
	"fmt"
	"io"
	"time"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Fig4Result reproduces Figure 4: the make (Tcl/Tk) benchmark on NFS, GVFS
// with read-only caching, and GVFS with write-back caching — RPC counts over
// the network (a) and runtimes in LAN and WAN (b). ServerLoad records the
// RPCs that reached the kernel NFS server (the "server load" the paper's
// abstract claims GVFS reduces significantly).
type Fig4Result struct {
	LAN []Setup
	WAN []Setup
	// ServerLoad[name] is the total RPC count at the NFS server for the
	// WAN run of that setup.
	ServerLoad map[string]int64
}

// proxyDelay models GVFS's user-level RPC interception and disk cache
// management cost, the source of the small LAN overhead in Section 5.1.1.
const proxyDelay = 600 * time.Microsecond

// diskDelay models a block access in the proxy's disk cache (circa-2006
// disk: a few milliseconds).
const diskDelay = 4 * time.Millisecond

// RunFig4 executes the six runs of Figure 4.
func RunFig4(opt Options) (Fig4Result, error) {
	res := Fig4Result{ServerLoad: make(map[string]int64)}
	cfg := workload.MakeConfig{}
	if s := opt.scale(); s > 1 {
		cfg = workload.MakeConfig{
			Sources: max(357/s, 10), Headers: max(103/s, 5), Objects: max(168/s, 4),
			CompileTime: 550 * time.Millisecond,
		}
	}
	for _, network := range []struct {
		name string
		p    simnet.Params
	}{
		{"LAN", simnet.LAN},
		{"WAN", simnet.WAN},
	} {
		for _, mode := range []string{"NFS", "GVFS", "GVFS-WB"} {
			setup, load, err := runFig4Setup(opt, network.p, mode, cfg)
			if err != nil {
				return res, fmt.Errorf("fig4 %s/%s: %w", network.name, mode, err)
			}
			opt.logf("fig4 %s %-8s runtime=%6.1fs rpcs=%d server-load=%d",
				network.name, mode, seconds(setup.Runtime), setup.Total(), load)
			if network.name == "LAN" {
				res.LAN = append(res.LAN, setup)
			} else {
				res.WAN = append(res.WAN, setup)
				res.ServerLoad[mode] = load
			}
		}
	}
	return res, nil
}

func runFig4Setup(opt Options, link simnet.Params, mode string, cfg workload.MakeConfig) (Setup, int64, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: link})
	if err != nil {
		return Setup{}, 0, err
	}
	defer d.Close()
	if err := workload.SetupMakeTree(d.FS, cfg); err != nil {
		return Setup{}, 0, err
	}

	setup := Setup{Name: mode, RPCs: make(map[string]int64)}
	var runErr error
	d.Run("fig4", func() {
		var m *gvfs.Mount
		switch mode {
		case "NFS":
			m, runErr = d.DirectMount("C1", kernel30())
		default:
			scfg := core.Config{Model: core.ModelPolling, PollPeriod: thirty, ProxyDelay: proxyDelay, DiskDelay: diskDelay, ReadAhead: noReadAhead}
			if mode == "GVFS-WB" {
				scfg.WriteBack = true
				scfg.FlushParallelism = 4
				scfg.ReadAhead = 4
			}
			var sess *gvfs.Session
			sess, runErr = d.NewSession("make", scfg)
			if runErr != nil {
				return
			}
			m, runErr = sess.Mount("C1", kernel30())
		}
		if runErr != nil {
			return
		}
		st, err := workload.RunMake(d.Clock, m.Client, cfg)
		if err != nil {
			runErr = err
			return
		}
		setup.Runtime = st.Elapsed
		addCounts(setup.RPCs, m.WANCounts())
	})
	opt.dumpMetrics(fmt.Sprintf("fig4 %v %s", link.RTT, mode), d)
	var load int64
	for proc, n := range d.ServerCounts() {
		if proc != "MOUNT" && proc != "NULL" {
			load += n
		}
	}
	return setup, load, runErr
}

// Render prints the figure's two panels.
func (r Fig4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 4(a): RPCs over the network, make benchmark (WAN)")
	renderRPCTable(w, r.WAN, []string{"GETATTR", "LOOKUP", "READ", "WRITE", "GETINV", "CREATE"})
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 4(b): runtime (seconds)")
	fmt.Fprintf(w, "%-8s", "")
	for _, s := range r.LAN {
		fmt.Fprintf(w, "%12s", s.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "LAN")
	for _, s := range r.LAN {
		fmt.Fprintf(w, "%12.1f", seconds(s.Runtime))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "WAN")
	for _, s := range r.WAN {
		fmt.Fprintf(w, "%12.1f", seconds(s.Runtime))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Kernel NFS server load (RPCs served, WAN runs):")
	fmt.Fprintf(w, "%-8s", "")
	for _, s := range r.WAN {
		fmt.Fprintf(w, "%12s", s.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "RPCs")
	for _, s := range r.WAN {
		fmt.Fprintf(w, "%12d", r.ServerLoad[s.Name])
	}
	fmt.Fprintln(w)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
