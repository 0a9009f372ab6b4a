package bench

import (
	"fmt"
	"io"
	"time"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/nfsclient"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Fig7Series is one line of Figure 7: per-iteration runtimes for a setup.
type Fig7Series struct {
	Setup string
	// IterRuntimes[i] is iteration i+1's runtime.
	IterRuntimes []time.Duration
	// ConsistencyRPCs is the total GETATTR+GETINV traffic per client
	// attributable to the update round (iteration UpdateAfter+1).
	UpdateRoundRPCs int64
}

// Fig7Result reproduces Figure 7: parallel NanoMOS executions over six WAN
// clients sharing the software repository, with a software update between
// iterations 4 and 5 to (a) the whole MATLAB tree or (b) only MPITB.
type Fig7Result struct {
	// Variants maps "matlab" and "mpitb" to their NFS and GVFS series.
	Variants map[string][]Fig7Series
}

// RunFig7 executes both update variants under both setups.
func RunFig7(opt Options) (Fig7Result, error) {
	res := Fig7Result{Variants: make(map[string][]Fig7Series)}
	base := workload.NanoMOSConfig{Scale: opt.scale()}
	if s := opt.scale(); s > 1 {
		// Keep the compute-to-consistency ratio as the working set shrinks.
		base.ComputeTime = 30 * time.Second / time.Duration(s)
	}
	for _, variant := range []struct {
		key       string
		mpitbOnly bool
	}{
		{"matlab", false},
		{"mpitb", true},
	} {
		for _, mode := range []string{"NFS", "GVFS"} {
			cfg := base
			cfg.UpdateMPITBOnly = variant.mpitbOnly
			series, err := runFig7Setup(opt, mode, cfg)
			if err != nil {
				return res, fmt.Errorf("fig7 %s/%s: %w", variant.key, mode, err)
			}
			opt.logf("fig7 %-7s %-5s runtimes=%s", variant.key, mode, fmtSeries(series.IterRuntimes))
			res.Variants[variant.key] = append(res.Variants[variant.key], series)
		}
	}
	return res, nil
}

func runFig7Setup(opt Options, mode string, cfg workload.NanoMOSConfig) (Fig7Series, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{})
	if err != nil {
		return Fig7Series{}, err
	}
	defer d.Close()
	if err := workload.SetupNanoMOSRepo(d.FS, cfg); err != nil {
		return Fig7Series{}, err
	}
	// The administrator maintains the repository over the server's LAN.
	d.Net.SetLink("admin", "server", simnet.LAN)

	series := Fig7Series{Setup: mode}
	var runErr error
	d.Run("fig7", func() {
		nclients := cfg.Clients
		if nclients == 0 {
			nclients = 6
		}
		iterations := cfg.Iterations
		if iterations == 0 {
			iterations = 8
		}
		updateAfter := cfg.UpdateAfter
		if updateAfter == 0 {
			updateAfter = 4
		}

		var sess *gvfs.Session
		var mounts []*gvfs.Mount
		var admin *gvfs.Mount
		if mode == "GVFS" {
			sess, runErr = d.NewSession("repo", core.Config{
				Model: core.ModelPolling, PollPeriod: thirty, MaxHandlesPerReply: 512, ReadAhead: noReadAhead,
			})
			if runErr != nil {
				return
			}
		}
		for i := 0; i < nclients; i++ {
			host := fmt.Sprintf("C%d", i+1)
			var m *gvfs.Mount
			var err error
			if mode == "GVFS" {
				m, err = sess.Mount(host, kernel30())
			} else {
				m, err = d.DirectMount(host, kernel30())
			}
			if err != nil {
				runErr = err
				return
			}
			mounts = append(mounts, m)
		}
		if mode == "GVFS" {
			admin, runErr = sess.Mount("admin", nfsclient.Options{})
		} else {
			admin, runErr = d.DirectMount("admin", nfsclient.Options{})
		}
		if runErr != nil {
			return
		}

		var clients []*nfsclient.Client
		for _, m := range mounts {
			clients = append(clients, m.Client)
		}

		rpcBeforeUpdate := int64(0)
		for iter := 1; iter <= iterations; iter++ {
			if iter == updateAfter+1 {
				if err := workload.ApplyUpdate(admin.Client, cfg); err != nil {
					runErr = err
					return
				}
				// One polling window passes before the next scheduled run.
				d.Clock.Sleep(thirty + time.Second)
				for _, m := range mounts {
					rpcBeforeUpdate += m.WANCounts()["GETATTR"] + m.WANCounts()["GETINV"]
				}
			}
			rt, errs := workload.RunNanoMOSIteration(d.Clock, clients, cfg)
			if errs > 0 {
				runErr = fmt.Errorf("iteration %d: %d client errors", iter, errs)
				return
			}
			series.IterRuntimes = append(series.IterRuntimes, rt)
			if iter == updateAfter+1 {
				var after int64
				for _, m := range mounts {
					after += m.WANCounts()["GETATTR"] + m.WANCounts()["GETINV"]
				}
				series.UpdateRoundRPCs = after - rpcBeforeUpdate
			}
			// Inter-run gap: results are collected, the next job is queued.
			d.Clock.Sleep(35 * time.Second)
		}
	})
	opt.dumpMetrics("fig7 "+mode, d)
	return series, runErr
}

func fmtSeries(ds []time.Duration) string {
	out := "["
	for i, d := range ds {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.0f", seconds(d))
	}
	return out + "]s"
}

// Render prints both panels.
func (r Fig7Result) Render(w io.Writer) {
	for _, variant := range []struct{ key, label string }{
		{"matlab", "Figure 7(a): update to the entire MATLAB directory"},
		{"mpitb", "Figure 7(b): update to the MPITB directory only"},
	} {
		fmt.Fprintln(w, variant.label)
		fmt.Fprintf(w, "%-8s", "iter")
		series := r.Variants[variant.key]
		if len(series) == 0 {
			continue
		}
		for i := range series[0].IterRuntimes {
			fmt.Fprintf(w, "%8d", i+1)
		}
		fmt.Fprintln(w)
		for _, s := range series {
			fmt.Fprintf(w, "%-8s", s.Setup)
			for _, rt := range s.IterRuntimes {
				fmt.Fprintf(w, "%8.1f", seconds(rt))
			}
			fmt.Fprintf(w, "   (update-round GETATTR+GETINV: %d)\n", s.UpdateRoundRPCs)
		}
		fmt.Fprintln(w)
	}
}
