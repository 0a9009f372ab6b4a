package bench

import (
	"fmt"
	"io"

	"repro/gvfs"
	"repro/internal/afslike"
	"repro/internal/core"
	"repro/internal/memfs"
	"repro/internal/nfsclient"
	"repro/internal/simnet"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// Fig6Setup is one bar of Figure 6: RPC breakdown, runtime, and the
// fairness indicators for the file-lock contention benchmark.
type Fig6Setup struct {
	Setup
	Reacquisitions int
	PerClientWins  []int
}

// Fig6Result reproduces Figure 6: six WAN clients competing for a
// link-based file lock under NFS-inv, GVFS-inv, NFS-noac, GVFS-cb, and the
// AFS-like reference.
type Fig6Result struct {
	Setups []Fig6Setup
}

// RunFig6 executes the five lock-contention runs.
func RunFig6(opt Options) (Fig6Result, error) {
	var res Fig6Result
	cfg := workload.LockConfig{}
	if s := opt.scale(); s > 1 {
		cfg.Acquisitions = max(10/s, 2)
	}
	for _, mode := range []string{"NFS-inv", "GVFS-inv", "NFS-noac", "GVFS-cb", "AFS"} {
		var setup Fig6Setup
		var err error
		if mode == "AFS" {
			setup, err = runFig6AFS(cfg)
		} else {
			setup, err = runFig6NFS(opt, mode, cfg)
		}
		if err != nil {
			return res, fmt.Errorf("fig6 %s: %w", mode, err)
		}
		opt.logf("fig6 %-9s runtime=%6.1fs consistency-rpcs=%-6d reacq=%d",
			mode, seconds(setup.Runtime), setup.Consistency(), setup.Reacquisitions)
		res.Setups = append(res.Setups, setup)
	}
	return res, nil
}

func runFig6NFS(opt Options, mode string, cfg workload.LockConfig) (Fig6Setup, error) {
	cfg = applyLockDefaults(cfg)
	d, err := gvfs.NewDeployment(gvfs.Config{})
	if err != nil {
		return Fig6Setup{}, err
	}
	defer d.Close()
	if err := workload.SetupLockDir(d.FS); err != nil {
		return Fig6Setup{}, err
	}

	setup := Fig6Setup{Setup: Setup{Name: mode, RPCs: make(map[string]int64)}}
	var runErr error
	d.Run("fig6", func() {
		var sess *gvfs.Session
		switch mode {
		case "GVFS-inv":
			sess, runErr = d.NewSession("locks", core.Config{Model: core.ModelPolling, PollPeriod: thirty, ReadAhead: noReadAhead})
		case "GVFS-cb":
			sess, runErr = d.NewSession("locks", core.Config{Model: core.ModelDelegation, ReadAhead: noReadAhead})
		}
		if runErr != nil {
			return
		}

		var mounts []*gvfs.Mount
		for i := 0; i < cfg.Clients; i++ {
			host := fmt.Sprintf("C%d", i+1)
			var m *gvfs.Mount
			var err error
			switch mode {
			case "NFS-inv":
				m, err = d.DirectMount(host, kernel30())
			case "NFS-noac":
				m, err = d.DirectMount(host, kernelNoac())
			case "GVFS-inv":
				m, err = sess.Mount(host, kernel30())
			case "GVFS-cb":
				m, err = sess.Mount(host, kernelNoac())
			}
			if err != nil {
				runErr = err
				return
			}
			mounts = append(mounts, m)
		}

		var clients []*nfsclient.Client
		for _, m := range mounts {
			clients = append(clients, m.Client)
		}
		st, err := workload.RunLock(d.Clock, workload.WrapNFS(clients), cfg)
		if err != nil {
			runErr = err
			return
		}
		setup.Runtime = st.Elapsed
		setup.Reacquisitions = st.Reacquisitions()
		setup.PerClientWins = st.PerClientWins(cfg.Clients)
		for _, m := range mounts {
			addCounts(setup.RPCs, m.WANCounts())
		}
		if sess != nil {
			setup.RPCs["CALLBACK"] += d.Obs.Registry().Snapshot().Sum("gvfs_server_callbacks_sent_total", "node", sess.Name)
		}
	})
	opt.dumpMetrics("fig6 "+mode, d)
	return setup, runErr
}

// runFig6AFS wires the AFS-like deployment by hand: its protocol is
// separate from the NFS stack (the paper likewise reports only its runtime).
func runFig6AFS(cfg workload.LockConfig) (Fig6Setup, error) {
	cfg = applyLockDefaults(cfg)
	clk := vclock.NewVirtual()
	defer clk.Stop()
	net := simnet.New(clk, simnet.WAN)
	fs := memfs.New(clk.Now)
	if err := workload.SetupLockDir(fs); err != nil {
		return Fig6Setup{}, err
	}

	setup := Fig6Setup{Setup: Setup{Name: "AFS", RPCs: make(map[string]int64)}}
	var runErr error
	done := make(chan struct{})
	clk.Go("fig6-afs", func() {
		defer close(done)
		serverHost := net.Host("server")
		srv := afslike.NewServer(clk, fs, serverHost.Dial)
		defer srv.Close()
		l, err := serverHost.Listen(":7000")
		if err != nil {
			runErr = err
			return
		}
		srv.Serve(l)

		var clients []workload.LockClient
		var rpcClients []*afslike.Client
		for i := 0; i < cfg.Clients; i++ {
			host := net.Host(fmt.Sprintf("C%d", i+1))
			cbL, err := host.Listen(":7100")
			if err != nil {
				runErr = err
				return
			}
			conn, err := host.Dial("server:7000")
			if err != nil {
				runErr = err
				return
			}
			c := afslike.NewClient(clk, conn, cbL, fmt.Sprintf("C%d:7100", i+1))
			rpcClients = append(rpcClients, c)
			clients = append(clients, afsLock{c})
		}
		defer func() {
			for _, c := range rpcClients {
				c.Close()
			}
		}()

		// AFS locks live under the same "locks" directory.
		st, err := workload.RunLock(clk, clients, cfg)
		if err != nil {
			runErr = err
			return
		}
		setup.Runtime = st.Elapsed
		setup.Reacquisitions = st.Reacquisitions()
		setup.PerClientWins = st.PerClientWins(cfg.Clients)
	})
	<-done
	return setup, runErr
}

// afsLock adapts the AFS-like client to the lock workload.
type afsLock struct{ c *afslike.Client }

func (a afsLock) Exists(path string) (bool, error)   { return a.c.Exists(path) }
func (a afsLock) CreateFile(path string) error       { return a.c.CreateFile(path) }
func (a afsLock) Link(oldPath, newPath string) error { return a.c.Link(oldPath, newPath) }
func (a afsLock) Remove(path string) error           { return a.c.Remove(path) }
func (a afsLock) IsExist(err error) bool             { return a.c.IsExist(err) }

func applyLockDefaults(cfg workload.LockConfig) workload.LockConfig {
	if cfg.Clients == 0 {
		cfg.Clients = 6
	}
	return cfg
}

// Render prints the figure's two panels.
func (r Fig6Result) Render(w io.Writer) {
	var setups []Setup
	for _, s := range r.Setups {
		if s.Name != "AFS" {
			setups = append(setups, s.Setup)
		}
	}
	fmt.Fprintln(w, "Figure 6(a): RPCs over the network, lock benchmark")
	renderRPCTable(w, setups, []string{"GETATTR", "LOOKUP", "GETINV", "CALLBACK", "LINK", "REMOVE", "CREATE"})
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 6(b): runtime (seconds) and fairness")
	fmt.Fprintf(w, "%-10s%12s%16s  %s\n", "setup", "runtime", "reacquisitions", "wins/client")
	for _, s := range r.Setups {
		fmt.Fprintf(w, "%-10s%12.1f%16d  %v\n", s.Name, seconds(s.Runtime), s.Reacquisitions, s.PerClientWins)
	}
}
