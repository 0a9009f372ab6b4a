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

// Fig5Point is PostMark's runtime under one setup at one RTT.
type Fig5Point struct {
	RTT     time.Duration
	Setup   string
	Runtime time.Duration
}

// Fig5Result reproduces Figure 5: PostMark runtime as end-to-end latency
// varies, on NFS, GVFS1 (default kernel caching + invalidation polling) and
// GVFS2 (kernel attribute caching disabled + delegation/callback).
type Fig5Result struct {
	RTTs   []time.Duration
	Points []Fig5Point
}

// Fig5RTTs are the paper's x-axis values.
var Fig5RTTs = []time.Duration{
	500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	40 * time.Millisecond,
}

// RunFig5 sweeps the network latency. The links use LAN-class bandwidth so
// the sweep isolates latency, which is what the figure varies.
func RunFig5(opt Options) (Fig5Result, error) {
	res := Fig5Result{RTTs: Fig5RTTs}
	cfg := workload.PostMarkConfig{}
	if s := opt.scale(); s > 1 {
		cfg = workload.PostMarkConfig{
			Files: max(600/s, 20), Transactions: max(600/s, 20), Subdirs: max(100/s, 5),
		}
	}
	for _, rtt := range res.RTTs {
		link := simnet.Params{RTT: rtt, Bandwidth: 100_000_000 / 8}
		for _, mode := range []string{"NFS", "GVFS1", "GVFS2"} {
			rt, err := runFig5Setup(opt, link, mode, cfg)
			if err != nil {
				return res, fmt.Errorf("fig5 rtt=%v %s: %w", rtt, mode, err)
			}
			opt.logf("fig5 rtt=%-6v %-6s runtime=%6.1fs", rtt, mode, seconds(rt))
			res.Points = append(res.Points, Fig5Point{RTT: rtt, Setup: mode, Runtime: rt})
		}
	}
	return res, nil
}

func runFig5Setup(opt Options, link simnet.Params, mode string, cfg workload.PostMarkConfig) (time.Duration, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: link})
	if err != nil {
		return 0, err
	}
	defer d.Close()

	// The testbed VMs had 256 MB of memory against a working set PostMark
	// grows well past it, so the kernel page cache thrashes while GVFS's
	// disk cache retains everything. Preserve that memory-to-dataset ratio
	// at any scale: kernel cache = 1/3 of the expected dataset.
	files := cfg.Files
	if files == 0 {
		files = 600
	}
	minSize, maxSize := cfg.MinSize, cfg.MaxSize
	if minSize == 0 {
		minSize = 32 * 1024
	}
	if maxSize == 0 {
		maxSize = 640 * 1024
	}
	kernelCache := int64(files) * int64(minSize+maxSize) / 2 / 3

	var runtime time.Duration
	var runErr error
	d.Run("fig5", func() {
		var m *gvfs.Mount
		switch mode {
		case "NFS":
			m, runErr = d.DirectMount("C1", nfsclient.Options{CacheBytes: kernelCache})
		case "GVFS1":
			// A single-client PostMark session is tailored with aggressive
			// caching for both reads and writes (the paper motivates exactly
			// this for unshared workloads), overlaid with invalidation
			// polling.
			sess, serr := d.NewSession("pm", core.Config{Model: core.ModelPolling, PollPeriod: thirty, WriteBack: true, ProxyDelay: proxyDelay, DiskDelay: diskDelay, ReadAhead: noReadAhead})
			if serr != nil {
				runErr = serr
				return
			}
			m, runErr = sess.Mount("C1", nfsclient.Options{CacheBytes: kernelCache})
		case "GVFS2":
			sess, serr := d.NewSession("pm", core.Config{Model: core.ModelDelegation, ProxyDelay: proxyDelay, DiskDelay: diskDelay, ReadAhead: noReadAhead})
			if serr != nil {
				runErr = serr
				return
			}
			m, runErr = sess.Mount("C1", nfsclient.Options{NoAC: true, CacheBytes: kernelCache})
		}
		if runErr != nil {
			return
		}
		st, err := workload.RunPostMark(d.Clock, m.Client, cfg)
		if err != nil {
			runErr = err
			return
		}
		runtime = st.Elapsed
	})
	opt.dumpMetrics(fmt.Sprintf("fig5 %v %s", link.RTT, mode), d)
	return runtime, runErr
}

// Render prints the runtime-vs-RTT series.
func (r Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: PostMark runtime (seconds) vs network RTT")
	fmt.Fprintf(w, "%-10s%12s%12s%12s\n", "RTT", "NFS", "GVFS1", "GVFS2")
	for _, rtt := range r.RTTs {
		fmt.Fprintf(w, "%-10v", rtt)
		for _, mode := range []string{"NFS", "GVFS1", "GVFS2"} {
			for _, pt := range r.Points {
				if pt.RTT == rtt && pt.Setup == mode {
					fmt.Fprintf(w, "%12.1f", seconds(pt.Runtime))
				}
			}
		}
		fmt.Fprintln(w)
	}
}
