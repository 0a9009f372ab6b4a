package bench

import (
	"fmt"
	"io"
	"time"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/workload"
)

// Fig8Series is one line of Figure 8: the consumer's per-run runtime.
type Fig8Series struct {
	Setup     string
	RunTimes  []time.Duration
	Callbacks int64
}

// Fig8Result reproduces Figure 8: the CH1D producer/consumer pipeline where
// data is shared via native NFS or GVFS with delegation-callback
// consistency; the consumer processes 30 more input files each run.
type Fig8Result struct {
	Series []Fig8Series
}

// RunFig8 executes both setups.
func RunFig8(opt Options) (Fig8Result, error) {
	var res Fig8Result
	cfg := workload.CH1DConfig{}
	if s := opt.scale(); s > 1 {
		cfg.Runs = max(15/s, 4)
	}
	for _, mode := range []string{"NFS", "GVFS"} {
		series, err := runFig8Setup(opt, mode, cfg)
		if err != nil {
			return res, fmt.Errorf("fig8 %s: %w", mode, err)
		}
		opt.logf("fig8 %-5s runtimes=%s callbacks=%d", mode, fmtSeries(series.RunTimes), series.Callbacks)
		res.Series = append(res.Series, series)
	}
	return res, nil
}

func runFig8Setup(opt Options, mode string, cfg workload.CH1DConfig) (Fig8Series, error) {
	d, err := gvfs.NewDeployment(gvfs.Config{})
	if err != nil {
		return Fig8Series{}, err
	}
	defer d.Close()

	series := Fig8Series{Setup: mode}
	var runErr error
	d.Run("fig8", func() {
		var producer, consumer *gvfs.Mount
		var sess *gvfs.Session
		if mode == "GVFS" {
			sess, runErr = d.NewSession("ch1d", core.Config{
				Model: core.ModelDelegation, FlushParallelism: 4, ReadAhead: 4,
			})
			if runErr != nil {
				return
			}
			producer, runErr = sess.Mount("site", kernelNoac())
			if runErr != nil {
				return
			}
			consumer, runErr = sess.Mount("center", kernelNoac())
		} else {
			producer, runErr = d.DirectMount("site", kernel30())
			if runErr != nil {
				return
			}
			consumer, runErr = d.DirectMount("center", kernel30())
		}
		if runErr != nil {
			return
		}
		st, err := workload.RunCH1D(d.Clock, producer.Client, consumer.Client, cfg)
		if err != nil {
			runErr = err
			return
		}
		series.RunTimes = st.RunTimes
		if sess != nil {
			series.Callbacks = d.Obs.Registry().Snapshot().Sum("gvfs_server_callbacks_sent_total", "node", sess.Name)
		}
	})
	opt.dumpMetrics("fig8 "+mode, d)
	return series, runErr
}

// Render prints the runtime series.
func (r Fig8Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: CH1D data-processing runtime per execution iteration (seconds)")
	if len(r.Series) == 0 {
		return
	}
	fmt.Fprintf(w, "%-8s", "iter")
	for i := range r.Series[0].RunTimes {
		fmt.Fprintf(w, "%7d", i+1)
	}
	fmt.Fprintln(w)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-8s", s.Setup)
		for _, rt := range s.RunTimes {
			fmt.Fprintf(w, "%7.1f", seconds(rt))
		}
		if s.Setup == "GVFS" {
			fmt.Fprintf(w, "   (callbacks: %d)", s.Callbacks)
		}
		fmt.Fprintln(w)
	}
}
