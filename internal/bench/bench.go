// Package bench reproduces every figure of the paper's evaluation (Section
// 5). Each experiment builds a fresh deployment — six clients and one
// server on a simulated 40 ms / 4 Mbps wide area network unless stated
// otherwise — runs the corresponding workload under each setup the paper
// compares, and reports the same series the figure plots: RPC counts by
// procedure and application runtimes in virtual time.
//
// Absolute numbers depend on the modeled compute times and the simulator,
// so EXPERIMENTS.md compares shapes (who wins, by what factor, where
// crossovers fall) rather than absolute values.
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/gvfs"
	"repro/internal/nfsclient"
)

// Options control experiment size.
type Options struct {
	// Scale divides workload sizes for quick runs; 1 (default) is the
	// paper's full scale.
	Scale int
	// Progress, when non-nil, receives one line per completed setup.
	Progress io.Writer
	// MetricsOut, when non-nil, receives one Prometheus text-format dump of
	// the unified obs registry per deployment, labeled with a comment line
	// naming the setup it came from.
	MetricsOut io.Writer
	// TraceOut, when non-nil, receives a single JSON trace dump (spans,
	// dropped-span count, metrics snapshot) from experiments that support it
	// (currently slo's polling deployment), for offline gvfs-trace analysis.
	TraceOut io.Writer
}

// metricsMu serializes dumps when experiments share one MetricsOut.
var metricsMu sync.Mutex

// dumpMetrics writes the deployment's metrics registry to MetricsOut. Call
// it at the end of a setup, before the deployment closes.
func (o Options) dumpMetrics(name string, d *gvfs.Deployment) {
	if o.MetricsOut == nil {
		return
	}
	metricsMu.Lock()
	defer metricsMu.Unlock()
	fmt.Fprintf(o.MetricsOut, "# gvfs-bench setup %q\n", name)
	if err := d.WriteMetrics(o.MetricsOut); err != nil {
		fmt.Fprintf(o.MetricsOut, "# dump failed: %v\n", err)
	}
}

func (o Options) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// thirty is the 30-second revalidation/invalidation period used throughout
// the evaluation.
const thirty = 30 * time.Second

// noReadAhead is Config.ReadAhead for every set-up that reproduces a figure
// or a committed BENCH table and does not name a window itself: the paper's
// proxies do not prefetch, so their RPC counts stay the paper's while the
// shipped default keeps readahead on.
const noReadAhead = -1

// kernel30 returns the kernel client mount options for the paper's "30 s
// revalidation period": the Linux attribute cache is adaptive, starting at
// acregmin (3 s) for objects that keep changing and growing to the 30 s
// bound for stable ones.
func kernel30() nfsclient.Options {
	return nfsclient.Options{AttrMin: 3 * time.Second, AttrMax: thirty}
}

// kernelNoac returns the noac mount (the "NFS-noac" baseline and the kernel
// base of strong-consistency GVFS sessions).
func kernelNoac() nfsclient.Options {
	return nfsclient.Options{NoAC: true}
}

// Setup is one bar/line of a figure: a named configuration with its runtime
// and wide-area RPC counts.
type Setup struct {
	Name    string
	Runtime time.Duration
	// RPCs are wide-area RPCs by procedure name, summed over all clients.
	RPCs map[string]int64
}

// Total sums all RPCs.
func (s Setup) Total() int64 {
	var t int64
	for _, v := range s.RPCs {
		t += v
	}
	return t
}

// Consistency sums the consistency-related procedures the paper tracks:
// attribute revalidations, name (re)validations, invalidation polls, and
// callbacks.
func (s Setup) Consistency() int64 {
	return s.RPCs["GETATTR"] + s.RPCs["LOOKUP"] + s.RPCs["GETINV"] + s.RPCs["CALLBACK"]
}

// addCounts accumulates src into dst.
func addCounts(dst, src map[string]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// renderRPCTable prints counts for the named procedures across setups.
func renderRPCTable(w io.Writer, setups []Setup, procs []string) {
	fmt.Fprintf(w, "%-12s", "RPC")
	for _, s := range setups {
		fmt.Fprintf(w, "%12s", s.Name)
	}
	fmt.Fprintln(w)
	for _, proc := range procs {
		fmt.Fprintf(w, "%-12s", proc)
		for _, s := range setups {
			fmt.Fprintf(w, "%12d", s.RPCs[proc])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s", "total")
	for _, s := range setups {
		fmt.Fprintf(w, "%12d", s.Total())
	}
	fmt.Fprintln(w)
}

func seconds(d time.Duration) float64 { return d.Seconds() }
