// Command gvfs-bench regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated wide-area testbed and prints the
// series each figure plots.
//
// Usage:
//
//	gvfs-bench [-exp all|fig4|fig5|fig6|fig7|fig8|lanov|ablate|meta|slo|restart]
//	           [-scale N] [-q] [-metrics-out file] [-json-out file] [-trace-out file]
//
// Scale 1 is the paper's full workload size; larger values shrink the
// workloads proportionally for quick runs. With -metrics-out, every
// deployment dumps its unified metrics registry (Prometheus text format) to
// the named file, and the run fails if the dump is empty or malformed. With
// -trace-out, trace-capable experiments (slo) write a JSON span+metrics dump
// that cmd/gvfs-trace analyzes offline.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig4, fig5, fig6, fig7, fig8, lanov, ablate, meta, slo, restart")
	scale := flag.Int("scale", 1, "divide workload sizes by this factor (1 = paper scale)")
	quiet := flag.Bool("q", false, "suppress per-setup progress lines")
	metricsOut := flag.String("metrics-out", "", "write per-deployment metrics dumps to this file (- for stderr)")
	jsonOut := flag.String("json-out", "", "write the machine-readable result of a JSON-capable experiment (-exp meta, slo or restart) to this file")
	traceOut := flag.String("trace-out", "", "write a JSON trace dump from trace-capable experiments (slo) to this file, for gvfs-trace")
	flag.Parse()

	if err := run(os.Stdout, *exp, *scale, *quiet, *metricsOut, *jsonOut, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "gvfs-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, scale int, quiet bool, metricsOut, jsonOut, traceOut string) error {
	opt := bench.Options{Scale: scale}
	if !quiet {
		opt.Progress = os.Stderr
	}
	var metricsBuf bytes.Buffer
	if metricsOut != "" {
		opt.MetricsOut = &metricsBuf
	}
	var traceBuf bytes.Buffer
	if traceOut != "" {
		opt.TraceOut = &traceBuf
	}
	experiments := []struct {
		name string
		run  func(bench.Options) (result, error)
	}{
		{"fig4", experiment(bench.RunFig4)},
		{"fig5", experiment(bench.RunFig5)},
		{"fig6", experiment(bench.RunFig6)},
		{"fig7", experiment(bench.RunFig7)},
		{"fig8", experiment(bench.RunFig8)},
		{"lanov", experiment(bench.RunLANOverhead)},
		{"ablate", experiment(bench.RunAblations)},
		{"meta", experiment(bench.RunMetadata)},
		{"slo", experiment(bench.RunSLO)},
		{"restart", experiment(bench.RunRestart)},
	}

	ran, wroteJSON := false, false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		fmt.Fprintf(w, "==== %s ====\n", e.name)
		r, err := e.run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		r.Render(w)
		if j, ok := r.(interface{ WriteJSON(io.Writer) error }); ok && jsonOut != "" && exp == e.name {
			if err := writeJSON(jsonOut, j.WriteJSON); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Fprintf(w, "json: %s\n", jsonOut)
			wroteJSON = true
		}
		fmt.Fprintln(w)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if jsonOut != "" && !wroteJSON {
		return fmt.Errorf("-json-out needs one JSON-capable experiment (meta, slo, restart), not %q", exp)
	}
	if metricsOut != "" {
		// Self-validate before writing: an empty or malformed dump means the
		// observability spine is broken, which is a failure, not a shrug.
		samples, err := obs.ParseProm(bytes.NewReader(metricsBuf.Bytes()))
		if err != nil {
			return fmt.Errorf("metrics dump malformed: %w", err)
		}
		if samples == 0 {
			return fmt.Errorf("metrics dump is empty")
		}
		if metricsOut == "-" {
			_, err = os.Stderr.Write(metricsBuf.Bytes())
		} else {
			err = os.WriteFile(metricsOut, metricsBuf.Bytes(), 0o644)
		}
		if err != nil {
			return fmt.Errorf("write metrics dump: %w", err)
		}
		fmt.Fprintf(w, "metrics: %d samples -> %s\n", samples, metricsOut)
	}
	if traceOut != "" {
		if traceBuf.Len() == 0 {
			return fmt.Errorf("trace dump requested but experiment %q produced none (only slo writes traces)", exp)
		}
		// Round-trip the dump before writing so gvfs-trace is guaranteed to
		// be able to load what we hand it.
		d, err := obs.ReadTraceDump(bytes.NewReader(traceBuf.Bytes()))
		if err != nil {
			return fmt.Errorf("trace dump malformed: %w", err)
		}
		if err := os.WriteFile(traceOut, traceBuf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write trace dump: %w", err)
		}
		fmt.Fprintf(w, "trace: %d spans (%d dropped) -> %s\n", len(d.Spans), d.Dropped, traceOut)
	}
	return nil
}

// result is what every experiment returns: tables to print. Those with a
// committed BENCH_*.json also have a WriteJSON(io.Writer) error.
type result interface{ Render(io.Writer) }

// experiment adapts a bench.Run* function to the table in run.
func experiment[R result](run func(bench.Options) (R, error)) func(bench.Options) (result, error) {
	return func(opt bench.Options) (result, error) {
		r, err := run(opt)
		return r, err
	}
}

func writeJSON(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
