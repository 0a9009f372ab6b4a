// Command benchmark is the repository's wall-clock benchmark: it stands up
// nfsd -> proxyd -> proxyc in one process on loopback TCP with the real clock,
// drives them with a closed-loop generator that speaks raw NFSv3 as a kernel
// client would, checks every reply, and prints end-to-end metrics (tracing
// off) or per-layer metrics (hops tapped from outside, plus fixed-iteration
// probes of single layers). See README.md and ../BENCHMARK.json.
//
//	go run ./benchmark --workload miss_read --seed 1 --seconds 18 --trace 0
//	go run ./benchmark -seed 3 -out a.json       # every workload once, appended to a.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all of them)")
		seed     = flag.Int64("seed", 1, "seed of the access sequence")
		seconds  = flag.Float64("seconds", 18, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: tap every hop, run the probes and report the per-layer metrics")
		out      = flag.String("out", "", "append every run to this result file, stamped with its provenance")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans to this file")
		compare  = flag.Bool("compare", false, "compare two result files (arguments) against BENCHMARK.json's bounds")
		variant  = flag.String("variant", "", "discrimination check only: readahead0 (wan_seq without readahead)")
		awake    = flag.Bool("awake", true, "keep the CPUs out of the halt while measuring (awake.go)")
		spin     = flag.Int("idle-spin", -1, "internal: be the idle-class spinner of this CPU")
	)
	flag.Parse()
	if *spin >= 0 {
		return idleSpin(*spin)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
	}

	p := params{
		measure: time.Duration(*seconds * float64(time.Second)),
		warmup:  time.Second,
		setups:  3,
		trace:   *trace != 0,
		variant: *variant,
		awake:   *awake,
		wan:     paperWAN,
		tmpRoot: ".bench_build/tmp",
	}
	if p.trace {
		p.setups = 1 // setup_s is an end-to-end metric; the time goes to the probes
	}
	if p.awake {
		defer keepAwake()()
	}
	todo := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
		todo = []workloadDef{*w}
	}

	var runs []runRecord
	ok := true
	for i := range todo {
		p.seed = *seed
		rec, spans, err := runWorkload(&todo[i], p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if p.trace {
			for k, v := range runProbes(p) {
				rec.values[k] = v
			}
			rec.Metrics = pick(perLayer, rec.values)
		} else {
			rec.Metrics = pick(endToEnd, rec.values)
		}
		if *traceOut != "" && p.trace {
			if err := writeSpans(*traceOut, spans); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		printTable(rec)
		runs = append(runs, rec)
		ok = ok && rec.Correct
		if *workload != "" {
			// The driver's contract: the last line of standard output is the
			// result object, nothing else on it.
			line, _ := json.Marshal(struct {
				Correct   bool                   `json:"correct"`
				Attempted int64                  `json:"attempted"`
				Failed    int64                  `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
			fmt.Println(string(line))
		}
	}
	if *out != "" {
		if err := appendRuns(*out, provenance(p), runs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: a check failed")
		return 1
	}
	return 0
}

// printTable prints every metric the run computed, by name with its unit.
func printTable(rec runRecord) {
	units := make(map[string]string)
	for _, d := range endToEnd {
		units[d.name] = d.unit
	}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	fmt.Printf("# %s seed=%d trace=%v: %d attempted, %d failed, %d latency samples; loopback TCP, wide-area delay injected where the workload has a link\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Samples)
	names := make([]string, 0, len(rec.values))
	for k := range rec.values {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end metrics (no dot) first.
		di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if di != dj {
			return !di
		}
		return names[i] < names[j]
	})
	for _, k := range names {
		fmt.Printf("%-40s %14.4f %s\n", k, rec.values[k], units[k])
	}
}
