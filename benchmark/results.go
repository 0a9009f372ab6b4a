package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// resultFile is what -out writes: where and how the numbers were taken, then
// every run.
type resultFile struct {
	Provenance map[string]string `json:"provenance"`
	Runs       []runRecord       `json:"runs"`
}

// appendRuns adds runs to the result file at path, creating it, stamped with
// prov, if it is not there yet.
func appendRuns(path string, prov map[string]string, runs []runRecord) error {
	file := resultFile{Provenance: prov}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	file.Runs = append(file.Runs, runs...)
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// provenance stamps a result file. Outside a git checkout the commit reads
// "unknown".
func provenance(p params) map[string]string {
	commit, dirty := "unknown", "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty = fmt.Sprint(len(strings.TrimSpace(string(st))) > 0)
		}
	}
	return map[string]string{
		"commit":          commit,
		"dirty":           dirty,
		"go":              runtime.Version(),
		"goos_goarch":     runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":             cpuModel(),
		"nproc":           fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":      fmt.Sprint(runtime.GOMAXPROCS(0)),
		"disk_cache_fs":   fsType(p.tmpRoot),
		"warmup":          p.warmup.String(),
		"measure":         p.measure.String(),
		"setups_per_run":  fmt.Sprint(p.setups),
		"cpus_kept_awake": fmt.Sprint(p.awake),
		"link": fmt.Sprintf("loopback TCP; wide-area workloads inject %v one way and %.0f Mbit/s serialisation, no real link",
			p.wan.oneWay, p.wan.bitsPerSec/1e6),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding path (or its nearest existing parent).
func fsType(path string) string {
	var st syscall.Statfs_t
	for syscall.Statfs(path, &st) != nil {
		if i := strings.LastIndexByte(path, '/'); i > 0 {
			path = path[:i]
		} else if path != "." {
			path = "."
		} else {
			return "unknown"
		}
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// benchmarkJSON is the part of BENCHMARK.json the comparison needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// series collects one metric's values over a file's runs of one workload.
func series(f resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the interquartile range as a share of the median, the way the
// driver takes it; 0 with fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// statistics.quantiles(v, n=4), exclusive method.
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	if m := median(s); m != 0 {
		return (q(3) - q(1)) / m
	}
	return 0
}

// compareFiles prints, per workload and end-to-end metric, B's median
// against A's and the bound: ok, worse, or unresolved when either side's own
// spread is wider than the bound. It returns 1 if anything is worse.
func compareFiles(aPath, bPath, benchPath string) int {
	var a, b resultFile
	var bench benchmarkJSON
	for _, f := range []struct {
		path string
		dst  any
	}{{aPath, &a}, {bPath, &b}, {benchPath, &bench}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.dst)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", f.path, err)
			return 2
		}
	}
	worse := 0
	fmt.Printf("%-10s %-14s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bench.EndToEnd {
			va, vb := series(a, w.name, m.Name), series(b, w.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma // positive = worse
			if m.Better == "higher" {
				change = (ma - mb) / ma
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case (sa > m.Bound || sb > m.Bound) && m.Name != "setup_s":
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-10s %-14s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.name, m.Name, ma, mb, 100*change, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
