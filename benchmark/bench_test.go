package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatches keeps BENCHMARK.json and the tables in this package
// the same list.
func TestDeclarationMatches(t *testing.T) {
	d := readDeclared(t)
	var bounded []workloadDef
	for _, w := range workloads {
		if !w.reportOnly {
			bounded = append(bounded, w)
		}
	}
	if len(d.Workloads) != len(bounded) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(d.Workloads), len(bounded))
	}
	for i, w := range bounded {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, package %q/%q", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []declaredMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the package %d", kind, len(got), len(want))
		}
		name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, package %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) {
				t.Errorf("%s: bad metric name %q", kind, g.Name)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != regressionBound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the package's %v", kind, g.Name, regressionBound)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
}

// ownGoroutines counts goroutines, leaving out the daemons' periodic loops:
// under the real clock they sleep out their interval (up to FlushInterval)
// after Stop before they notice it.
func ownGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, ").flushLoop") || strings.Contains(g, ").pollLoop") || strings.Contains(g, ").expiryLoop") {
			continue
		}
		n++
	}
	return n
}

// TestSmoke runs every workload briefly, traced, and every probe at a tiny
// iteration count: each declared metric must come out of some run, finite;
// every end-to-end metric out of every run, non-zero; nothing undeclared;
// no failed operation; and goroutines and temp dirs back to the baseline.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	tmp := t.TempDir()
	baseline := ownGoroutines()
	p := params{
		measure: 200 * time.Millisecond, warmup: 20 * time.Millisecond, setups: 1,
		trace: true, small: true, tmpRoot: tmp,
		wan: linkModel{oneWay: time.Millisecond, bitsPerSec: 100e6},
	}
	known := make(map[string]bool)
	for _, m := range append(append([]declaredMetric(nil), d.EndToEnd...), d.PerLayer...) {
		known[m.Name] = true
	}
	seen := make(map[string]bool)
	note := func(where string, values map[string]float64) {
		for k, v := range values {
			if !known[k] {
				t.Errorf("%s: metric %q is not declared in BENCHMARK.json", where, k)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %q = %v", where, k, v)
			}
			seen[k] = true
		}
	}
	for i := range workloads {
		w := &workloads[i]
		p.seed = 1
		rec, spans, err := runWorkload(w, p)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, rec.Correct, rec.Attempted, rec.Failed)
		}
		if len(spans) == 0 {
			t.Errorf("%s: the taps recorded no span", w.name)
		}
		note(w.name, rec.values)
		for _, m := range d.EndToEnd {
			if rec.values[m.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0 or missing", w.name, m.Name)
			}
		}
	}
	note("probes", runProbes(p))
	for name := range known {
		if !seen[name] {
			t.Errorf("declared metric %q came out of no run", name)
		}
	}

	deadline := time.Now().Add(3 * time.Second)
	for ownGoroutines() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := ownGoroutines(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines outlive the teardown (baseline %d):\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("temp dir not empty after teardown: %v", left)
	}
}

// TestSpread pins the comparison's quartiles to Python's
// statistics.quantiles(v, n=4), which the driver uses.
func TestSpread(t *testing.T) {
	v := []float64{10, 12, 11, 13, 9, 14, 10, 12, 11, 15}
	// statistics.quantiles -> [10.0, 11.5, 13.25], median 11.5
	if got, want := spread(v), (13.25-10.0)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
