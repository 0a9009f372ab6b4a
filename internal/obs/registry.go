// Package obs is the observability spine for the GVFS reproduction: a
// metrics registry and a virtual-time span tracer shared by every node in a
// deployment (emulated kernel clients, proxy clients, proxy servers, the NFS
// server, and the simulated network).
//
// All timestamps are virtual time read from a vclock-backed `now` func, so
// latency histograms and span durations measure the simulated wide-area
// behaviour, not wall-clock noise. Every type is safe to use through a nil
// receiver: components that are not wired to an Obs instance pay a branch
// and nothing else.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed cumulative-style buckets. Bounds
// are inclusive upper edges (Prometheus `le` semantics): an observation of
// exactly bounds[i] lands in bucket i. Values above the last bound land in
// the implicit +Inf bucket.
type Histogram struct {
	mu     sync.Mutex
	bounds []int64 // sorted ascending
	counts []int64 // len(bounds)+1; last is +Inf
	sum    int64
	n      int64
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.sum += v
	h.n++
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last is +Inf
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
	return s
}

// DurationBuckets covers the latency range of the simulated WAN: from
// sub-millisecond LAN hops through the 40 ms paper RTT up to retry storms.
var DurationBuckets = []int64{
	int64(500 * time.Microsecond),
	int64(1 * time.Millisecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(20 * time.Millisecond),
	int64(40 * time.Millisecond),
	int64(80 * time.Millisecond),
	int64(160 * time.Millisecond),
	int64(320 * time.Millisecond),
	int64(1 * time.Second),
	int64(4 * time.Second),
	int64(15 * time.Second),
	int64(60 * time.Second),
}

// CountBuckets suits small cardinalities such as GETINV batch sizes or
// flush-pipeline depths.
var CountBuckets = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// Registry holds named metric series. A series name may carry Prometheus
// style labels baked into the name, e.g. `gvfs_cache_hits_total{node="C1"}`;
// the part before '{' is the family used for # TYPE lines.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	help   map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		help:   make(map[string]string),
	}
}

// SetHelp registers the HELP text emitted for a metric family in the
// Prometheus exposition. Families without help text get no HELP line, which
// the format permits. First registration wins, so call sites can set it
// unconditionally next to metric creation.
func (r *Registry) SetHelp(family, text string) {
	if r == nil || text == "" {
		return
	}
	r.mu.Lock()
	if _, ok := r.help[family]; !ok {
		r.help[family] = text
	}
	r.mu.Unlock()
}

// escapeLabelValue applies the Prometheus text-format escapes for label
// values: backslash, double quote, and line feed.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the exposition escapes for HELP text: backslash and
// line feed (quotes are legal there).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Label bakes a single label pair into a series name, escaping the value per
// the Prometheus text format. Successive calls append further pairs in
// order, keeping output deterministic.
func Label(name, key, value string) string {
	value = escapeLabelValue(value)
	if i := strings.LastIndexByte(name, '}'); i >= 0 {
		return name[:i] + `,` + key + `="` + value + `"}`
	}
	return name + `{` + key + `="` + value + `"}`
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// if needed. Bounds are only applied on first creation.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]int64(nil), bounds...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every series in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Help       map[string]string            `json:"help,omitempty"`
}

// SumCounters totals every counter series of one family (the metric name
// with its label block stripped) across all label sets — e.g. a per-node
// counter summed over the whole deployment.
func (s Snapshot) SumCounters(fam string) int64 {
	var total int64
	for name, v := range s.Counters {
		if family(name) == fam {
			total += v
		}
	}
	return total
}

// Sum totals the counter and gauge series of family fam whose labels include
// every key/value pair in kv: Sum("gvfs_client_meta_hits_total", "cache",
// "dentry") over every node, or one node's series with "node", name added.
func (s Snapshot) Sum(fam string, kv ...string) int64 {
	var total int64
	for _, series := range []map[string]int64{s.Counters, s.Gauges} {
		for name, v := range series {
			f, labels := splitSeries(name)
			if f == fam && hasLabels(labels, kv) {
				total += v
			}
		}
	}
	return total
}

// hasLabels reports whether a series' label block carries every key/value
// pair in kv.
func hasLabels(labels string, kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		pair := kv[i] + `="` + escapeLabelValue(kv[i+1]) + `"`
		if !strings.Contains(labels, "{"+pair) && !strings.Contains(labels, ","+pair) {
			return false
		}
	}
	return true
}

// Snapshot copies all series. Safe to call concurrently with updates.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counts := make(map[string]*Counter, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	if len(r.help) > 0 {
		s.Help = make(map[string]string, len(r.help))
		for k, v := range r.help {
			s.Help[k] = v
		}
	}
	r.mu.Unlock()
	for k, v := range counts {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// WriteJSON dumps the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// splitSeries returns the family and the label block (with braces, or "").
func splitSeries(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// WriteProm writes the snapshot in Prometheus text exposition format,
// sorted for deterministic output.
func (r *Registry) WriteProm(w io.Writer) error {
	s := r.Snapshot()
	return s.WriteProm(w)
}

// WriteProm writes the snapshot in Prometheus text exposition format.
func (s Snapshot) WriteProm(w io.Writer) error {
	type series struct {
		name string
		kind string // counter, gauge, histogram
	}
	var all []series
	for name := range s.Counters {
		all = append(all, series{name, "counter"})
	}
	for name := range s.Gauges {
		all = append(all, series{name, "gauge"})
	}
	for name := range s.Histograms {
		all = append(all, series{name, "histogram"})
	}
	sort.Slice(all, func(i, j int) bool {
		fi, fj := family(all[i].name), family(all[j].name)
		if fi != fj {
			return fi < fj
		}
		return all[i].name < all[j].name
	})
	lastFam := ""
	for _, se := range all {
		fam, labels := splitSeries(se.name)
		if fam != lastFam {
			if help, ok := s.Help[fam]; ok {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, escapeHelp(help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, se.kind); err != nil {
				return err
			}
			lastFam = fam
		}
		switch se.kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "%s %d\n", se.name, s.Counters[se.name]); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "%s %d\n", se.name, s.Gauges[se.name]); err != nil {
				return err
			}
		case "histogram":
			h := s.Histograms[se.name]
			cum := int64(0)
			for i, b := range h.Bounds {
				cum += h.Counts[i]
				if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(fam, labels, fmt.Sprintf("%d", b)), cum); err != nil {
					return err
				}
			}
			cum += h.Counts[len(h.Bounds)]
			if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(fam, labels, "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", fam, labels, h.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, h.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

func bucketSeries(fam, labels, le string) string {
	name := fam + "_bucket"
	if labels != "" {
		name += labels
	}
	return Label(name, "le", le)
}

// ParseProm is a minimal validator for the text exposition format produced
// by WriteProm. It returns the number of samples parsed and an error on the
// first malformed line. Used by gvfs-bench and CI to prove a dump is
// non-empty and well-formed.
func ParseProm(r io.Reader) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	samples := 0
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// A sample line is `<series> <integer>`; the series may contain
		// spaces only inside a quoted label value.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 || i == len(line)-1 {
			return samples, fmt.Errorf("line %d: malformed sample %q", ln+1, line)
		}
		name, val := line[:i], line[i+1:]
		if fam := family(name); fam == "" || strings.ContainsAny(fam, " \t") {
			return samples, fmt.Errorf("line %d: malformed series name %q", ln+1, name)
		}
		if strings.ContainsRune(name, '{') != strings.ContainsRune(name, '}') {
			return samples, fmt.Errorf("line %d: unbalanced labels in %q", ln+1, name)
		}
		if _, err := fmt.Sscanf(val, "%d", new(int64)); err != nil {
			return samples, fmt.Errorf("line %d: bad value %q: %v", ln+1, val, err)
		}
		samples++
	}
	return samples, nil
}
