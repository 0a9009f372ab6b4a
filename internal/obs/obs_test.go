package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(1) // must not panic
	var n *Node
	if n.Mint() != 0 {
		t.Fatal("nil node should mint 0")
	}
	n.Record(Span{})
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry should hand out nil metrics")
	}
	var o *Obs
	if o.Node("x") != nil || o.Now() != 0 || o.Spans() != nil {
		t.Fatal("nil obs should no-op")
	}
}

// Bucket boundaries follow Prometheus `le` semantics: a virtual-time
// observation equal to a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	bounds := []int64{int64(10 * time.Millisecond), int64(40 * time.Millisecond), int64(1 * time.Second)}
	h := r.Histogram("lat", bounds)
	h.ObserveDuration(10 * time.Millisecond)         // == bound 0 -> bucket 0
	h.ObserveDuration(10*time.Millisecond + 1)       // just above -> bucket 1
	h.ObserveDuration(40 * time.Millisecond)         // == bound 1 -> bucket 1
	h.ObserveDuration(time.Second)                   // == bound 2 -> bucket 2
	h.ObserveDuration(time.Second + time.Nanosecond) // above all -> +Inf
	s := r.Snapshot().Histograms["lat"]
	want := []int64{1, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d: got %d want %d (counts=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count=%d want 5", s.Count)
	}
	wantSum := int64(10*time.Millisecond) + int64(10*time.Millisecond) + 1 +
		int64(40*time.Millisecond) + int64(time.Second) + int64(time.Second) + 1
	if s.Sum != wantSum {
		t.Fatalf("sum=%d want %d", s.Sum, wantSum)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := newTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Req: uint64(i + 1), Start: time.Duration(i)})
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := uint64(7 + i); s.Req != want {
			t.Fatalf("slot %d: req %d want %d", i, s.Req, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped=%d want 6", tr.Dropped())
	}
}

func TestMintEncodesNodeAndSeq(t *testing.T) {
	o := New(nil, 16)
	a := o.Node("a")
	b := o.Node("b")
	if o.Node("a") != a {
		t.Fatal("Node must be get-or-create")
	}
	id1, id2, id3 := a.Mint(), a.Mint(), b.Mint()
	if FormatReq(id1) != "1.1" || FormatReq(id2) != "1.2" || FormatReq(id3) != "2.1" {
		t.Fatalf("got %s %s %s", FormatReq(id1), FormatReq(id2), FormatReq(id3))
	}
	if FormatReq(0) != "-" {
		t.Fatal("zero req should format as -")
	}
}

func TestSpansCanonicalOrder(t *testing.T) {
	o := New(nil, 16)
	a, b := o.Node("a"), o.Node("b")
	b.Record(Span{Req: 2, Op: "READ", Start: 5, End: 9})
	a.Record(Span{Req: 1, Op: "READ", Start: 5, End: 7})
	a.Record(Span{Req: 3, Op: "WRITE", Start: 1, End: 2})
	got := o.Spans()
	if len(got) != 3 || got[0].Req != 3 || got[1].Req != 1 || got[2].Req != 2 {
		t.Fatalf("bad order: %+v", got)
	}
}

func TestSpansForFHAndReq(t *testing.T) {
	o := New(nil, 16)
	n := o.Node("n")
	for i := 0; i < 6; i++ {
		fh := "fh:a"
		if i%2 == 1 {
			fh = "fh:b"
		}
		n.Record(Span{Req: uint64(i + 1), FH: fh, Start: time.Duration(i)})
	}
	n.Record(Span{Req: 99, Parent: 2, FH: "fh:b", Start: 10})
	if got := o.SpansForFH("fh:a", 0); len(got) != 3 {
		t.Fatalf("fh:a spans=%d want 3", len(got))
	}
	if got := o.SpansForFH("fh:b", 2); len(got) != 2 || got[1].Req != 99 {
		t.Fatalf("max trim wrong: %+v", got)
	}
	if got := o.SpansForReq(2); len(got) != 2 {
		t.Fatalf("req-2 spans=%d want 2 (direct + child)", len(got))
	}
}

func TestPromRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("gvfs_hits_total", "node", "C1")).Add(4)
	r.Counter(Label("gvfs_hits_total", "node", "C2")).Add(2)
	r.Gauge("gvfs_depth").Set(3)
	h := r.Histogram("gvfs_lat", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE gvfs_hits_total counter",
		`gvfs_hits_total{node="C1"} 4`,
		"# TYPE gvfs_depth gauge",
		"gvfs_depth 3",
		"# TYPE gvfs_lat histogram",
		`gvfs_lat_bucket{le="10"} 1`,
		`gvfs_lat_bucket{le="100"} 2`,
		`gvfs_lat_bucket{le="+Inf"} 3`,
		"gvfs_lat_sum 555",
		"gvfs_lat_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	n, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseProm: %v\n%s", err, text)
	}
	if n != 8 {
		t.Fatalf("parsed %d samples, want 8", n)
	}
	// Deterministic output: same registry, same bytes.
	var buf2 bytes.Buffer
	if err := r.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != text {
		t.Fatal("exposition output not deterministic")
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"justaname\n",
		"name notanumber\n",
		`unbalanced{le="1" 3` + "\n",
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseProm accepted %q", bad)
		}
	}
	if n, err := ParseProm(strings.NewReader("# only comments\n\n")); err != nil || n != 0 {
		t.Fatalf("comment-only parse: n=%d err=%v", n, err)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Histogram("h", []int64{1}).Observe(1)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c"] != 1 || s.Histograms["h"].Count != 1 {
		t.Fatalf("bad snapshot: %+v", s)
	}
}

func TestLabel(t *testing.T) {
	got := Label(Label("m", "a", "1"), "b", "2")
	if got != `m{a="1",b="2"}` {
		t.Fatalf("got %q", got)
	}
}

// TestSnapshotSum: Sum picks series by family and by whole label pairs, over
// counters and gauges alike.
func TestSnapshotSum(t *testing.T) {
	r := NewRegistry()
	hits := Label("hits_total", "node", "C1/s")
	r.Counter(Label(hits, "cache", "attr")).Add(1)
	r.Counter(Label(hits, "cache", "dentry")).Add(2)
	r.Counter(Label(Label("hits_total", "node", "C2/s"), "cache", "dentry")).Add(4)
	r.Counter(Label("hits_total", "node", "C1/s2")).Add(8)
	r.Counter("hits_total_other").Add(16)
	r.Gauge(Label("bytes", "node", "C1/s")).Set(32)
	s := r.Snapshot()
	for _, c := range []struct {
		fam  string
		kv   []string
		want int64
	}{
		{"hits_total", nil, 15},
		{"hits_total", []string{"cache", "dentry"}, 6},
		{"hits_total", []string{"node", "C1/s"}, 3},
		{"hits_total", []string{"node", "C1/s", "cache", "dentry"}, 2},
		{"hits_total", []string{"node", "C1"}, 0},
		{"bytes", []string{"node", "C1/s"}, 32},
		{"missing", nil, 0},
	} {
		if got := s.Sum(c.fam, c.kv...); got != c.want {
			t.Errorf("Sum(%q, %q) = %d, want %d", c.fam, c.kv, got, c.want)
		}
	}
}

func TestFormatSpansDeterministic(t *testing.T) {
	mk := func(order []int) string {
		spans := []Span{
			{Req: 1, Node: "kern:C1", Op: "READ", FH: "fh:01", Start: 100, End: 200},
			{Req: 1, Node: "proxyc:C1", Op: "READ", FH: "fh:01", Start: 120, End: 180, Detail: "miss"},
			{Req: 2, Parent: 1, Node: "proxyc:C1", Op: "READAHEAD", FH: "fh:01", Start: 130, End: 190},
		}
		var in []Span
		for _, i := range order {
			in = append(in, spans[i])
		}
		return FormatSpans(in)
	}
	a := mk([]int{0, 1, 2})
	b := mk([]int{2, 0, 1})
	if a != b {
		t.Fatalf("format depends on input order:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "2.0<1.0") && !strings.Contains(a, "<") {
		// parent linkage must be visible in some form
		t.Fatalf("no parent annotation in:\n%s", a)
	}
	_ = fmt.Sprintf("%s", a)
}
