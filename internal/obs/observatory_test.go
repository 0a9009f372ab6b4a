package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestFormatSpansDroppedHeader: a nonzero drop count must mark the rendered
// trace as incomplete; zero must not.
func TestFormatSpansDroppedHeader(t *testing.T) {
	spans := []Span{{Req: 1, Node: "kern:C1", Op: "call READ", Start: 0, End: time.Millisecond}}
	if got := FormatSpans(spans, 3, 2); !strings.Contains(got, "TRACE INCOMPLETE: 5 spans dropped") {
		t.Fatalf("dropped header missing or wrong:\n%s", got)
	}
	if got := FormatSpans(spans, 0); strings.Contains(got, "INCOMPLETE") {
		t.Fatalf("complete trace marked incomplete:\n%s", got)
	}
}

// TestDroppedSpansCounter: ring overwrites must be counted both by
// DroppedSpans and the per-node gvfs_obs_spans_dropped_total series.
func TestDroppedSpansCounter(t *testing.T) {
	o := New(nil, 4)
	n := o.Node("proxyc:C1")
	for i := 0; i < 10; i++ {
		n.Record(Span{Req: uint64(i + 1), Op: "serve READ"})
	}
	if got := o.DroppedSpans(); got != 6 {
		t.Fatalf("DroppedSpans = %d, want 6", got)
	}
	snap := o.Registry().Snapshot()
	if got := snap.Counters[Label("gvfs_obs_spans_dropped_total", "node", "proxyc:C1")]; got != 6 {
		t.Fatalf("dropped counter = %d, want 6", got)
	}
	if snap.Help["gvfs_obs_spans_dropped_total"] == "" {
		t.Fatal("dropped counter registered without HELP text")
	}
}

// TestPromHelpAndEscaping: HELP lines precede TYPE lines, and label values
// and HELP text carrying backslashes, quotes, and newlines are escaped per
// the text exposition format — and still parse.
func TestPromHelpAndEscaping(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("gvfs_weird_total", "line one\nwith a back\\slash")
	r.Counter(Label("gvfs_weird_total", "node", `C"1\x`+"\n")).Add(2)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`# HELP gvfs_weird_total line one\nwith a back\\slash`,
		"# TYPE gvfs_weird_total counter",
		`gvfs_weird_total{node="C\"1\\x\n"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Index(text, "# HELP gvfs_weird_total") > strings.Index(text, "# TYPE gvfs_weird_total") {
		t.Fatalf("HELP after TYPE:\n%s", text)
	}
	if n, err := ParseProm(strings.NewReader(text)); err != nil || n != 1 {
		t.Fatalf("escaped exposition does not parse: n=%d err=%v\n%s", n, err, text)
	}
	// Label itself escapes on the way in, so round-tripping the same series
	// name reaches the same counter.
	if got := r.Snapshot().Counters[Label("gvfs_weird_total", "node", `C"1\x`+"\n")]; got != 2 {
		t.Fatalf("escaped label not stable: %d", got)
	}
}

// TestTraceDumpRoundTrip: Write then ReadTraceDump preserves spans, the
// drop count, and the metrics snapshot.
func TestTraceDumpRoundTrip(t *testing.T) {
	o := New(nil, 2)
	n := o.Node("proxyd:s")
	for i := 0; i < 5; i++ {
		n.Record(Span{Req: uint64(i + 1), Op: "serve WRITE", Start: time.Duration(i), End: time.Duration(i + 1)})
	}
	o.Registry().Counter("gvfs_test_total").Add(7)
	var buf bytes.Buffer
	if err := o.Dump().Write(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadTraceDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != 2 {
		t.Fatalf("round-tripped %d spans, want the 2 retained", len(d.Spans))
	}
	if d.Dropped != 3 {
		t.Fatalf("round-tripped dropped = %d, want 3", d.Dropped)
	}
	if d.Metrics.Counters["gvfs_test_total"] != 7 {
		t.Fatalf("metrics snapshot lost: %+v", d.Metrics.Counters)
	}
	if _, err := ReadTraceDump(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed dump accepted")
	}
	old := `{"spans":[{"req":1,"node":"nfsd","op":"serve READ","detail":"queued=2ms","start":0,"end":5}],"metrics":{}}`
	if _, err := ReadTraceDump(strings.NewReader(old)); err == nil {
		t.Fatal("dump with a free-text span detail accepted")
	}
}
