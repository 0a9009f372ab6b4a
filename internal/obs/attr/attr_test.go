package attr

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

const msec = time.Millisecond

// sum totals a breakdown's segments.
func sum(bd Breakdown) time.Duration {
	var t time.Duration
	for _, d := range bd.Seg {
		t += d
	}
	return t
}

// requireExact asserts the partition invariant: segments sum to end-to-end.
func requireExact(t *testing.T, bds []Breakdown) {
	t.Helper()
	for _, bd := range bds {
		if got := sum(bd); got != bd.Total() {
			t.Errorf("req %d (%s): segments sum to %v, end-to-end is %v", bd.Req, bd.Op, got, bd.Total())
		}
		for seg, d := range bd.Seg {
			if d < 0 {
				t.Errorf("req %d: negative %s segment %v", bd.Req, seg, d)
			}
		}
	}
}

func TestAnalyzeNestedPipeline(t *testing.T) {
	spans := []obs.Span{
		{Req: 1, Node: "kern:C1", Op: "call READ", Start: 0, End: 100 * msec},
		{Req: 1, Node: "proxyc:C1", Op: "serve READ", Start: 10 * msec, End: 90 * msec},
		{Req: 1, Node: "proxyc:C1", Op: "call READ", Start: 20 * msec, End: 80 * msec},
		{Req: 1, Node: "proxyd:s", Op: "serve READ", Start: 40 * msec, End: 60 * msec, Queued: 5 * msec},
	}
	bds := Analyze(spans)
	if len(bds) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bds))
	}
	bd := bds[0]
	if bd.Op != "READ" || bd.Node != "kern:C1" {
		t.Fatalf("root misidentified: %+v", bd)
	}
	requireExact(t, bds)
	want := map[string]time.Duration{
		// 0-10 and 90-100 uncovered inside the kernel call, 20-40 and 60-80
		// inside the upstream call = 60ms wire, minus the 5ms queue move.
		SegWire:   55 * msec,
		SegQueue:  5 * msec,
		SegClient: 20 * msec, // 10-20 and 80-90 in the proxy-client handler
		SegServer: 20 * msec, // 40-60 in the proxy-server handler
	}
	for seg, d := range want {
		if bd.Seg[seg] != d {
			t.Errorf("%s = %v, want %v (full: %v)", seg, bd.Seg[seg], d, bd.Seg)
		}
	}
}

func TestAnalyzeRetransmitAndShedMoves(t *testing.T) {
	spans := []obs.Span{
		{Req: 7, Node: "kern:C2", Op: "call WRITE", Start: 0, End: 100 * msec,
			Retransmits: 1, Stall: 30 * msec},
		{Req: 7, Node: "proxyc:C2", Op: "serve WRITE", Start: 10 * msec, End: 20 * msec},
		{Req: 7, Node: "proxyc:C2", Op: "call WRITE", Start: 30 * msec, End: 40 * msec,
			Sheds: 2, Stall: 15 * msec},
	}
	bds := Analyze(spans)
	if len(bds) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bds))
	}
	bd := bds[0]
	requireExact(t, bds)
	want := map[string]time.Duration{
		SegWire:       45 * msec,
		SegRetransmit: 30 * msec, // kernel call's own same-XID stall
		SegShed:       15 * msec, // upstream stall attributed to TRY_LATER backoff
		SegClient:     10 * msec,
	}
	for seg, d := range want {
		if bd.Seg[seg] != d {
			t.Errorf("%s = %v, want %v (full: %v)", seg, bd.Seg[seg], d, bd.Seg)
		}
	}
}

// TestAnalyzeShedWinsOverlappingRetransmit: when the kernel's own same-XID
// retransmit stall and an upstream shed stall cover the same wall time, the
// shed attribution must win the shared wire budget — the server provably
// said TRY_LATER — regardless of span order.
func TestAnalyzeShedWinsOverlappingRetransmit(t *testing.T) {
	spans := []obs.Span{
		// The kernel saw a 60ms stall; 50ms of it was really the proxy
		// client backing off after a TRY_LATER from the server. Only 60ms
		// of wire exists (0-100 minus the 40ms proxy-client handler), so
		// the two moves compete.
		{Req: 9, Node: "kern:C1", Op: "call READ", Start: 0, End: 100 * msec,
			Retransmits: 2, Stall: 60 * msec},
		{Req: 9, Node: "proxyc:C1", Op: "serve READ", Start: 30 * msec, End: 70 * msec},
		{Req: 9, Node: "proxyc:C1", Op: "call READ", Start: 72 * msec, End: 95 * msec,
			Retransmits: 1, Sheds: 1, Stall: 50 * msec},
	}
	bds := Analyze(spans)
	if len(bds) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bds))
	}
	bd := bds[0]
	requireExact(t, bds)
	want := map[string]time.Duration{
		SegShed:       50 * msec, // shed stall takes its full share first
		SegRetransmit: 10 * msec, // kernel stall clamped to the remaining wire
		SegWire:       0,
		SegClient:     40 * msec,
	}
	for seg, d := range want {
		if bd.Seg[seg] != d {
			t.Errorf("%s = %v, want %v (full: %v)", seg, bd.Seg[seg], d, bd.Seg)
		}
	}
}

func TestAnalyzeRecallBlocking(t *testing.T) {
	spans := []obs.Span{
		{Req: 3, Node: "kern:C1", Op: "call CREATE", Start: 0, End: 100 * msec},
		{Req: 3, Node: "proxyd:s", Op: "serve CREATE", Start: 20 * msec, End: 90 * msec},
		{Req: 3, Node: "proxyd:s", Op: "call RECALL", Start: 30 * msec, End: 70 * msec},
	}
	bds := Analyze(spans)
	if len(bds) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bds))
	}
	requireExact(t, bds)
	if got := bds[0].Seg[SegRecall]; got != 40*msec {
		t.Errorf("recall = %v, want 40ms (full: %v)", got, bds[0].Seg)
	}
}

// TestAnalyzeClampTruncatedTrace: the recovered waits may not exceed the
// wire time actually present in the (possibly truncated) trace; the
// partition invariant survives.
func TestAnalyzeClampTruncatedTrace(t *testing.T) {
	spans := []obs.Span{
		{Req: 5, Node: "kern:C1", Op: "call READ", Start: 0, End: 20 * msec,
			Retransmits: 3, Stall: 400 * msec},
		{Req: 5, Node: "proxyc:C1", Op: "serve READ", Start: 5 * msec, End: 15 * msec},
	}
	bds := Analyze(spans)
	requireExact(t, bds)
	if got := bds[0].Seg[SegRetransmit]; got != 10*msec {
		t.Errorf("retransmit = %v, want clamp to the 10ms of available wire time", got)
	}
}

func TestAnalyzeSkipsInternalTraffic(t *testing.T) {
	spans := []obs.Span{
		// GETINV poll: minted at the proxy client, no kernel root.
		{Req: 9, Node: "proxyc:C1", Op: "call GETINV", Start: 0, End: 40 * msec},
		{Req: 9, Node: "proxyd:s", Op: "serve GETINV", Start: 15 * msec, End: 25 * msec},
	}
	if bds := Analyze(spans); len(bds) != 0 {
		t.Fatalf("internal traffic attributed as kernel requests: %+v", bds)
	}
	// Local-root analysis does attribute it, rooted at the outermost span.
	bds := AnalyzeLocal(spans)
	if len(bds) != 1 {
		t.Fatalf("AnalyzeLocal got %d breakdowns, want 1", len(bds))
	}
	requireExact(t, bds)
	if bds[0].Op != "GETINV" || bds[0].Node != "proxyc:C1" {
		t.Fatalf("local root misidentified: %+v", bds[0])
	}
}

// TestAnalyzeLocalIdleSegment: idle time inside a daemon's own serve span is
// that daemon's handler time, and its Queued wait (before the span)
// is not moved into the attributed interval.
func TestAnalyzeLocalIdleSegment(t *testing.T) {
	spans := []obs.Span{
		{Req: 11, Node: "proxyd:s", Op: "serve READ", Start: 0, End: 50 * msec, Queued: 10 * msec},
		{Req: 11, Node: "proxyd:s", Op: "call READ", Start: 10 * msec, End: 30 * msec},
	}
	bds := AnalyzeLocal(spans)
	if len(bds) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bds))
	}
	bd := bds[0]
	requireExact(t, bds)
	if bd.Seg[SegServer] != 30*msec || bd.Seg[SegWire] != 20*msec || bd.Seg[SegQueue] != 0 {
		t.Errorf("local proxyd attribution wrong: %v", bd.Seg)
	}

	clientSpans := []obs.Span{
		{Req: 12, Node: "proxyc:C1", Op: "serve GETATTR", Start: 0, End: 5 * msec},
	}
	cbds := AnalyzeLocal(clientSpans)
	if len(cbds) != 1 || cbds[0].Seg[SegClient] != 5*msec {
		t.Errorf("local proxyc idle time not client_cache: %+v", cbds)
	}
}

func TestSummarizeAndPercentile(t *testing.T) {
	var bds []Breakdown
	for i := 1; i <= 100; i++ {
		bds = append(bds, Breakdown{
			Req: uint64(i), Op: "READ", Start: 0, End: time.Duration(i) * msec,
			Seg: map[string]time.Duration{SegWire: time.Duration(i) * msec},
		})
	}
	stats := Summarize(bds)
	if len(stats) != 1 {
		t.Fatalf("got %d op groups, want 1", len(stats))
	}
	st := stats[0]
	if st.Count != 100 || st.P50 != 50*msec || st.P95 != 95*msec || st.P99 != 99*msec || st.Max != 100*msec {
		t.Errorf("percentiles wrong: %+v", st)
	}
	if st.Seg[SegWire] != st.Wall {
		t.Errorf("segment totals (%v) do not cover wall (%v)", st.Seg[SegWire], st.Wall)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile not 0")
	}
}

// TestFormatReportDeterministic: identical span sets in any input order
// produce byte-identical reports.
func TestFormatReportDeterministic(t *testing.T) {
	spans := []obs.Span{
		{Req: 1, Node: "kern:C1", Op: "call READ", Start: 0, End: 80 * msec},
		{Req: 1, Node: "proxyc:C1", Op: "serve READ", Start: 10 * msec, End: 70 * msec},
		{Req: 2, Node: "kern:C2", Op: "call WRITE", Start: 5 * msec, End: 85 * msec},
		{Req: 2, Node: "proxyd:s", Op: "serve WRITE", Start: 25 * msec, End: 45 * msec, Queued: 3 * msec},
		{Req: 3, Node: "kern:C1", Op: "call READ", Start: 40 * msec, End: 120 * msec},
	}
	perms := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}}
	var first string
	for i, p := range perms {
		in := make([]obs.Span, len(spans))
		for j, idx := range p {
			in[j] = spans[idx]
		}
		got := FormatReport(Analyze(in), 2)
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("report depends on span input order:\n%s\nvs\n%s", first, got)
		}
	}
	for _, want := range []string{"CRITICAL-PATH ATTRIBUTION", "SLOWEST 2 REQUESTS", "READ", "WRITE"} {
		if !strings.Contains(first, want) {
			t.Errorf("report missing %q:\n%s", want, first)
		}
	}
}

// TestObservatoryIdempotentHarvest: repeated harvests of overlapping span
// sets must not double-count requests in gvfs_attr_seconds.
func TestObservatoryIdempotentHarvest(t *testing.T) {
	reg := obs.NewRegistry()
	ob := NewObservatory(reg)
	spans := []obs.Span{
		{Req: 1, Node: "kern:C1", Op: "call READ", Start: 0, End: 80 * msec},
		{Req: 1, Node: "proxyc:C1", Op: "serve READ", Start: 10 * msec, End: 70 * msec},
	}
	if got := len(ob.Harvest(spans)); got != 1 {
		t.Fatalf("first harvest returned %d breakdowns, want 1", got)
	}
	// Second harvest sees the same request plus a new one.
	spans = append(spans, obs.Span{Req: 2, Node: "kern:C1", Op: "call READ", Start: 100 * msec, End: 150 * msec})
	if got := len(ob.Harvest(spans)); got != 2 {
		t.Fatalf("second harvest returned %d breakdowns, want 2", got)
	}
	snap := reg.Snapshot()
	total := snap.Histograms[obs.Label(obs.Label("gvfs_attr_seconds", "op", "READ"), "segment", "total")]
	if total.Count != 2 {
		t.Errorf("total histogram holds %d observations, want 2 (no double counting)", total.Count)
	}
	if snap.Help["gvfs_attr_seconds"] == "" {
		t.Error("gvfs_attr_seconds registered without HELP text")
	}
	// Nil observatory still analyzes.
	var nilOb *Observatory
	if got := len(nilOb.Harvest(spans)); got != 2 {
		t.Errorf("nil observatory harvest returned %d breakdowns", got)
	}
}
