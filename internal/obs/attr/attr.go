// Package attr turns the deployment's cross-node span spine into
// critical-path latency attribution: for every request minted at a kernel
// client it decomposes the measured end-to-end wall time into named segments
// — where the request actually spent its life.
//
// The decomposition is a timeline sweep over the request's span tree, all in
// virtual time. The kernel client's "call <OP>" span is the root interval;
// every other span carrying the same request ID is clipped to it and, for
// each elementary sub-interval, the innermost active span (latest start,
// earliest end) decides the segment: a proxy-client handler span is client
// cache service, a proxy/NFS server handler span is server time, a nested
// "call" span is wire transit, and anything RECALL-flavored is recall
// blocking. Instants no span covers are wire transit between nodes. Because
// the sweep partitions the root interval exactly, the segments always sum to
// the measured end-to-end latency — attribution never invents or loses time.
//
// Two costs are invisible to the sweep because they happen before a span
// starts: scheduler queue wait (the server's handler span deliberately
// starts after the queue, leaving the wait inside the enclosing call span)
// and retransmission stalls (the client blocks between same-XID sends with
// no sub-span active). Both are recovered from the spans' typed waits
// (Span.Queued; Span.Stall, a shed backoff when Span.Sheds is nonzero) and
// moved out of the wire segment, clamped so the sum invariant survives even
// a truncated trace.
package attr

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Segment names. A request's wall time is partitioned across exactly these.
const (
	// SegClient is time inside a proxy-client handler: cache lookups, disk
	// cache service, local reconciliation.
	SegClient = "client_cache"
	// SegQueue is time spent waiting for a server worker slot.
	SegQueue = "queue_wait"
	// SegWire is wire transit: the request or reply in flight between nodes
	// (LAN hops and the simulated WAN).
	SegWire = "wire"
	// SegRetransmit is stall time between same-XID retransmissions caused by
	// message loss.
	SegRetransmit = "retransmit"
	// SegShed is backoff time spent re-offering requests a loaded server
	// shed with TRY_LATER.
	SegShed = "shed_backoff"
	// SegRecall is time blocked behind delegation recall callbacks.
	SegRecall = "recall"
	// SegServer is time inside proxy-server and NFS-server handlers.
	SegServer = "server_handler"
)

// Segments lists every segment in canonical display order.
var Segments = []string{SegClient, SegQueue, SegWire, SegRetransmit, SegShed, SegRecall, SegServer}

// Breakdown is one request's attribution: its kernel-visible operation and
// the exact partition of its end-to-end latency.
type Breakdown struct {
	Req   uint64        `json:"req"`
	Op    string        `json:"op"`
	Node  string        `json:"node"` // kernel node that minted the request
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
	// Seg maps segment name to attributed time; segments always sum to
	// End-Start exactly.
	Seg map[string]time.Duration `json:"seg"`
}

// Total is the request's measured end-to-end latency.
func (b Breakdown) Total() time.Duration { return b.End - b.Start }

// Analyze attributes every completed kernel-client request found in spans.
// Requests without a kernel root span (internal traffic: GETINV polls,
// background flushes, recalls themselves) are skipped — they appear inside
// other requests' segments instead. Output is sorted by start time, then
// request ID.
func Analyze(spans []obs.Span) []Breakdown {
	return analyze(spans, kernelRoot)
}

// AnalyzeLocal attributes requests rooted at the outermost retained span of
// each request group instead of requiring a kernel client's call span. The
// real-TCP daemons' live /attr endpoints use it: there the kernel is a real
// OS kernel that records no spans, so a request's life as the daemon saw it
// begins at the daemon's own serve span.
func AnalyzeLocal(spans []obs.Span) []Breakdown {
	return analyze(spans, outermostRoot)
}

// kernelRoot picks the earliest kernel-client call span, or -1.
func kernelRoot(g []obs.Span) int {
	rootIdx := -1
	for i := range g {
		s := &g[i]
		if strings.HasPrefix(s.Node, "kern:") && strings.HasPrefix(s.Op, "call ") {
			if rootIdx < 0 || s.Start < g[rootIdx].Start {
				rootIdx = i
			}
		}
	}
	return rootIdx
}

// outermostRoot picks the span covering the group: earliest start, then
// latest end, then first recorded — deterministic for identical traces.
func outermostRoot(g []obs.Span) int {
	rootIdx := -1
	for i := range g {
		s := &g[i]
		if rootIdx < 0 || s.Start < g[rootIdx].Start ||
			(s.Start == g[rootIdx].Start && s.End > g[rootIdx].End) {
			rootIdx = i
		}
	}
	return rootIdx
}

func analyze(spans []obs.Span, pickRoot func([]obs.Span) int) []Breakdown {
	groups := make(map[uint64][]obs.Span)
	for _, s := range spans {
		if s.Req != 0 {
			groups[s.Req] = append(groups[s.Req], s)
		}
	}
	var out []Breakdown
	for _, g := range groups {
		rootIdx := pickRoot(g)
		if rootIdx < 0 {
			continue
		}
		out = append(out, analyzeOne(g[rootIdx], g))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Req < out[j].Req
	})
	return out
}

// category classifies one non-root span.
func category(s obs.Span) string {
	op := s.Op
	isCall := strings.HasPrefix(op, "call ")
	op = strings.TrimPrefix(strings.TrimPrefix(op, "call "), "serve ")
	if op == "RECALL" || op == "RECALL-ALL" {
		return SegRecall
	}
	if isCall {
		return SegWire
	}
	switch {
	case strings.HasPrefix(s.Node, "proxyc:"):
		return SegClient
	case strings.HasPrefix(s.Node, "proxyd:"), strings.HasPrefix(s.Node, "nfsd"):
		return SegServer
	}
	return SegWire
}

// segRank breaks exact start/end ties in the innermost-span search; more
// specific categories win so the choice is deterministic.
func segRank(cat string) int {
	switch cat {
	case SegRecall:
		return 3
	case SegServer:
		return 2
	case SegClient:
		return 1
	}
	return 0
}

func analyzeOne(root obs.Span, g []obs.Span) Breakdown {
	bd := Breakdown{
		Req: root.Req, Op: strings.TrimPrefix(strings.TrimPrefix(root.Op, "call "), "serve "),
		Node: root.Node, Start: root.Start, End: root.End,
		Seg: make(map[string]time.Duration, len(Segments)),
	}
	type child struct {
		start, end time.Duration
		cat        string
	}
	var kids []child
	seenRoot := false
	for _, s := range g {
		if !seenRoot && s.Node == root.Node && s.Op == root.Op && s.Start == root.Start && s.End == root.End {
			seenRoot = true
			continue
		}
		st, en := s.Start, s.End
		if st < root.Start {
			st = root.Start
		}
		if en > root.End {
			en = root.End
		}
		if en <= st {
			continue
		}
		kids = append(kids, child{st, en, category(s)})
	}

	// Idle elementary intervals (no child span active) are wire transit when
	// the root is a kernel call — the request or reply between nodes. Under
	// local-root analysis the root is a daemon's own serve span, and idle
	// time inside it is that daemon's handler time instead.
	rootIdle := SegWire
	if !strings.HasPrefix(root.Op, "call ") {
		rootIdle = category(root)
	}

	// Sweep the elementary intervals of the root span.
	cuts := make([]time.Duration, 0, 2+2*len(kids))
	cuts = append(cuts, root.Start, root.End)
	for _, k := range kids {
		cuts = append(cuts, k.start, k.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		t1, t2 := cuts[i], cuts[i+1]
		if t2 <= t1 {
			continue
		}
		cat := rootIdle
		best := child{start: -1 << 62}
		found := false
		for _, k := range kids {
			if k.start > t1 || k.end < t2 {
				continue
			}
			if !found ||
				k.start > best.start ||
				(k.start == best.start && (k.end < best.end ||
					(k.end == best.end && segRank(k.cat) > segRank(best.cat)))) {
				best, found = k, true
			}
		}
		if found {
			cat = best.cat
		}
		bd.Seg[cat] += t2 - t1
	}

	// Recover the sweep-invisible costs from the spans' waits (a call's
	// Stall, a serve's Queued), moving time out of the wire segment (where
	// both necessarily landed) with clamping so the partition stays exact.
	// Moves are collected first and the shed ones
	// applied before the rest: a shed stall at the proxy client and the
	// kernel's own same-XID retransmit stall cover the same wall time, and
	// both compete for the same wire budget — the more specific cause (the
	// server provably said TRY_LATER) must win the overlap, not whichever
	// span happened to sort first.
	move := func(d time.Duration, to string) {
		if d > bd.Seg[SegWire] {
			d = bd.Seg[SegWire]
		}
		if d <= 0 {
			return
		}
		bd.Seg[SegWire] -= d
		bd.Seg[to] += d
	}
	type pendingMove struct {
		d  time.Duration
		to string
	}
	var shed time.Duration // moves to one segment clamp alike summed or apart
	var others []pendingMove
	rootSeen := false
	for _, s := range g {
		if !rootSeen && s.Node == root.Node && s.Op == root.Op && s.Start == root.Start && s.End == root.End {
			rootSeen = true
			// A serve-span root's own queue wait happened before the span
			// (and so before the interval being attributed) — skip it. A
			// call-span root's retransmit stalls are inside it and count.
			if !strings.HasPrefix(s.Op, "call ") {
				continue
			}
		}
		if s.End < root.Start || s.Start > root.End {
			continue
		}
		switch {
		case s.Stall > 0 && s.Sheds > 0:
			shed += s.Stall
		case s.Stall > 0:
			others = append(others, pendingMove{s.Stall, SegRetransmit})
		case s.Queued > 0:
			others = append(others, pendingMove{s.Queued, SegQueue})
		}
	}
	move(shed, SegShed)
	for _, m := range others {
		move(m.d, m.to)
	}
	return bd
}

// OpStats aggregates breakdowns of one operation type.
type OpStats struct {
	Op            string
	Count         int
	P50, P95, P99 time.Duration
	Max           time.Duration
	// Wall is total end-to-end time summed over requests; Seg sums each
	// segment over the same requests (so Seg sums to Wall).
	Wall time.Duration
	Seg  map[string]time.Duration
}

// Summarize groups breakdowns by operation, sorted by name.
func Summarize(bds []Breakdown) []OpStats {
	byOp := make(map[string][]Breakdown)
	for _, bd := range bds {
		byOp[bd.Op] = append(byOp[bd.Op], bd)
	}
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	out := make([]OpStats, 0, len(ops))
	for _, op := range ops {
		group := byOp[op]
		totals := make([]time.Duration, 0, len(group))
		st := OpStats{Op: op, Count: len(group), Seg: make(map[string]time.Duration)}
		for _, bd := range group {
			totals = append(totals, bd.Total())
			st.Wall += bd.Total()
			for seg, d := range bd.Seg {
				st.Seg[seg] += d
			}
		}
		sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
		st.P50 = Percentile(totals, 0.50)
		st.P95 = Percentile(totals, 0.95)
		st.P99 = Percentile(totals, 0.99)
		st.Max = totals[len(totals)-1]
		out = append(out, st)
	}
	return out
}

// Percentile reads the q-quantile (0 < q <= 1) from an ascending-sorted
// slice using the nearest-rank method.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// FormatReport renders a deterministic attribution report: a per-op summary
// table (latency percentiles plus each segment's share of the op's total
// wall time) followed by per-request breakdowns of the top slowest requests.
func FormatReport(bds []Breakdown, top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CRITICAL-PATH ATTRIBUTION  (%d requests)\n", len(bds))
	if len(bds) == 0 {
		return b.String()
	}
	stats := Summarize(bds)
	fmt.Fprintf(&b, "%-12s %6s %12s %12s %12s", "OP", "N", "P50", "P95", "P99")
	for _, seg := range Segments {
		fmt.Fprintf(&b, " %13s", seg)
	}
	b.WriteByte('\n')
	for _, st := range stats {
		fmt.Fprintf(&b, "%-12s %6d %12s %12s %12s", st.Op, st.Count, st.P50, st.P95, st.P99)
		for _, seg := range Segments {
			share := 0.0
			if st.Wall > 0 {
				share = 100 * float64(st.Seg[seg]) / float64(st.Wall)
			}
			fmt.Fprintf(&b, " %12.1f%%", share)
		}
		b.WriteByte('\n')
	}

	slow := append([]Breakdown(nil), bds...)
	sort.Slice(slow, func(i, j int) bool {
		if slow[i].Total() != slow[j].Total() {
			return slow[i].Total() > slow[j].Total()
		}
		return slow[i].Req < slow[j].Req
	})
	if top <= 0 {
		top = 10
	}
	if top > len(slow) {
		top = len(slow)
	}
	fmt.Fprintf(&b, "\nSLOWEST %d REQUESTS\n", top)
	for _, bd := range slow[:top] {
		fmt.Fprintf(&b, "%-10s %-12s %-14s total=%-12s", obs.FormatReq(bd.Req), bd.Op, bd.Node, bd.Total())
		for _, seg := range Segments {
			if d := bd.Seg[seg]; d > 0 {
				fmt.Fprintf(&b, " %s=%s", seg, d)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Observatory incrementally exports attribution into a metrics registry:
// each Harvest analyzes the deployment's current spans and feeds requests it
// has not seen before into per-op, per-segment gvfs_attr_seconds histograms
// (nanosecond-valued, like every duration series in the registry), so
// repeated metric publishes never double-count a request.
type Observatory struct {
	mu    sync.Mutex
	reg   *obs.Registry
	seen  map[uint64]bool
	hists map[string]*obs.Histogram
}

// NewObservatory builds an observatory exporting into reg.
func NewObservatory(reg *obs.Registry) *Observatory {
	reg.SetHelp("gvfs_attr_seconds",
		"Critical-path latency attribution per op and segment (segment=total is end-to-end), in virtual nanoseconds.")
	return &Observatory{reg: reg, seen: make(map[uint64]bool), hists: make(map[string]*obs.Histogram)}
}

func (ob *Observatory) hist(op, seg string) *obs.Histogram {
	key := op + "\x00" + seg
	h, ok := ob.hists[key]
	if !ok {
		h = ob.reg.Histogram(obs.Label(obs.Label("gvfs_attr_seconds", "op", op), "segment", seg), obs.DurationBuckets)
		ob.hists[key] = h
	}
	return h
}

// Harvest analyzes spans, exports newly completed requests, and returns
// every breakdown found (new and already-seen alike).
func (ob *Observatory) Harvest(spans []obs.Span) []Breakdown {
	bds := Analyze(spans)
	if ob == nil {
		return bds
	}
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for _, bd := range bds {
		if ob.seen[bd.Req] {
			continue
		}
		ob.seen[bd.Req] = true
		for _, seg := range Segments {
			if d := bd.Seg[seg]; d > 0 {
				ob.hist(bd.Op, seg).ObserveDuration(d)
			}
		}
		ob.hist(bd.Op, "total").ObserveDuration(bd.Total())
	}
	return bds
}
