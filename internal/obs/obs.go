package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one traced operation at one node. A request minted at the kernel
// client keeps its ReqID as it crosses the proxy client, the simulated WAN,
// the proxy server, and the NFS server, so sorting the spans that share a
// ReqID (or a file handle) by virtual start time reconstructs the causal
// chain. Background work spawned on behalf of a request (readahead,
// recall-triggered flushes) records the triggering request in Parent.
//
// What a span says beyond its operation is values, each zero when it does
// not apply; FormatSpans alone renders them as text.
type Span struct {
	Req    uint64 `json:"req"`
	Parent uint64 `json:"parent,omitempty"`
	Node   string `json:"node"`
	Op     string `json:"op"`
	FH     string `json:"fh,omitempty"`
	Model  string `json:"model,omitempty"`
	Note   Note   `json:"note,omitempty"`
	// A call's same-XID resends, its TryLater replies, and its stall.
	Retransmits int           `json:"retransmits,omitempty"`
	Sheds       int           `json:"sheds,omitempty"`
	Stall       time.Duration `json:"stall,omitempty"`  // from its first transmission to its last
	Queued      time.Duration `json:"queued,omitempty"` // a pooled serve's wait for a worker slot
	Window      int           `json:"window,omitempty"` // a READAHEAD's window, and the blocks its READ asked for
	Blocks      int           `json:"blocks,omitempty"`
	Bytes       int64         `json:"bytes,omitempty"`
	Start       time.Duration `json:"start"`
	End         time.Duration `json:"end"`
	Err         string        `json:"err,omitempty"`
}

// Note is a span's one-word reason: how a proxy answered a call, which kind
// of prefetch a READAHEAD was, or why a server shed a call.
type Note string

const (
	NoteHit            Note = "hit"         // answered from the proxy client's cache
	NoteForward        Note = "forward"     // crossed the wide area
	NoteJoin           Note = "join"        // a demand read that rode an in-flight readahead
	NoteLocal          Note = "local"       // a COMMIT with nothing left to make stable
	NoteForce          Note = "force"       // a GETINV reply that force-invalidates
	NoteNext           Note = "next"        // readahead spilling into the next file
	NoteReopen         Note = "reopen"      // readahead of a rewritten file's head
	NoteShedRate       Note = "rate"        // shed: the server's token bucket was empty
	NoteShedClientRate Note = "client-rate" // shed: the client's token bucket was empty
	NoteShedOverflow   Note = "overflow"    // shed: the oldest request of a full queue
)

// shed reports whether n is a server's reason to shed a call.
func (n Note) shed() bool {
	return n == NoteShedRate || n == NoteShedClientRate || n == NoteShedOverflow
}

// Tracer is a bounded per-node ring buffer of spans.
type Tracer struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	n     int
	total uint64
}

// newTracer sizes a span ring. Zero picks the default; a negative size
// disables tracing entirely (nil tracer, every method is a nil-safe no-op),
// which lets hot paths skip building span labels — see Node.Tracing.
func newTracer(size int) *Tracer {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = 1024
	}
	return &Tracer{buf: make([]Span, size)}
}

// Record appends a span, evicting the oldest when full. It reports whether
// this insert overwrote a span nobody has drained — the signal behind the
// gvfs_obs_spans_dropped_total counter, so truncated traces are never
// silently mistaken for complete ones.
func (t *Tracer) Record(s Span) (evicted bool) {
	if t == nil {
		return false
	}
	t.mu.Lock()
	evicted = t.n == len(t.buf)
	t.buf[t.next] = s
	t.next = (t.next + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
	t.total++
	t.mu.Unlock()
	return evicted
}

// Spans returns retained spans oldest-first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Dropped reports how many spans were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(t.n)
}

// Obs ties a virtual clock, a metrics registry, and per-node tracers
// together for one deployment.
type Obs struct {
	now      func() time.Duration
	reg      *Registry
	ringSize int

	mu    sync.Mutex
	nodes map[string]*Node
	order []*Node
}

// New creates an Obs reading virtual time from now (may be nil, in which
// case all timestamps are zero). ringSize bounds each node's span ring.
func New(now func() time.Duration, ringSize int) *Obs {
	return &Obs{now: now, reg: NewRegistry(), ringSize: ringSize, nodes: make(map[string]*Node)}
}

// Now reads the virtual clock.
func (o *Obs) Now() time.Duration {
	if o == nil || o.now == nil {
		return 0
	}
	return o.now()
}

// Registry returns the shared metrics registry.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Node returns the named node handle, creating it on first use. Node IDs —
// the high bits of minted request IDs — are assigned in creation order, so
// deployments that construct their topology deterministically mint
// deterministic request IDs.
func (o *Obs) Node(name string) *Node {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	n, ok := o.nodes[name]
	if !ok {
		n = &Node{o: o, name: name, id: uint64(len(o.order) + 1), tr: newTracer(o.ringSize)}
		if n.tr != nil {
			o.reg.SetHelp("gvfs_obs_spans_dropped_total",
				"Spans evicted from a node's bounded ring before being drained; nonzero means traces are incomplete.")
			n.drops = o.reg.Counter(Label("gvfs_obs_spans_dropped_total", "node", name))
		}
		o.nodes[name] = n
		o.order = append(o.order, n)
	}
	return n
}

// DroppedSpans sums ring evictions across every node: how many spans the
// bounded rings have overwritten since the deployment started.
func (o *Obs) DroppedSpans() uint64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	nodes := append([]*Node(nil), o.order...)
	o.mu.Unlock()
	var total uint64
	for _, n := range nodes {
		total += n.tr.Dropped()
	}
	return total
}

// Spans returns every retained span across all nodes in canonical order.
func (o *Obs) Spans() []Span {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	nodes := append([]*Node(nil), o.order...)
	o.mu.Unlock()
	var out []Span
	for _, n := range nodes {
		out = append(out, n.tr.Spans()...)
	}
	SortSpans(out)
	return out
}

// SpansForFH returns the last max spans (canonical order) whose FH matches
// key, or all of them when max <= 0.
func (o *Obs) SpansForFH(key string, max int) []Span {
	all := o.Spans()
	var out []Span
	for _, s := range all {
		if s.FH == key {
			out = append(out, s)
		}
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// SpansForReq returns all retained spans carrying the given request ID (as
// Req or Parent), in canonical order.
func (o *Obs) SpansForReq(req uint64) []Span {
	all := o.Spans()
	var out []Span
	for _, s := range all {
		if s.Req == req || s.Parent == req {
			out = append(out, s)
		}
	}
	return out
}

// SortSpans orders spans canonically: by virtual start, then end, node,
// request ID, and op. The order is independent of ring-buffer arrival
// interleaving, which the Go scheduler does not make deterministic.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Req != b.Req {
			return a.Req < b.Req
		}
		return a.Op < b.Op
	})
}

// Node is a named component handle: it mints request IDs and records spans
// into its own ring buffer.
type Node struct {
	o     *Obs
	name  string
	id    uint64
	mu    sync.Mutex
	seq   uint64
	tr    *Tracer
	drops *Counter
}

// Name returns the node's name.
func (n *Node) Name() string {
	if n == nil {
		return ""
	}
	return n.name
}

// Mint returns a fresh request ID: the node ID in the high 16 bits, a
// per-node sequence number below. IDs are never zero; zero means "untraced".
func (n *Node) Mint() uint64 {
	if n == nil {
		return 0
	}
	n.mu.Lock()
	n.seq++
	id := n.id<<48 | n.seq&(1<<48-1)
	n.mu.Unlock()
	return id
}

// Now reads the deployment's virtual clock.
func (n *Node) Now() time.Duration {
	if n == nil {
		return 0
	}
	return n.o.Now()
}

// Registry returns the deployment's registry.
func (n *Node) Registry() *Registry {
	if n == nil {
		return nil
	}
	return n.o.Registry()
}

// Record stores a span, stamping the node name. Ring overwrites of unread
// spans bump the node's gvfs_obs_spans_dropped_total series.
func (n *Node) Record(s Span) {
	if n == nil {
		return
	}
	s.Node = n.name
	if n.tr.Record(s) {
		n.drops.Inc()
	}
}

// Tracing reports whether spans recorded at this node are retained. Hot
// paths use it to skip computing span labels (handle formatting) when no
// tracer will keep them.
func (n *Node) Tracing() bool {
	return n != nil && n.tr != nil
}

// Tracer exposes the node's ring buffer.
func (n *Node) Tracer() *Tracer {
	if n == nil {
		return nil
	}
	return n.tr
}

// FormatReq renders a request ID as "<node>.<seq>" for human output.
func FormatReq(id uint64) string {
	if id == 0 {
		return "-"
	}
	return fmt.Sprintf("%d.%d", id>>48, id&(1<<48-1))
}

// FormatSpans renders spans as an aligned, deterministic text table. Spans
// are sorted canonically first. An optional dropped count (summed when
// several are passed — typically Obs.DroppedSpans) prefixes the table with a
// header marking the trace incomplete when ring overwrites lost spans.
func FormatSpans(spans []Span, dropped ...uint64) string {
	cp := append([]Span(nil), spans...)
	SortSpans(cp)
	var b strings.Builder
	var lost uint64
	for _, d := range dropped {
		lost += d
	}
	if lost > 0 {
		fmt.Fprintf(&b, "# TRACE INCOMPLETE: %d spans dropped by bounded rings\n", lost)
	}
	fmt.Fprintf(&b, "%-14s %-14s %-10s %-22s %-20s %-30s %-10s %-12s %8s %s\n",
		"START", "END", "REQ", "NODE", "OP", "FH", "MODEL", "DETAIL", "BYTES", "ERR")
	for _, s := range cp {
		req := FormatReq(s.Req)
		if s.Parent != 0 {
			req += "<" + FormatReq(s.Parent)
		}
		fmt.Fprintf(&b, "%-14s %-14s %-10s %-22s %-20s %-30s %-10s %-12s %8d %s\n",
			s.Start, s.End, req, s.Node, s.Op, s.FH, s.Model, s.detail(), s.Bytes, s.Err)
	}
	return b.String()
}

// detail renders a span's values as its DETAIL column: the readahead window,
// the note, then the call's and the serve's waits.
func (s *Span) detail() string {
	var b strings.Builder
	add := func(on bool, format string, v any) {
		if on {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, format, v)
		}
	}
	add(s.Window > 0, "win=%d", s.Window)
	add(s.Blocks > 0, "blocks=%d", s.Blocks)
	add(s.Note.shed(), "shed=%v", s.Note)
	add(s.Note != "" && !s.Note.shed(), "%v", s.Note)
	add(s.Retransmits > 0, "retransmit=%d", s.Retransmits)
	add(s.Sheds > 0, "shed=%d", s.Sheds)
	add(s.Stall > 0, "stall=%v", s.Stall)
	add(s.Queued > 0, "queued=%v", s.Queued)
	return b.String()
}
