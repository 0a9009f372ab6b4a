package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sunrpc"
	"repro/internal/transport"
)

// The four hops of a session. Each is tapped at both ends: the dialling end
// sees a call leave and its reply arrive, the accepting end sees the call
// arrive and its reply leave.
type hopID uint8

const (
	hopK hopID = iota // generator ("kernel") -> proxy client
	hopW              // proxy client -> proxy server, the wide-area hop
	hopN              // proxy server -> NFS server
	hopB              // proxy server -> proxy client callback service
)

var hopNames = [...]string{"K", "W", "N", "B"}

// span is one RPC as seen at one end of one hop. At the dialling end it runs
// from the call entering Send to the reply leaving Recv; at the accepting end
// from the call leaving Recv to the reply entering Send, which is the
// accepting daemon's handling of the request. The difference between the two
// ends is the hop's wire time: framing, system calls, the loopback (or the
// injected delay) and the wake-up of the receiving goroutine.
type span struct {
	Hop        hopID
	Server     bool // recorded at the accepting end
	Prog, Proc uint32
	Req        uint64 // AuthTrace request ID shared by every hop of one request; 0 if none
	Start, End int64  // ns since the tracer's epoch
	CallBytes  int32
	ReplyBytes int32
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer owns every tap of one test bed. Taps record only while on.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu   sync.Mutex
	taps []*tapConn
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// conn taps one end of a connection; a nil tracer taps nothing.
func (t *tracer) conn(inner transport.Conn, hop hopID, server bool) transport.Conn {
	if t == nil {
		return inner
	}
	c := &tapConn{Conn: inner, tr: t, hop: hop, server: server, open: make(map[uint32]span)}
	t.mu.Lock()
	t.taps = append(t.taps, c)
	t.mu.Unlock()
	return c
}

// listener taps the accepting end of every connection l accepts.
func (t *tracer) listener(l transport.Listener, hop hopID) transport.Listener {
	if t == nil {
		return l
	}
	return &tapListener{Listener: l, tr: t, hop: hop}
}

// spans returns every completed span, ordered by start.
func (t *tracer) spans() []span {
	t.mu.Lock()
	taps := append([]*tapConn(nil), t.taps...)
	t.mu.Unlock()
	var out []span
	for _, c := range taps {
		c.mu.Lock()
		out = append(out, c.done...)
		c.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

type tapListener struct {
	transport.Listener
	tr  *tracer
	hop hopID
}

func (l *tapListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.tr.conn(c, l.hop, true), nil
}

type tapConn struct {
	transport.Conn
	tr     *tracer
	hop    hopID
	server bool

	mu   sync.Mutex
	open map[uint32]span // calls awaiting their reply, by XID
	done []span
}

func (c *tapConn) Send(msg []byte) error {
	if !c.tr.on.Load() {
		return c.Conn.Send(msg)
	}
	if h, ok := parseRPC(msg); ok {
		c.note(h, len(msg), c.tr.now())
	}
	return c.Conn.Send(msg)
}

func (c *tapConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil && c.tr.on.Load() {
		if h, ok := parseRPC(msg); ok {
			c.note(h, len(msg), c.tr.now())
		}
	}
	return msg, err
}

func (c *tapConn) note(h rpcHeader, n int, t int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !h.reply {
		c.open[h.xid] = span{
			Hop: c.hop, Server: c.server, Prog: h.prog, Proc: h.proc, Req: h.req,
			Start: t, CallBytes: int32(n),
		}
		return
	}
	if s, ok := c.open[h.xid]; ok {
		delete(c.open, h.xid)
		s.End, s.ReplyBytes = t, int32(n)
		c.done = append(c.done, s)
	}
}

// rpcHeader is what a tap reads from an RFC 5531 message.
type rpcHeader struct {
	xid        uint32
	reply      bool
	prog, proc uint32
	req        uint64
}

func parseRPC(b []byte) (rpcHeader, bool) {
	var h rpcHeader
	if len(b) < 8 {
		return h, false
	}
	h.xid = binary.BigEndian.Uint32(b)
	switch binary.BigEndian.Uint32(b[4:]) {
	case 1:
		h.reply = true
		return h, true
	case 0:
	default:
		return h, false
	}
	// xid, type, rpcvers, prog, vers, proc, cred flavor, cred length.
	if len(b) < 32 {
		return h, false
	}
	h.prog = binary.BigEndian.Uint32(b[12:])
	h.proc = binary.BigEndian.Uint32(b[20:])
	credLen := int(binary.BigEndian.Uint32(b[28:]))
	off := 32 + (credLen+3)&^3
	if credLen < 0 || off+16 > len(b) {
		return h, true // no verifier body: an untraced call
	}
	if binary.BigEndian.Uint32(b[off:]) == sunrpc.AuthTrace && binary.BigEndian.Uint32(b[off+4:]) == 8 {
		h.req = binary.BigEndian.Uint64(b[off+8:])
	}
	return h, true
}

// covered is how much of [lo, hi) the spans cover, overlaps counted once.
// It sorts kids in place.
func covered(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := lo
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// peakOverlap is the most spans open at one instant.
func peakOverlap(spans []span) int {
	type edge struct {
		t int64
		d int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		edges = append(edges, edge{s.Start, 1}, edge{s.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.d
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// layerTimes is the per-request decomposition the taps give: each daemon's
// self time, the time on each hop's wire, and callback spans, in ns.
type layerTimes struct {
	proxycSelf, proxydSelf, nfsdSpan []int64
	wire                             [3][]int64 // hopK, hopW, hopN: dialling-end span minus accepting-end span
	cbSpan, kernelSpan               []int64    // dialling-end spans of hop B and hop K
	forwarded, kernelCalls           int        // K requests with a W child, and all K requests
	wSpans                           []span     // dialling end of W, for pipeline depth
}

// decompose links spans across hops by request ID. A daemon's self time is
// its accepting-end span minus the part its own outgoing calls cover; a child
// belongs to the parent with the same request ID that was open when the child
// started (the latest such parent, same procedure preferred, so pipelined
// readahead and flush RPCs that share an ID are not counted twice).
func decompose(all []span) layerTimes {
	var lt layerTimes
	// groups[hop][end] holds the spans that carry a request ID, by that ID;
	// end 0 is the dialling end, 1 the accepting end.
	var groups [hopB + 1][2]map[uint64][]span
	for h := range groups {
		groups[h] = [2]map[uint64][]span{{}, {}}
	}
	for _, s := range all {
		if s.Req != 0 {
			end := 0
			if s.Server {
				end = 1
			}
			groups[s.Hop][end][s.Req] = append(groups[s.Hop][end][s.Req], s)
		}
	}
	byReq := func(hop hopID, server bool) map[uint64][]span {
		if server {
			return groups[hop][1]
		}
		return groups[hop][0]
	}
	// assign hands each child to one parent and returns children per parent index.
	assign := func(parents []span, kids []span) [][]span {
		out := make([][]span, len(parents))
		for _, k := range kids {
			best := -1
			for i, p := range parents {
				if k.Start < p.Start || k.Start > p.End {
					continue
				}
				if best < 0 {
					best = i
					continue
				}
				b := parents[best]
				pSame, bSame := p.Proc == k.Proc, b.Proc == k.Proc
				if (pSame && !bSame) || (pSame == bSame && p.Start > b.Start) {
					best = i
				}
			}
			if best >= 0 {
				out[best] = append(out[best], k)
			}
		}
		return out
	}
	selfTimes := func(parents, kids map[uint64][]span, onParent func(p span, kids []span)) []int64 {
		var out []int64
		for req, ps := range parents {
			ks := assign(ps, kids[req])
			for i, p := range ps {
				self := p.dur() - covered(ks[i], p.Start, p.End)
				out = append(out, self)
				if onParent != nil {
					onParent(p, ks[i])
				}
			}
		}
		return out
	}

	kSrv, wCli := byReq(hopK, true), byReq(hopW, false)
	wSrv, nCli, bCli := byReq(hopW, true), byReq(hopN, false), byReq(hopB, false)
	lt.proxycSelf = selfTimes(kSrv, wCli, func(_ span, kids []span) {
		lt.kernelCalls++
		if len(kids) > 0 {
			lt.forwarded++
		}
	})
	down := make(map[uint64][]span, len(nCli))
	for req, ks := range nCli {
		down[req] = append(down[req], ks...)
	}
	for req, ks := range bCli {
		down[req] = append(down[req], ks...)
	}
	lt.proxydSelf = selfTimes(wSrv, down, nil)

	// Wire time of a hop: pair the two ends of each RPC. Both ends see the
	// same calls in the same order on one connection, and request IDs are
	// shared, so pair by (request ID, order of start).
	for hop := hopK; hop <= hopN; hop++ {
		cli, srv := byReq(hop, false), byReq(hop, true)
		for req, cs := range cli {
			ss := srv[req]
			for i := 0; i < len(cs) && i < len(ss); i++ {
				lt.wire[hop] = append(lt.wire[hop], cs[i].dur()-ss[i].dur())
			}
		}
	}
	for _, s := range all {
		switch {
		case s.Hop == hopN && s.Server:
			lt.nfsdSpan = append(lt.nfsdSpan, s.dur())
		case s.Hop == hopB && !s.Server:
			lt.cbSpan = append(lt.cbSpan, s.dur())
		case s.Hop == hopK && !s.Server:
			lt.kernelSpan = append(lt.kernelSpan, s.dur())
		case s.Hop == hopW && !s.Server:
			lt.wSpans = append(lt.wSpans, s)
		}
	}
	return lt
}

// writeSpans dumps spans as JSON lines, hop names spelled out.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		end := "dial"
		if s.Server {
			end = "accept"
		}
		rec := struct {
			Hop, End   string
			Prog, Proc uint32
			Req        uint64
			StartNs    int64
			EndNs      int64
			CallBytes  int32
			ReplyBytes int32
		}{hopNames[s.Hop], end, s.Prog, s.Proc, s.Req, s.Start, s.End, s.CallBytes, s.ReplyBytes}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
