package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/transport"
	"repro/internal/vclock"
)

const (
	tblBS     = 4096
	tblExpiry = time.Minute
)

// tableServer is a ProxyServer with nothing but its sharer table: no network,
// no clock, no metrics. The transitions need no more.
func tableServer(ids ...string) *ProxyServer {
	s := &ProxyServer{
		cfg:     Config{BlockSize: tblBS, DelegExpiry: tblExpiry, MaxOpenFiles: 16},
		clients: make(map[string]*clientState),
		files:   make(map[string]*fileState),
	}
	s.lru.init()
	for _, id := range ids {
		s.clients[id] = &clientState{rec: ClientRecord{ID: id, CallbackAddr: id + ":5007"}}
	}
	return s
}

func off(block uint64) *uint64 { o := block * tblBS; return &o }

// describeReqs renders recalls as "A:write A:none@4096 B:read/closed", and an
// access joining the recall on the wire to A as "A:joined".
func describeReqs(reqs []recallReq) string {
	var out []string
	for _, r := range reqs {
		d := r.c.rec.ID + ":" + r.args.Deleg.String()
		if r.joined {
			out = append(out, r.c.rec.ID+":joined")
			continue
		}
		if r.args.HasOffset {
			d += fmt.Sprintf("@%d", r.args.Offset/tblBS)
		}
		if r.closed {
			d += "/closed"
		}
		out = append(out, d)
	}
	return strings.Join(out, " ")
}

// describeFile renders fh's row as "A=none+owes(1,2) B=read C=none+fence
// D=write+recalling" (a recall of D's delegation on the wire), "" when the
// file is not in the table.
func describeFile(s *ProxyServer, fh nfs3.FH) string {
	f := s.files[fh.Key()]
	if f == nil {
		return ""
	}
	var out []string
	for _, id := range sortedKeys(f.sharers) {
		sh := f.sharers[id]
		d := id + "=" + sh.deleg.String()
		if len(sh.pending) > 0 {
			var bns []string
			for bn := uint64(0); bn < 16; bn++ {
				if sh.pending[bn*tblBS] {
					bns = append(bns, fmt.Sprint(bn))
				}
			}
			d += "+owes(" + strings.Join(bns, ",") + ")"
		}
		if sh.lostRecall {
			d += "+fence"
		}
		if sh.recall != nil {
			d += "+recalling"
		}
		out = append(out, d)
	}
	return strings.Join(out, " ")
}

// outcome is how the test settles one client's recall.
type outcome int

const (
	acked outcome = iota
	ackedOwing
	lost
)

func (o outcome) res() *RecallRes {
	switch o {
	case acked:
		return &RecallRes{Status: nfs3.OK}
	case ackedOwing:
		return &RecallRes{Status: nfs3.OK, Pending: []uint64{1 * tblBS, 2*tblBS + 17}}
	}
	return nil
}

// tableDriver runs requests through the transitions in the order
// handleAccess, revokeOthers and expiryLoop do, with the network replaced by
// a verdict per recalled client (acked unless told otherwise). onWire holds
// recalls a state left unanswered; an access that joins one has it answered.
type tableDriver struct {
	s       *ProxyServer
	now     time.Duration
	answers map[string]outcome
	onWire  []recallReq
}

func (d *tableDriver) settle(reqs []recallReq) {
	for _, r := range reqs {
		if r.joined {
			i := slices.IndexFunc(d.onWire, func(w recallReq) bool { return w.flight == r.flight })
			if i < 0 {
				continue
			}
			r = d.onWire[i]
			d.onWire = slices.Delete(d.onWire, i, i+1)
		}
		d.s.settleLocked(r, d.answers[r.c.rec.ID].res(), d.now)
	}
}

// access is handleAccess: what was recalled or joined, and the grant
// ("fenced" for a refused WRITE).
func (d *tableDriver) access(id string, a accessReq) (recalls, grant string) {
	c := d.s.clients[id]
	reqs, fenced := d.s.accessLocked(c, a, d.now)
	if fenced {
		return "", "fenced"
	}
	var all []recallReq
	for len(reqs) > 0 {
		all = append(all, reqs...)
		d.settle(reqs)
		if f := d.s.files[a.fh.Key()]; f != nil && slices.ContainsFunc(reqs, func(r recallReq) bool { return r.joined }) {
			reqs = d.s.conflictsLocked(f, id, a)
		} else {
			reqs = nil
		}
	}
	granted, _ := d.s.grantLocked(c, a, d.now)
	return describeReqs(all), granted.String()
}

// sweep is one turn of expiryLoop.
func (d *tableDriver) sweep() string {
	reqs := d.s.sweepLocked(d.now)
	d.settle(reqs)
	return describeReqs(reqs)
}

// TestSharerStateMachine walks DESIGN.md's server-side table: every state of
// one file's row x every event, asserting the recalls demanded, the
// delegation granted (cacheable is granted != none, by construction of the
// trailer) and who is in the table afterwards. A, B are the clients that
// built the state; C is a newcomer.
func TestSharerStateMachine(t *testing.T) {
	fh := fhN(7)
	rd := func(block uint64) accessReq { return accessReq{fh: fh, offset: off(block)} }
	wr := func(block uint64) accessReq { return accessReq{fh: fh, write: true, offset: off(block)} }

	states := []struct {
		name  string
		build func(d *tableDriver)
		row   string
	}{
		{"nobody", func(d *tableDriver) {}, ""},
		{"one reader", func(d *tableDriver) { d.access("A", rd(0)) }, "A=read"},
		{"two readers", func(d *tableDriver) { d.access("A", rd(0)); d.access("B", rd(0)) }, "A=read B=read"},
		{"one writer", func(d *tableDriver) { d.access("A", wr(0)) }, "A=write"},
		{"recalled writer owing blocks", func(d *tableDriver) {
			d.access("A", wr(0))
			d.answers["A"] = ackedOwing
			d.access("B", rd(0))
			d.answers["A"] = acked
		}, "A=none+owes(1,2) B=none"},
		{"fenced writer", func(d *tableDriver) {
			d.access("A", wr(0))
			d.answers["A"] = lost
			d.access("B", rd(0))
			d.answers["A"] = acked
		}, "A=none+fence B=read"},
		{"idle holder", func(d *tableDriver) { d.access("A", rd(0)); d.now += tblExpiry + 1 }, "A=read"},
		{"writer with a recall on the wire", func(d *tableDriver) {
			d.access("A", wr(0))
			d.onWire, _ = d.s.accessLocked(d.s.clients["B"], rd(0), d.now)
		}, "A=write+recalling B=none"},
	}

	type result struct{ recalls, grant, row string }
	events := []struct {
		name string
		do   func(d *tableDriver) result
	}{
		{"C reads block 0", func(d *tableDriver) result {
			r, g := d.access("C", rd(0))
			return result{r, g, ""}
		}},
		{"C reads block 1", func(d *tableDriver) result {
			r, g := d.access("C", rd(1))
			return result{r, g, ""}
		}},
		{"C writes, recalls acknowledged", func(d *tableDriver) result {
			r, g := d.access("C", wr(0))
			return result{r, g, ""}
		}},
		{"C writes, A answers owing blocks", func(d *tableDriver) result {
			d.answers["A"] = ackedOwing
			r, g := d.access("C", wr(0))
			return result{r, g, ""}
		}},
		{"C writes, A never answers", func(d *tableDriver) result {
			d.answers["A"] = lost
			r, g := d.access("C", wr(0))
			return result{r, g, ""}
		}},
		{"A's WRITE of block 1 arrives and lands", func(d *tableDriver) result {
			r, g := d.access("A", wr(1))
			if g == "fenced" {
				return result{r, g, ""}
			}
			return result{r + describeReqs(d.s.committedLocked("A", wr(1))), g, ""}
		}},
		{"everyone idles past expiry", func(d *tableDriver) result {
			d.now += tblExpiry + 1
			return result{d.sweep(), "", ""}
		}},
		{"everyone idles past expiry, A never answers", func(d *tableDriver) result {
			d.now += tblExpiry + 1
			d.answers["A"] = lost
			return result{d.sweep(), "", ""}
		}},
		{"over budget", func(d *tableDriver) result {
			d.s.cfg.MaxOpenFiles = 0
			return result{d.sweep(), "", ""}
		}},
		{"over budget, A answers owing blocks", func(d *tableDriver) result {
			d.s.cfg.MaxOpenFiles = 0
			d.answers["A"] = ackedOwing
			return result{d.sweep(), "", ""}
		}},
		{"the server restarts; A reports the file dirty", func(d *tableDriver) result {
			d.s = tableServer("A", "B", "C")
			d.s.rebuildLocked(d.s.clients["A"], fh, d.now)
			return result{}
		}},
	}

	// want[state][i] is events[i] in that state: the recalls demanded, in
	// order ("client:what is recalled@block/closed"); the grant; the row
	// afterwards.
	want := map[string][]result{
		"nobody": {
			{"", "read", "C=read"},   // C reads block 0
			{"", "read", "C=read"},   // C reads block 1
			{"", "write", "C=write"}, // C writes, recalls acknowledged
			{"", "write", "C=write"}, // C writes, A answers owing blocks
			{"", "write", "C=write"}, // C writes, A never answers
			{"", "write", "A=write"}, // A's WRITE of block 1 arrives and lands
			{"", "", ""},             // everyone idles past expiry
			{"", "", ""},             // everyone idles past expiry, A never answers
			{"", "", ""},             // over budget
			{"", "", ""},             // over budget, A answers owing blocks
			{"", "", "A=write"},      // the server restarts; A reports the file dirty
		},
		"one reader": {
			{"", "read", "A=read C=read"},                   // C reads block 0
			{"", "read", "A=read C=read"},                   // C reads block 1
			{"A:read@0", "none", "A=none C=none"},           // C writes, recalls acknowledged
			{"A:read@0", "none", "A=none+owes(1,2) C=none"}, // C writes, A answers owing blocks
			{"A:read@0", "none", "A=none C=none"},           // C writes, A never answers
			{"", "write", "A=write"},                        // A's WRITE of block 1 arrives and lands
			{"A:read/closed", "", ""},                       // everyone idles past expiry
			{"A:read/closed", "", ""},                       // everyone idles past expiry, A never answers
			{"A:read/closed", "", ""},                       // over budget
			{"A:read/closed", "", "A=none+owes(1,2)"},       // over budget, A answers owing blocks
			{"", "", "A=write"},                             // the server restarts; A reports the file dirty
		},
		"two readers": {
			{"", "read", "A=read B=read C=read"},                            // C reads block 0
			{"", "read", "A=read B=read C=read"},                            // C reads block 1
			{"A:read@0 B:read@0", "none", "A=none B=none C=none"},           // C writes, recalls acknowledged
			{"A:read@0 B:read@0", "none", "A=none+owes(1,2) B=none C=none"}, // C writes, A answers owing blocks
			{"A:read@0 B:read@0", "none", "A=none B=none C=none"},           // C writes, A never answers
			{"B:read@1", "none", "A=none B=none"},                           // A's WRITE of block 1 arrives and lands
			{"A:read/closed B:read/closed", "", ""},                         // everyone idles past expiry
			{"A:read/closed B:read/closed", "", ""},                         // everyone idles past expiry, A never answers
			{"A:read/closed B:read/closed", "", ""},                         // over budget
			{"A:read/closed B:read/closed", "", "A=none+owes(1,2)"},         // over budget, A answers owing blocks
			{"", "", "A=write"},                                             // the server restarts; A reports the file dirty
		},
		"one writer": {
			{"A:write@0", "read", "A=none C=read"},           // C reads block 0
			{"A:write@1", "read", "A=none C=read"},           // C reads block 1
			{"A:write@0", "none", "A=none C=none"},           // C writes, recalls acknowledged
			{"A:write@0", "none", "A=none+owes(1,2) C=none"}, // C writes, A answers owing blocks
			{"A:write@0", "none", "A=none+fence C=none"},     // C writes, A never answers
			{"", "write", "A=write"},                         // A's WRITE of block 1 arrives and lands
			{"A:write/closed", "", ""},                       // everyone idles past expiry
			{"A:write/closed", "", "A=none+fence"},           // everyone idles past expiry, A never answers
			{"A:write/closed", "", ""},                       // over budget
			{"A:write/closed", "", "A=none+owes(1,2)"},       // over budget, A answers owing blocks
			{"", "", "A=write"},                              // the server restarts; A reports the file dirty
		},
		"recalled writer owing blocks": {
			{"", "none", "A=none+owes(1,2) B=none C=none"},         // C reads block 0
			{"A:none@1", "none", "A=none+owes(1,2) B=none C=none"}, // C reads block 1
			{"", "none", "A=none+owes(1,2) B=none C=none"},         // C writes, recalls acknowledged
			{"", "none", "A=none+owes(1,2) B=none C=none"},         // C writes, A answers owing blocks
			{"", "none", "A=none+owes(1,2) B=none C=none"},         // C writes, A never answers
			{"", "none", "A=none+owes(2) B=none"},                  // A's WRITE of block 1 arrives and lands
			{"", "", ""},                                           // everyone idles past expiry
			{"", "", ""},                                           // everyone idles past expiry, A never answers
			{"", "", ""},                                           // over budget
			{"", "", ""},                                           // over budget, A answers owing blocks
			{"", "", "A=write"},                                    // the server restarts; A reports the file dirty
		},
		"fenced writer": {
			{"", "read", "A=none+fence B=read C=read"},         // C reads block 0
			{"", "read", "A=none+fence B=read C=read"},         // C reads block 1
			{"B:read@0", "none", "A=none+fence B=none C=none"}, // C writes, recalls acknowledged
			{"B:read@0", "none", "A=none+fence B=none C=none"}, // C writes, A answers owing blocks
			{"B:read@0", "none", "A=none+fence B=none C=none"}, // C writes, A never answers
			{"", "fenced", "A=none B=read"},                    // A's WRITE of block 1 arrives and lands
			{"B:read/closed", "", ""},                          // everyone idles past expiry
			{"B:read/closed", "", ""},                          // everyone idles past expiry, A never answers
			{"B:read/closed", "", ""},                          // over budget
			{"B:read/closed", "", ""},                          // over budget, A answers owing blocks
			{"", "", "A=write"},                                // the server restarts; A reports the file dirty
		},
		"idle holder": {
			{"", "read", "A=read C=read"},                   // C reads block 0
			{"", "read", "A=read C=read"},                   // C reads block 1
			{"A:read@0", "none", "A=none C=none"},           // C writes, recalls acknowledged
			{"A:read@0", "none", "A=none+owes(1,2) C=none"}, // C writes, A answers owing blocks
			{"A:read@0", "none", "A=none C=none"},           // C writes, A never answers
			{"", "write", "A=write"},                        // A's WRITE of block 1 arrives and lands
			{"A:read/closed", "", ""},                       // everyone idles past expiry
			{"A:read/closed", "", ""},                       // everyone idles past expiry, A never answers
			{"A:read/closed", "", ""},                       // over budget
			{"A:read/closed", "", "A=none+owes(1,2)"},       // over budget, A answers owing blocks
			{"", "", "A=write"},                             // the server restarts; A reports the file dirty
		},
		// A conflicting access joins the recall B's read put on the wire and is
		// decided once it has settled; the sweep leaves A's delegation to it.
		"writer with a recall on the wire": {
			{"A:joined", "read", "A=none B=none C=read"},           // C reads block 0
			{"A:joined", "read", "A=none B=none C=read"},           // C reads block 1
			{"A:joined", "none", "A=none B=none C=none"},           // C writes, recalls acknowledged
			{"A:joined", "none", "A=none+owes(1,2) B=none C=none"}, // C writes, A answers owing blocks
			{"A:joined", "none", "A=none+fence B=none C=none"},     // C writes, A never answers
			{"", "none", "A=none+recalling B=none"},                // A's WRITE of block 1 arrives and lands
			{"", "", "A=write+recalling"},                          // everyone idles past expiry
			{"", "", "A=write+recalling"},                          // everyone idles past expiry, A never answers
			{"", "", "A=write+recalling"},                          // over budget
			{"", "", "A=write+recalling"},                          // over budget, A answers owing blocks
			{"", "", "A=write"},                                    // the server restarts; A reports the file dirty
		},
	}

	for _, st := range states {
		for i, ev := range events {
			d := &tableDriver{s: tableServer("A", "B", "C"), answers: map[string]outcome{}}
			st.build(d)
			if row := describeFile(d.s, fh); row != st.row {
				t.Fatalf("state %q builds row %q, want %q", st.name, row, st.row)
			}
			got := ev.do(d)
			got.row = describeFile(d.s, fh)
			if got != want[st.name][i] {
				t.Errorf("%s / %s:\n got %q\nwant %q", st.name, ev.name, got, want[st.name][i])
			}
			if err := checkSharerTable(d.s); err != nil {
				t.Errorf("%s / %s: %v", st.name, ev.name, err)
			}
		}
	}
}

// TestFenceOutlivesTheSweepThatLeftIt: what an unreachable writer owes is
// kept for a full DelegExpiry from the settling of its recall — not dropped by
// the next sweep as an idle sharer holding nothing, and not kept for ever.
// While it is kept it denies others the write delegation, like any sharer.
func TestFenceOutlivesTheSweepThatLeftIt(t *testing.T) {
	fh := fhN(7)
	wr := accessReq{fh: fh, write: true, offset: off(0)}
	d := &tableDriver{s: tableServer("A", "B"), answers: map[string]outcome{"A": lost}}
	d.access("A", wr)
	d.now += tblExpiry + 1
	if got := d.sweep(); got != "A:write/closed" {
		t.Fatalf("the idle sweep recalled %q", got)
	}
	settled := d.now
	for d.now += tblExpiry / 4; d.now <= settled+tblExpiry; d.now += tblExpiry / 4 {
		if got := d.sweep(); got != "" || describeFile(d.s, fh) != "A=none+fence" {
			t.Fatalf("%v after the lost recall settled: sweep recalled %q, row %q", d.now-settled, got, describeFile(d.s, fh))
		}
	}
	if _, grant := d.access("B", wr); grant != "none" {
		t.Errorf("B was granted %q beside a fenced sharer", grant)
	}
	if _, grant := d.access("A", wr); grant != "fenced" {
		t.Errorf("A's write-back got %q, want it fenced", grant)
	}
	if _, grant := d.access("A", wr); grant != "none" {
		t.Errorf("A's next WRITE got %q: the fence is one-shot, and B is a sharer", grant)
	}
	d.now += tblExpiry + 1
	d.sweep()
	if row := describeFile(d.s, fh); row != "" {
		t.Errorf("row %q survives a further DelegExpiry of silence", row)
	}
}

// TestSweepRecallDisprovedByTheSharersOwnAccess: the sweep speculates a
// writer gone and asks for its delegation (once, however many sweeps pass
// before the answer); the writer's write-back WRITE arrives first, and as the
// sole sharer it is granted the delegation again, which its proxy client
// honours. Whatever the recall's answer then says describes a delegation it no
// longer holds: the sharer stays, holding what it was granted since.
func TestSweepRecallDisprovedByTheSharersOwnAccess(t *testing.T) {
	fh := fhN(7)
	wr := accessReq{fh: fh, write: true, offset: off(0)}
	for _, answer := range []outcome{acked, ackedOwing, lost} {
		d := &tableDriver{s: tableServer("A", "B"), answers: map[string]outcome{"A": answer}}
		d.access("A", wr)
		d.s.cfg.MaxOpenFiles = 0
		reqs := d.s.sweepLocked(d.now)
		if got := describeReqs(reqs); got != "A:write/closed" {
			t.Fatalf("the sweep recalled %q", got)
		}
		if again := d.s.sweepLocked(d.now); len(again) != 0 {
			t.Errorf("a second sweep recalled %q again before the first answer", describeReqs(again))
		}
		if _, grant := d.access("A", wr); grant != "write" {
			t.Fatalf("A's write-back was granted %q", grant)
		}
		d.settle(reqs)
		if row := describeFile(d.s, fh); row != "A=write" {
			t.Errorf("answer %d: row %q after the settle, want A still the writer", answer, row)
		}
	}
}

// TestRecallSettlesTheSameForEveryReason takes A's write delegation back for
// each of the four reasons the server has — a conflicting access, the sweep
// after a destructive operation commits, idleness, the state budget — through
// the real recall routine and a callback service that answers with a pending
// list, or cannot be reached. Whatever the reason, A is left the same: no
// delegation, and the blocks it owes or the fence.
func TestRecallSettlesTheSameForEveryReason(t *testing.T) {
	fh := fhN(7)
	inline := func(fn func()) { fn() }
	reasons := []struct {
		name string
		take func(s *ProxyServer, b *clientState)
	}{
		{"conflict", func(s *ProxyServer, b *clientState) {
			s.handleAccess(2, b, accessReq{fh: fh, offset: off(0)}, inline)
		}},
		{"post-commit sweep", func(s *ProxyServer, b *clientState) {
			s.revokeOthers(2, b, accessReq{fh: fh, write: true}, inline)
		}},
		{"idle", func(s *ProxyServer, _ *clientState) {
			s.clk.Sleep(tblExpiry + 1)
			sweepOnce(s)
		}},
		{"eviction", func(s *ProxyServer, _ *clientState) {
			s.cfg.MaxOpenFiles = 0
			sweepOnce(s)
		}},
	}
	for _, answer := range []struct {
		name      string
		reachable bool
		want      string
	}{
		{"answers owing blocks", true, "A=none+owes(1,2)"},
		{"never answers", false, "A=none+fence"},
	} {
		for _, reason := range reasons {
			t.Run(reason.name+", "+answer.name, func(t *testing.T) {
				clk := vclock.NewVirtual()
				defer clk.Stop()
				net := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
				served := 0
				cb := sunrpc.NewServer(clk)
				cb.Register(CallbackProgram, CallbackVersion, func(call *sunrpc.Call) sunrpc.AcceptStat {
					served++
					return encodeReply(call, ackedOwing.res())
				})
				defer cb.Close()
				done := make(chan struct{})
				clk.Go("driver", func() {
					defer close(done)
					l, err := net.Host("A").Listen(":5007")
					if err != nil {
						t.Error(err)
						return
					}
					cb.Serve(l)
					o := obs.New(clk.Now, 16)
					s := tableServer("A", "B")
					s.clk, s.node, s.met = clk, o.Node("proxyd:t"), newServerMetrics(o.Registry(), "t")
					s.cfg = Config{BlockSize: tblBS, DelegExpiry: tblExpiry, MaxOpenFiles: 16, CallTimeout: 2 * time.Second}
					s.dial = func(addr string) (transport.Conn, error) { return net.Host("server").Dial(addr) }

					if tr, _, _ := s.handleAccess(1, s.clients["A"], accessReq{fh: fh, write: true, offset: off(0)}, inline); tr.Deleg != DelegWrite {
						t.Errorf("A was granted %v", tr.Deleg)
						return
					}
					if !answer.reachable {
						net.Partition("server", "A")
					}
					reason.take(s, s.clients["B"])

					s.mu.Lock()
					row, err := describeFile(s, fh), checkSharerTable(s)
					s.mu.Unlock()
					if a, _, _ := strings.Cut(row, " "); a != answer.want {
						t.Errorf("A is left as %q (row %q), want %q", a, row, answer.want)
					}
					if err != nil {
						t.Error(err)
					}
					if sent := s.met.callbacksSent.Value(); sent != 1 || answer.reachable && served != 1 {
						t.Errorf("%d callbacks sent, %d served; want one recall", sent, served)
					}
				})
				<-done
			})
		}
	}
}

// sweepOnce is one turn of expiryLoop.
func sweepOnce(s *ProxyServer) {
	s.mu.Lock()
	reqs := s.sweepLocked(s.clk.Now())
	s.mu.Unlock()
	s.recall(s.node.Mint(), reqs)
}

// TestSharerTableRaces has three clients' accesses, the sweep and the
// settling of the recalls both demand work a handful of files at once, for
// the race detector; the table's invariants are checked throughout and at the
// end. Every actor works at least `rounds` turns and then goes on, up to
// maxRounds, until a WRITE has been fenced: how soon a lost recall's holder
// writes again is the scheduler's doing, and a run that stopped at a fixed
// count found none about once in 300.
func TestSharerTableRaces(t *testing.T) {
	const rounds, maxRounds = 3000, 100 * 3000
	s := tableServer("A", "B", "C")
	s.cfg.MaxOpenFiles = 2
	var tick atomic.Int64
	now := func() time.Duration { return time.Duration(tick.Add(1)) * time.Second }
	// Recalls wait here for the settler, as they would on the wire. The
	// producers never block on it: a full queue settles the recall as lost.
	queue := make(chan recallReq, 64)
	send := func(reqs []recallReq) {
		for _, r := range reqs {
			select {
			case queue <- r:
			default:
				s.mu.Lock()
				s.settleLocked(r, nil, now())
				s.mu.Unlock()
			}
		}
	}
	fail := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}

	var fences atomic.Int64
	working := func(turn int) bool {
		return turn < rounds || fences.Load() == 0 && turn < maxRounds
	}
	var producers, settler sync.WaitGroup
	for i, id := range []string{"A", "B", "C"} {
		producers.Add(1)
		go func() {
			defer producers.Done()
			c := s.clients[id]
			for n := i; working(n - i); n++ {
				// Each client works its own file and now and then reads a
				// neighbour's: a writer is alone long enough to be granted,
				// then recalled, and one recall in three is lost.
				a := accessReq{fh: fhN(uint64(i)), write: n%2 == 0, offset: off(uint64(n % 4))}
				if n%16 == 0 {
					a.fh, a.write = fhN(uint64(i+1)%3), false
				}
				s.mu.Lock()
				reqs, fenced := s.accessLocked(c, a, now())
				s.mu.Unlock()
				if fenced {
					fences.Add(1)
					continue
				}
				send(reqs)
				s.mu.Lock()
				s.grantLocked(c, a, now())
				if a.write {
					reqs = s.committedLocked(id, a)
				}
				s.mu.Unlock()
				send(reqs)
				runtime.Gosched() // interleave: a burst per goroutine grants and fences next to nothing
			}
		}()
	}
	producers.Add(1)
	go func() {
		defer producers.Done()
		for n := 0; working(n); n++ {
			s.mu.Lock()
			reqs := s.sweepLocked(now())
			err := checkSharerTable(s)
			s.mu.Unlock()
			fail(err)
			send(reqs)
			runtime.Gosched()
		}
	}()
	settler.Add(1)
	go func() {
		defer settler.Done()
		n := 0
		for r := range queue {
			s.mu.Lock()
			s.settleLocked(r, outcome(n%3).res(), now())
			s.mu.Unlock()
			n++
		}
	}()
	producers.Wait()
	close(queue)
	settler.Wait()

	fail(checkSharerTable(s))
	if fences.Load() == 0 {
		t.Error("no WRITE was ever fenced: the actors did not interleave")
	}
	// Left alone, everything ages out: the table holds no state for ever.
	for i := 0; i < 3 && len(s.files) > 0; i++ {
		tick.Add(int64(2 * tblExpiry / time.Second))
		for _, r := range s.sweepLocked(now()) {
			s.settleLocked(r, acked.res(), now())
		}
	}
	if len(s.files) != 0 || s.lru.n != 0 {
		t.Errorf("%d files (%d on the ring) outlive every sharer's expiry", len(s.files), s.lru.n)
	}
}

// checkSharerTable is what must hold of the table between any two
// transitions.
func checkSharerTable(s *ProxyServer) error {
	for key, f := range s.files {
		if f.fh.Key() != key || len(f.sharers) == 0 {
			return fmt.Errorf("file %q: filed under %q with %d sharers", f.fh.Key(), key, len(f.sharers))
		}
		writers, holders := 0, 0
		for id, sh := range f.sharers {
			if sh.c == nil || sh.c.rec.ID != id || s.clients[id] != sh.c {
				return fmt.Errorf("file %q: sharer %q has no client record", key, id)
			}
			if sh.deleg != DelegNone {
				holders++
			}
			if sh.deleg == DelegWrite {
				writers++
			}
		}
		if writers > 1 || writers == 1 && holders > 1 {
			return fmt.Errorf("file %q: %d write delegations among %d held", key, writers, holders)
		}
	}
	return checkRing("file", &s.lru, len(s.files), len(s.files), func(f *fileState) *link[fileState] {
		if s.files[f.fh.Key()] != f {
			return nil
		}
		return &f.link
	})
}

// TestHolderReadKeepsWriteDelegation: the write delegation's only holder
// reading a block — a demand miss, or the fetch before an absorbed partial
// WRITE — keeps the delegation, so another client's read still recalls it.
func TestHolderReadKeepsWriteDelegation(t *testing.T) {
	fh := fhN(7)
	d := &tableDriver{s: tableServer("A", "B"), answers: map[string]outcome{}}
	d.access("A", accessReq{fh: fh, write: true, offset: off(1)})
	if _, grant := d.access("A", accessReq{fh: fh, offset: off(0)}); grant != "write" || describeFile(d.s, fh) != "A=write" {
		t.Fatalf("A's read was granted %q, row %q; want write, A=write", grant, describeFile(d.s, fh))
	}
	if recalls, _ := d.access("B", accessReq{fh: fh, offset: off(1)}); recalls == "" {
		t.Error("B's read recalled nothing from the write holder")
	}
}
