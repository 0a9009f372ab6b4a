package core

import (
	"fmt"
	"slices"
	"strings"
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

// TestGrantNewerThanTheRecallStands replays the forgotten grant: B's WRITE
// recalls A's read delegation (stamped 2), and while that recall is on the
// wire A reads again and is granted a read delegation (stamped 3). A's proxy
// client applies the grant after the recall, whichever arrives first, since
// its stamp is the newer (Trailer.Seq), and holds the delegation. Settling the
// recall must leave it in the row: otherwise B's next WRITE recalls nobody and
// A serves its cached blocks past it.
func TestGrantNewerThanTheRecallStands(t *testing.T) {
	fh := fhN(7)
	rd := accessReq{fh: fh, offset: off(0)}
	wr := accessReq{fh: fh, write: true, offset: off(0)}
	for _, answer := range []outcome{acked, ackedOwing, lost} {
		s := tableServer("A", "B")
		a, b := s.clients["A"], s.clients["B"]
		if reqs, _ := s.accessLocked(a, rd, 0); len(reqs) != 0 {
			t.Fatalf("A's first read recalled %q", describeReqs(reqs))
		}
		if g, _ := s.grantLocked(a, rd, 0); g != DelegRead {
			t.Fatalf("A's first read was granted %v", g)
		}
		onWire, _ := s.accessLocked(b, wr, 1)
		if got := describeReqs(onWire); got != "A:read@0" {
			t.Fatalf("B's write recalled %q", got)
		}
		if reqs, _ := s.accessLocked(a, rd, 2); len(reqs) != 0 {
			t.Fatalf("A's read beside the recall recalled %q", describeReqs(reqs))
		}
		g, seq := s.grantLocked(a, rd, 2)
		if g != DelegRead || seq <= onWire[0].args.Seq {
			t.Fatalf("A's read beside the recall was granted %v stamped %d, want read after the recall's %d", g, seq, onWire[0].args.Seq)
		}
		s.settleLocked(onWire[0], answer.res(), 3)
		if g, _ := s.grantLocked(b, wr, 3); g != DelegNone {
			t.Fatalf("B's write was granted %v beside a reader", g)
		}
		if row := describeFile(s, fh); !strings.HasPrefix(row, "A=read") {
			t.Errorf("answer %d: row %q after the settle, want A still holding the read delegation it was granted since", answer, row)
		}
		if reqs, _ := s.accessLocked(b, wr, 4); describeReqs(reqs) != "A:read@0" {
			t.Errorf("answer %d: B's next write recalled %q, want A's read delegation", answer, describeReqs(reqs))
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

// TestMountGrantsOnTheTable drives mountGrantsLocked on a bare table: a MOUNT
// grants read where nothing conflicts and leaves every other handle as it
// was; a change made durable while its pages were read voids every grant; a
// sharer it made is speculative, leaves when another client's access calls
// it back, and stays a sharer like any other once it has accessed the file
// itself.
func TestMountGrantsOnTheTable(t *testing.T) {
	free, written := fhN(1), fhN(2)
	mount := func(d *tableDriver, id string, commits uint64, fhs ...nfs3.FH) (string, bool) {
		ts, ok := d.s.mountGrantsLocked(d.s.clients[id], fhs, commits, d.now)
		var out []string
		for _, tr := range ts {
			out = append(out, fmt.Sprintf("%d:%v", tr.FH.Bytes()[15], tr.Deleg))
		}
		return strings.Join(out, " "), ok
	}

	d := &tableDriver{s: tableServer("A", "B"), answers: map[string]outcome{}}
	d.access("B", accessReq{fh: written, write: true, offset: off(0)})
	if got, ok := mount(d, "A", d.s.commits, free, written); !ok || got != "1:read" {
		t.Errorf("A's MOUNT granted %q (ok %v), want the free file alone", got, ok)
	}
	if row := describeFile(d.s, written); row != "B=write" {
		t.Errorf("the written file's row is %q after A's MOUNT, want B=write untouched", row)
	}
	if got, ok := mount(d, "B", d.s.commits-1, free); ok || got != "" {
		t.Errorf("a MOUNT whose pages were read before a commit granted %q (ok %v), want nothing", got, ok)
	}

	t.Run("called back, a speculative sharer leaves", func(t *testing.T) {
		d := &tableDriver{s: tableServer("A", "B"), answers: map[string]outcome{}}
		mount(d, "A", 0, free)
		if recalls, grant := d.access("B", accessReq{fh: free, write: true, offset: off(0)}); recalls != "A:read@0/closed" || grant != "write" {
			t.Errorf("B's WRITE recalled %q and was granted %q; want A:read@0/closed, then write", recalls, grant)
		}
		if row := describeFile(d.s, free); row != "B=write" {
			t.Errorf("row %q, want B=write: A left with its grant", row)
		}
	})
	t.Run("after an access of its own, it stays", func(t *testing.T) {
		d := &tableDriver{s: tableServer("A", "B"), answers: map[string]outcome{}}
		mount(d, "A", 0, free)
		d.access("A", accessReq{fh: free, offset: off(0)})
		if recalls, grant := d.access("B", accessReq{fh: free, write: true, offset: off(0)}); recalls != "A:read@0" || grant != "none" {
			t.Errorf("B's WRITE recalled %q and was granted %q; want A:read@0, then none", recalls, grant)
		}
		if row := describeFile(d.s, free); row != "A=none B=none" {
			t.Errorf("row %q, want A=none B=none", row)
		}
	})
}

// TestUnansweredRecallEndsInNone: a reader whose recall was never answered
// may still believe it holds its read delegation, with replies in flight read
// under it; its next access is granted none, which tells its client the
// delegation ended, and the one after that is granted read again.
func TestUnansweredRecallEndsInNone(t *testing.T) {
	fh := fhN(7)
	d := &tableDriver{s: tableServer("A", "B"), answers: map[string]outcome{"A": lost}}
	d.access("A", accessReq{fh: fh, offset: off(0)})
	d.access("B", accessReq{fh: fh, offset: off(0)})
	if recalls, _ := d.access("B", accessReq{fh: fh, write: true, offset: off(0)}); recalls != "A:read@0" {
		t.Fatalf("B's WRITE recalled %q, want A's read", recalls)
	}
	for i, want := range []string{"none", "read"} {
		if _, grant := d.access("A", accessReq{fh: fh, offset: off(0)}); grant != want {
			t.Errorf("A's read %d after the unanswered recall was granted %s, want %s", i+1, grant, want)
		}
	}
}
