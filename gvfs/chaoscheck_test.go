package gvfs

import (
	"errors"
	"testing"
	"time"
)

// The visibility checker's verdicts on synthetic logs. Client 0 is the
// checked client; its own ops are the log's steps that name an event, in
// order. Lags: a write-back write lands within flushLag of its return, a
// namespace op within nameLag, and a landed event is visible everywhere
// propLag later.
const (
	vFlushLag = 100 * time.Second
	vNameLag  = 20 * time.Second
	vPropLag  = 50 * time.Second
)

// vEvent is one state-setting op: client -1 is the initial contents (at 1s).
type vEvent struct {
	client     int
	key        string
	seq        int  // overwrites: the value's sequence number
	exists     bool // namespace: the name's state after the op
	start, end time.Duration
	failed     bool
}

// vStep is one op of the checked client: its own event (ev >= 0, an index
// into the case's events) or an observation of key over [start, end].
type vStep struct {
	ev         int
	kind       byte // 'r' read, 's' stat (size), 'p' stat, 'a' access, 'd' readdir
	key        string
	start, end time.Duration
	state      string // value read, size, or "exists"/"absent"
}

func own(i int) vStep { return vStep{ev: i} }

func look(kind byte, key string, start time.Duration, state string) vStep {
	return vStep{ev: -1, kind: kind, key: key, start: start, end: start + time.Second, state: state}
}

func val(client, seq int) string { return chaosValue(client, seq, 64) }

func ev(client int, key string, seq int, start time.Duration, failed bool) vEvent {
	return vEvent{client: client, key: key, seq: seq, start: start, end: start + time.Second, failed: failed}
}

func nameEv(client int, key string, exists bool, start time.Duration, failed bool) vEvent {
	return vEvent{client: client, key: key, exists: exists, start: start, end: start + time.Second, failed: failed}
}

func initial(key string) vEvent {
	return vEvent{client: -1, key: key, start: time.Second, end: time.Second}
}

func initialName(key string, exists bool) vEvent {
	return vEvent{client: -1, key: key, exists: exists, start: time.Second, end: time.Second}
}

type verdictCase struct {
	name      string
	names     bool
	events    []vEvent
	log       []vStep
	final     map[string]string // server state per key after the drain
	want      int               // violations in the client log
	wantFinal int               // violations in the final state
}

const s = time.Second

var verdictCases = []verdictCase{
	// --- overwrites ---
	{name: "data/initial value read", events: []vEvent{initial("f")},
		log: []vStep{look('r', "f", 10*s, val(-1, 0))}, final: map[string]string{"f": val(-1, 0)}},
	{name: "data/stale read inside the propagation window", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, false)},
		log: []vStep{look('r', "f", 150*s, val(-1, 0))}, final: map[string]string{"f": val(1, 1)}},
	{name: "data/stale read past the propagated anchor", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, false)},
		log: []vStep{look('r', "f", 200*s, val(-1, 0))}, final: map[string]string{"f": val(1, 1)}, want: 1},
	{name: "data/read-your-writes violated", events: []vEvent{initial("f"), ev(0, "f", 1, 10*s, false)},
		log: []vStep{own(1), look('r', "f", 12*s, val(-1, 0))}, final: map[string]string{"f": val(0, 1)}, want: 1},
	{name: "data/read-your-writes: a failed own write anchors nothing", events: []vEvent{initial("f"), ev(0, "f", 1, 10*s, true)},
		log: []vStep{own(1), look('r', "f", 12*s, val(-1, 0))}, final: map[string]string{"f": val(-1, 0)}},
	{name: "data/monotonic reads violated", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, false), ev(1, "f", 2, 200*s, false)},
		log: []vStep{look('r', "f", 210*s, val(1, 2)), look('r', "f", 220*s, val(1, 1))}, final: map[string]string{"f": val(1, 2)}, want: 1},
	{name: "data/monotonic reads: an older value before the newer one is seen", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, false), ev(1, "f", 2, 200*s, false)},
		log: []vStep{look('r', "f", 210*s, val(1, 1)), look('r', "f", 220*s, val(1, 2))}, final: map[string]string{"f": val(1, 2)}},
	{name: "data/value from the future", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, false)},
		log: []vStep{look('r', "f", 5*s, val(1, 1))}, final: map[string]string{"f": val(1, 1)}, want: 1},
	{name: "data/value never written", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, false)},
		log: []vStep{look('r', "f", 20*s, val(1, 9))}, final: map[string]string{"f": val(1, 9)}, want: 1, wantFinal: 1},
	{name: "data/unparseable value", events: []vEvent{initial("f")},
		log: []vStep{look('r', "f", 20*s, "garbage")}, final: map[string]string{"f": "garbage"}, want: 1, wantFinal: 1},
	{name: "data/failed write stays plausible", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, true), ev(1, "f", 2, 20*s, false)},
		log: []vStep{look('r', "f", 500*s, val(1, 1))}, final: map[string]string{"f": val(1, 2)}},
	{name: "data/failed write anchors nothing", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, true)},
		log: []vStep{look('r', "f", 500*s, val(-1, 0))}, final: map[string]string{"f": val(-1, 0)}},
	{name: "data/stat of the fixed size", events: []vEvent{initial("f")},
		log: []vStep{look('s', "f", 10*s, "64")}, final: map[string]string{"f": val(-1, 0)}},
	{name: "data/stat of another size", events: []vEvent{initial("f")},
		log: []vStep{look('s', "f", 10*s, "65")}, final: map[string]string{"f": val(-1, 0)}, want: 1},
	{name: "data/final: concurrent writes both plausible", events: []vEvent{initial("f"), ev(0, "f", 1, 10*s, false), ev(1, "f", 1, 20*s, false)},
		log: []vStep{own(1)}, final: map[string]string{"f": val(0, 1)}},
	{name: "data/final: superseded value kept", events: []vEvent{initial("f"), ev(0, "f", 1, 10*s, false), ev(1, "f", 1, 200*s, false)},
		log: []vStep{own(1)}, final: map[string]string{"f": val(0, 1)}, wantFinal: 1},
	{name: "data/final: initial contents kept after a write", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, false)},
		final: map[string]string{"f": val(-1, 0)}, wantFinal: 1},
	{name: "data/final: a failed write can be superseded", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, true), ev(0, "f", 1, 200*s, false)},
		log: []vStep{own(2)}, final: map[string]string{"f": val(1, 1)}, wantFinal: 1},
	{name: "data/final: a failed write inside its deadline", events: []vEvent{initial("f"), ev(1, "f", 1, 10*s, true), ev(0, "f", 1, 50*s, false)},
		log: []vStep{own(2)}, final: map[string]string{"f": val(1, 1)}},

	// --- namespace churn ---
	{name: "names/initial existence", names: true, events: []vEvent{initialName("n", true)},
		log:   []vStep{look('p', "n", 10*s, "exists"), look('a', "n", 12*s, "exists"), look('d', "n", 14*s, "exists")},
		final: map[string]string{"n": "exists"}},
	{name: "names/superseded existence inside the propagation window", names: true,
		events: []vEvent{initialName("n", true), nameEv(1, "n", false, 10*s, false)},
		log:    []vStep{look('p', "n", 60*s, "exists")}, final: map[string]string{"n": "absent"}},
	{name: "names/superseded existence past the propagated anchor", names: true,
		events: []vEvent{initialName("n", true), nameEv(1, "n", false, 10*s, false)},
		log:    []vStep{look('d', "n", 100*s, "exists")}, final: map[string]string{"n": "absent"}, want: 1},
	{name: "names/read-your-writes violated", names: true,
		events: []vEvent{initialName("n", true), nameEv(0, "n", false, 10*s, false)},
		log:    []vStep{own(1), look('a', "n", 12*s, "exists")}, final: map[string]string{"n": "absent"}, want: 1},
	{name: "names/failed op stays plausible forever", names: true,
		events: []vEvent{initialName("n", false), nameEv(1, "n", true, 10*s, true), nameEv(1, "n", false, 20*s, false)},
		log:    []vStep{look('p', "n", 1000*s, "exists")}, final: map[string]string{"n": "absent"}},
	{name: "names/ghost name seen", names: true, events: []vEvent{initialName("g", false)},
		log: []vStep{look('p', "g", 10*s, "exists")}, want: 1},
	{name: "names/ghost name absent", names: true, events: []vEvent{initialName("g", false)},
		log: []vStep{look('p', "g", 10*s, "absent"), look('d', "g", 12*s, "absent")}},
	{name: "names/existence from the future", names: true,
		events: []vEvent{initialName("n", false), nameEv(1, "n", true, 10*s, false)},
		log:    []vStep{look('p', "n", 5*s, "exists")}, final: map[string]string{"n": "exists"}, want: 1},
	{name: "names/no monotonic-read anchor", names: true,
		events: []vEvent{initialName("n", false), nameEv(1, "n", true, 10*s, false)},
		log:    []vStep{look('p', "n", 20*s, "exists"), look('p', "n", 22*s, "absent")}, final: map[string]string{"n": "exists"}},
	{name: "names/final: superseded existence kept", names: true,
		events: []vEvent{initialName("n", false), nameEv(1, "n", true, 10*s, false), nameEv(1, "n", false, 100*s, false)},
		final:  map[string]string{"n": "exists"}, wantFinal: 1},
	{name: "names/final: concurrent ops both plausible", names: true,
		events: []vEvent{initialName("n", false), nameEv(1, "n", true, 10*s, false), nameEv(0, "n", false, 20*s, false)},
		log:    []vStep{own(2)}, final: map[string]string{"n": "exists"}},
	{name: "names/final: a failed op stays plausible", names: true,
		events: []vEvent{initialName("n", false), nameEv(1, "n", true, 10*s, true), nameEv(1, "n", false, 100*s, false)},
		final:  map[string]string{"n": "exists"}},
	{name: "names/final: the newest op's state", names: true,
		events: []vEvent{initialName("n", true), nameEv(1, "n", false, 10*s, false), nameEv(0, "n", true, 100*s, false)},
		log:    []vStep{own(2)}, final: map[string]string{"n": "exists"}},
}

// TestCheckerVerdicts pins the checker's verdict on every case: how many of
// the client's observations and of the server's final states are
// violations. Two rules differ between the workloads, and the events carry
// both: in the final state a failed write is held to its deadline while a
// failed namespace op has none, and only a data value advances the
// monotonic-read anchor.
func TestCheckerVerdicts(t *testing.T) {
	for _, tc := range verdictCases {
		t.Run(tc.name, func(t *testing.T) {
			client, final := judgeCase(t, tc)
			for _, v := range append(client, final...) {
				t.Log(v)
			}
			if len(client) != tc.want || len(final) != tc.wantFinal {
				t.Errorf("client violations %d (want %d), final %d (want %d)", len(client), tc.want, len(final), tc.wantFinal)
			}
		})
	}
}

// judgeCase builds a case's events and ops the way the workloads do and
// runs the checker over them.
func judgeCase(t *testing.T, tc verdictCase) (client, final []string) {
	var w Overwrites
	events := map[string][]*chaosEvent{}
	ops := make([]chaosOp, len(tc.events))
	for i, e := range tc.events {
		var set []*chaosEvent
		switch {
		case e.client < 0 && tc.names:
			set = []*chaosEvent{initialEvent(e.key, existence(e.exists), e.start, false)}
		case e.client < 0:
			set = w.initial(e.key, e.start)
		default:
			op := &ops[i]
			op.start, op.end = e.start, e.end
			if e.failed {
				op.err = errors.New("failed")
			}
			if tc.names {
				op.setName(e.client, e.key, e.exists, vNameLag)
			} else {
				op.setValue(e.client, e.key, chaosValue(e.client, e.seq, 0), vFlushLag)
			}
			set = op.events
		}
		for _, ev := range set {
			events[ev.key] = append(events[ev.key], ev)
		}
	}
	observe := func(key, state string) []chaosObs {
		if tc.names {
			return []chaosObs{{key, state}}
		}
		return w.observe(key, []byte(state))
	}
	var log []chaosOp
	for _, st := range tc.log {
		if st.ev >= 0 {
			log = append(log, ops[st.ev])
			continue
		}
		op := chaosOp{kind: st.kind, path: st.key, start: st.start, end: st.end, obs: observe(st.key, st.state)}
		if st.kind == 's' {
			op.obs = []chaosObs{{sizeKey(st.key), st.state}}
		}
		log = append(log, op)
	}
	var obs []chaosObs
	for k, v := range tc.final {
		obs = append(obs, observe(k, v)...)
	}
	return checkClientLog(0, log, events, vPropLag), checkFinalState(obs, events)
}
