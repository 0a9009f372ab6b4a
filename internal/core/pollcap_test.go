package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nfs3"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
)

// TestPollOnceBoundedAgainstPollAgainLoop pins the fix for the unbounded
// GETINV drain: a server (buggy, or a replayed response stream) that answers
// every GETINV with PollAgain=true must not trap the poll loop forever — the
// client caps the rounds, counts the event, and retries at the next window.
func TestPollOnceBoundedAgainstPollAgainLoop(t *testing.T) {
	clk := vclock.NewVirtual()
	n := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})

	// A pathological upstream: always one handle, always "poll again".
	srv := sunrpc.NewServer(clk)
	var served atomic.Int64
	srv.Register(InvProgram, InvVersion, func(call *sunrpc.Call) sunrpc.AcceptStat {
		var args GetInvArgs
		if err := args.Decode(call.Args); err != nil {
			return sunrpc.GarbageArgs
		}
		k := served.Add(1)
		res := GetInvRes{Timestamp: args.Timestamp + 1, PollAgain: true, Handles: []nfs3.FH{fhN(uint64(k))}}
		res.Encode(call.Reply)
		return sunrpc.Success
	})

	done := make(chan struct{})
	clk.Go("test", func() {
		defer close(done)
		l, err := n.Host("server").Listen(":111")
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		srv.Serve(l)
		conn, err := n.Host("client").Dial("server:111")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		up := sunrpc.NewClient(clk, conn, sunrpc.NoneCred())
		cfg := Config{InvBufferEntries: 64, MaxHandlesPerReply: 16}
		p := NewProxyClient(clk, cfg, up, SessionCred{SessionKey: "s", ClientID: "C1"})

		gotAny, err := p.pollOnce(nil)
		if err != nil {
			t.Errorf("pollOnce: %v", err)
		}
		if !gotAny {
			t.Error("pollOnce = gotAny false, want true (handles were delivered)")
		}
		want := int64(p.maxPollRounds()) // 64/16 + 2 = 6
		if got := served.Load(); got != want {
			t.Errorf("server served %d GETINVs, want the cap of %d", got, want)
		}
		if got := p.met.pollCapped.Value(); got != 1 {
			t.Errorf("poll_capped counter = %d, want 1", got)
		}

		// A second poll starts a fresh budget rather than staying wedged.
		if _, err := p.pollOnce(nil); err != nil {
			t.Errorf("second pollOnce: %v", err)
		}
		if got := p.met.pollCapped.Value(); got != 2 {
			t.Errorf("poll_capped counter = %d after second poll, want 2", got)
		}
		up.Close()
		srv.Close()
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simulation hung")
	}
	clk.Stop()
}

// TestPollHorizonAdvancesUnderCappedPolls pins the freshness-horizon fix:
// under sustained churn every poll hits the round cap with PollAgain still
// set, and the horizon used to freeze at zero forever — each capped poll
// discarded the coverage its completed rounds had earned. With the
// GetInvRes.Remaining cover accounting, a round is covered as soon as later
// rounds deliver the entries that were queued ahead of it, so the horizon
// advances even though no poll ever fully drains the buffer.
func TestPollHorizonAdvancesUnderCappedPolls(t *testing.T) {
	clk := vclock.NewVirtual()
	n := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})

	// A churning upstream: every reply delivers 4 handles, reports 8 more
	// queued, and demands another round. Once calm is set it drains.
	srv := sunrpc.NewServer(clk)
	var served atomic.Int64
	var calm atomic.Bool
	srv.Register(InvProgram, InvVersion, func(call *sunrpc.Call) sunrpc.AcceptStat {
		var args GetInvArgs
		if err := args.Decode(call.Args); err != nil {
			return sunrpc.GarbageArgs
		}
		k := uint64(served.Add(1))
		res := GetInvRes{Timestamp: args.Timestamp + 1}
		if calm.Load() {
			res.Handles = []nfs3.FH{fhN(k * 100)}
		} else {
			res.PollAgain = true
			res.Remaining = 8
			for i := uint64(0); i < 4; i++ {
				res.Handles = append(res.Handles, fhN(k*100+i))
			}
		}
		res.Encode(call.Reply)
		return sunrpc.Success
	})

	done := make(chan struct{})
	clk.Go("test", func() {
		defer close(done)
		l, err := n.Host("server").Listen(":111")
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		srv.Serve(l)
		conn, err := n.Host("client").Dial("server:111")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		up := sunrpc.NewClient(clk, conn, sunrpc.NoneCred())
		cfg := Config{InvBufferEntries: 64, MaxHandlesPerReply: 16}
		p := NewProxyClient(clk, cfg, up, SessionCred{SessionKey: "s", ClientID: "C1"})

		if _, err := p.pollOnce(nil); err != nil {
			t.Errorf("pollOnce: %v", err)
		}
		if got := p.met.pollCapped.Value(); got != 1 {
			t.Errorf("poll_capped counter = %d, want 1 (churn never drains)", got)
		}
		// Each round's Remaining of 8 is paid down by the two rounds after
		// it (4 handles each), so with 6 rounds served the first 4 are
		// covered. Before the fix this froze at zero.
		h1 := p.PollHorizon()
		if h1 <= 0 {
			t.Fatalf("PollHorizon = %v after capped poll, want > 0 (covered rounds must advance it)", h1)
		}
		if now := clk.Now(); h1 >= now {
			t.Errorf("PollHorizon = %v not before now %v", h1, now)
		}

		// A later complete drain advances the horizon past the capped poll's.
		calm.Store(true)
		if _, err := p.pollOnce(nil); err != nil {
			t.Errorf("calm pollOnce: %v", err)
		}
		if h2 := p.PollHorizon(); h2 <= h1 {
			t.Errorf("PollHorizon = %v after complete drain, want > %v", h2, h1)
		}
		up.Close()
		srv.Close()
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simulation hung")
	}
	clk.Stop()
}
