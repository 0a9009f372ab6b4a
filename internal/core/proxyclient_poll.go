package core

import (
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/vclock"
)

// pollLoop is the invalidation-polling client side (Section 4.2.1): poll the
// proxy server's GETINV within the configured window, optionally with
// exponential back-off. The window, like lastInvTS, is this actor's own.
func (p *ProxyClient) pollLoop() {
	// Offset the bootstrap poll slightly so it never shares a virtual
	// instant with session setup traffic on the same link: concurrent
	// same-instant sends race for bandwidth-serialization order, which
	// would make traces diverge between runs of the same seed. A MOUNT
	// that sends it sooner, ahead of itself, cuts the wait short
	// (sendBootstrap): its reply is then collected as soon as it lands.
	p.clk.WaitFor(&p.boot.kick, pollBootstrapDelay, "bootstrap delay")
	// Bootstrap: the first GETINV carries a null timestamp and obtains the
	// session's initial logical timestamp (Section 4.2.2).
	boot := p.sendBootstrap()
	_, err := p.pollOnce(&boot)
	p.boot.finish(p.lastInvTS, err == nil)
	window := p.cfg.PollPeriod
	for {
		p.clk.Sleep(window)
		if p.stopped.Load() {
			return
		}
		gotAny, err := p.pollOnce(nil)
		switch {
		case err != nil:
			// Server unreachable; soft state, just poll again.
		case gotAny || p.cfg.PollBackoffMax <= p.cfg.PollPeriod:
			window = p.cfg.PollPeriod // news, or a fixed window
		default:
			window = min(2*window, p.cfg.PollBackoffMax)
		}
	}
}

// pollBootstrapDelay staggers the poll loop's first GETINV away from mount
// traffic issued at the same virtual instant.
const pollBootstrapDelay = 1300 * time.Microsecond

// pollBoot is the session's bootstrap GETINV. Whichever comes first sends it:
// the poll actor's first poll, or the session's first MOUNT, ahead of itself
// on the wire, so that the proxy server has bootstrapped the session's
// invalidation buffer when it reads the listings the MNT reply carries
// (ProxyServer.mountBundle). The poll actor collects the reply either way;
// its timestamp is what a bundle is checked against (dispatchMount).
type pollBoot struct {
	mu   sync.Mutex
	sent bool
	call upstreamCall
	// kick ends the poll actor's pollBootstrapDelay once the call is sent.
	kick vclock.Waiter
	// done: the bootstrap poll is over; ok: it succeeded, and ts is the
	// timestamp it left the session at.
	done, ok bool
	ts       uint64
	waiters  []*vclock.Waiter
}

// sendBootstrap sends the bootstrap GETINV unless it has gone out already, and
// returns it. The lock is held across the send, so a MOUNT that finds it sent
// follows it on the wire.
func (p *ProxyClient) sendBootstrap() upstreamCall {
	b := &p.boot
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.sent {
		b.sent = true
		b.call = p.sendGetInv(p.node.Mint(), 0)
		b.kick.Wake()
	}
	return b.call
}

// finish records the bootstrap poll's outcome and wakes the MOUNTs waiting for
// it.
func (b *pollBoot) finish(ts uint64, ok bool) {
	b.mu.Lock()
	b.done, b.ok, b.ts = true, ok, ts
	ws := b.waiters
	b.waiters = nil
	b.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}

// wait parks until the bootstrap poll is over and returns its outcome.
func (b *pollBoot) wait(clk *vclock.Clock) (ts uint64, ok bool) {
	b.mu.Lock()
	if !b.done {
		w := clk.NewWaiter()
		b.waiters = append(b.waiters, w)
		b.mu.Unlock()
		clk.WaitAs(w, "bootstrap poll")
		b.mu.Lock()
	}
	defer b.mu.Unlock()
	return b.ts, b.ok
}

// sendGetInv sends a GETINV carrying ts, stamped with its send time; waitCall
// collects it, and its encoder goes back to the pool after that.
func (p *ProxyClient) sendGetInv(rid, ts uint64) upstreamCall {
	e := bufpool.GetEncoder()
	(&GetInvArgs{Timestamp: ts, MaxHandles: uint32(p.cfg.MaxHandlesPerReply)}).Encode(e)
	c := upstreamCall{rid: rid, prog: InvProgram, vers: InvVersion, proc: ProcGetInv, args: e.Bytes(), enc: e, start: p.clk.Now()}
	p.send(&c)
	return c
}

// maxPollRounds bounds one poll's GETINV loop: a healthy server drains its
// invalidation buffer (at most InvBufferEntries handles, overflow collapses
// to a single force-invalidate reply) in about InvBufferEntries /
// MaxHandlesPerReply rounds, so anything far beyond that is a buggy or
// replayed response stream setting PollAgain forever.
func (p *ProxyClient) maxPollRounds() int {
	rounds := p.cfg.InvBufferEntries/p.cfg.MaxHandlesPerReply + 2
	if rounds < 4 {
		rounds = 4
	}
	return rounds
}

// pollCover tracks one GETINV round's freshness-horizon debt: the round
// sent at sentAt is fully covered once need more handles have been
// delivered (the server's Remaining count at reply time, paid down by every
// subsequent round's deliveries).
type pollCover struct {
	sentAt time.Duration
	need   int64
}

// pollOnce issues GETINV calls until the buffer is drained, applying the
// client-side algorithm of Section 4.2.1. All GETINVs of one poll round
// share a request ID minted at this proxy. boot, when it is not nil, is the
// bootstrap GETINV already on the wire: the first round's.
func (p *ProxyClient) pollOnce(boot *upstreamCall) (gotAny bool, err error) {
	rid := p.node.Mint()
	if boot != nil {
		rid = boot.rid
	}
	var covers []pollCover
	for rounds := 0; ; rounds++ {
		if rounds >= p.maxPollRounds() {
			// Give up on this poll; the next window starts a fresh drain.
			p.met.pollCapped.Inc()
			return gotAny, nil
		}
		ts := p.lastInvTS
		// The round's send time is the staleness horizon candidate: any
		// commit at or before it is queued in the server's invalidation
		// buffer before the server processes this GETINV, so a complete
		// drain proves this cache has seen every such commit.
		var c upstreamCall
		if rounds == 0 && boot != nil {
			c = *boot
		} else {
			c = p.sendGetInv(rid, ts)
		}
		sentAt := c.start
		rep, callErr := p.waitCall(c)
		bufpool.PutEncoder(c.enc)
		if callErr != nil {
			return gotAny, callErr
		}
		// A GETINV is a small RPC: its round trip is the readahead's measure
		// of the link's, before any of the session's NFS calls has crossed.
		p.ra.observe(p.clk.Now()-sentAt, nil, p.cfg.BlockSize)
		var res GetInvRes
		decErr := res.Decode(rep.Body)
		rep.Release() // the handles are copies
		if decErr != nil {
			return gotAny, decErr
		}

		// 1) Update the last known server timestamp.
		p.lastInvTS = res.Timestamp

		p.met.getinvBatch.Observe(int64(len(res.Handles)))
		switch {
		case res.ForceInvalidate:
			// 2) Invalidate the entire attributes cache.
			p.cache.invalidateAllAttrs(ts != 0)
			p.met.forceInvalidations.Inc()
			gotAny = true
		default:
			// 3) Invalidate the concerned files. Directories flush their
			// cached name resolutions too: GETINV carries no names, so every
			// binding observed under the old contents is suspect.
			for _, fh := range res.Handles {
				p.cache.invalidateHandle(fh)
				p.cfg.Staleness.ObservePropagation("poll", fh.Key())
			}
			if len(res.Handles) > 0 {
				gotAny = true
				p.met.invalidations.Add(int64(len(res.Handles)))
			}
		}
		// Freshness-horizon accounting. A round sent at sentAt is covered
		// once every invalidation queued before it has been applied here —
		// at most res.Remaining further handles (entries queued after
		// sentAt inflate that count; they never deflate it, so the
		// accounting only errs conservative). Later rounds' deliveries pay
		// down earlier rounds' debts, so even a poll that ultimately hits
		// the round cap advances the horizon for the rounds it fully
		// covered — the horizon no longer freezes under sustained churn.
		delivered := int64(len(res.Handles))
		for i := range covers {
			covers[i].need -= delivered
		}
		need := int64(res.Remaining)
		if res.ForceInvalidate || !res.PollAgain {
			// A force reply just dropped everything the cache could have
			// served stale; a complete drain has nothing left queued.
			// Either way this round and every earlier one are covered.
			need = 0
			for i := range covers {
				covers[i].need = 0
			}
		}
		covers = append(covers, pollCover{sentAt: sentAt, need: need})
		var adv time.Duration
		kept := covers[:0]
		for _, c := range covers {
			if c.need <= 0 {
				if c.sentAt > adv {
					adv = c.sentAt
				}
			} else {
				kept = append(kept, c)
			}
		}
		covers = kept
		if int64(adv) > p.pollHorizon.Load() {
			p.pollHorizon.Store(int64(adv)) // this actor is the only writer
		}
		// 4) Poll again immediately if the buffer did not fit.
		if !res.PollAgain {
			return gotAny, nil
		}
	}
}

// PollHorizon reports the polling model's current freshness horizon, for
// tests pinning the cover accounting.
func (p *ProxyClient) PollHorizon() time.Duration { return time.Duration(p.pollHorizon.Load()) }
