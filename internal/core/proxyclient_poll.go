package core

import (
	"time"

	"repro/internal/bufpool"
)

// pollLoop is the invalidation-polling client side (Section 4.2.1): poll the
// proxy server's GETINV within the configured window, optionally with
// exponential back-off. The window, like lastInvTS, is this actor's own.
func (p *ProxyClient) pollLoop() {
	// Offset the bootstrap poll slightly so it never shares a virtual
	// instant with session setup traffic on the same link: concurrent
	// same-instant sends race for bandwidth-serialization order, which
	// would make traces diverge between runs of the same seed.
	p.clk.Sleep(pollBootstrapDelay)
	// Bootstrap: the first GETINV carries a null timestamp and obtains the
	// session's initial logical timestamp (Section 4.2.2).
	p.pollOnce()
	window := p.cfg.PollPeriod
	for {
		p.clk.Sleep(window)
		if p.stopped.Load() {
			return
		}
		gotAny, err := p.pollOnce()
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
// share a request ID minted at this proxy.
func (p *ProxyClient) pollOnce() (gotAny bool, err error) {
	rid := p.node.Mint()
	var covers []pollCover
	for rounds := 0; ; rounds++ {
		if rounds >= p.maxPollRounds() {
			// Give up on this poll; the next window starts a fresh drain.
			p.met.pollCapped.Inc()
			return gotAny, nil
		}
		ts := p.lastInvTS
		args := GetInvArgs{Timestamp: ts, MaxHandles: uint32(p.cfg.MaxHandlesPerReply)}
		e := bufpool.GetEncoder()
		args.Encode(e)
		// The round's send time is the staleness horizon candidate: any
		// commit at or before it is queued in the server's invalidation
		// buffer before the server processes this GETINV, so a complete
		// drain proves this cache has seen every such commit.
		sentAt := p.clk.Now()
		rep, callErr := p.rawCall(rid, InvProgram, InvVersion, ProcGetInv, e.Bytes())
		bufpool.PutEncoder(e)
		if callErr != nil {
			return gotAny, callErr
		}
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
