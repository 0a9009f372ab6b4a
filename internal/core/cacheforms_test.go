package core

import (
	"repro/internal/nfs3"
	"repro/internal/vclock"
)

// The short forms the bare-cache tests drive the session cache with. The proxy
// client calls the long ones, which carry what only a real call knows: when it
// was sent (applyReplySince), what the recall names beyond its handle
// (applyRecall), what came back for a claimed block (landFetch).

// applyReply is a reply to a request sent just now.
func (sc *sessionCache) applyReply(ts Trailers, forwarded []nfs3.FH) {
	sc.applyReplySince(ts, forwarded, sc.forgets.Load())
}

// recall is a recall naming no offset.
func (sc *sessionCache) recall(fh nfs3.FH, seq uint64, name string) {
	sc.applyRecall(RecallArgs{FH: fh, Seq: seq, Name: name})
}

// endFetch ends a prefetch with nothing to land, returning the demand reads
// parked on it.
func (sc *sessionCache) endFetch(fh nfs3.FH, bn uint64) []*vclock.Waiter {
	ws, _ := sc.landFetch(fh, bn, nil)
	return ws
}
