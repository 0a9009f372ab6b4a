package core

import (
	"time"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// SetRedial installs a reconnection function used when the upstream
// connection fails: both NFS forwards and GETINV polls transparently retry
// on a fresh connection, the "simply retried" recovery of Section 4.2.3.
func (p *ProxyClient) SetRedial(redial func() (*sunrpc.Client, error)) {
	p.redial = redial
}

func (p *ProxyClient) upstream() *sunrpc.Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up
}

// reconnect swaps in a fresh upstream connection if old is still current.
func (p *ProxyClient) reconnect(old *sunrpc.Client) bool {
	if p.redial == nil {
		return false
	}
	p.mu.Lock()
	current := p.up
	p.mu.Unlock()
	if current != old {
		return true // raced with another reconnect
	}
	nu, err := p.redial()
	if err != nil {
		return false
	}
	nu.SetCred(p.cred.Encode())
	nu.SetObs(p.node, RPCName)
	nu.SetRetransmit(p.cfg.retransmitPolicy())
	p.mu.Lock()
	if p.up != old {
		p.mu.Unlock()
		nu.Close()
		return true
	}
	for k, v := range old.Counts() {
		p.accum[k] += v
	}
	p.up = nu
	p.mu.Unlock()
	old.Close()
	return true
}

// rawCall issues one upstream RPC with reconnect-and-retry on failure. rid
// is the trace request ID propagated from the kernel call that caused this
// RPC; 0 lets the upstream client mint one (background traffic). The caller
// owns the reply's frame and releases it when done with the body.
func (p *ProxyClient) rawCall(rid uint64, prog, vers, proc uint32, args []byte) (sunrpc.Reply, error) {
	c := upstreamCall{rid: rid, prog: prog, vers: vers, proc: proc, args: args}
	p.send(&c)
	return p.waitCall(c)
}

// upstreamCall is an RPC sent upstream that nobody has waited for yet. An NFS
// call (startUpstream) and a GETINV (sendGetInv) also carry the pooled encoder
// their args live in and when they were sent; an NFS call, the ticket its
// reply lands under.
type upstreamCall struct {
	sunrpc.Pending
	up               *sunrpc.Client
	rid              uint64
	prog, vers, proc uint32
	args, tail       []byte // what a retry sends again

	enc   *xdr.Encoder // nil for a raw call
	start time.Duration
	tk    ticket
	// held: the session had minted handles or pending namespace operations
	// when the call was sent, so its result is translated (fromServer).
	held bool
	// listing, when a LOOKUP's caller sets it, receives the small directory's
	// listing the reply may carry behind its trailers (DecodeTrailers).
	listing *nfs3.ReaddirplusRes
}

// send sends c on the current upstream connection and returns without
// waiting: waitCall collects the reply. Apart, they let a burst go out in an
// order of the caller's choosing (issue). c.tail, when there is one, follows
// c.args on the wire by reference (sunrpc.Client.StartParts) and is the call's
// until waitCall returns.
func (p *ProxyClient) send(c *upstreamCall) {
	c.up = p.upstream()
	c.Pending = c.up.StartParts(c.rid, c.prog, c.vers, c.proc, c.args, c.tail, p.cfg.CallTimeout)
}

// waitCall collects a started call's reply; on failure it reconnects and
// sends the call again, args and tail once more.
func (p *ProxyClient) waitCall(c upstreamCall) (sunrpc.Reply, error) {
	for attempt := 0; ; attempt++ {
		rep, err := c.Wait()
		if err == nil {
			return rep, nil
		}
		p.met.upstreamRetries.Inc()
		if p.stopped.Load() || attempt >= 2 {
			return sunrpc.Reply{}, err
		}
		if !p.reconnect(c.up) {
			p.clk.Sleep(time.Second)
			if !p.reconnect(c.up) {
				return sunrpc.Reply{}, err
			}
		}
		p.send(&c)
	}
}

type wireEnc interface{ Encode(*xdr.Encoder) }
type wireDec interface{ Decode(*xdr.Decoder) error }

// callUpstream forwards one NFS call across the wide area and applies the
// GVFS trailers the proxy server piggybacks on the reply (absent when the
// upstream is a plain NFS server), which it returns. forwarded names the
// handles for which a kernel request thereby bypassed the cache (renewal
// bookkeeping). The reply frame goes back to the pool before it returns, so
// res must own everything it decoded — every result does but READ's, whose
// callers use startUpstream and finishUpstream themselves and release the
// frame when done with the data.
// It returns the ticket the call went out under, which its reply's installs
// show (landsLocked).
func (p *ProxyClient) callUpstream(rid uint64, proc uint32, args wireEnc, res wireDec, forwarded ...nfs3.FH) (ticket, Trailers, error) {
	c := p.startUpstream(rid, proc, args)
	rep, ts, err := p.finishUpstream(c, res, forwarded)
	rep.Release()
	return c.tk, ts, err
}

// startUpstream encodes args and sends the call under the ticket of the first
// handle it names (handlesOf); finishUpstream must follow. A call that names
// the directory or the object of an absorbed REMOVE or CREATE still on its way
// waits for its reply first (awaitPending), and takes its ticket after: a
// handle the session minted leaves as the server's (toServer). A session with
// neither pays one atomic load for them here.
func (p *ProxyClient) startUpstream(rid uint64, proc uint32, args wireEnc) upstreamCall {
	fhs, name := handlesOf(args)
	held := p.cache.held.Load() > 0
	if held {
		p.awaitPending(proc, fhs, name)
	}
	var first nfs3.FH // zero: the call names no handle
	if fhs[0] != nil {
		first = *fhs[0]
	}
	tk := p.cache.ticket(first)
	if !held {
		return p.sendUpstream(rid, proc, args, tk)
	}
	was, _ := p.cache.toServer(fhs)
	c := p.sendUpstream(rid, proc, args, tk) // encodes args before it returns
	putBack(fhs, was)
	c.held = true
	return c
}

// sendUpstream is startUpstream without the wait, under the ticket tk. A
// WRITE's data is not encoded: it follows the head by reference, so it must
// stay as it is until finishUpstream returns. A READ counts the blocks it asks
// for.
func (p *ProxyClient) sendUpstream(rid uint64, proc uint32, args wireEnc, tk ticket) upstreamCall {
	e := bufpool.GetEncoder()
	var tail []byte
	switch a := args.(type) {
	case *nfs3.WriteArgs:
		tail = a.EncodeHead(e)
	case *nfs3.ReadArgs:
		if bs := uint64(p.cfg.BlockSize); a.Count > 0 {
			p.met.readBlocks.Add(int64((a.Offset+uint64(a.Count)-1)/bs - a.Offset/bs + 1))
		}
		a.Encode(e)
	case nil: // a call without arguments
	default:
		a.Encode(e)
	}
	c := upstreamCall{rid: rid, prog: nfs3.Program, vers: nfs3.Version, proc: proc, args: e.Bytes(), tail: tail,
		enc: e, start: p.node.Now(), tk: tk}
	p.send(&c)
	return c
}

// finishUpstream waits for a started NFS call, decodes its result into res
// and applies the reply's trailers, which it returns: what the reply says of
// a handle is installed under the stamp of its decision there
// (Trailers.seqOf). The caller owns the reply's frame, which a READ result's
// Data aliases: it releases it once the data is where it was going — copied
// into the cache, encoded into the kernel's reply.
func (p *ProxyClient) finishUpstream(c upstreamCall, res wireDec, forwarded []nfs3.FH) (sunrpc.Reply, Trailers, error) {
	rep, err := p.waitCall(c)
	bufpool.PutEncoder(c.enc)
	lat := p.node.Now() - c.start
	p.met.forwardLatency.ObserveDuration(lat)
	if err != nil {
		return rep, nil, err
	}
	d := rep.Body
	if err := res.Decode(d); err != nil {
		rep.Release()
		return rep, nil, err
	}
	p.ra.observe(lat, res, p.cfg.BlockSize)
	if c.held || namesFiles(c.proc) && p.cache.held.Load() > 0 {
		// A listing or a name resolution may name a file the session created
		// at home whatever the call was sent under.
		p.cache.fromServer(res)
	}
	var ts Trailers
	if d.Remaining() > 0 {
		if ts, err = DecodeTrailers(d, c.listing); err != nil {
			ts = nil
		}
	}
	p.cache.applyReplySince(ts, forwarded, c.tk)
	return rep, ts, nil
}

// namesFiles reports whether proc's result may name a file by its handle or
// fileid other than the one the call was about.
func namesFiles(proc uint32) bool {
	switch proc {
	case nfs3.ProcLookup, nfs3.ProcCreate, nfs3.ProcMkdir, nfs3.ProcSymlink, nfs3.ProcLink, nfs3.ProcReaddir, nfs3.ProcReaddirplus:
		return true
	}
	return false
}

// forward is callUpstream for the kernel RPC being served: the call crossed the
// wide area, and is counted so.
func (p *ProxyClient) forward(call *sunrpc.Call, proc uint32, args wireEnc, res wireDec, forwarded ...nfs3.FH) (ticket, Trailers, error) {
	tk, ts, err := p.callUpstream(call.ReqID, proc, args, res, forwarded...)
	if err == nil {
		p.hitForward(call)
	}
	return tk, ts, err
}
