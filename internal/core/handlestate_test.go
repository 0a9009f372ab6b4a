package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
)

// TestHandleStateMachine walks one handle's record through the client-side
// protocol states of DESIGN.md's table, in both models: after each event,
// whether a local serve is legal, and what the record remembers.
func TestHandleStateMachine(t *testing.T) {
	const (
		renew  = 8 * time.Minute
		blocks = 8
	)
	for _, model := range []Model{ModelPolling, ModelDelegation} {
		t.Run(model.String(), func(t *testing.T) {
			deleg := model == ModelDelegation
			var now time.Duration
			bypass := obs.New(func() time.Duration { return now }, 16).Registry().Counter("bypass")
			sc := newSessionCache(opsBS, 1<<20)
			sc.setPolicy(func() time.Duration { return now }, cachePolicy{model: model, delegRenew: renew}, cacheCounters{renewBypass: bypass})
			fh := fhN(1)
			attr := attrWithMtime(1, nfs3.TypeReg)
			attr.Size = blocks * opsBS
			revalidate := func() {
				sc.putAttr(fh, attr)
				sc.putBlock(fh, 0, make([]byte, opsBS), attr)
			}
			grant := func(d DelegType, seq uint64) {
				sc.applyReplySince(Trailers{{FH: fh, Deleg: d, Seq: seq}}, nil, sc.ticket(nfs3.FH{}))
			}
			// served asks every local-serve decision at once; they must agree.
			served := func() bool {
				t.Helper()
				_, getattr := sc.attrHit(fh)
				_, read := sc.readHit(fh, 0)
				if getattr != read {
					t.Fatalf("GETATTR served = %v, READ served = %v", getattr, read)
				}
				return getattr
			}
			// prefetches confirms a sequential stream and asks for its next chunk.
			prefetches := func() int {
				sc.streamRead(fh, 0, 4)
				sc.streamRead(fh, 1, 4)
				own, _ := sc.claimChunk(fh, 4)
				for i := range own.runs {
					sc.landCall(&own, i, nil)
				}
				return len(own.blocks)
			}
			record := func() cachedFile {
				sc.mu.Lock()
				defer sc.mu.Unlock()
				if fc := sc.files[fh.Key()]; fc != nil {
					return cachedFile{deleg: fc.deleg, noncacheable: fc.noncacheable, decided: fc.decided}
				}
				return cachedFile{}
			}

			steps := []struct {
				event string
				do    func()
				// serve is whether a local serve is legal afterwards, under
				// polling and under delegation; want is the record's protocol
				// state under delegation (polling never holds a delegation).
				servePoll, serveDeleg bool
				want                  cachedFile
			}{
				{"attributes and a block, no trailer yet", revalidate,
					true, false, cachedFile{}},
				{"grant", func() { grant(DelegRead, 5) },
					true, true, cachedFile{deleg: DelegRead, decided: 5}},
				{"recall", func() { sc.applyRecall(RecallArgs{FH: fh, Seq: 7}) },
					false, false, cachedFile{decided: 7}},
				{"an older recall arrives late: the stamp only rises", func() { sc.applyRecall(RecallArgs{FH: fh, Seq: 6}) },
					false, false, cachedFile{decided: 7}},
				{"revalidated, no delegation", revalidate,
					true, false, cachedFile{decided: 7}},
				{"stale grant (seq <= the recall's): dropped whole", func() { grant(DelegWrite, 7) },
					true, false, cachedFile{decided: 7}},
				{"newer grant", func() { grant(DelegWrite, 8) },
					true, true, cachedFile{deleg: DelegWrite, decided: 8}},
				{"just short of the renewal period", func() { now += renew - 1 },
					true, true, cachedFile{deleg: DelegWrite, decided: 8}},
				{"renewal period elapsed: the request bypasses the cache", func() { now++ },
					true, false, cachedFile{deleg: DelegWrite, decided: 8}},
				{"the bypass was forwarded", func() { sc.applyReplySince(nil, []nfs3.FH{fh}, sc.ticket(nfs3.FH{})) },
					true, true, cachedFile{deleg: DelegWrite, decided: 8}},
				{"RECALL_ALL: delegations and stamps are void", func() { sc.recallAll(true); revalidate() },
					true, false, cachedFile{}},
				{"the new server's first grant", func() { grant(DelegRead, 1) },
					true, true, cachedFile{deleg: DelegRead, decided: 1}},
				{"granted none: the non-cacheable verdict", func() { grant(DelegNone, 9) },
					true, false, cachedFile{noncacheable: true, decided: 9}},
			}
			for _, st := range steps {
				st.do()
				want := st.servePoll
				if deleg {
					want = st.serveDeleg
				}
				if got := served(); got != want {
					t.Fatalf("after %q: served locally = %v, want %v", st.event, got, want)
				}
				if got, want := record(), st.want; deleg && (got.deleg != want.deleg || got.noncacheable != want.noncacheable || got.decided != want.decided) {
					t.Fatalf("after %q: deleg=%v noncacheable=%v decided=%d, want deleg=%v noncacheable=%v decided=%d", st.event,
						got.deleg, got.noncacheable, got.decided, want.deleg, want.noncacheable, want.decided)
				}
			}
			// The renewal refused exactly one kind of serve, and only under
			// delegation: served() asked twice at the elapsed step.
			if got := bypass.Value(); (got > 0) != deleg {
				t.Errorf("%d renewal bypasses counted", got)
			}

			// Granted none under delegation: never served (above), never
			// absorbed, even by a session that writes back, never prefetched —
			// and prefetched again once a grant lifts the verdict. Polling has
			// no verdict to lift.
			if deleg {
				sc.mu.Lock()
				sc.pol.writeBack = true
				sc.mu.Unlock()
				if _, ok := sc.absorbable(fh); ok {
					t.Error("a WRITE to a handle granted none would be absorbed")
				}
				if n := prefetches(); n != 0 {
					t.Errorf("%d blocks of a handle granted none prefetched", n)
				}
				grant(DelegRead, 10)
			}
			if n := prefetches(); n == 0 {
				t.Error("nothing prefetched of a cacheable handle")
			}

			// forget: nothing left, on any table or ring — not even the stamps.
			sc.applyRecall(RecallArgs{FH: fh, Seq: 20})
			sc.forget(fh)
			sc.mu.Lock()
			left := len(sc.files) + sc.attrLRU.n + sc.listLRU.n + sc.lookupLRU.n + int(sc.lru.bytes)
			sc.mu.Unlock()
			if left != 0 {
				t.Errorf("%d traces left of a forgotten handle", left)
			}
			revalidate()
			grant(DelegRead, 1)
			if !served() {
				t.Error("a dead handle's stamps outlived it: the reused handle's first grant was dropped")
			}
		})
	}
}

// TestOvertakenTrailerIsDropped is the reordered-trailer race: a client reads
// block 0 and is granted a read delegation (seq 1); before that reply arrives
// it writes, and with another sharer on the file its WRITE is granted nothing
// (seq 2), which clears the read delegation at the server without a recall.
// The WRITE's reply lands first. The READ's, landing after it, must not
// reinstall the delegation the server has forgotten, or nothing would ever
// call it back. A restarted server's grants start from 1 again.
func TestOvertakenTrailerIsDropped(t *testing.T) {
	fh := fhN(1)
	sc := newSessionCache(opsBS, 1<<20)
	sc.setPolicy(nil, cachePolicy{model: ModelDelegation, delegRenew: time.Hour}, cacheCounters{})
	attr := attrWithMtime(1, nfs3.TypeReg)
	attr.Size = opsBS
	sc.putAttr(fh, attr)
	sc.putBlock(fh, 0, make([]byte, opsBS), attr)
	reply := func(d DelegType, seq uint64) {
		sc.applyReplySince(Trailers{{FH: fh, Deleg: d, Seq: seq}}, []nfs3.FH{fh}, sc.ticket(nfs3.FH{}))
	}
	deleg := func() DelegType {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return sc.files[fh.Key()].deleg
	}
	reply(DelegNone, 2) // the WRITE's
	reply(DelegRead, 1) // the READ's, overtaken
	if d := deleg(); d != DelegNone {
		t.Fatalf("the overtaken READ's grant left %v, want none", d)
	}
	if _, ok := sc.readHit(fh, 0); ok {
		t.Error("block 0 served on a delegation the server has forgotten")
	}
	sc.recallAll(false)
	reply(DelegRead, 1)
	if d := deleg(); d != DelegRead {
		t.Errorf("the restarted server's first grant left %v, want read", d)
	}
}

// TestForgottenHandleStaysForgotten: a reply to a call sent before the session
// forgot a handle brings no delegation back — not across a recall after the
// forget, and not when the session held no record of the handle when it
// forgot it. A recall of a handle the session holds no record of makes none
// and counts as a forget, so the reply makes none either, nor lands in a
// record something else made since; a record the recall found takes a grant
// stamped after the recall as before. The call is a LOOKUP of a held
// directory whose reply names the child fh.
func TestForgottenHandleStaysForgotten(t *testing.T) {
	dir, fh := fhN(9), fhN(1)
	attr := attrWithMtime(1, nfs3.TypeReg)
	for _, tc := range []struct {
		name   string
		before func(sc *sessionCache) // between the call's sending and its reply
		want   DelegType
	}{
		{"a recall after the forget", func(sc *sessionCache) {
			sc.putAttr(fh, attr)
			sc.forget(fh)
			sc.applyRecall(RecallArgs{FH: fh, Deleg: DelegWrite, Seq: 2})
		}, DelegNone},
		{"a forget of a handle never held", func(sc *sessionCache) { sc.forget(fh) }, DelegNone},
		{"a recall of a handle never held", func(sc *sessionCache) {
			sc.applyRecall(RecallArgs{FH: fh, Deleg: DelegWrite, Seq: 2})
		}, DelegNone},
		{"a recall of a handle never held, stamped after the grant, then a record made", func(sc *sessionCache) {
			sc.applyRecall(RecallArgs{FH: fh, Deleg: DelegRead, Seq: 4})
			sc.putAttr(fh, attr) // a listing sent after the recall lands first
		}, DelegNone},
		{"a recall of a held handle, no forget", func(sc *sessionCache) {
			sc.putAttr(fh, attr)
			sc.applyRecall(RecallArgs{FH: fh, Deleg: DelegWrite, Seq: 2})
		}, DelegRead},
	} {
		sc := newSessionCache(opsBS, 1<<20)
		sc.setPolicy(nil, cachePolicy{model: ModelDelegation, delegRenew: time.Hour}, cacheCounters{})
		sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
		sent := sc.ticket(dir)
		tc.before(sc)
		sc.applyReplySince(Trailers{{FH: fh, Deleg: DelegRead, Seq: 3}}, []nfs3.FH{fh}, sent)
		got := DelegNone
		if fc := sc.files[fh.Key()]; fc != nil {
			got = fc.deleg
		}
		if got != tc.want {
			t.Errorf("%s: the reply left %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLateNoneTakesTheGrantBack: a trailer of none is how the server takes a
// delegation back without a recall, so the latest decision of none ends the
// grant the session holds, across a forget of another handle while it was
// out. Of a WRITE of a file the session had no record of, landing after the
// READ sent beside it made the record; and of a LOOKUP's child, landing after
// a READ of the child sent after the forget, which the server decided first:
// the landing rule refuses that reply the record, made since the forget, but
// not its none.
func TestLateNoneTakesTheGrantBack(t *testing.T) {
	dir, fh, other := fhN(9), fhN(1), fhN(2)
	for _, forget := range []struct {
		name string
		do   func(sc *sessionCache)
	}{
		{"an own REMOVE of another file", func(sc *sessionCache) {
			sc.putAttr(other, attrWithMtime(1, nfs3.TypeReg))
			sc.forget(other)
		}},
		{"a recall of a handle never held", func(sc *sessionCache) {
			sc.applyRecall(RecallArgs{FH: other, Deleg: DelegRead, Seq: 6})
		}},
	} {
		for _, call := range []string{"WRITE", "LOOKUP"} {
			sc := newSessionCache(opsBS, 1<<20)
			sc.setPolicy(nil, cachePolicy{model: ModelDelegation, delegRenew: time.Hour}, cacheCounters{})
			sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
			grant := Trailers{{FH: fh, Deleg: DelegRead, Seq: 5}}
			var none ticket
			if call == "WRITE" {
				read := sc.ticket(fh)
				none = sc.ticket(fh)
				sc.applyReplySince(grant, []nfs3.FH{fh}, read)
				forget.do(sc)
			} else {
				none = sc.ticket(dir)
				forget.do(sc)
				sc.applyReplySince(grant, []nfs3.FH{fh}, sc.ticket(fh))
			}
			sc.applyReplySince(Trailers{{FH: fh, Deleg: DelegNone, Seq: 7}}, []nfs3.FH{fh}, none)
			fc := sc.files[fh.Key()]
			if fc == nil {
				t.Fatalf("%s, %s: the READ's grant made no record", call, forget.name)
			}
			if fc.deleg != DelegNone || !fc.noncacheable || fc.decided != 7 || fc.noneSeq != 7 {
				t.Errorf("%s, %s: after the none the record holds %v (noncacheable %v, decided %d, noneSeq %d), want none, noncacheable, 7, 7",
					call, forget.name, fc.deleg, fc.noncacheable, fc.decided, fc.noneSeq)
			}
		}
	}
}

// TestHandleRecordRaces hammers one handle's record from every direction at
// once — recalls, grant trailers, revalidations, forwards and warm reads — for
// the race detector, then checks the table's invariants and that the fence
// stamp kept the highest recall it saw.
func TestHandleRecordRaces(t *testing.T) {
	const rounds = 2000
	var tick atomic.Int64
	sc := newSessionCache(opsBS, opsBudget)
	sc.setPolicy(func() time.Duration { return time.Duration(tick.Add(1)) },
		cachePolicy{model: ModelDelegation, delegRenew: 64, maxAttrs: 2, maxDentries: 3, maxListings: 1}, cacheCounters{})
	mirror := fakePersister{}
	sc.setPersister(mirror, recoveryCounters{})
	dir, fh := fhN(1), fhN(2)
	attr := attrWithMtime(1, nfs3.TypeReg)
	attr.Size = opsBlocks * opsBS

	var wg sync.WaitGroup
	for _, actor := range []func(i int){
		func(i int) { sc.applyRecall(RecallArgs{FH: fh, Seq: uint64(i), Name: "f"}) },
		func(i int) {
			sc.applyReplySince(Trailers{{FH: fh, Deleg: DelegType(i % 3), Seq: uint64(i)}, {FH: dir, Deleg: DelegRead, Seq: uint64(i)}}, nil, sc.ticket(nfs3.FH{}))
		},
		func(i int) {
			sc.putAttr(dir, attrWithMtime(1, nfs3.TypeDir))
			sc.putAttr(fh, attr)
			sc.putLookup(dir, "f", fh, false)
			sc.putDirListing(dir, []nfs3.DirEntry{{Name: "f"}})
			sc.putBlock(fh, uint64(i%opsBlocks), make([]byte, opsBS), attr)
		},
		func(i int) { sc.applyReplySince(nil, []nfs3.FH{fh, dir}, sc.ticket(nfs3.FH{})) },
		func(i int) {
			sc.readHit(fh, uint64(i%opsBlocks))
			sc.attrHit(fh)
			sc.lookupHit(dir, "f")
			sc.listingHit(dir)
			sc.settleCommit(fh, false)
		},
		func(i int) {
			if i%500 == 499 {
				sc.recallAll(true)
			}
			sc.invalidateHandle(dir)
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				actor(i)
			}
		}()
	}
	wg.Wait()
	if err := checkCacheInvariants(sc, mirror, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Without a RECALL_ALL in the way the stamp is the highest recall served.
	sc.applyRecall(RecallArgs{FH: fh, Seq: rounds + 1})
	sc.applyRecall(RecallArgs{FH: fh, Seq: 3})
	sc.mu.Lock()
	fence := sc.files[fh.Key()].decided
	sc.mu.Unlock()
	if fence != rounds+1 {
		t.Errorf("decided = %d after recalls up to %d", fence, rounds+1)
	}
}
