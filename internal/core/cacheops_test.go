package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
	"repro/internal/vclock"
)

// mirrorBlock is one block as the fake disk store saw it last.
type mirrorBlock struct {
	data  []byte
	dirty bool
	gen   uint64
}

// fakePersister is a blockPersister that keeps what a disk store would: the
// last bytes, dirty bit and generation put for each block, until dropped.
// After any sequence of cache operations it must equal the cache.
type fakePersister map[string]map[uint64]mirrorBlock

func (m fakePersister) PutBlock(key string, bn uint64, data []byte, dirty bool, gen uint64) {
	if m[key] == nil {
		m[key] = map[uint64]mirrorBlock{}
	}
	m[key][bn] = mirrorBlock{data: bytes.Clone(data), dirty: dirty, gen: gen}
}

func (m fakePersister) MarkClean(key string, bn uint64, gen uint64) {
	if b, ok := m[key][bn]; ok && b.dirty && b.gen == gen {
		b.dirty = false
		m[key][bn] = b
	}
}

func (m fakePersister) DropBlock(key string, bn uint64) {
	delete(m[key], bn)
	if len(m[key]) == 0 {
		delete(m, key)
	}
}

func (m fakePersister) DropFile(key string) { delete(m, key) }

func (m fakePersister) SetFileMeta(string, uint32, uint32, uint64, uint32) {}

// opsBS and opsBudget size the cache under test: tiny blocks, and room for
// five clean ones, so a few dozen operations reach eviction.
const (
	opsBS     = 8
	opsBudget = 5 * opsBS
	opsFiles  = 3
	opsBlocks = 8
)

// opsNames are the names the driver binds under its handles.
var opsNames = []string{"a", "b", "c", "d", "e"}

// inflightRun is a run the driver took and has not ended yet.
type inflightRun struct {
	fh        nfs3.FH
	bns, gens []uint64
}

// runCacheOps decodes ops into sessionCache operations — every way a block,
// a handle's attributes, names, listing or protocol state enters, changes
// state in, or leaves the cache — and checks the cache's structural invariants
// after each one. The metadata caps are small enough to be reached.
func runCacheOps(t *testing.T, ops []byte) {
	t.Helper()
	sc := newSessionCache(opsBS, opsBudget)
	var tick time.Duration
	pol := cachePolicy{model: ModelDelegation, delegRenew: 50, maxAttrs: 2, maxDentries: 3, maxListings: 1}
	sc.setPolicy(func() time.Duration { tick++; return tick }, pol, cacheCounters{})
	clk := vclock.NewVirtual()
	mirror := fakePersister{}
	sc.setPersister(mirror, recoveryCounters{})

	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	var runs []inflightRun
	var specs []speculation // prefetched runs claimed and not landed yet
	// stale holds the files whose cache entry was forgotten under a run in
	// flight (the handle went stale): when that run ends it finds no entry, or
	// a successor's that never heard of it, so the in-flight accounting of
	// such a handle — dead upstream — is not held to the invariant.
	stale := map[string]bool{}
	for step := 0; len(ops) > 0; step++ {
		op := next() % 22
		fh := fhN(uint64(1 + next()%opsFiles))
		bn := uint64(next() % opsBlocks)
		arg := next()
		attr := attrWithMtime(uint32(1+arg%2), nfs3.TypeReg)
		attr.Size = opsBlocks * opsBS
		switch op {
		case 0, 1: // a demand READ's block, or a prefetched one; full or a short tail
			n := opsBS
			if arg%4 == 0 {
				n = 1 + arg%opsBS
			}
			putPrefetched(sc, fh, bn, bytes.Repeat([]byte{byte(arg)}, n), attr, op == 1)
		case 2: // a local write, possibly unaligned and spanning blocks
			off := bn*opsBS + uint64(arg%opsBS)
			sc.writeDirty(fh, off, bytes.Repeat([]byte{byte(step)}, 1+arg%(2*opsBS)))
		case 3: // a flusher takes a run
			maxBytes := []int{opsBS, 3 * opsBS, 1 << 20}[arg%3]
			if data, _, bns, gens, ok := sc.takeDirtyRun(fh, bn, maxBytes); ok {
				bufpool.Put(data)
				runs = append(runs, inflightRun{fh: fh, bns: bns, gens: gens})
			}
		case 4, 5, 6: // a run's WRITE returns: landed, refused, or the RPC failed
			if len(runs) == 0 {
				continue
			}
			i := arg % len(runs)
			r := runs[i]
			runs = append(runs[:i], runs[i+1:]...)
			switch op {
			case 4:
				wcc := nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: attr}}
				if arg%3 > 0 { // pre-op attributes: ours, or a foreign writer's
					wcc.Before = nfs3.PreOpAttr{Present: true, Attr: nfs3.WccAttr{Mtime: nfs3.Time{Sec: uint32(arg % 3)}}}
				}
				for j, b := range r.bns {
					sc.flushed(r.fh, b, r.gens[j], wcc)
				}
			case 5:
				sc.discardDirty(r.fh, true)
			}
			for _, w := range sc.endFlush(r.fh, r.bns) {
				w.Wake()
			}
		case 7:
			sc.discardDirty(fh, false)
		case 8:
			switch arg % 4 {
			case 0:
				sc.applyRecall(RecallArgs{FH: fh, Seq: uint64(arg), Name: opsNames[arg%len(opsNames)]})
			case 1:
				sc.invalidateHandle(fh)
			case 2:
				sc.invalidateAllAttrs(true)
			case 3:
				sc.recallAll(arg%8 < 4)
			}
		case 9:
			sc.forget(fh)
			for _, r := range runs {
				if r.fh.Equal(fh) {
					stale[fh.Key()] = true
				}
			}
		case 10: // server attributes: the same mtime, or a foreign change
			sc.putAttr(fh, attr)
		case 11: // every local serve
			sc.readHit(fh, bn)
			sc.attrHit(fh)
			sc.listingHit(fh)
			sc.lookupHit(fh, opsNames[arg%len(opsNames)])
			sc.absorbable(fh)
		case 12: // a truncation behind the flusher's back
			if fc := sc.files[fh.Key()]; fc != nil {
				fc.size = bn * opsBS
			}
		case 13: // a whole flush pass: afterwards nothing of the file is left to take
			maxBytes := []int{opsBS, 3 * opsBS, 1 << 20}[arg%3]
			for _, start := range sc.flushStarts(fh, maxBytes) {
				if data, _, bns, gens, ok := sc.takeDirtyRun(fh, start, maxBytes); ok {
					bufpool.Put(data)
					runs = append(runs, inflightRun{fh: fh, bns: bns, gens: gens})
				}
			}
			if fc := sc.files[fh.Key()]; fc != nil && !fc.fenced {
				for b, blk := range fc.blocks {
					if blk.dirty && !blk.flushing {
						t.Fatalf("step %d: flush pass over %s (cap %d) left dirty block %d behind", step, fh, maxBytes, b)
					}
				}
			}
		case 14: // a name under the handle: a binding, a NOENT, or gone again
			name := opsNames[arg%len(opsNames)]
			switch arg % 3 {
			case 0:
				sc.putLookup(fh, name, fhN(uint64(1+bn%opsFiles)), false)
			case 1:
				sc.putLookup(fh, name, nfs3.FH{}, true)
			case 2:
				sc.dropLookup(fh, name)
			}
		case 15:
			sc.putDirListing(fh, []nfs3.DirEntry{{Name: opsNames[arg%len(opsNames)]}})
		case 16: // a reply's trailer: a grant (possibly stale), or the non-cacheable verdict, a grant of none
			sc.applyReplySince(Trailers{{FH: fh, Deleg: DelegType(arg % 3), Seq: uint64(arg)}}, nil, sc.ticket(nfs3.FH{}))
		case 17:
			sc.applyReplySince(nil, []nfs3.FH{fh}, sc.ticket(nfs3.FH{}))
		case 18: // an actor waits out the file's write-back
			if w := sc.awaitFlushIdle(fh, clk); w != nil {
				if fc := sc.files[fh.Key()]; fc == nil || fc.inflight == 0 {
					t.Fatalf("step %d: parked on %s with nothing in flight", step, fh)
				}
			}
		case 19:
			sc.commitCovered(fh, arg%2)
			sc.settleCommit(fh, arg%2 == 0)
		case 20: // a prefetch claims up to four blocks, cut into runs by a window
			sc.mu.Lock()
			fc := sc.fileFor(fh.Key())
			claimed, _ := fc.claimLocked(bn, min(bn+uint64(1+arg%4), opsBlocks), opsBlocks, false)
			if s := sc.claimedLocked(specStream, fh, fc, claimed, int64(1+arg%8)); s.due {
				specs = append(specs, s)
			}
			sc.mu.Unlock()
		case 21: // a claim's READs land: whole, cut short at the file's end, short without EOF, or failed
			if len(specs) == 0 {
				continue
			}
			i := arg % len(specs)
			s := specs[i]
			specs = append(specs[:i], specs[i+1:]...)
			for j, run := range s.runs {
				res := &nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: attr},
					Data: bytes.Repeat([]byte{byte(step)}, len(run)*opsBS)}
				switch arg % 4 {
				case 1: // the file now ends in the run's first block
					res.Attr.Attr.Size = run[0]*opsBS + 1 + uint64(arg%opsBS)
					res.Data, res.EOF = res.Data[:res.Attr.Attr.Size-run[0]*opsBS], true
				case 2:
					res.Data = res.Data[:opsBS]
				}
				res.Count = uint32(len(res.Data))
				var landed wireDec = res
				if arg%4 == 3 {
					landed = nil
				}
				sc.landCall(&s, j, landed)
			}
			sc.mu.Lock()
			if sc.files[s.rec.key] == s.rec {
				for _, b := range s.blocks {
					if _, inflight := s.rec.fetching[b]; inflight {
						sc.mu.Unlock()
						t.Fatalf("step %d: block %d of %s still in flight after its run landed", step, b, s.fh)
					}
				}
			}
			sc.mu.Unlock()
		}
		if err := checkCacheInvariants(sc, mirror, runs, stale); err != nil {
			t.Fatalf("step %d (op %d, file %s, block %d, arg %d): %v", step, op, fh, bn, arg, err)
		}
	}
}

// checkCacheInvariants is what must hold between any two cache operations.
func checkCacheInvariants(sc *sessionCache, mirror fakePersister, runs []inflightRun, stale map[string]bool) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	// The driver's view of what is in flight.
	taken := map[string]map[uint64]bool{}
	for _, r := range runs {
		key := r.fh.Key()
		if taken[key] == nil {
			taken[key] = map[uint64]bool{}
		}
		for _, bn := range r.bns {
			taken[key][bn] = true
		}
	}
	var cleanBytes int64
	clean, withAttrs, withListing, indexed := 0, 0, 0, 0
	for key, fc := range sc.files {
		if fc.key != key {
			return fmt.Errorf("file %q filed under %q", fc.key, key)
		}
		if fc.attrLink.of != fc || fc.listLink.of != fc {
			return fmt.Errorf("%q: LRU links belong to another record", key)
		}
		if fc.attrLink.on() {
			withAttrs++
		}
		if fc.listLink.on() {
			withListing++
		} else if fc.listing != nil {
			return fmt.Errorf("%q: listing held off the listing LRU", key)
		}
		for name, ent := range fc.names {
			indexed++
			if ent.dir != fc || ent.name != name || ent.link.of != ent {
				return fmt.Errorf("%q holds %q's resolution under %q", key, ent.name, name)
			}
		}
		if fc.inflight == 0 && len(fc.flushWait) > 0 {
			return fmt.Errorf("%q: %d flush waiters parked with nothing in flight", key, len(fc.flushWait))
		}
		if w := fc.walk; ((w.inflight || w.done || w.off || w.cookie != 0) && !w.started) || (w.started && sc.pol.model == ModelDelegation) {
			return fmt.Errorf("%q: directory walk %+v under %v", key, w, sc.pol.model)
		}
		if sc.pol.model != ModelDelegation && fc.deleg != DelegNone {
			return fmt.Errorf("%q: delegation %v held outside the delegation model", key, fc.deleg)
		}
		if fc.noncacheable && (sc.pol.model != ModelDelegation || fc.deleg != DelegNone) {
			return fmt.Errorf("%q: non-cacheable beside delegation %v under %v: a verdict no server sends", key, fc.deleg, sc.pol.model)
		}
		if fc.remoteWrite && (fc.blocks == nil || fc.attrLink.on()) || fc.stream.reread && fc.stream.next != 0 {
			return fmt.Errorf("%q: news of a remote write=%v (data touched=%v, attributes valid=%v), revalidation stream %+v",
				key, fc.remoteWrite, fc.blocks != nil, fc.attrLink.on(), fc.stream)
		}
		dirty, marked := 0, 0
		for bn, blk := range fc.blocks {
			if blk.fc != fc || blk.bn != bn {
				return fmt.Errorf("%q/%d: record belongs to %q/%d", key, bn, blk.fc.key, blk.bn)
			}
			if blk.gen > fc.wseq {
				return fmt.Errorf("%q/%d: generation %d above the file's write sequence %d", key, bn, blk.gen, fc.wseq)
			}
			if onLRU := blk.link.on(); onLRU == blk.dirty {
				return fmt.Errorf("%q/%d: dirty=%v, on the LRU=%v", key, bn, blk.dirty, onLRU)
			}
			if blk.dirty {
				dirty++
				if len(blk.data) != opsBS || blk.gen == 0 || blk.unread {
					return fmt.Errorf("%q/%d: dirty block with %d bytes, generation %d, unread=%v", key, bn, len(blk.data), blk.gen, blk.unread)
				}
			} else {
				clean++
				cleanBytes += int64(len(blk.data))
			}
			if blk.flushing {
				marked++
				if !blk.dirty || (!taken[key][bn] && !stale[key]) {
					return fmt.Errorf("%q/%d: in-flight mark on a block that is clean (dirty=%v) or that nobody took", key, bn, blk.dirty)
				}
			}
			m, ok := mirror[key][bn]
			if !ok || m.dirty != blk.dirty || m.gen != blk.gen || !bytes.Equal(m.data, blk.data) {
				return fmt.Errorf("%q/%d: cache has dirty=%v gen=%d %v, mirror has %+v (present=%v)", key, bn, blk.dirty, blk.gen, blk.data, m, ok)
			}
		}
		if dirty != fc.ndirty {
			return fmt.Errorf("%q: dirty counter %d, %d dirty records", key, fc.ndirty, dirty)
		}
		if fc.fenced && fc.inflight == 0 {
			return fmt.Errorf("%q: fenced with nothing in flight", key)
		}
		if !stale[key] && (marked > fc.inflight || fc.inflight != len(taken[key])) {
			return fmt.Errorf("%q: %d marks, in-flight counter %d, %d blocks taken, fenced=%v", key, marked, fc.inflight, len(taken[key]), fc.fenced)
		}
		if len(mirror[key]) != len(fc.blocks) {
			return fmt.Errorf("%q: mirror holds %d blocks, cache %d", key, len(mirror[key]), len(fc.blocks))
		}
	}
	if err := checkSuccLocked(sc); err != nil {
		return err
	}
	for key := range mirror {
		if sc.files[key] == nil {
			return fmt.Errorf("mirror keeps %q, which the cache forgot", key)
		}
	}
	if sc.lru.bytes != cleanBytes || cleanBytes > sc.maxB {
		return fmt.Errorf("LRU counts %d bytes; the cache holds %d clean bytes (budget %d)", sc.lru.bytes, cleanBytes, sc.maxB)
	}
	// Each ring threads exactly the entries holding its part — so nothing
	// forgotten is reachable from one — within its cap.
	return errors.Join(
		checkRing("block", &sc.lru.ring, clean, clean, func(blk *cachedBlock) *link[cachedBlock] {
			if blk.dirty || blk.fc.blocks[blk.bn] != blk || sc.files[blk.fc.key] != blk.fc {
				return nil
			}
			return &blk.link
		}),
		checkRing("attribute", &sc.attrLRU, withAttrs, sc.pol.maxAttrs, func(fc *cachedFile) *link[cachedFile] {
			if sc.files[fc.key] != fc {
				return nil
			}
			return &fc.attrLink
		}),
		checkRing("listing", &sc.listLRU, withListing, sc.pol.maxListings, func(fc *cachedFile) *link[cachedFile] {
			if sc.files[fc.key] != fc {
				return nil
			}
			return &fc.listLink
		}),
		checkRing("lookup", &sc.lookupLRU, indexed, sc.pol.maxDentries, func(ent *lookupEnt) *link[lookupEnt] {
			if sc.files[ent.dir.key] != ent.dir || ent.dir.names[ent.name] != ent {
				return nil
			}
			return &ent.link
		}),
	)
}

// checkSuccLocked checks the learned reading order (readahead.go, "across
// files"): a successor is a live record other than this one that names this
// one back, the same from the other end, a spill is only ever withheld from a
// successor, and the file last read to its end is live.
func checkSuccLocked(sc *sessionCache) error {
	for key, fc := range sc.files {
		if y := fc.succ; y != nil && (y == fc || sc.files[y.key] != y || y.pred != fc) {
			return fmt.Errorf("%q: successor %q is itself, forgotten, or follows another record", key, y.key)
		}
		if x := fc.pred; x != nil && (sc.files[x.key] != x || x.succ != fc) {
			return fmt.Errorf("%q: predecessor %q is forgotten or is followed by another record", key, x.key)
		}
		if fc.succHeld && fc.succ == nil {
			return fmt.Errorf("%q: a spill withheld from no successor", key)
		}
	}
	if d := sc.lastDone; d != nil && sc.files[d.key] != d {
		return fmt.Errorf("the last file read to its end, %q, is forgotten", d.key)
	}
	return nil
}

// checkRing walks an LRU ring: it must thread exactly want entries, count as
// many, stay within most, and hold only entries the cache still holds — held
// returns the link the entry should be on the ring by, nil if the cache does
// not hold it.
func checkRing[T any](name string, r *ring[T], want, most int, held func(*T) *link[T]) error {
	n := 0
	for k := r.head.next; k != &r.head; k = k.next {
		if k.next.prev != k || k.of == nil || held(k.of) != k {
			return fmt.Errorf("%s LRU broken or holding an entry the cache does not", name)
		}
		if n++; n > want {
			break
		}
	}
	if n != want || r.n != want || want > most {
		return fmt.Errorf("%s LRU threads %d entries and counts %d; the cache holds %d (cap %d)", name, n, r.n, want, most)
	}
	return nil
}

// TestSessionCacheRandomOps drives seeded random operation sequences through
// the cache and its fake disk mirror.
func TestSessionCacheRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 4*1500)
		rand.New(rand.NewSource(seed)).Read(ops)
		runCacheOps(t, ops)
	}
}

// FuzzSessionCacheOps is the same driver fed by the fuzzer.
func FuzzSessionCacheOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 4*64)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	// write, take, re-write under the WRITE, discard under it, write again
	f.Add([]byte{2, 0, 0, 0, 3, 0, 0, 2, 2, 0, 0, 1, 7, 0, 0, 0, 2, 0, 0, 3, 3, 0, 0, 0, 4, 0, 0, 0})
	// claim blocks 2..5 in runs of two, write block 3 under them, land them cut
	// short at the file's end
	f.Add([]byte{20, 0, 2, 15, 2, 0, 3, 0, 21, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) { runCacheOps(t, ops) })
}
