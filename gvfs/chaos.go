package gvfs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/simnet"
)

// This file is the chaos harness: N concurrent mounts driven through a
// random operation schedule while a seeded fault plan disrupts the wide
// area (drops, duplicates, reordering, jitter, partition/heal cycles,
// proxy-server crash/restarts), with every observation checked against
// the visibility rules of the configured consistency model.
//
// The unit is an event, which sets a key's state: a write sets a file (or
// one of its blocks) to its (client, seq) value, and a create, unlink or
// rename sets a name to exists or absent. The other unit is an
// observation: a successful read, stat, access check or readdir reporting
// a key's state. The workload decides what the clients do; the op log, the
// client loop and the checker are the same for every workload.
//
// The checker is deliberately assertion-per-model, not shadow-state: under
// write-back caching two concurrent writers give last-FLUSH-wins, not
// last-write-wins, so an observation is judged against the set of events
// that are *plausible* at its virtual time. Each event carries its landing
// deadline, the last time it can still reach the server. An event e stops
// being plausible only when some anchor event a provably supersedes it: a
// started after e's deadline, and a is either (a) globally propagated (its
// visibility deadline passed before the observation began), (b) the
// observing client's own earlier op (read-your-writes), or (c) a value this
// client already observed (monotonic reads). Failed ops are indeterminate:
// never anchors, and plausible to a client forever.
//
// The staleness windows are per model. Polling (Section 4.2) bounds
// staleness by the poll window — but only while polls succeed, so a
// partition extends the bound by its duration. Delegation (Section 4.3)
// bounds it by the DelegRenew forwarding lease that covers lost callbacks.

// ChaosOptions parameterizes a chaos run. Zero values select defaults.
type ChaosOptions struct {
	// Model is the consistency model under test (default ModelPolling).
	Model core.Model
	// Workload is what the clients do to the shared keys: Overwrites (the
	// default when nil) or Namespace. The fault plan is the same for both.
	Workload Workload
	// Clients is the number of concurrent client mounts (default 2).
	Clients int
	// Steps is the number of operations each client performs (default 120).
	Steps int
	// Seed drives the op schedule, the fault plan, and the link PRNGs.
	Seed int64
	// Files is the number of shared files clients contend on (default 6;
	// Namespace contends on twice as many names).
	Files int
	// Faults is the per-link fault policy installed between every client
	// host and the server host once setup completes. Its Seed field is
	// overwritten with Seed.
	Faults simnet.Faults
	// Partitions is the number of partition/heal cycles, each isolating
	// one client host from the server for 10–25 s (default 1; -1 for
	// none).
	Partitions int
	// ServerRestarts is the number of proxy-server crash/restarts
	// (default 1; -1 for none).
	ServerRestarts int
	// OpGap bounds the random think time between a client's operations
	// (default 3s; actual gaps are 500ms + uniform[0, OpGap)).
	OpGap time.Duration
	// FlushParallelism is forwarded to core.Config.FlushParallelism: how
	// many dirty-block WRITEs a proxy-client flush keeps in flight at
	// once. 0 keeps the core default (serial).
	FlushParallelism int
	// Overload runs the session's proxy server with a bounded scheduling
	// layer (small worker pool, global token-bucket admission) and opens
	// every client's op schedule with a synchronized burst fan-in of cold
	// reads, so the server provably sheds load (TRY_LATER) while the
	// at-least-once machinery absorbs it. Clients defaults to 6 in this
	// mode.
	Overload bool
	// DiskCacheDir enables the persistent disk cache on every mount (each
	// mount persists under its own subdirectory). Required for WarmRestarts.
	DiskCacheDir string
	// WarmRestarts is the number of proxy-client warm restarts: a randomly
	// chosen client is killed mid-run without any shutdown (in-flight
	// flushes and all in-memory state drop on the floor; the persistent
	// disk cache survives in whatever mid-state the crash left) and
	// remounted from the same disk directory, recovering dirty blocks into
	// write-back and revalidating clean ones. Defaults to 1 when
	// DiskCacheDir is set; -1 for none.
	WarmRestarts int
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Model == 0 {
		o.Model = core.ModelPolling
	}
	if o.Workload == nil {
		o.Workload = Overwrites{}
	}
	if o.Clients == 0 {
		o.Clients = 2
		if o.Overload {
			o.Clients = 6
		}
	}
	if o.Steps == 0 {
		o.Steps = 120
	}
	if o.Files == 0 {
		o.Files = 6
	}
	// Negative counts mean "none" and survive repeated normalization
	// (withDefaults must be idempotent: RunChaos and NewChaosPlan both
	// apply it).
	if o.Partitions == 0 {
		o.Partitions = 1
	}
	if o.ServerRestarts == 0 {
		o.ServerRestarts = 1
	}
	if o.WarmRestarts == 0 && o.DiskCacheDir != "" {
		o.WarmRestarts = 1
	}
	if o.OpGap == 0 {
		o.OpGap = 3 * time.Second
	}
	o.Faults.Seed = o.Seed
	return o
}

// ChaosEvent is one scheduled disruption, in virtual time from the start
// of the op phase.
type ChaosEvent struct {
	At   time.Duration
	Kind string // "partition", "heal", "restart-server", "restart-client"
	Host string // the targeted client host (partition/heal/restart-client)
}

// ChaosPlan is the deterministic disruption schedule derived from a seed.
type ChaosPlan struct {
	Seed   int64
	Faults simnet.Faults
	Events []ChaosEvent
}

// maxPartition bounds every partition's duration; the checker's staleness
// windows depend on it.
const maxPartition = 25 * time.Second

// NewChaosPlan derives the disruption schedule from the options alone, so
// the same seed always yields the same plan.
func NewChaosPlan(o ChaosOptions) ChaosPlan {
	o = o.withDefaults()
	r := rand.New(rand.NewSource(o.Seed ^ 0x5eedfa17))
	// Ops span roughly Steps * (500ms + OpGap/2); schedule disruptions
	// inside the middle 70% so setup and drain stay clean.
	span := time.Duration(o.Steps) * (500*time.Millisecond + o.OpGap/2)
	lo, hi := span/10, span*8/10
	randAt := func() time.Duration {
		return lo + time.Duration(r.Int63n(int64(hi-lo)))
	}
	plan := ChaosPlan{Seed: o.Seed, Faults: o.Faults}
	for i := 0; i < max(0, o.Partitions); i++ {
		at := randAt()
		host := chaosHost(r.Intn(o.Clients))
		dur := 10*time.Second + time.Duration(r.Int63n(int64(maxPartition-10*time.Second)))
		plan.Events = append(plan.Events,
			ChaosEvent{At: at, Kind: "partition", Host: host},
			ChaosEvent{At: at + dur, Kind: "heal", Host: host},
		)
	}
	for i := 0; i < max(0, o.ServerRestarts); i++ {
		plan.Events = append(plan.Events, ChaosEvent{At: randAt(), Kind: "restart-server"})
	}
	if o.DiskCacheDir != "" {
		for i := 0; i < max(0, o.WarmRestarts); i++ {
			plan.Events = append(plan.Events,
				ChaosEvent{At: randAt(), Kind: "restart-client", Host: chaosHost(r.Intn(o.Clients))})
		}
	}
	sort.Slice(plan.Events, func(i, j int) bool { return plan.Events[i].At < plan.Events[j].At })
	return plan
}

func chaosHost(i int) string { return fmt.Sprintf("C%d", i+1) }

// chaosBurstFiles is how many cold files each client reads back-to-back in
// the Overload mode's opening burst fan-in.
const chaosBurstFiles = 6

func chaosBurstPath(client, k int) string {
	return fmt.Sprintf("burst/%s_%d", chaosHost(client), k)
}

// chaosBurstFanIn slams the proxy server with back-to-back cold reads from
// one client; run concurrently by every client it overdraws the Overload
// admission bucket by an order of magnitude, forcing sheds. Errors are
// ignored — the burst is load, not an observation (a read that exhausts its
// retransmission window under heavy shedding is the overload behaving as
// designed).
func chaosBurstFanIn(m *Mount, client int) {
	for k := 0; k < chaosBurstFiles; k++ {
		m.Client.ReadFile(chaosBurstPath(client, k))
	}
}

// ChaosReport summarizes a chaos run for assertions and debugging.
type ChaosReport struct {
	Plan ChaosPlan
	Ops  int
	// Reads counts the successful ops that observed a key (the checked
	// observations come from these); Writes counts the successful ops that
	// set a key's state.
	Reads    int
	Writes   int
	OpErrors int // ops that returned an error (indeterminate, not violations)
	// ErrorSamples holds up to 10 formatted op errors for debugging.
	ErrorSamples []string
	Violations   []string

	// NetEvents is the applied partition/heal log in simnet's stamped
	// virtual time: comparing it across runs asserts that a seeded plan
	// replays identically.
	NetEvents []simnet.Event
	NetStats  simnet.Stats
	Restarts  int
	// WarmRestarts counts proxy-client crash/remount-from-disk cycles the
	// plan's "restart-client" events actually performed.
	WarmRestarts int

	// Traces maps each contended path to the formatted span trace of every
	// retained RPC that touched it — request IDs and virtual timestamps
	// across kernel clients, proxies, and the server — so a seeded failure
	// can be diagnosed without rerunning, and replays compared byte for
	// byte. A path that no longer exists after the run has no trace.
	Traces map[string]string

	// Metrics is the unified registry snapshot taken after the drain.
	Metrics obs.Snapshot

	// Retransmits and DRCHits total the at-least-once RPC machinery's work
	// across every node: same-XID retransmissions sent, and duplicate
	// requests answered from a server's reply cache instead of re-executed.
	Retransmits int64
	DRCHits     int64
	// Sheds totals gvfs_server_shed_total across every node: requests the
	// bounded scheduling layer answered with TRY_LATER (Overload mode).
	Sheds int64

	// StalenessViolations totals gvfs_staleness_violations_total across both
	// models: cache serves of data superseded by a remote commit inside the
	// client's freshness horizon. Zero on a correct run — the observatory
	// measures staleness the models permit, never staleness they forbid.
	StalenessViolations int64
	// Attribution is the formatted critical-path latency report over every
	// retained kernel request: per-op percentiles and segment shares, plus
	// the slowest requests' breakdowns.
	Attribution string
	// DroppedSpans counts spans the bounded rings overwrote before the final
	// harvest; nonzero means Traces and Attribution are lower bounds.
	DroppedSpans uint64
}

// traceSpans bounds how many spans a per-path trace retains.
const traceSpans = 400

// chaosEvent sets one key's state. Client -1 is the initial contents.
type chaosEvent struct {
	key, state string
	client     int
	start      time.Duration
	// land is the last virtual time at which the event can still reach the
	// server: end + flushLag for a write-back write, end + nameLag or
	// absorbLag for a namespace op, start for the initial contents.
	land time.Duration
	// failed marks an op that returned an error: indeterminate, it never
	// anchors, and a client may observe it at any time.
	failed bool
	// value marks a data value, which names this event alone: observing it
	// advances the observer's monotonic-read anchor. An existence state
	// does not say which event set it.
	value bool
}

// chaosObs is one observation: a key's state as an op reported it.
type chaosObs struct{ key, state string }

// chaosOp is one recorded operation; the checker replays these after the
// run completes.
type chaosOp struct {
	kind       byte   // a key of chaosKinds, or 'w', 'c', 'u', 'm'
	path       string // the target (rename: the source)
	start, end time.Duration
	err        error
	events     []*chaosEvent // the keys this op set
	obs        []chaosObs    // what it observed, if it succeeded
}

// chaosKinds names the observing op kinds in violation reports.
var chaosKinds = map[byte]string{'r': "read", 's': "stat", 'p': "stat", 'a': "access", 'd': "readdir"}

const (
	farFuture  = time.Duration(math.MaxInt64 / 4)
	nameExists = "exists"
	nameAbsent = "absent"
)

func initialEvent(key, state string, at time.Duration, value bool) *chaosEvent {
	return &chaosEvent{key: key, state: state, client: -1, start: at, land: at, value: value}
}

// setValue records that op wrote state to key through the write-back cache:
// it can land up to flushLag after the op returns.
func (op *chaosOp) setValue(client int, key, state string, flushLag time.Duration) {
	op.events = append(op.events, &chaosEvent{key: key, state: state, client: client,
		start: op.start, land: op.end + flushLag, failed: op.err != nil, value: true})
}

// setName records that a namespace op set name's existence, landing at most
// lag after the op returns: the RPC retry window for a write-through op, a
// partition too for an unlink under write-back. A failed one has no deadline
// at all: its request can execute even when its reply is lost, so its state
// stays plausible, even to the server's final state.
func (op *chaosOp) setName(client int, name string, exists bool, lag time.Duration) {
	land := op.end + lag
	if op.err != nil {
		land = farFuture
	}
	op.events = append(op.events, &chaosEvent{key: name, state: existence(exists), client: client,
		start: op.start, land: land, failed: op.err != nil})
}

func existence(exists bool) string {
	if exists {
		return nameExists
	}
	return nameAbsent
}

func chaosValue(client, seq, size int) string {
	s := fmt.Sprintf("v|%d|%06d|", client, seq)
	if len(s) < size {
		s += strings.Repeat(".", size-len(s))
	}
	return s
}

// chaosState is the state a block's contents report: the (client, seq) of
// the value, or the contents themselves if the harness never wrote them.
func chaosState(b []byte) string {
	parts := strings.SplitN(string(b), "|", 4)
	if len(parts) == 4 && parts[0] == "v" {
		c, err1 := strconv.Atoi(parts[1])
		q, err2 := strconv.Atoi(parts[2])
		if err1 == nil && err2 == nil {
			return chaosValue(c, q, 0)
		}
	}
	return string(b)
}

// A Workload is what a chaos run's clients do: it seeds the contended
// paths, runs one step of a client's op mix on that client's own PRNG
// stream, and reads a path's keys back from the server after the drain.
// Overwrites and Namespace are the two.
type Workload interface {
	// stream offsets client c's PRNG seed: Seed + stream()·(c+1).
	stream() int64
	// blockSize is the proxy's and the mount's block size (0: the default).
	blockSize() int
	// seed creates the initial contents at time at and returns the
	// contended paths and every key's initial event.
	seed(d *Deployment, files int, at time.Duration) ([]string, []*chaosEvent, error)
	// step runs one step of c's op mix, appending its ops to c.log.
	step(c *chaosClient, r *rand.Rand)
	// final reads p's keys from the server.
	final(d *Deployment, p string) ([]chaosObs, error)
}

// Overwrites is the data workload: clients overwrite, read and stat a pool
// of fixed-size files. Writes overwrite in place, so files never change
// size. With Blocks > 1 each block is a key of its own, path#bn: a write
// is one block-aligned WRITE of one block, and a whole-file read observes
// every block.
type Overwrites struct {
	// Blocks is each file's block count. 0 or 1: one 64-byte value per file,
	// so every read and write is a single atomic RPC. More: files of Blocks
	// 4 KiB blocks, with the proxy and the mount on 4 KiB blocks.
	Blocks int
}

const (
	chaosValueSize = 64      // a one-block file's size
	chaosBlockSize = 4 << 10 // a multi-block file's block size
)

func (Overwrites) stream() int64 { return 1000 }

func (w Overwrites) blockSize() int {
	if w.Blocks > 1 {
		return chaosBlockSize
	}
	return 0
}

// layout is a file's block count and block size.
func (w Overwrites) layout() (blocks, size int) {
	if w.Blocks > 1 {
		return w.Blocks, chaosBlockSize
	}
	return 1, chaosValueSize
}

// key names block bn of p: p itself in a one-block file.
func (w Overwrites) key(p string, bn int) string {
	if w.Blocks > 1 {
		return fmt.Sprintf("%s#%d", p, bn)
	}
	return p
}

// sizeKey is the key a stat of p observes: the size never changes.
func sizeKey(p string) string { return p + "#size" }

func (w Overwrites) seed(d *Deployment, files int, at time.Duration) ([]string, []*chaosEvent, error) {
	blocks, size := w.layout()
	init := chaosValue(-1, 0, size)
	paths := make([]string, files)
	var events []*chaosEvent
	for i := range paths {
		paths[i] = fmt.Sprintf("chaos/f%d", i)
		if _, err := d.FS.WriteFile(paths[i], []byte(strings.Repeat(init, blocks))); err != nil {
			return nil, nil, fmt.Errorf("chaos: seed %s: %w", paths[i], err)
		}
		events = append(events, w.initial(paths[i], at)...)
	}
	return paths, events, nil
}

// initial is the events of p's initial contents: its size and every block.
func (w Overwrites) initial(p string, at time.Duration) []*chaosEvent {
	blocks, size := w.layout()
	events := []*chaosEvent{initialEvent(sizeKey(p), strconv.Itoa(blocks*size), at, true)}
	for bn := 0; bn < blocks; bn++ {
		events = append(events, initialEvent(w.key(p, bn), chaosValue(-1, 0, 0), at, true))
	}
	return events
}

// step: 40% overwrites, 40% whole-file reads, 20% stats.
func (w Overwrites) step(c *chaosClient, r *rand.Rand) {
	p := c.paths[r.Intn(len(c.paths))]
	op := chaosOp{path: p, start: c.now()}
	switch roll := r.Intn(10); {
	case roll < 4:
		blocks, size := w.layout()
		bn := 0
		if blocks > 1 {
			bn = r.Intn(blocks)
		}
		c.seq++
		op.kind = 'w'
		op.err = chaosOverwrite(c.m, p, chaosValue(c.id, c.seq, size), bn*size)
		op.end = c.now()
		op.setValue(c.id, w.key(p, bn), chaosValue(c.id, c.seq, 0), c.flushLag)
	case roll < 8:
		op.kind = 'r'
		var data []byte
		data, op.err = c.m.Client.ReadFile(p)
		op.end = c.now()
		if op.err == nil {
			op.obs = w.observe(p, data)
		}
	default:
		op.kind = 's'
		a, err := c.m.Client.Stat(p)
		op.err, op.end = err, c.now()
		if err == nil {
			op.obs = []chaosObs{{sizeKey(p), strconv.FormatUint(a.Size, 10)}}
		}
	}
	c.log = append(c.log, op)
}

// observe splits p's contents into its blocks' states.
func (w Overwrites) observe(p string, data []byte) []chaosObs {
	blocks, size := w.layout()
	obs := make([]chaosObs, blocks)
	for bn := range obs {
		lo, hi := min(bn*size, len(data)), len(data)
		if bn < blocks-1 {
			hi = min(lo+size, len(data))
		}
		obs[bn] = chaosObs{w.key(p, bn), chaosState(data[lo:hi])}
	}
	return obs
}

func (w Overwrites) final(d *Deployment, p string) ([]chaosObs, error) {
	attr, err := d.FS.LookupPath(p)
	if err != nil {
		return nil, fmt.Errorf("chaos: final lookup %s: %w", p, err)
	}
	buf := make([]byte, attr.Size)
	if attr.Size > 0 {
		if _, _, err := d.FS.ReadAt(attr.ID, buf, 0); err != nil {
			return nil, fmt.Errorf("chaos: final read %s: %w", p, err)
		}
	}
	return w.observe(p, buf), nil
}

// chaosOverwrite overwrites val at off in place. It must not use
// Client.WriteFile, which creates (and so truncates) the file: keeping the
// size fixed keeps every block write a single atomic RPC.
func chaosOverwrite(m *Mount, p, val string, off int) error {
	f, err := m.Client.Open(p)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte(val), uint64(off)); err != nil {
		f.Close()
		return err
	}
	return f.Close() // Close syncs: the WRITE reaches the proxy here
}

// Namespace is the namespace-churn workload: exclusive creates, unlinks and
// renames over a shared name pool, probed by stats, access checks,
// name-at-a-time sweeps and readdir membership scans. Each name is a key
// whose state is its existence, so the checker exercises the proxy's
// dentry, negative-lookup and listing caches under the same fault plan.
type Namespace struct{}

// chaosMetaDir holds the contended name pool.
const chaosMetaDir = "meta"

func chaosMetaName(i int) string { return fmt.Sprintf("%s/n%02d", chaosMetaDir, i) }

// chaosMetaGhosts is the number of names no client ever creates: probing
// them exercises the negative-lookup cache on every schedule.
const chaosMetaGhosts = 3

func chaosMetaGhost(i int) string { return fmt.Sprintf("%s/ghost%02d", chaosMetaDir, i) }

// chaosMetaSweep is how many names one name-at-a-time sweep resolves.
const chaosMetaSweep = 4

func (Namespace) stream() int64  { return 5000 }
func (Namespace) blockSize() int { return 0 }

// seed makes a name pool of twice as many names as files, half
// pre-created, so unlinks, probes, and negative lookups all have material
// from the first step.
func (Namespace) seed(d *Deployment, files int, at time.Duration) ([]string, []*chaosEvent, error) {
	names := make([]string, 2*files)
	var events []*chaosEvent
	for i := range names {
		names[i] = chaosMetaName(i)
		if i%2 == 0 {
			if _, err := d.FS.WriteFile(names[i], []byte("x")); err != nil {
				return nil, nil, fmt.Errorf("chaos: seed %s: %w", names[i], err)
			}
		}
		events = append(events, initialEvent(names[i], existence(i%2 == 0), at, false))
	}
	for i := 0; i < chaosMetaGhosts; i++ {
		events = append(events, initialEvent(chaosMetaGhost(i), nameAbsent, at, false))
	}
	return names, events, nil
}

// step: ~25% exclusive creates, 20% unlinks, 15% renames, 20% stat/access
// probes, 10% name-at-a-time sweeps, 10% readdir membership scans.
func (Namespace) step(c *chaosClient, r *rand.Rand) {
	names := c.paths
	n := names[r.Intn(len(names))]
	op := chaosOp{path: n, start: c.now()}
	switch roll := r.Intn(20); {
	case roll < 5: // exclusive create
		op.kind = 'c'
		f, err := c.m.Client.Create(n, 0o644, true)
		if err == nil {
			err = f.Close()
		}
		op.err, op.end = err, c.now()
		op.setName(c.id, n, true, c.absorbLag)
	case roll < 9: // unlink
		op.kind = 'u'
		op.err = c.m.Client.Remove(n)
		op.end = c.now()
		op.setName(c.id, n, false, c.absorbLag)
	case roll < 12: // rename: n vanishes, dst appears (replacing any old dst)
		op.kind = 'm'
		dst := names[r.Intn(len(names))]
		for dst == n {
			dst = names[r.Intn(len(names))]
		}
		op.err = c.m.Client.Rename(n, dst)
		op.end = c.now()
		op.setName(c.id, n, false, c.nameLag)
		op.setName(c.id, dst, true, c.nameLag)
	case roll < 14:
		// Name-at-a-time sweep: open a run of the pool's files by name
		// without listing their directory, as tar of a file list does — what
		// makes a polling proxy walk the directory itself (its pages land
		// while the other clients create, remove and rename under it).
		// Each name resolved is an existence observation of its own.
		for k, at := 0, r.Intn(len(names)); ; k++ {
			op = chaosOp{kind: 'p', path: names[(at+k)%len(names)], start: c.now()}
			_, err := c.m.Client.Stat(op.path)
			op.end = c.now()
			op.observeName(err)
			if k == chaosMetaSweep-1 {
				break
			}
			c.log = append(c.log, op)
		}
	case roll < 18: // existence probe via stat or access check
		if roll == 17 {
			// Ghost names are never created: their probes exercise the
			// negative-lookup cache regardless of how the schedule
			// churns the real pool.
			op.path = chaosMetaGhost(r.Intn(chaosMetaGhosts))
		}
		// Prime, then observe back-to-back: the first call fills the
		// dentry or negative cache so the recorded observation also
		// exercises the hit path.
		var err error
		if roll&1 == 0 {
			op.kind = 'p'
			c.m.Client.Stat(op.path)
			_, err = c.m.Client.Stat(op.path)
		} else {
			op.kind = 'a'
			c.m.Client.Access(op.path, nfs3.AccessRead)
			_, err = c.m.Client.Access(op.path, nfs3.AccessRead)
		}
		op.end = c.now()
		op.observeName(err)
	default: // readdir membership scan
		op.kind = 'd'
		entries, err := c.m.Client.ReadDir(chaosMetaDir)
		op.err, op.end = err, c.now()
		if err == nil {
			in := slices.Contains(entries, strings.TrimPrefix(n, chaosMetaDir+"/"))
			op.obs = []chaosObs{{n, existence(in)}}
		}
	}
	c.log = append(c.log, op)
}

// observeName records what a stat or access check of op.path returned: the
// name exists, does not, or (any other error) the op says nothing.
func (op *chaosOp) observeName(err error) {
	switch {
	case err == nil:
		op.obs = []chaosObs{{op.path, nameExists}}
	case isNoEnt(err):
		op.obs = []chaosObs{{op.path, nameAbsent}}
	default:
		op.err = err
	}
}

func isNoEnt(err error) bool {
	var ne *nfs3.Error
	return errors.As(err, &ne) && ne.Status == nfs3.ErrNoEnt
}

func (Namespace) final(d *Deployment, n string) ([]chaosObs, error) {
	_, err := d.FS.LookupPath(n)
	return []chaosObs{{n, existence(err == nil)}}, nil
}

// chaosClient is one client's side of a run: its mount, its op log, and
// what its workload's steps need.
type chaosClient struct {
	d       *Deployment
	m       *Mount
	id, seq int
	paths   []string
	// The lags after which a write-back write, a rename, and an unlink or a
	// create have landed on the server (runChaos).
	flushLag, nameLag, absorbLag time.Duration
	restarts                     []time.Duration // warm restarts still to come
	log                          []chaosOp
}

func (c *chaosClient) now() time.Duration { return c.d.Clock.Now() }

// run performs the client's op schedule. At each time in c.restarts the
// client warm-restarts: the proxy is killed without shutdown (Crash
// abandons the disk store in whatever mid-state it is in) and remounted
// from the same disk directory before the next op.
func (c *chaosClient) run(sess *Session, o ChaosOptions, mo nfsclient.Options, mu *sync.Mutex, rep *ChaosReport) {
	r := rand.New(rand.NewSource(o.Seed + o.Workload.stream()*int64(c.id+1)))
	c.log = make([]chaosOp, 0, o.Steps)
	for step := 0; step < o.Steps; step++ {
		if len(c.restarts) > 0 && c.now() >= c.restarts[0] {
			c.restarts = c.restarts[1:]
			nm, err := sess.RemountFromDisk(c.m, mo)
			mu.Lock()
			if err != nil {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("plan: warm-restart %s: %v", chaosHost(c.id), err))
			} else {
				rep.WarmRestarts++
				c.m = nm
			}
			mu.Unlock()
		}
		o.Workload.step(c, r)
		c.d.Clock.Sleep(500*time.Millisecond + time.Duration(r.Int63n(int64(o.OpGap))))
	}
}

// RunChaos stands up a fresh deployment, executes the seeded chaos
// schedule, and returns the checked report. The error covers harness
// failures (setup, final server state unreadable); consistency violations
// are reported in ChaosReport.Violations.
func RunChaos(o ChaosOptions) (*ChaosReport, error) {
	o = o.withDefaults()
	plan := NewChaosPlan(o)

	d, err := NewDeployment(Config{})
	if err != nil {
		return nil, err
	}
	defer d.Close()

	cfg := core.Config{
		Model:            o.Model,
		BlockSize:        o.Workload.blockSize(),
		PollPeriod:       10 * time.Second,
		PollBackoffMax:   10 * time.Second, // no idle backoff: keep the poll window fixed
		FlushInterval:    10 * time.Second,
		CallTimeout:      4 * time.Second,
		DelegRenew:       30 * time.Second,
		DelegExpiry:      2 * time.Minute,
		FlushParallelism: o.FlushParallelism,
		// Same-XID retransmission inside each 4 s call window (at ~1 s and
		// ~3 s), so a dropped request or reply is usually recovered without
		// surfacing an error; the jitter hash is seeded from the run so
		// replays stay byte-identical.
		RetransmitSeed: o.Seed,
	}
	if o.Model == core.ModelPolling {
		cfg.WriteBack = true
	}
	if o.DiskCacheDir != "" {
		cfg.DiskCacheDir = o.DiskCacheDir // Mount appends the hostname
	}
	if o.Overload {
		// Bounded server: a two-worker pool and a global admission bucket
		// sized well below the opening burst fan-in, so the run provably
		// sheds (gvfs_server_shed_total > 0) and every shed is absorbed by
		// same-XID retransmission.
		cfg.ServerWorkers = 2
		cfg.RateLimitOps = 25
		cfg.RateLimitBurst = 10
	}
	// NoAC so the kernel client revalidates attributes on every access:
	// observed staleness is then purely the proxies'.
	mo := nfsclient.Options{NoAC: true, BlockSize: o.Workload.blockSize()}
	// rpcSlack: up to 3 rawCall attempts (timeout + redial pause) plus margin.
	rpcSlack := 3*(cfg.CallTimeout+time.Second) + 5*time.Second
	// flushLag: how long after an op returns its data can still land on the
	// server — a flush tick, blocked for a whole partition, plus the retry
	// tick after the heal.
	flushLag := 2*cfg.FlushInterval + maxPartition + rpcSlack + 10*time.Second
	// propLag: how long after landing a value can remain invisible to other
	// clients. Polling: the poll window, extended by a partition that
	// blocks GETINV. Delegation: the DelegRenew forwarding lease that
	// bounds serving after a lost callback (a partition cannot extend it —
	// the lease is time-based).
	var propLag time.Duration
	if o.Model == core.ModelPolling {
		propLag = cfg.PollPeriod + maxPartition + rpcSlack + 10*time.Second
	} else {
		propLag = cfg.DelegRenew + rpcSlack + 10*time.Second
	}

	// nameLag: how long after a rename returns its effect can still land on
	// the server (in-flight retries only: it is write-through). absorbLag is
	// an unlink's and an exclusive create's: under write-back the proxy
	// client answers a REMOVE, and a CREATE of a name it proves absent, at
	// home and sends it at once behind the reply, again and again until it is
	// answered, so a partition delays it (the write-back lag without its
	// flush tick). Without write-back both are write-through too.
	nameLag, absorbLag := rpcSlack, rpcSlack
	if cfg.WriteBack {
		absorbLag = maxPartition + rpcSlack
	}

	rep := &ChaosReport{Plan: plan}
	events := make(map[string][]*chaosEvent)
	var paths []string
	clients := make([]*chaosClient, o.Clients)
	var sess *Session
	var runErr error

	d.Run("chaos", func() {
		// Setup: session, initial server-side contents, one mount per host.
		sess, runErr = d.NewSession("chaos", cfg)
		if runErr != nil {
			return
		}
		var seeded []*chaosEvent
		if paths, seeded, runErr = o.Workload.seed(d, o.Files, d.Clock.Now()); runErr != nil {
			return
		}
		for _, e := range seeded {
			events[e.key] = append(events[e.key], e)
		}
		if o.Overload {
			// Per-client cold files for the opening burst fan-in: distinct
			// paths so the burst is pure server load, invisible to the
			// consistency checker.
			for i := 0; i < o.Clients; i++ {
				for k := 0; k < chaosBurstFiles; k++ {
					if _, err := d.FS.WriteFile(chaosBurstPath(i, k), []byte("burst")); err != nil {
						runErr = fmt.Errorf("chaos: seed burst file: %w", err)
						return
					}
				}
			}
		}
		for i := range clients {
			m, err := sess.Mount(chaosHost(i), mo)
			if err != nil {
				runErr = fmt.Errorf("chaos: mount %s: %w", chaosHost(i), err)
				return
			}
			clients[i] = &chaosClient{d: d, m: m, id: i, paths: paths, flushLag: flushLag, nameLag: nameLag, absorbLag: absorbLag}
		}

		// Chaos begins: install the fault policy on every client<->server
		// link and let the driver apply the scheduled disruptions.
		t0 := d.Clock.Now()
		for i := 0; i < o.Clients; i++ {
			d.Net.SetFaults(chaosHost(i), "server", plan.Faults)
		}
		var restartMu sync.Mutex
		// Warm restarts are performed by the target client's own loop at the
		// first op boundary past the scheduled time, not by the driver: the
		// loop is the mount's only user, so the crash/remount swap needs no
		// cross-goroutine handoff. Times are absolute virtual clock values.
		for _, ev := range plan.Events {
			for _, c := range clients {
				if ev.Kind == "restart-client" && chaosHost(c.id) == ev.Host {
					c.restarts = append(c.restarts, t0+ev.At)
				}
			}
		}
		g := d.NewGroup()
		g.Go("chaos-driver", func() {
			for _, ev := range plan.Events {
				if until := t0 + ev.At - d.Clock.Now(); until > 0 {
					d.Clock.Sleep(until)
				}
				switch ev.Kind {
				case "partition":
					d.Net.Partition(ev.Host, "server")
				case "heal":
					d.Net.Heal(ev.Host, "server")
				case "restart-server":
					err := sess.RestartProxyServer()
					restartMu.Lock()
					if err != nil {
						rep.Violations = append(rep.Violations,
							fmt.Sprintf("plan: restart proxy server: %v", err))
					} else {
						rep.Restarts++
					}
					restartMu.Unlock()
				}
			}
		})
		for _, c := range clients {
			g.Go(fmt.Sprintf("chaos-%s", chaosHost(c.id)), func() {
				if o.Overload {
					chaosBurstFanIn(c.m, c.id)
				}
				c.run(sess, o, mo, &restartMu, rep)
			})
		}
		g.Wait()

		// Drain: lift the faults, then wait out every window so all dirty
		// data lands and every cache converges before the final check.
		for i := 0; i < o.Clients; i++ {
			d.Net.SetFaults(chaosHost(i), "server", simnet.Faults{})
		}
		d.Clock.Sleep(flushLag + propLag + 30*time.Second)
	})
	if runErr != nil {
		return nil, runErr
	}

	// An absorbed create the server refused set nothing: the name was
	// another client's. Each is matched to such a create (or a rename onto
	// the name) that landed within the polling bound before the session's
	// own began, and its phantom event dropped; one that matches none is a
	// violation.
	rep.Violations = append(rep.Violations, matchRefusedCreates(d, clients, propLag)...)

	// Merge every op's events into per-key history, then check every
	// observation, the server's final state last.
	for _, c := range clients {
		for i := range c.log {
			op := &c.log[i]
			rep.Ops++
			if op.err != nil {
				rep.OpErrors++
				if len(rep.ErrorSamples) < 10 {
					rep.ErrorSamples = append(rep.ErrorSamples, fmt.Sprintf(
						"%c %s at %v: %v", op.kind, op.path, op.end, op.err))
				}
			}
			if len(op.obs) > 0 {
				rep.Reads++
			}
			if op.err == nil && len(op.events) > 0 {
				rep.Writes++
			}
			for _, e := range op.events {
				events[e.key] = append(events[e.key], e)
			}
		}
	}
	for _, c := range clients {
		rep.Violations = append(rep.Violations, checkClientLog(c.id, c.log, events, propLag)...)
	}
	for _, p := range paths {
		final, err := o.Workload.final(d, p)
		if err != nil {
			return nil, err
		}
		rep.Violations = append(rep.Violations, checkFinalState(final, events)...)
	}

	// Attach the virtual-time span trace of every contended path.
	rep.Traces = make(map[string]string)
	for _, p := range paths {
		if spans, err := d.TraceForPath(p, traceSpans); err == nil {
			rep.Traces[p] = obs.FormatSpans(spans, d.Obs.DroppedSpans())
		}
	}
	rep.Metrics = d.PublishMetrics()
	rep.Retransmits = rep.Metrics.SumCounters("gvfs_rpc_retransmits_total")
	rep.DRCHits = rep.Metrics.SumCounters("gvfs_rpc_drc_hits_total")
	rep.Sheds = rep.Metrics.SumCounters("gvfs_server_shed_total")
	rep.StalenessViolations = rep.Metrics.SumCounters("gvfs_staleness_violations_total")
	rep.Attribution = attr.FormatReport(d.Attribution(), 5)
	rep.DroppedSpans = d.Obs.DroppedSpans()

	rep.NetEvents = d.Net.Events()
	rep.NetStats = d.Net.TotalStats()
	return rep, nil
}

// matchRefusedCreates finds every absorbed create a proxy client reports
// refused (core.RefusedCreate) and the op that made it, and requires another
// client's successful event that made the name exist, begun before the
// refusal and able to have landed no more than propLag before the op began:
// inside the polling bound, the session could not have known of it. The
// matched op's event goes, since its create made nothing. A refusal the span
// rings dropped cannot be matched: the count of refusals found must equal the
// counter's unless spans were dropped.
func matchRefusedCreates(d *Deployment, clients []*chaosClient, propLag time.Duration) []string {
	var out []string
	found := int64(0)
	for _, s := range d.Obs.Spans() {
		name, ok := core.RefusedCreate(s)
		if !ok {
			continue
		}
		found++
		var c *chaosClient
		for _, x := range clients {
			if strings.HasPrefix(s.Node, "proxyc:"+x.m.Host()+"/") {
				c = x
			}
		}
		var op *chaosOp
		for i := range c.log {
			o := &c.log[i]
			if o.kind == 'c' && o.err == nil && path.Base(o.path) == name && o.start <= s.Start && s.Start <= o.end {
				op = o
			}
		}
		if op == nil {
			out = append(out, fmt.Sprintf("client %d: refused create of %s at %v matches no create it made", c.id, name, s.End))
			continue
		}
		matched := false
		for _, x := range clients {
			for i := range x.log {
				for _, e := range x.log[i].events {
					if x.id != c.id && e.key == op.path && e.state == nameExists && !e.failed &&
						e.start <= s.End && e.land+propLag >= op.start {
						matched = true
					}
				}
			}
		}
		if !matched {
			out = append(out, fmt.Sprintf("client %d: create of %s at %v refused at %v, and no other client made the name within the polling bound", c.id, op.path, op.end, s.End))
			continue
		}
		op.events = nil
	}
	if counted := d.Obs.Registry().Snapshot().SumCounters("gvfs_client_create_refused_total"); d.Obs.DroppedSpans() == 0 && counted != found {
		out = append(out, fmt.Sprintf("%d creates counted refused, %d found in the spans", counted, found))
	}
	return out
}

// checkClientLog judges one client's observations. An observation of a key
// in state s over [ps, pe] is plausible iff some event e set the key to s
// with e.start <= pe, and e is failed or e.land >= anchor, the newest of:
//   - own: the start of this client's last successful event on the key
//     (read-your-writes: a proxy applies its client's ops to its caches);
//   - seen: the start of the newest value this client observed on the key
//     (monotonic reads: that value was on the server no earlier than its
//     start, so nothing that had to land before then can be seen again);
//   - propagated: the start of any successful event whose landing deadline
//     plus propLag passed before ps, whoever observes.
//
// Ops are sequential per client, so every earlier op ended before the
// current one started; virtual times are non-negative, so a zero anchor
// excludes nothing.
func checkClientLog(client int, log []chaosOp, events map[string][]*chaosEvent, propLag time.Duration) []string {
	var out []string
	own := map[string]time.Duration{}
	seen := map[string]time.Duration{}
	for i := range log {
		op := &log[i]
		if op.err == nil {
			for _, e := range op.events {
				own[e.key] = max(own[e.key], e.start)
			}
		}
		for _, ob := range op.obs {
			anchor := max(own[ob.key], seen[ob.key])
			for _, a := range events[ob.key] {
				if !a.failed && a.client >= 0 && a.land+propLag <= op.start {
					anchor = max(anchor, a.start)
				}
			}
			e, why := explain(events[ob.key], ob.state, op.end, anchor, false)
			if e == nil {
				out = append(out, fmt.Sprintf("C%d %s %s at %v: %s",
					client+1, chaosKinds[op.kind], ob.key, op.end, why))
			} else if e.value {
				seen[ob.key] = max(seen[ob.key], e.start)
			}
		}
	}
	return out
}

// checkFinalState judges the server's state after the drain. Every
// successful event has landed and propagated by then, so the newest one
// anchors, and a failed event is held to its landing deadline.
func checkFinalState(final []chaosObs, events map[string][]*chaosEvent) []string {
	var out []string
	for _, ob := range final {
		var anchor time.Duration
		for _, a := range events[ob.key] {
			if !a.failed && a.client >= 0 {
				anchor = max(anchor, a.start)
			}
		}
		if _, why := explain(events[ob.key], ob.state, farFuture, anchor, true); why != "" {
			out = append(out, fmt.Sprintf("final %s: server %s", ob.key, why))
		}
	}
	return out
}

// explain returns an event that set state, started by end, and is not
// superseded by anchor — or, if there is none, why the observation is a
// violation. A client may observe a failed event at any time (final false).
func explain(events []*chaosEvent, state string, end, anchor time.Duration, final bool) (*chaosEvent, string) {
	var stale, future *chaosEvent
	for _, e := range events {
		switch {
		case e.state != state:
		case e.start > end:
			future = e
		case e.land >= anchor || e.failed && !final:
			return e, ""
		default:
			stale = e
		}
	}
	switch {
	case stale != nil:
		return nil, fmt.Sprintf("stale %s (client %d, deadline %v) superseded by an event at %v",
			state, stale.client, stale.land, anchor)
	case future != nil:
		return nil, fmt.Sprintf("%s from the future (starts %v)", state, future.start)
	}
	return nil, fmt.Sprintf("%.40q was never set", state)
}
