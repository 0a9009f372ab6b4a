package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/simnet"
)

// The slo experiment is the consistency observatory's self-test: a mixed
// read/write workload runs under each consistency model while the deployment
// attributes every request's end-to-end latency to critical-path segments and
// the staleness oracle measures how old every cache-served byte actually was.
// The committed BENCH_slo.json answers, per model: where does each op's
// p50/p95/p99 go, how stale does cache service really get, and — the gate —
// does either model ever break its advertised bound (violations must be 0).

// sloFiles is the shared working set: enough files that reads dominate the
// trace, few enough that every file sees repeated cross-client write/read
// conflicts.
const sloFiles = 6

// sloRound is the virtual pause between workload rounds; several rounds fit
// inside one polling period, so the polling model demonstrably serves stale
// (but in-bound) data while delegation recalls keep every serve fresh.
const sloRound = 5 * time.Second

// SLOModel is one consistency model's observatory summary.
type SLOModel struct {
	// Model is the oracle's short model label: "poll" or "deleg".
	Model   string
	Runtime time.Duration
	// Requests is how many kernel-client requests were attributed.
	Requests int
	// MaxSumError is the largest relative |sum(segments) - end_to_end| over
	// all attributed requests. The sweep partitions exactly, so anything
	// above 0.01 fails the experiment.
	MaxSumError float64
	// Ops aggregates attribution per kernel op (latency percentiles plus
	// per-segment totals).
	Ops []attr.OpStats
	// Report is the deterministic human-readable attribution report.
	Report string

	// StalenessServes counts cache serves the oracle scored; the age
	// percentiles are bucket upper bounds from the model's measured-staleness
	// histogram.
	StalenessServes                                int64
	StalenessViolations                            int64
	StalenessAgeP50, StalenessAgeP95, StalenessMax time.Duration

	// PropagationChannel is the model's invalidation channel ("poll" or
	// "recall"); Propagations counts invalidations the channel delivered and
	// PropagationP95 bounds the commit-to-cache lag.
	PropagationChannel string
	Propagations       int64
	PropagationP95     time.Duration
}

// SLOResult is the full experiment: both models over the same workload.
type SLOResult struct {
	Rounds int
	Models []SLOModel
}

// RunSLO runs the observatory workload under polling and delegation on the
// WAN testbed. When opt.TraceOut is set, the polling deployment's full trace
// dump (spans + metrics) is written to it for offline gvfs-trace analysis.
func RunSLO(opt Options) (SLOResult, error) {
	rounds := max(12/opt.scale(), 4)
	res := SLOResult{Rounds: rounds}
	for _, model := range []core.Model{core.ModelPolling, core.ModelDelegation} {
		mr, err := runSLOModel(opt, model, rounds)
		if err != nil {
			return res, fmt.Errorf("slo %s: %w", mr.Model, err)
		}
		opt.logf("slo %-6s runtime=%6.1fs requests=%d staleness-serves=%d violations=%d sum-err=%.2g",
			mr.Model, seconds(mr.Runtime), mr.Requests, mr.StalenessServes, mr.StalenessViolations, mr.MaxSumError)
		res.Models = append(res.Models, mr)
	}
	return res, nil
}

func sloConfig(model core.Model) core.Config {
	cfg := core.Config{Model: model, ProxyDelay: proxyDelay, DiskDelay: diskDelay, ReadAhead: noReadAhead}
	if model == core.ModelPolling {
		cfg.PollPeriod = thirty
	}
	return cfg
}

func runSLOModel(opt Options, model core.Model, rounds int) (SLOModel, error) {
	mr := SLOModel{Model: map[core.Model]string{core.ModelPolling: "poll", core.ModelDelegation: "deleg"}[model]}
	// A generous span ring keeps every request's full span tree for exact
	// attribution; the default 4096 would overwrite early requests.
	d, err := gvfs.NewDeployment(gvfs.Config{WAN: simnet.WAN, TraceRing: 1 << 16})
	if err != nil {
		return mr, err
	}
	defer d.Close()
	for i := 0; i < sloFiles; i++ {
		if _, err := d.FS.WriteFile(sloPath(i), sloBytes(i, -1)); err != nil {
			return mr, err
		}
	}
	var runErr error
	d.Run("slo-"+mr.Model, func() {
		sess, err := d.NewSession("slo", sloConfig(model))
		if err != nil {
			runErr = err
			return
		}
		// noac kernel mounts push every revalidation down to the proxy, so
		// each cache-served read is visible to the staleness oracle.
		reader, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			runErr = err
			return
		}
		writer, err := sess.Mount("C2", kernelNoac())
		if err != nil {
			runErr = err
			return
		}
		mr.Runtime = d.Elapsed(func() {
			runErr = sloWorkload(d, reader, writer, rounds)
		})
	})
	if runErr != nil {
		return mr, runErr
	}

	snap := d.PublishMetrics()
	bds := d.Attribution()
	mr.Requests = len(bds)
	mr.MaxSumError = maxSegSumError(bds)
	mr.Ops = attr.Summarize(bds)
	mr.Report = attr.FormatReport(bds, 5)

	age := snap.Histograms[obs.Label("gvfs_staleness_age", "model", mr.Model)]
	mr.StalenessServes = age.Count
	mr.StalenessAgeP50 = histQuantile(age, 0.50)
	mr.StalenessAgeP95 = histQuantile(age, 0.95)
	mr.StalenessMax = histQuantile(age, 1)
	mr.StalenessViolations = snap.Counters[obs.Label("gvfs_staleness_violations_total", "model", mr.Model)]

	mr.PropagationChannel = "poll"
	if model == core.ModelDelegation {
		mr.PropagationChannel = "recall"
	}
	prop := snap.Histograms[obs.Label("gvfs_inv_propagation", "channel", mr.PropagationChannel)]
	mr.Propagations = prop.Count
	mr.PropagationP95 = histQuantile(prop, 0.95)

	if model == core.ModelPolling && opt.TraceOut != nil {
		if err := d.WriteTraceDump(opt.TraceOut); err != nil {
			return mr, fmt.Errorf("trace dump: %w", err)
		}
	}
	opt.dumpMetrics("slo "+mr.Model, d)
	return mr, nil
}

// sloWorkload interleaves cross-client writes with read passes: each round
// the writer commits a new version of one shared file, then the reader scans
// the whole working set. Under polling the scans between polls serve stale
// attributes and blocks (bounded by the poll period); under delegation the
// write recalls the reader's cache first. A final drain past the poll period
// lets the last invalidations propagate before metrics are scraped.
func sloWorkload(d *gvfs.Deployment, reader, writer *gvfs.Mount, rounds int) error {
	scan := func() error {
		for i := 0; i < sloFiles; i++ {
			if _, err := reader.Client.Stat(sloPath(i)); err != nil {
				return err
			}
			if _, err := reader.Client.ReadFile(sloPath(i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := scan(); err != nil { // warm the reader's cache
		return err
	}
	for r := 0; r < rounds; r++ {
		if err := writer.Client.WriteFile(sloPath(r%sloFiles), sloBytes(r%sloFiles, r)); err != nil {
			return err
		}
		if err := scan(); err != nil {
			return err
		}
		d.Clock.Sleep(sloRound)
	}
	d.Clock.Sleep(thirty + time.Second)
	return scan()
}

func sloPath(i int) string { return fmt.Sprintf("shared/f%d", i) }

// sloBytes returns version v of file i's content: two cache blocks of
// distinct bytes so reads hit the block path, not just attributes.
func sloBytes(i, v int) []byte {
	b := make([]byte, 16<<10)
	for j := range b {
		b[j] = byte(i*31 + v + 7)
	}
	return b
}

// maxSegSumError reports the worst relative mismatch between a request's
// segment sum and its measured end-to-end latency.
func maxSegSumError(bds []attr.Breakdown) float64 {
	var worst float64
	for _, bd := range bds {
		if bd.Total() <= 0 {
			continue
		}
		var sum time.Duration
		for _, v := range bd.Seg {
			sum += v
		}
		if e := math.Abs(float64(sum-bd.Total())) / float64(bd.Total()); e > worst {
			worst = e
		}
	}
	return worst
}

// histQuantile reads the q-quantile from a histogram snapshot as the upper
// bound of the bucket containing the nearest-rank observation (the last
// populated bound for q=1 or observations beyond every bound).
func histQuantile(h obs.HistogramSnapshot, q float64) time.Duration {
	// Quantiles are bucket upper bounds, so an all-zero histogram would
	// otherwise report the first bucket's bound; zero observations deserve
	// an exact zero (delegation's measured staleness is the case that
	// matters: "sub-500µs" and "provably fresh" are different claims).
	if h.Count == 0 || h.Sum == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if cum >= rank {
			return time.Duration(b)
		}
	}
	if len(h.Bounds) > 0 {
		return time.Duration(h.Bounds[len(h.Bounds)-1])
	}
	return 0
}

// Render prints both models' observatory summaries and attribution reports.
func (r SLOResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Consistency observatory: latency attribution + measured staleness (%d rounds, WAN)\n", r.Rounds)
	fmt.Fprintf(w, "%-8s%12s%10s%10s%8s%14s%14s%14s%8s%14s\n",
		"model", "runtime_s", "requests", "serves", "viols", "age_p50", "age_p95", "age_max", "props", "prop_p95")
	for _, m := range r.Models {
		fmt.Fprintf(w, "%-8s%12.1f%10d%10d%8d%14s%14s%14s%8d%14s\n",
			m.Model, seconds(m.Runtime), m.Requests, m.StalenessServes, m.StalenessViolations,
			m.StalenessAgeP50, m.StalenessAgeP95, m.StalenessMax, m.Propagations, m.PropagationP95)
	}
	for _, m := range r.Models {
		fmt.Fprintf(w, "\n[%s] %s", m.Model, m.Report)
	}
}

// sloJSON is the committed BENCH_slo.json schema: per model, per-op latency
// percentiles with segment shares, plus the staleness observatory summary.
// All durations are virtual-time milliseconds.
type sloJSON struct {
	Experiment string         `json:"experiment"`
	Rounds     int            `json:"rounds"`
	Files      int            `json:"files"`
	Models     []sloModelJSON `json:"models"`
}

type sloModelJSON struct {
	Model               string             `json:"model"`
	RuntimeSec          float64            `json:"runtime_s"`
	Requests            int                `json:"requests"`
	MaxSegSumError      float64            `json:"max_seg_sum_error"`
	Ops                 []sloOpJSON        `json:"ops"`
	StalenessServes     int64              `json:"staleness_serves"`
	StalenessViolations int64              `json:"staleness_violations"`
	StalenessAgeP50Ms   float64            `json:"staleness_age_p50_ms"`
	StalenessAgeP95Ms   float64            `json:"staleness_age_p95_ms"`
	StalenessAgeMaxMs   float64            `json:"staleness_age_max_ms"`
	PropagationChannel  string             `json:"propagation_channel"`
	Propagations        int64              `json:"propagations"`
	PropagationP95Ms    float64            `json:"propagation_p95_ms"`
	SegmentShare        map[string]float64 `json:"segment_share"`
}

type sloOpJSON struct {
	Op           string             `json:"op"`
	Count        int                `json:"count"`
	P50Ms        float64            `json:"p50_ms"`
	P95Ms        float64            `json:"p95_ms"`
	P99Ms        float64            `json:"p99_ms"`
	MaxMs        float64            `json:"max_ms"`
	SegmentShare map[string]float64 `json:"segment_share"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// segShares converts per-segment totals into fractions of wall time, keeping
// only segments that actually appear.
func segShares(seg map[string]time.Duration, wall time.Duration) map[string]float64 {
	if wall <= 0 {
		return map[string]float64{}
	}
	out := make(map[string]float64, len(seg))
	for _, name := range attr.Segments {
		if d := seg[name]; d > 0 {
			out[name] = float64(d) / float64(wall)
		}
	}
	return out
}

// WriteJSON emits the machine-readable observatory summary.
func (r SLOResult) WriteJSON(w io.Writer) error {
	out := sloJSON{Experiment: "slo", Rounds: r.Rounds, Files: sloFiles}
	for _, m := range r.Models {
		mj := sloModelJSON{
			Model:               m.Model,
			RuntimeSec:          seconds(m.Runtime),
			Requests:            m.Requests,
			MaxSegSumError:      m.MaxSumError,
			StalenessServes:     m.StalenessServes,
			StalenessViolations: m.StalenessViolations,
			StalenessAgeP50Ms:   ms(m.StalenessAgeP50),
			StalenessAgeP95Ms:   ms(m.StalenessAgeP95),
			StalenessAgeMaxMs:   ms(m.StalenessMax),
			PropagationChannel:  m.PropagationChannel,
			Propagations:        m.Propagations,
			PropagationP95Ms:    ms(m.PropagationP95),
		}
		var wall time.Duration
		total := make(map[string]time.Duration)
		for _, st := range m.Ops {
			mj.Ops = append(mj.Ops, sloOpJSON{
				Op: st.Op, Count: st.Count,
				P50Ms: ms(st.P50), P95Ms: ms(st.P95), P99Ms: ms(st.P99), MaxMs: ms(st.Max),
				SegmentShare: segShares(st.Seg, st.Wall),
			})
			wall += st.Wall
			for seg, d := range st.Seg {
				total[seg] += d
			}
		}
		mj.SegmentShare = segShares(total, wall)
		out.Models = append(out.Models, mj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
