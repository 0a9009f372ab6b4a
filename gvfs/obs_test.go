package gvfs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfsclient"
	"repro/internal/obs"
)

// TestTraceFullReadPipeline walks one request ID across the whole pipeline:
// a kernel READ mints an ID, the proxy client serves it (cold forward), the
// proxy server and NFS server see the same ID, and readahead children link
// back to it via Parent. A later sequential READ must join an in-flight
// prefetch instead of forwarding again.
func TestTraceFullReadPipeline(t *testing.T) {
	d, err := NewDeployment(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const blocks = 5
	payload := bytes.Repeat([]byte("q"), blocks*32*1024)
	d.Run("trace", func() {
		sess, err := d.NewSession("tr", core.Config{Model: core.ModelPolling, ReadAhead: 2})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := d.FS.WriteFile("trace/data", payload); err != nil {
			t.Error(err)
			return
		}
		m, err := sess.Mount("C1", nfsclient.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		data, err := m.Client.ReadFile("trace/data")
		if err != nil {
			t.Error(err)
		} else if !bytes.Equal(data, payload) {
			t.Errorf("read %d bytes, want %d", len(data), len(payload))
		}
	})
	if t.Failed() {
		return
	}

	fh, err := d.FHForPath("trace/data")
	if err != nil {
		t.Fatal(err)
	}
	key := fh.String()
	spans := d.Obs.Spans()

	// Kernel READ calls, oldest first (Spans is canonically sorted).
	var kernReads []obs.Span
	for _, s := range spans {
		if s.Node == "kern:C1" && s.Op == "call READ" {
			kernReads = append(kernReads, s)
		}
	}
	if len(kernReads) < blocks {
		t.Fatalf("kernel issued %d READs, want >= %d\n%s", len(kernReads), blocks, obs.FormatSpans(spans))
	}
	first := kernReads[0]
	if first.Req == 0 {
		t.Fatalf("kernel READ minted no request ID: %+v", first)
	}

	// The same request ID must appear at every hop of the cold read.
	find := func(node, op string) *obs.Span {
		for i := range spans {
			s := &spans[i]
			if s.Node == node && s.Op == op && s.Req == first.Req {
				return s
			}
		}
		return nil
	}
	pc := find("proxyc:C1/tr", "READ")
	if pc == nil {
		t.Fatalf("no proxy-client READ span for req %s\n%s", obs.FormatReq(first.Req), obs.FormatSpans(spans))
	}
	if pc.Note != obs.NoteForward {
		t.Errorf("cold READ note = %q, want %q", pc.Note, obs.NoteForward)
	}
	if pc.FH != key {
		t.Errorf("proxy-client READ span FH = %q, want %q", pc.FH, key)
	}
	if pc.Bytes != 32*1024 {
		t.Errorf("proxy-client READ span bytes = %d, want %d", pc.Bytes, 32*1024)
	}
	if pc.Start < first.Start || pc.End > first.End {
		t.Errorf("proxy serve span [%v,%v] not nested in kernel call span [%v,%v]",
			pc.Start, pc.End, first.Start, first.End)
	}
	for _, hop := range []struct{ node, op string }{
		{"proxyc:C1/tr", "call READ"}, // proxy client -> proxy server
		{"proxyd:tr", "serve READ"},   // proxy server serve side
		{"proxyd:tr", "call READ"},    // proxy server -> NFS server
		{"nfsd", "serve READ"},        // kernel NFS server
	} {
		if find(hop.node, hop.op) == nil {
			t.Errorf("request %s left no %q span at %s", obs.FormatReq(first.Req), hop.op, hop.node)
		}
	}

	// Readahead children carry the triggering request as Parent, one span a
	// READ, saying how many blocks it asked for and carrying the reply's bytes;
	// the next sequential kernel READ joins the in-flight prefetch.
	var readaheads, readaheadBlocks int64
	var joins int
	for _, s := range spans {
		if s.Op == "READAHEAD" && s.FH == key {
			readaheads++
			readaheadBlocks += int64(s.Blocks)
			if s.Parent == 0 {
				t.Errorf("READAHEAD span has no parent: %+v", s)
			}
			if s.Bytes != int64(s.Blocks)*32*1024 {
				t.Errorf("READAHEAD span of %d whole blocks carries %d bytes: %+v", s.Blocks, s.Bytes, s)
			}
		}
		if s.Node == "proxyc:C1/tr" && s.Op == "READ" && s.Note == obs.NoteJoin {
			joins++
		}
	}
	if readaheads < 2 {
		t.Errorf("READAHEAD spans = %d, want >= 2\n%s", readaheads, obs.FormatSpans(spans))
	}
	if joins == 0 {
		t.Errorf("no sequential READ joined an in-flight prefetch\n%s", obs.FormatSpans(spans))
	}

	// TraceForFH must pull in the kernel-side spans by request-ID expansion
	// even though the kernel never stamps file handles.
	trace := d.TraceForFH(fh, 0)
	var kernInTrace bool
	for _, s := range trace {
		if s.Node == "kern:C1" {
			kernInTrace = true
		}
	}
	if !kernInTrace {
		t.Errorf("TraceForFH missed the kernel spans:\n%s", obs.FormatSpans(trace))
	}

	// The unified registry saw the same story, and its Prometheus dump
	// round-trips through the validator.
	snap := d.PublishMetrics()
	if v := snap.Counters[`gvfs_client_forwards_total{node="C1/tr"}`]; v == 0 {
		t.Errorf("forwards counter not incremented: %v", snap.Counters)
	}
	if v := snap.Counters[`gvfs_client_readaheads_total{node="C1/tr"}`]; v != readaheadBlocks {
		t.Errorf("readaheads counter = %d, want %d (the blocks the READAHEAD spans asked for)", v, readaheadBlocks)
	}
	if v := snap.Counters[`gvfs_client_readahead_joins_total{node="C1/tr"}`]; v == 0 {
		t.Errorf("readahead joins counter not incremented")
	}
	var buf bytes.Buffer
	if err := d.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ParseProm(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("metrics dump does not parse: %v", err)
	}
	if n == 0 {
		t.Fatal("metrics dump is empty")
	}
}

// TestWarmRevalidationHitsLocally mounts noac — every kernel access
// revalidates attributes — and asserts the proxy serves repeated
// revalidations from its session cache, traced as hits.
func TestWarmRevalidationHitsLocally(t *testing.T) {
	d, err := NewDeployment(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Run("warm", func() {
		sess, err := d.NewSession("w", core.Config{Model: core.ModelPolling})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := d.FS.WriteFile("warm/data", bytes.Repeat([]byte("h"), 4096)); err != nil {
			t.Error(err)
			return
		}
		m, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			if _, err := m.Client.ReadFile("warm/data"); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if t.Failed() {
		return
	}
	fh, err := d.FHForPath("warm/data")
	if err != nil {
		t.Fatal(err)
	}
	var hits int
	for _, s := range d.TraceForFH(fh, 0) {
		if s.Node == "proxyc:C1/w" && s.Op == "GETATTR" && s.Note == obs.NoteHit {
			hits++
		}
	}
	if hits == 0 {
		t.Errorf("no warm GETATTR traced as a cache hit:\n%s", obs.FormatSpans(d.TraceForFH(fh, 0)))
	}
	if v := d.PublishMetrics().Counters[`gvfs_client_local_hits_total{node="C1/w"}`]; v == 0 {
		t.Errorf("local hits counter not incremented")
	}
}

// TestSnapshotRaceUnderTraffic hammers Snapshot, Spans, and the Prometheus
// writer from unmanaged OS goroutines while clients generate contended
// traffic — meaningful under -race, and a liveness check otherwise.
func TestSnapshotRaceUnderTraffic(t *testing.T) {
	d, err := NewDeployment(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				d.Obs.Registry().Snapshot()
				d.Obs.Spans()
				d.PublishMetrics()
				_ = d.WriteMetrics(io.Discard)
			}
		}()
	}

	d.Run("race-traffic", func() {
		sess, err := d.NewSession("race", core.Config{
			Model:      core.ModelPolling,
			WriteBack:  true,
			PollPeriod: 2 * time.Second,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := d.FS.WriteFile("race/shared", bytes.Repeat([]byte("r"), 4096)); err != nil {
			t.Error(err)
			return
		}
		m1, err := sess.Mount("C1", nfsclient.Options{NoAC: true})
		if err != nil {
			t.Error(err)
			return
		}
		m2, err := sess.Mount("C2", nfsclient.Options{NoAC: true})
		if err != nil {
			t.Error(err)
			return
		}
		g := d.NewGroup()
		g.Go("writer", func() {
			for i := 0; i < 30; i++ {
				if err := m1.Client.WriteFile("race/shared", bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
				d.Clock.Sleep(300 * time.Millisecond)
			}
		})
		g.Go("reader", func() {
			for i := 0; i < 30; i++ {
				if _, err := m2.Client.ReadFile("race/shared"); err != nil {
					t.Errorf("read %d: %v", i, err)
					return
				}
				d.Clock.Sleep(300 * time.Millisecond)
			}
		})
		g.Wait()
	})
	close(done)
	wg.Wait()

	snap := d.PublishMetrics()
	if len(snap.Counters) == 0 {
		t.Error("registry empty after traffic")
	}
}
