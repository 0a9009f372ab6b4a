package gvfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
)

// TestCoalescedFlushRoundTrips pins the write coalescing half of the
// hot-path work in virtual time: a sequentially dirtied 16-block file
// flushes in ONE wide-area WRITE (16 x 32 KiB = 512 KiB fits the default
// MaxWriteBytes of nfs3.MaxIOSize), so the synchronous flush costs 2 round
// trips (WRITE + the SETATTR that forced it) instead of 17.
func TestCoalescedFlushRoundTrips(t *testing.T) {
	const blocks = 16
	const bs = 32 * 1024
	d := newPipelineDeployment(t)
	d.FS.WriteFile("big", make([]byte, blocks*bs))
	d.Run("flush", func() {
		sess, err := d.NewSession("s", core.Config{
			Model: core.ModelPolling, WriteBack: true, FlushInterval: time.Hour,
		})
		if err != nil {
			t.Error(err)
			return
		}
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		f, err := m.Client.Open("big")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
			t.Error(err)
			return
		}
		want := make([]byte, blocks*bs)
		for bn := 0; bn < blocks; bn++ {
			block := bytes.Repeat([]byte{byte(bn + 1)}, bs)
			copy(want[bn*bs:], block)
			if _, err := f.WriteAt(block, uint64(bn*bs)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := f.Sync(); err != nil {
			t.Error(err)
			return
		}
		if got := m.WANCounts()["WRITE"]; got != 0 {
			t.Errorf("dirty blocks crossed the WAN before the flush: %d WRITEs", got)
			return
		}
		elapsed := d.Elapsed(func() {
			if terr := f.Truncate(blocks * bs); terr != nil {
				t.Error(terr)
			}
		})
		wantT := 2 * pipelineRTT // one coalesced WRITE + the SETATTR
		if elapsed < wantT || elapsed > wantT+pipelineRTT/2 {
			t.Errorf("coalesced flush took %v, want ~%v (2 round trips)", elapsed, wantT)
		}
		if got := m.WANCounts()["WRITE"]; got != 1 {
			t.Errorf("WAN WRITEs = %d, want 1 (coalesced)", got)
		}
		// Durability: the server's copy carries every coalesced byte.
		attr, err := d.FS.LookupPath("big")
		if err != nil || attr.Size != blocks*bs {
			t.Fatalf("server copy: size=%d err=%v", attr.Size, err)
		}
		got := make([]byte, blocks*bs)
		if _, _, err := d.FS.ReadAt(attr.ID, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("server copy differs from the coalesced write-back")
		}
	})
}

// TestCoalescedFlushSplitsAtHolesAndCap checks the run boundaries: a hole in
// the dirty set splits the coalesced WRITE, and MaxWriteBytes caps how much
// one WRITE may carry.
func TestCoalescedFlushSplitsAtHolesAndCap(t *testing.T) {
	const bs = 32 * 1024
	cases := []struct {
		name       string
		dirty      []int // block numbers written
		maxBytes   int
		wantWrites int64
	}{
		{"hole-splits-run", []int{0, 1, 3, 4}, 0, 2},
		{"cap-splits-run", []int{0, 1, 2, 3}, 2 * bs, 2},
		{"cap-at-blocksize-disables", []int{0, 1, 2, 3}, bs, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newPipelineDeployment(t)
			d.FS.WriteFile("f", make([]byte, 6*bs))
			d.Run("flush", func() {
				sess, err := d.NewSession("s", core.Config{
					Model: core.ModelPolling, WriteBack: true,
					FlushInterval: time.Hour, MaxWriteBytes: tc.maxBytes,
				})
				if err != nil {
					t.Error(err)
					return
				}
				m, err := sess.Mount("C1", kernelNoac())
				if err != nil {
					t.Error(err)
					return
				}
				f, err := m.Client.Open("f")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
					t.Error(err)
					return
				}
				block := bytes.Repeat([]byte{0xCD}, bs)
				for _, bn := range tc.dirty {
					if _, err := f.WriteAt(block, uint64(bn*bs)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := f.Sync(); err != nil {
					t.Error(err)
					return
				}
				if terr := f.Truncate(6 * bs); terr != nil {
					t.Error(terr)
					return
				}
				if got := m.WANCounts()["WRITE"]; got != tc.wantWrites {
					t.Errorf("WAN WRITEs = %d, want %d", got, tc.wantWrites)
				}
			})
		})
	}
}

// TestCoalescedFlushNoSpuriousRetransmits runs the coalesced write-back over
// the real bandwidth-limited WAN profile: a megabyte WRITE spends ~2s in
// transfer at 4 Mbit/s, well past the 1s base retransmission timeout, so
// without the size-stretched timeout (core's retransmitPerByte) every large
// coalesced WRITE would be retransmitted while its first copy was still in
// flight — doubling exactly the WAN traffic coalescing exists to save.
func TestCoalescedFlushNoSpuriousRetransmits(t *testing.T) {
	const blocks = 64
	const bs = 32 * 1024
	d, err := NewDeployment(Config{WAN: simnet.WAN})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.FS.WriteFile("big", make([]byte, blocks*bs))
	d.Run("flush", func() {
		sess, err := d.NewSession("s", core.Config{
			Model: core.ModelPolling, WriteBack: true, FlushInterval: time.Hour,
		})
		if err != nil {
			t.Error(err)
			return
		}
		m, err := sess.Mount("C1", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		f, err := m.Client.Open("big")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
			t.Error(err)
			return
		}
		block := make([]byte, bs)
		for bn := 0; bn < blocks; bn++ {
			if _, err := f.WriteAt(block, uint64(bn*bs)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := f.Sync(); err != nil {
			t.Error(err)
			return
		}
		if terr := f.Truncate(blocks * bs); terr != nil { // forces the flush
			t.Error(terr)
			return
		}
		if got := m.WANCounts()["WRITE"]; got != 2 {
			t.Errorf("WAN WRITEs = %d, want 2 (64 blocks coalesced at MaxIOSize)", got)
		}
		if r := d.PublishMetrics().SumCounters("gvfs_rpc_retransmits_total"); r != 0 {
			t.Errorf("%d spurious retransmits flushing over the bandwidth-limited WAN, want 0", r)
		}
	})
}

// TestGetInvDrainsLargeBufferInOnePoll pins the GETINV batching default: a
// few hundred pending invalidations — more than the old 256-handle reply
// bound — now drain in a single GETINV round trip per poll period.
func TestGetInvDrainsLargeBufferInOnePoll(t *testing.T) {
	const files = 300
	// A short RTT keeps the 300 update writes well inside one poll period,
	// so every invalidation is pending when the single poll fires.
	d, err := NewDeployment(Config{WAN: simnet.Params{RTT: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	for i := 0; i < files; i++ {
		d.FS.WriteFile(fmt.Sprintf("pkg/f%03d", i), []byte("x"))
	}
	d.Run("test", func() {
		sess, err := d.NewSession("s", core.Config{Model: core.ModelPolling, PollPeriod: time.Minute})
		if err != nil {
			t.Error(err)
			return
		}
		reader, _ := sess.Mount("C1", kernelNoac())
		admin, _ := sess.Mount("C2", kernelNoac())
		for i := 0; i < files; i++ {
			reader.Client.Stat(fmt.Sprintf("pkg/f%03d", i))
		}
		invBefore := reader.Proxy.Stats().Invalidations
		for i := 0; i < files; i++ {
			admin.Client.WriteFile(fmt.Sprintf("pkg/f%03d", i), []byte("y"))
		}
		getinvBefore := reader.WANCounts()["GETINV"]
		d.Clock.Sleep(time.Minute + time.Second)
		polls := reader.WANCounts()["GETINV"] - getinvBefore
		if polls != 1 {
			t.Errorf("%d invalidations took %d GETINV calls, want 1 (old 256-handle reply bound would need 2)", files, polls)
		}
		if inv := reader.Proxy.Stats().Invalidations - invBefore; inv < files {
			t.Errorf("invalidations processed = %d, want >= %d", inv, files)
		}
	})
}
