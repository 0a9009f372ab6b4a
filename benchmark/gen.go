package main

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// fillBlock writes the content of one block: a deterministic function of
// (file, block, version), so every reply can be checked and a stale or
// misplaced block never passes for the right one.
func fillBlock(dst []byte, file, block, version uint64) {
	x := file<<40 ^ block<<16 ^ version
	for i := 0; i+8 <= len(dst); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[i:], z^z>>31)
	}
}

// fileContent builds a whole file of version 0.
func fileContent(file uint64, blocks int) []byte {
	b := make([]byte, blocks*blockSize)
	for bn := 0; bn < blocks; bn++ {
		fillBlock(b[bn*blockSize:(bn+1)*blockSize], file, uint64(bn), 0)
	}
	return b
}

// A caller is one closed loop: it sends its next operation only after the
// previous one completed. op reports whether every reply of the operation was
// correct, and the latency it wants recorded (callers whose operation has a
// timed part return that part; others return 0 and the whole call is timed).
type caller struct {
	primary bool // its operations are the workload's primary op
	op      func() (ok bool, lat time.Duration)
}

// Phases of a run.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// tally is what one caller recorded in one slice of the measured window.
type tally struct {
	ops    int
	failed int
	lats   []int64 // ns
}

// loadResult is the generator's view of one measured window.
type loadResult struct {
	slices    [][]tally // [slice][caller]
	elapsed   time.Duration
	sliceLen  time.Duration
	attempted int64 // all callers, measured window only
	failed    int64
}

// runLoad drives the callers for warm-up, then for the measured window cut
// into nslices equal slices. onSlice, if set, runs at the start of each slice
// (the traced run flips the taps there). begin and end run at the window's
// edges, while no caller is between operations of the window.
func runLoad(callers []caller, warmup, measure time.Duration, nslices int, begin, end func(), onSlice func(i int)) loadResult {
	res := loadResult{sliceLen: measure / time.Duration(nslices), slices: make([][]tally, nslices)}
	for i := range res.slices {
		res.slices[i] = make([]tally, len(callers))
	}
	var phase atomic.Int32
	var start atomic.Int64 // measured window's start, ns since t0
	t0 := time.Now()
	lastDone := make([]time.Duration, len(callers))

	var wg sync.WaitGroup
	for ci := range callers {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := callers[ci]
			for {
				// The phase an operation starts in decides whether it counts,
				// so the one that crosses the deadline still does.
				ph := phase.Load()
				if ph == phaseStop {
					return
				}
				began := time.Since(t0)
				ok, lat := c.op()
				done := time.Since(t0)
				if ph != phaseMeasure {
					continue
				}
				ws := time.Duration(start.Load())
				idx := int((done - ws) / res.sliceLen)
				if idx >= nslices {
					idx = nslices - 1 // the operation that crossed the deadline
				}
				t := &res.slices[idx][ci]
				t.ops++
				if !ok {
					t.failed++
				}
				if lat == 0 {
					lat = done - began
				}
				t.lats = append(t.lats, int64(lat))
				lastDone[ci] = done
			}
		}(ci)
	}

	time.Sleep(warmup)
	if begin != nil {
		begin()
	}
	start.Store(int64(time.Since(t0)))
	phase.Store(phaseMeasure)
	for i := 0; i < nslices; i++ {
		if onSlice != nil {
			onSlice(i)
		}
		next := time.Duration(start.Load()) + time.Duration(i+1)*res.sliceLen
		time.Sleep(next - time.Since(t0))
	}
	phase.Store(phaseStop)
	wg.Wait()
	if end != nil {
		end()
	}

	// A closed loop finishes the operation in flight at the deadline, so the
	// window ends when the last primary caller's last operation did.
	for ci, c := range callers {
		if c.primary && lastDone[ci] > res.elapsed {
			res.elapsed = lastDone[ci]
		}
	}
	res.elapsed -= time.Duration(start.Load())
	for _, sl := range res.slices {
		for _, t := range sl {
			res.attempted += int64(t.ops)
			res.failed += int64(t.failed)
		}
	}
	return res
}

// percentile returns the p-quantile (0..1) of sorted values.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i])
}

func sortedCopy(v []int64) []int64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
