package main

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// clockBase anchors nanotime, so timestamps fit an int64 and compare
// through the monotonic clock.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// cpuTime is the process's user+system CPU time. It covers every
// goroutine, including the program's own workers, GC and the scheduler.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and reports the live heap in MB (10^6
// bytes).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest sample with at least q·n samples at or below it). xs is sorted
// in place. 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle sample of xs, or the mean of the two middle
// samples for an even count. xs is sorted in place. 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latHist is a log-linear histogram of nanosecond latencies with 2048
// sub-buckets per octave, so a quantile is exact to 0.05% while the
// histogram stays a fixed 256 KiB however many frames a run delivers.
// Values below 2048 ns are exact.
type latHist struct {
	counts []uint64
	n      uint64
}

const (
	histSubBits = 11
	histSub     = 1 << histSubBits
	histHalf    = histSub / 2
)

func newLatHist() *latHist { return &latHist{counts: make([]uint64, 64*histHalf+histSub)} }

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	s := bits.Len64(v) - histSubBits
	return s*histHalf + int(v>>uint(s))
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	s := i/histHalf - 1
	m := i - s*histHalf
	return (float64(m) + 0.5) * float64(uint64(1)<<uint(s))
}

func (h *latHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

// quantile returns the nearest-rank q-quantile in nanoseconds.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(len(h.counts) - 1)
}
