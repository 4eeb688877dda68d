package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the R-7 / numpy default). xs is not modified; an empty
// slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailQuantile is the highest of the wanted quantiles that still leaves at
// least minBeyond samples above it, so a reported tail is never read off a
// handful of points; it returns that quantile and its value.
func tailQuantile(xs []float64, want float64, minBeyond int) (float64, float64) {
	q := want
	if n := float64(len(xs)); n > 0 && (1-q)*n < float64(minBeyond) {
		q = math.Max(0.5, 1-float64(minBeyond)/n)
	}
	return q, quantile(xs, q)
}

// retainedHeapMB collects the heap and returns the live heap it found,
// in MB: what the process still holds, with no garbage and no dependence
// on when the collector last ran. The second collection empties the
// sync.Pool victim caches the first one leaves live. It is read only
// between timed phases.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// allocsPer runs fn n times and returns the mean heap allocations per call
// counted process-wide, so allocations made on the call's behalf by other
// goroutines (batch workers) are included.
func allocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
