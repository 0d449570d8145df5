package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median of a non-empty sample; the mean of the middle pair when even.
func median(ds []time.Duration) time.Duration {
	s := sorted(ds)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLatency returns the highest of p99, p95 and p90 that has at least
// ten samples above it, with that percentile and the count above it.
// Below 100 samples no percentile qualifies and the maximum is returned
// as p100.
func tailLatency(ds []time.Duration) (time.Duration, int, int) {
	s := sorted(ds)
	n := len(s)
	for _, p := range []int{99, 95, 90} {
		idx := (n*p+99)/100 - 1 // nearest-rank percentile
		if beyond := n - 1 - idx; idx >= 0 && beyond >= 10 {
			return s[idx], p, beyond
		}
	}
	return s[n-1], 100, 0
}

func mean(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// runtimeSample reads the process totals the runtime metrics come from.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
