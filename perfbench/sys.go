package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far, garbage
// collector and every worker goroutine included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (Linux
// 4.0 and later). A kernel that refuses leaves the process's lifetime peak,
// which is still an upper bound, so the error is dropped.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark in MiB, falling back to
// getrusage's lifetime maximum where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcSample reads the Go runtime's cumulative allocation, collection and
// CPU-class counters.
type gcSample struct {
	allocBytes float64
	cycles     float64
	gcCPU      float64
	totalCPU   float64
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcSample {
	samples := make([]metrics.Sample, len(gcMetricNames))
	for i, name := range gcMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return gcSample{allocBytes: val(0), cycles: val(1), gcCPU: val(2), totalCPU: val(3)}
}

func (s gcSample) sub(o gcSample) gcSample {
	return gcSample{
		allocBytes: s.allocBytes - o.allocBytes,
		cycles:     s.cycles - o.cycles,
		gcCPU:      s.gcCPU - o.gcCPU,
		totalCPU:   s.totalCPU - o.totalCPU,
	}
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which
// is how the benchmark's spreads are judged. One value is its own
// quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(float64(len(s))*p/100+0.999999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// tailPercentile picks the highest of p90/p99/p99.9 that leaves at least ten
// samples beyond it, as the metric guide asks; ok is false below 20 samples.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, cand := range []float64{99.9, 99, 90} {
		if float64(len(xs))*(100-cand)/100 >= 10 {
			return cand, percentile(xs, cand), true
		}
	}
	return 0, 0, false
}
