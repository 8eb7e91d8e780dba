package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
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
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// p90Reportable is the choosing-metrics rule for tail percentiles: report a
// percentile only when at least ten samples lie beyond it.
func p90Reportable(n int) bool { return float64(n)*0.1 >= 10 }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// timing formats a latency sample for the human-readable table: median and,
// where enough samples lie beyond it, p90, always with the sample count.
func timing(name string, xs []float64, unit string, scale float64) []string {
	if len(xs) == 0 {
		return []string{fmt.Sprintf("%-22s n/a (no samples)", name+"_p50")}
	}
	lines := []string{fmt.Sprintf("%-22s %.6g %s (n=%d)", name+"_p50", median(xs)*scale, unit, len(xs))}
	if p90Reportable(len(xs)) {
		lines = append(lines, fmt.Sprintf("%-22s %.6g %s (n=%d)", name+"_p90", quantile(xs, 0.9)*scale, unit, len(xs)))
	} else {
		lines = append(lines, fmt.Sprintf("%-22s n/a (n=%d; p90 needs >=100 samples)", name+"_p90", len(xs)))
	}
	return lines
}

// peakRSSMB is the process's peak resident set size (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// splitmix derives independent, reproducible sub-seeds from the workload
// seed: stream names one input family, i the item within it.
func splitmix(seed int64, stream string, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	for _, c := range stream {
		x = (x ^ uint64(c)) * 0x94d049bb133111eb
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 2) // non-negative, fits an int64 generator seed
}
