package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the pct-th percentile (nearest rank) of sorted. It
// refuses a percentile with fewer than minBeyond samples beyond it, so
// a p99 needs at least 1000 samples.
func percentile(sorted []float64, pct float64) (float64, error) {
	n := len(sorted)
	// The small slack keeps 0.99·1000 from rounding up to rank 991.
	rank := int(math.Ceil(pct/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it; need %d", pct, n, max(n-rank, 0), minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sample is one request as the client saw it: when its answer (or
// error) arrived, and its round-trip time in ms, +Inf when it failed.
type sample struct {
	end time.Time
	rtt float64
}

// windows splits the samples of the span [start, start+elapsed] into n
// windows of equal length by when each answer arrived.
func windows(samples []sample, start time.Time, elapsed time.Duration, n int) [][]sample {
	width := elapsed / time.Duration(n)
	out := make([][]sample, n)
	for _, s := range samples {
		i := int(s.end.Sub(start) / width)
		i = min(max(i, 0), n-1)
		out[i] = append(out[i], s)
	}
	return out
}

// windowRates splits the span [start, start+elapsed] into n windows of
// equal length and returns the completion rate per second of each: the
// answers that arrived in it, failed requests not counted, divided by
// its length. Every request lies in some window, so periodic work that
// stalls the service shows in each window it falls into.
func windowRates(samples []sample, start time.Time, elapsed time.Duration, n int) []float64 {
	width := (elapsed / time.Duration(n)).Seconds()
	var out []float64
	for _, w := range windows(samples, start, elapsed, n) {
		ok := 0
		for _, s := range w {
			if !math.IsInf(s.rtt, 1) {
				ok++
			}
		}
		out = append(out, float64(ok)/width)
	}
	return out
}

// windowPercentile is the median over windows of the span [start,
// start+elapsed] of each window's pct-th percentile, so a burst of
// contention from outside the benchmark that covers less than half the
// windows does not move it, while work the service repeats in every
// window does. It uses up to n windows, fewer when that many would
// leave a window without the samples its percentile needs.
func windowPercentile(samples []sample, start time.Time, elapsed time.Duration, n int, pct float64) (float64, int, error) {
	var err error
	for ; n >= 1; n-- {
		var ps []float64
		for _, w := range windows(samples, start, elapsed, n) {
			var p float64
			if p, err = samplePercentile(w, pct); err != nil {
				break
			}
			ps = append(ps, p)
		}
		if err == nil {
			return median(ps), n, nil
		}
	}
	return 0, 0, err
}

// samplePercentile is the pct-th percentile of the round-trip times of
// all samples (see percentile for the samples it needs).
func samplePercentile(samples []sample, pct float64) (float64, error) {
	rtts := make([]float64, len(samples))
	for i, s := range samples {
		rtts[i] = s.rtt
	}
	sort.Float64s(rtts)
	return percentile(rtts, pct)
}
