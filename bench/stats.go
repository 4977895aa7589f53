package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals by linear
// interpolation between order statistics; vals is not reordered.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// The quartile on the undisturbed side, for the repetitions inside one
// run. The sizing box's neighbours slow it for a second or two at a
// time, and never speed it up: the quick quartile is the same from run
// to run where the median is not (one run in four had a slow spell over
// half of its passes).
const (
	quickTime = 0.25 // of times: the lower quartile
	quickRate = 0.75 // of rates: the upper quartile
)

// windowedP99 is the median of the p99s of consecutive windows of
// window samples each, in arrival order, so that one stall moves one
// window and not the result. A trailing partial window is merged into
// the last full one; fewer samples than one window form a single
// window.
func windowedP99(samples []float64, window int) float64 {
	if len(samples) == 0 {
		return 0
	}
	var p99s []float64
	for lo := 0; lo < len(samples); lo += window {
		hi := lo + window
		if len(samples)-hi < window {
			hi = len(samples)
		}
		p99s = append(p99s, quantile(samples[lo:hi], 0.99))
		if hi == len(samples) {
			break
		}
	}
	return median(p99s)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// nsPer is d in nanoseconds per one of n; 0 when nothing was counted.
func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
