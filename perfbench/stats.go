package main

import (
	"math"
	"sort"
)

// samples collects the measurements behind every reported metric,
// keyed by metric name, so each metric can be reported with its
// sample count.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// median returns the median of name's samples (0 when there are none).
func (s samples) median(name string) float64 { return median(s[name]) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	k := int(math.Ceil(p/100*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	return c[k]
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailPercentile returns the highest candidate percentile that has at
// least minBeyond of n samples beyond it, or 0 when even the median
// has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}
