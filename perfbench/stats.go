package main

// The benchmark's own statistics: nearest-rank quantiles with the
// "at least ten samples beyond" rule, and the failure tally behind
// fail_frac.

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
// A p99 from 500 samples rests on five values and moves with any one
// of them; with ten beyond it, one outlier shifts it by one rank.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1):
// the smallest value with at least q·n samples at or below it. xs
// need not be sorted; it is not modified. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// rank is the 0-based nearest-rank index of quantile q in n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile's position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// tailQuantile returns the q-quantile of xs, or an error when fewer
// than minTail samples lie beyond it — the percentile would then be
// set by a handful of samples and is not reported.
func tailQuantile(xs []float64, q float64) (float64, error) {
	if b := beyond(len(xs), q); b < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, len(xs), b, minTail)
	}
	return quantile(xs, q), nil
}

// highestQuantile is the highest percentile (as a fraction) that n
// samples support with minTail beyond it; 0 when n is too small for
// any. It is printed beside each latency so a reader sees how far the
// tail could be read.
func highestQuantile(n int) float64 {
	if n <= minTail {
		return 0
	}
	q := float64(n-minTail) / float64(n)
	for q > 0 && beyond(n, q) < minTail {
		q -= 1 / float64(n)
	}
	return q
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tally counts operations and their failures. fail_frac is failed over
// attempted, where a failure is a refused (HTTP 429) or erroring
// operation or one whose output did not match its reference.
type tally struct {
	attempted  int64
	rejected   int64 // refused by the program (HTTP 429)
	errored    int64 // transport errors, unexpected statuses, failed jobs
	mismatched int64 // output differs from the reference
}

// failed is the number of operations that count against fail_frac.
func (t tally) failed() int64 { return t.rejected + t.errored + t.mismatched }

// failFrac is failed over attempted (0 when nothing was attempted).
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// add merges another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.rejected += o.rejected
	t.errored += o.errored
	t.mismatched += o.mismatched
}
