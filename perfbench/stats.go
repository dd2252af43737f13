package main

import (
	"fmt"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it. It is
// computed from the raw samples, never from histogram buckets.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile of n samples.
func rankOf(n int, p float64) int {
	// Percentiles are whole or tenths; scaling by 10 keeps the ceiling exact.
	r := (int(p*10+0.5)*n + 999) / 1000
	return min(max(r, 1), n)
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailPercentile returns the highest whole percentile of n samples that
// has at least minBeyond samples beyond its nearest rank (99 at 1000
// samples, 93 at 160), and how many lie beyond it. Below 2·minBeyond
// samples no percentile qualifies; it then falls back to the median.
func tailPercentile(n int) (p float64, beyond int) {
	if n < 2*minBeyond {
		return 50, n - rankOf(n, 50)
	}
	for q := 99; q > 50; q-- {
		if b := n - rankOf(n, float64(q)); b >= minBeyond {
			return float64(q), b
		}
	}
	return 50, n - rankOf(n, 50)
}

// latencySummary is the median and tail of one set of samples (ms).
type latencySummary struct {
	p50, tail, tailPct float64
	beyond, n          int
}

func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	p, beyond := tailPercentile(len(s))
	return latencySummary{
		p50:     percentile(s, 50),
		tail:    percentile(s, p),
		tailPct: p,
		beyond:  beyond,
		n:       len(s),
	}
}

// checker collects failures, one per failed op or request (an error or
// its first failed output check) plus one per failed run-level check.
type checker struct {
	failed int
	msgs   []string
}

// fail records one failure.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// failures returns the number of failures recorded.
func (c *checker) failures() int { return c.failed }

// sample returns up to the first 20 failure messages.
func (c *checker) sample() []string { return c.msgs }
