package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics: rank h = (n-1)·p, value
// x[floor h] + (h - floor h)·(x[floor h + 1] - x[floor h]). It returns NaN
// for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := float64(len(s)-1) * p
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// samplesBeyond is how many of n samples rank strictly above the
// p-quantile's interpolation base: n-1-floor((n-1)·p). A percentile is
// reported only when at least minTail samples lie beyond it.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(float64(n-1)*p))
}

// minTail is the least number of samples that must lie beyond a reported
// percentile.
const minTail = 10

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of parent the children cover: the length of
// the union of the children's intervals clipped to parent. Overlapping
// children count once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if cur.end < 0 || c.start > cur.end {
			if cur.end >= 0 {
				total += cur.end - cur.start
			}
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	if cur.end >= 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of it its child spans
// cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
