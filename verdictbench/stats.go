package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over 200 samples is two observations, not a tail.
const minTail = 10

// dist is a sorted sample of durations.
type dist []time.Duration

func newDist(xs []time.Duration) dist {
	d := append(dist(nil), xs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// at returns the nearest-rank p-quantile (0 < p < 1) and whether at
// least minTail samples lie strictly beyond its rank.
func (d dist) at(p float64) (time.Duration, bool) {
	if len(d) == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(len(d)))) - 1
	rank = max(0, min(rank, len(d)-1))
	return d[rank], len(d)-1-rank >= minTail
}

// tail returns the p-quantile when it has minTail samples beyond it,
// and otherwise the highest percentile (in whole percents) that does,
// together with the percentile actually reported. A sample too small
// for any supported tail reports the median as its tail.
func (d dist) tail(p float64) (time.Duration, float64) {
	if v, ok := d.at(p); ok {
		return v, p
	}
	for q := math.Floor(p*100) - 1; q > 50; q-- {
		if v, ok := d.at(q / 100); ok {
			return v, q / 100
		}
	}
	v, _ := d.at(0.5)
	return v, 0.5
}

// summary is the reported view of one latency sample.
type summary struct {
	N       int     `json:"n"`
	P50Ms   float64 `json:"p50_ms"`
	TailMs  float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"`
	Q1Ms    float64 `json:"q1_ms"`
	Q3Ms    float64 `json:"q3_ms"`
}

func summarize(xs []time.Duration, p float64) summary {
	d := newDist(xs)
	s := summary{N: len(d)}
	if len(d) == 0 {
		return s
	}
	p50, _ := d.at(0.5)
	q1, _ := d.at(0.25)
	q3, _ := d.at(0.75)
	t, tp := d.tail(p)
	s.P50Ms, s.TailMs, s.TailPct = ms(p50), ms(t), tp*100
	s.Q1Ms, s.Q3Ms = ms(q1), ms(q3)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur is the median of xs (0 when empty).
func medianDur(xs []time.Duration) time.Duration {
	v, _ := newDist(xs).at(0.5)
	return v
}

// median is the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
