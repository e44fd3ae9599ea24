package main

import (
	"sort"
	"time"
)

// pct returns the q-quantile (0..1) of ds by nearest rank, in
// milliseconds, and sorts ds in place.
func pct(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.5) - 1
	i = max(0, min(i, len(ds)-1))
	return ms(ds[i])
}

// durs returns the samples' latencies.
func durs(ts []timed) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.d
	}
	return out
}

// minTail is the fewest samples a p99 rests on: ten past it.
const minTail = 1000

// p99 is the tail statistic: the samples, in time order, are cut into
// the most consecutive stretches of equal size that each hold at least
// minTail samples (at most one per wave), and the result is the median
// of the stretches' p99s, in milliseconds. One machine hiccup then moves
// one stretch, not the run's figure; with fewer than 2*minTail samples
// it is the plain p99.
func p99(ts []timed) (v float64, stretches int) {
	s := append([]timed(nil), ts...)
	sort.Slice(s, func(i, j int) bool { return s[i].at.Before(s[j].at) })
	g := max(1, min(segments, len(s)/minTail))
	var tails []time.Duration
	for k := 0; k < g; k++ {
		part := durs(s[k*len(s)/g : (k+1)*len(s)/g])
		tails = append(tails, time.Duration(pct(part, 0.99)*float64(time.Millisecond)))
	}
	return float64(median(tails)) / float64(time.Millisecond), g
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func pctFloat(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
