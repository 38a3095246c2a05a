package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is the rule every reported percentile obeys: a percentile
// is printed only when at least this many samples lie beyond it, so a
// "p95" over 30 ops (which would be the second-largest sample) is never
// shown as if it were a distribution's tail.
const tailSamples = 10

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of an ascending
// slice by linear interpolation between closest ranks. It panics on an
// empty slice: every caller has at least one sample by construction.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// tailQuantile returns the q-quantile only when the sample supports it:
// ok is false when fewer than tailSamples samples lie beyond the
// quantile's rank, in which case the caller omits the figure rather
// than printing a number that is really the maximum.
func tailQuantile(sorted []float64, q float64) (v float64, ok bool) {
	beyond := len(sorted) - int(math.Ceil(q*float64(len(sorted))))
	if beyond < tailSamples {
		return 0, false
	}
	return quantileSorted(sorted, q), true
}

// spread summarises repeated measurements of one quantity: the median
// and the interquartile range, the run-to-run noise band every
// comparison in this harness is judged against.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// IQR is the distance between the quartiles.
func (s spread) IQR() float64 { return s.Q3 - s.Q1 }

// Rel is the IQR as a share of the median (0 when the median is 0).
func (s spread) Rel() float64 {
	if s.Median == 0 {
		return 0
	}
	return s.IQR() / math.Abs(s.Median)
}

// summarise computes the spread of a sample (which it sorts in place).
func summarise(v []float64) spread {
	if len(v) == 0 {
		return spread{}
	}
	sort.Float64s(v)
	return spread{
		N:      len(v),
		Median: quantileSorted(v, 0.5),
		Q1:     quantileSorted(v, 0.25),
		Q3:     quantileSorted(v, 0.75),
	}
}

// latencySummary is the per-op latency distribution of one measured
// phase. P95 and P99 are pointers so an unsupported percentile is
// absent from the JSON instead of zero-filled.
type latencySummary struct {
	Samples int      `json:"samples"`
	P50     float64  `json:"p50_ms"`
	P95     *float64 `json:"p95_ms,omitempty"`
	P99     *float64 `json:"p99_ms,omitempty"`
	Max     float64  `json:"max_ms"`
}

// summariseLatencies folds raw op durations into a latencySummary.
func summariseLatencies(d []time.Duration) latencySummary {
	if len(d) == 0 {
		return latencySummary{}
	}
	ms := make([]float64, len(d))
	for i, x := range d {
		ms[i] = float64(x) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	s := latencySummary{Samples: len(ms), P50: quantileSorted(ms, 0.5), Max: ms[len(ms)-1]}
	if v, ok := tailQuantile(ms, 0.95); ok {
		s.P95 = &v
	}
	if v, ok := tailQuantile(ms, 0.99); ok {
		s.P99 = &v
	}
	return s
}
