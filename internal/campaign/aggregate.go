package campaign

import (
	"math"
	"sort"
)

// Sample is a mergeable statistical accumulator over float64 observations.
// It keeps the raw sample set (campaign metrics are a handful of floats per
// run, so memory is never the constraint) and reduces it to the summary the
// Report exports. Accumulation order is significant only in the last
// floating-point bits of the mean; Summarize always feeds samples in run
// order, which is what makes campaign aggregates byte-stable across worker
// counts.
type Sample struct {
	vals     []float64
	sum      float64
	min, max float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if len(s.vals) == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.sum += v
	s.vals = append(s.vals, v)
}

// Merge folds another accumulator into s, as if o's observations had been
// Added to s in order. Merging the same partitions in the same order yields
// identical summaries.
func (s *Sample) Merge(o *Sample) {
	for _, v := range o.vals {
		s.Add(v)
	}
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.vals) }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Min returns the smallest observation, or 0 when empty.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 when empty.
func (s *Sample) Max() float64 { return s.max }

// Quantile returns the q-quantile (0 <= q <= 1) of the sample set with
// linear interpolation between order statistics (the R-7 rule). It is safe
// on the empty set (0) and on a single sample (that sample).
func (s *Sample) Quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// Percentile returns the p-th percentile (0 < p <= 100) by nearest rank:
// the smallest observation with at least p% of the sample at or below it,
// never an interpolation. 0 when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// quantileSorted interpolates the q-quantile of an ascending non-empty
// slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0 for
// fewer than two observations. A constant sample has deviation exactly 0:
// sum/n need not round back to the repeated value (20 × 0.637 averages to
// 0.6370000000000002), and a deterministic sweep must not report that
// rounding residue as a confidence interval.
func (s *Sample) StdDev() float64 {
	n := len(s.vals)
	if n < 2 || s.min == s.max {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.vals {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval of the mean: 1.96·s/√n. Zero for fewer than two observations.
func (s *Sample) CI95() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(n))
}

// Agg is the exported summary of one metric at one grid point.
type Agg struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// CI95 is the half-width of the 95% confidence interval of the mean.
	CI95 float64 `json:"ci95"`
}

// Summary reduces the accumulator to its exported form.
func (s *Sample) Summary() Agg {
	if len(s.vals) == 0 {
		return Agg{}
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	return Agg{
		Count: s.N(),
		Mean:  s.Mean(),
		Min:   s.min,
		Max:   s.max,
		P50:   quantileSorted(sorted, 0.50),
		P95:   quantileSorted(sorted, 0.95),
		P99:   quantileSorted(sorted, 0.99),
		CI95:  s.CI95(),
	}
}

// MergeMetric accumulates one named metric across all successful runs, in
// run order — the campaign-wide distribution of a metric, ignoring grid
// point boundaries.
func MergeMetric(runs []RunResult, name string) *Sample {
	s := &Sample{}
	for _, r := range runs {
		if r.Failed() {
			continue
		}
		if v, ok := r.Metrics[name]; ok {
			s.Add(v)
		}
	}
	return s
}
