package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects raw durations. Quantiles are computed exactly from
// the sorted samples: seldel.LatencyHist's 1.6 % buckets would quantise
// a median more coarsely than the run-to-run spread this benchmark has
// to resolve.
type samples struct {
	mu sync.Mutex
	ns []float64
	// ends and spans say when each sample was measured, for the series
	// the end-to-end metrics are made of (addAt, addOver); the others
	// leave them empty.
	ends  []time.Time
	spans []time.Duration
}

func (s *samples) add(d time.Duration) { s.addValue(float64(d)) }

// addAt records an operation that took d and ended at end, so that it
// can later be scaled by the machine's slowness while it ran.
func (s *samples) addAt(end time.Time, d time.Duration) { s.addOver(end, d, d) }

// addOver records a duration d that was measured over the span ending
// at end: a mean page time over a whole cursor walk.
func (s *samples) addOver(end time.Time, span, d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, float64(d))
	s.ends = append(s.ends, end)
	s.spans = append(s.spans, span)
	s.mu.Unlock()
}

// scaled returns every sample divided by the machine's slowness over the
// time it took (see calib.go); with a nil meter, the samples as they are.
func (s *samples) scaled(m *meter) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]float64(nil), s.ns...)
	if m != nil {
		for i, end := range s.ends {
			out[i] /= m.slowness(end.Add(-s.spans[i]), end)
		}
	}
	return out
}

// addValue records a sample that is not a duration (a count of blocks).
func (s *samples) addValue(v float64) {
	s.mu.Lock()
	s.ns = append(s.ns, v)
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.ns, s.ends, s.spans = nil, nil, nil
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ns)
}

// q returns the q-quantile in nanoseconds (linear interpolation), 0 when empty.
func (s *samples) q(q float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.ns...)
	s.mu.Unlock()
	return quantile(v, q)
}

// within returns the share of operations v that took at most limit;
// failed operations, which have no sample, count as misses.
func within(v []float64, limit time.Duration, failed int64) float64 {
	n := 0
	for _, d := range v {
		if d <= float64(limit) {
			n++
		}
	}
	return ratio(float64(n), float64(len(v))+float64(failed))
}

// sum returns the total of all samples in nanoseconds.
func (s *samples) sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := 0.0
	for _, v := range s.ns {
		t += v
	}
	return t
}

func (s *samples) us(q float64) float64 { return s.q(q) / 1e3 }
func (s *samples) ms(q float64) float64 { return s.q(q) / 1e6 }

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
