// Package stats provides the measurement primitives the experiment
// harness uses: streaming series with exact quantiles, jitter metrics,
// counters, and plain-text table rendering for reproducing the paper's
// evaluation as terminal output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"canec/internal/sim"
)

// Series collects numeric samples (durations, counts) and answers summary
// queries. Samples are kept exactly; simulation experiments produce at
// most a few million samples, well within memory.
type Series struct {
	name    string
	samples []float64
	sorted  bool
	sum     float64
}

// NewSeries returns an empty series with a display name.
func NewSeries(name string) *Series { return &Series{name: name} }

// Observe records one sample.
func (s *Series) Observe(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
	s.sorted = false
}

// ObserveDuration records a virtual-time duration in nanoseconds.
func (s *Series) ObserveDuration(d sim.Duration) { s.Observe(float64(d)) }

// N returns the sample count.
func (s *Series) N() int { return len(s.samples) }

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min returns the smallest sample (0 for an empty series).
func (s *Series) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[0]
}

// Max returns the largest sample (0 for an empty series).
func (s *Series) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[len(s.samples)-1]
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using nearest-rank on the
// sorted samples.
func (s *Series) Quantile(q float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	if q <= 0 {
		return s.samples[0]
	}
	if q >= 1 {
		return s.samples[len(s.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.samples[idx]
}

// StdDev returns the population standard deviation.
func (s *Series) StdDev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Spread returns max − min: the peak-to-peak jitter measure used for
// latency and period jitter in the experiments.
func (s *Series) Spread() float64 { return s.Max() - s.Min() }

func (s *Series) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// PeriodJitter derives the successive-difference series of event
// timestamps and reports its peak-to-peak deviation from the nominal
// period: the paper's period jitter for periodic HRT events.
func PeriodJitter(timestamps []sim.Time, period sim.Duration) (maxAbs sim.Duration) {
	for i := 1; i < len(timestamps); i++ {
		d := timestamps[i] - timestamps[i-1] - period
		if d < 0 {
			d = -d
		}
		if d > maxAbs {
			maxAbs = d
		}
	}
	return maxAbs
}

// Micros renders a nanosecond quantity as microseconds with two decimals.
func Micros(v float64) string { return fmt.Sprintf("%.2f", v/1000) }

// Pct renders a ratio as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Table renders experiment results as aligned plain text (and optionally
// CSV), matching how the harness regenerates the paper's evaluation.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b []byte
	if t.Title != "" {
		b = append(b, t.Title...)
		b = append(b, '\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b = append(b, ' ', ' ')
			}
			b = append(b, c...)
			for p := len(c); p < widths[i]; p++ {
				b = append(b, ' ')
			}
		}
		b = append(b, '\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		for p := 0; p < widths[i]; p++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return string(b)
}

// CSV renders the table as comma-separated values. Cells containing
// commas, quotes or newlines are quoted per RFC 4180 (embedded quotes
// doubled).
func (t *Table) CSV() string {
	var b strings.Builder
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	row(t.Headers)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}
