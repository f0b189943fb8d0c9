// Package metrics provides the statistical helpers the SoftCell evaluation
// needs: empirical CDFs with high-quantile interpolation (the paper reports
// 99.999-percentiles), streaming summaries, histograms, and fixed-width
// table rendering for experiment output.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
// The zero value is ready to use.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// Samples returns a sorted copy of every observation, so a distribution
// can be serialised byte-exactly.
//
//lint:ignore deadexport the workload generator's determinism test compares two same-seed runs sample by sample through it
func (c *CDF) Samples() []float64 {
	c.sort()
	out := make([]float64, len(c.samples))
	copy(out, c.samples)
	return out
}

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics. It returns NaN for an empty CDF.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	pos := q * float64(len(c.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.samples[lo]
	}
	frac := pos - float64(lo)
	return c.samples[lo]*(1-frac) + c.samples[hi]*frac
}

// Points returns n evenly spaced (value, cumulative-fraction) pairs suitable
// for plotting the CDF curve, plus the exact endpoints.
func (c *CDF) Points(n int) []Point {
	if len(c.samples) == 0 || n < 2 {
		return nil
	}
	c.sort()
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		pts = append(pts, Point{X: c.Quantile(frac), Y: frac})
	}
	return pts
}

// Point is one (x, y) pair of a rendered curve.
type Point struct{ X, Y float64 }

// IntSummary summarises a set of integer observations; it is what the
// large-scale simulation reports per switch table (Fig. 7 plots maximum and
// median table sizes).
type IntSummary struct {
	values []int
}

// Add records one observation.
func (s *IntSummary) Add(v int) { s.values = append(s.values, v) }

// Merge folds another summary's observations into s.
func (s *IntSummary) Merge(o IntSummary) { s.values = append(s.values, o.values...) }

// Max returns the largest observation, or 0 when empty.
func (s *IntSummary) Max() int {
	m := 0
	for i, v := range s.values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Median returns the (lower) median observation, or 0 when empty.
func (s *IntSummary) Median() int {
	if len(s.values) == 0 {
		return 0
	}
	sorted := append([]int(nil), s.values...)
	sort.Ints(sorted)
	return sorted[(len(sorted)-1)/2]
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *IntSummary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum int
	for _, v := range s.values {
		sum += v
	}
	return float64(sum) / float64(len(s.values))
}

// Total returns the sum of all observations.
func (s *IntSummary) Total() int {
	var sum int
	for _, v := range s.values {
		sum += v
	}
	return sum
}

// Table renders aligned experiment output. Rows are added as strings and
// formatted with left-aligned first column and right-aligned numbers.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; each cell is rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// String renders the table with a header rule.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width[i], cell)
			} else {
				fmt.Fprintf(&b, "%*s", width[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range width {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(width)-1)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
