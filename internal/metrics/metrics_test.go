package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Fraction returns the empirical P(X <= v): the oracle the quantile
// properties check Quantile against.
func (c *CDF) Fraction(v float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	n := sort.SearchFloat64s(c.samples, math.Nextafter(v, math.Inf(1)))
	return float64(n) / float64(len(c.samples))
}

func TestCDFQuantileBasics(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5},
	}
	for _, tc := range cases {
		if got := c.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Fraction(1)) {
		t.Fatal("empty CDF should report NaN")
	}
}

func TestCDFFraction(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 2, 3} {
		c.Add(v)
	}
	if got := c.Fraction(2); got != 0.75 {
		t.Errorf("Fraction(2) = %v, want 0.75", got)
	}
	if got := c.Fraction(0.5); got != 0 {
		t.Errorf("Fraction(0.5) = %v, want 0", got)
	}
	if got := c.Fraction(10); got != 1 {
		t.Errorf("Fraction(10) = %v, want 1", got)
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	var c CDF
	for i := 0; i < 500; i++ {
		c.Add(float64(i * i % 97))
	}
	pts := c.Points(50)
	if len(pts) != 50 {
		t.Fatalf("len(points) = %d, want 50", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("points not monotone at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
	if pts[0].Y != 0 || pts[len(pts)-1].Y != 1 {
		t.Fatalf("endpoints wrong: %+v %+v", pts[0], pts[len(pts)-1])
	}
}

// Property: quantile is monotone in q and bounded by [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		var c CDF
		ok := false
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				c.Add(v)
				ok = true
			}
		}
		if !ok {
			return true
		}
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if math.IsNaN(qa) || math.IsNaN(qb) {
			return true
		}
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := c.Quantile(qa), c.Quantile(qb)
		return va <= vb && va >= c.Quantile(0) && vb <= c.Quantile(1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Fraction(Quantile(q)) >= q - 1/n. The interpolated quantile can
// land between order statistics, so the bound is loose by one sample.
func TestFractionQuantileInverse(t *testing.T) {
	f := func(raw []int8, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var c CDF
		for _, v := range raw {
			c.Add(float64(v))
		}
		q := float64(qRaw) / 255
		return c.Fraction(c.Quantile(q)) >= q-1/float64(len(c.samples))-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntSummary(t *testing.T) {
	var s IntSummary
	for _, v := range []int{5, 1, 9, 3, 7} {
		s.Add(v)
	}
	if s.Max() != 9 {
		t.Errorf("Max = %d, want 9", s.Max())
	}
	if s.Median() != 5 {
		t.Errorf("Median = %d, want 5", s.Median())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if s.Total() != 25 {
		t.Errorf("Total = %d, want 25", s.Total())
	}
}

func TestIntSummaryEmpty(t *testing.T) {
	var s IntSummary
	if s.Max() != 0 || s.Median() != 0 || s.Mean() != 0 || len(s.values) != 0 {
		t.Fatal("empty summary should be all zero")
	}
}

func TestIntSummaryMedianEven(t *testing.T) {
	var s IntSummary
	for _, v := range []int{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.Median() != 2 {
		t.Errorf("lower median = %d, want 2", s.Median())
	}
}

// Property: median is always one of the observed values and between min/max.
func TestMedianWithinRange(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var s IntSummary
		ints := make([]int, len(vals))
		for i, v := range vals {
			s.Add(int(v))
			ints[i] = int(v)
		}
		sort.Ints(ints)
		m := s.Median()
		return m >= ints[0] && m <= ints[len(ints)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "count")
	tab.AddRow("alpha", 10)
	tab.AddRow("b", 2.5)
	out := tab.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Whole floats render without decimals.
	tab2 := NewTable("x")
	tab2.AddRow(3.0)
	if !strings.Contains(tab2.String(), "3\n") {
		t.Errorf("whole float should render as integer:\n%s", tab2.String())
	}
}

// TestQuantileEmptyCDF: every statistic of an empty CDF is NaN, not a
// panic or a zero that could be mistaken for a measurement.
func TestQuantileEmptyCDF(t *testing.T) {
	var c CDF
	for _, q := range []float64{0, 0.5, 0.99999, 1} {
		if v := c.Quantile(q); !math.IsNaN(v) {
			t.Errorf("empty CDF Quantile(%v) = %v, want NaN", q, v)
		}
	}
	if v := c.Fraction(1); !math.IsNaN(v) {
		t.Errorf("empty CDF Fraction(1) = %v, want NaN", v)
	}
}

// TestQuantileSingleSample: with one sample every quantile collapses to it,
// including the extreme tails used by the latency reports.
func TestQuantileSingleSample(t *testing.T) {
	var c CDF
	c.Add(42)
	for _, q := range []float64{0, 0.5, 0.99, 0.99999, 1} {
		if v := c.Quantile(q); v != 42 {
			t.Errorf("Quantile(%v) = %v, want 42", q, v)
		}
	}
}

// TestQuantileExtremeTail pins the p99.999 interpolation arithmetic: with
// n samples the tail quantile lands between the last two order statistics,
// so it must interpolate toward the maximum, never overshoot it, and never
// fall below the second-largest sample.
func TestQuantileExtremeTail(t *testing.T) {
	var c CDF
	n := 1000
	for i := 1; i <= n; i++ {
		c.Add(float64(i))
	}
	q := 0.99999
	got := c.Quantile(q)
	// pos = q*(n-1) = 999.99001... between samples[998]=999 and samples[999]=1000.
	pos := q * float64(n-1)
	lo := math.Floor(pos)
	want := float64(999)*(1-(pos-lo)) + 1000*(pos-lo)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
	}
	if got <= 999 || got > 1000 {
		t.Errorf("Quantile(%v) = %v, want in (999, 1000]", q, got)
	}
	if c.Quantile(1) != 1000 {
		t.Errorf("Quantile(1) = %v, want exact max 1000", c.Quantile(1))
	}
}
