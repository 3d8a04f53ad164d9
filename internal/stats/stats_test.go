package stats

import (
	"encoding/csv"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"canec/internal/sim"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("lat")
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Observe(v)
	}
	if s.N() != 5 || s.sum != 15 || s.Mean() != 3 {
		t.Fatalf("N/sum/Mean = %d/%v/%v", s.N(), s.sum, s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 || s.Spread() != 4 {
		t.Fatalf("Min/Max/Spread = %v/%v/%v", s.Min(), s.Max(), s.Spread())
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("e")
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.StdDev() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty series should answer zeros")
	}
}

func TestSeriesObserveAfterQuery(t *testing.T) {
	s := NewSeries("x")
	s.Observe(10)
	_ = s.Max() // forces sort
	s.Observe(1)
	if s.Min() != 1 {
		t.Fatal("observation after query lost ordering")
	}
}

func TestQuantile(t *testing.T) {
	s := NewSeries("q")
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	cases := map[float64]float64{0: 1, 0.5: 50, 0.95: 95, 0.99: 99, 1: 100}
	for q, want := range cases {
		if got := s.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestQuantileProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		s := NewSeries("p")
		for _, v := range vals {
			s.Observe(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		// Quantiles must be actual samples and monotone in q.
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			v := s.Quantile(q)
			idx := sort.SearchFloat64s(sorted, v)
			if idx >= len(sorted) || sorted[idx] != v {
				return false
			}
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStdDev(t *testing.T) {
	s := NewSeries("sd")
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if got := s.StdDev(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestPeriodJitter(t *testing.T) {
	ts := []sim.Time{0, 100, 205, 298, 400}
	// Successive intervals: 100, 105, 93, 102 → deviations 0, 5, 7, 2.
	if got := PeriodJitter(ts, 100); got != 7 {
		t.Fatalf("PeriodJitter = %d, want 7", int64(got))
	}
	if PeriodJitter(nil, 100) != 0 || PeriodJitter(ts[:1], 100) != 0 {
		t.Fatal("degenerate inputs should be 0")
	}
}

func TestFormatHelpers(t *testing.T) {
	if Micros(1500) != "1.50" {
		t.Fatalf("Micros = %q", Micros(1500))
	}
	if Pct(0.123) != "12.3%" {
		t.Fatalf("Pct = %q", Pct(0.123))
	}
}

func TestTableString(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "bbbb"}}
	tb.Add(123, "x")
	tb.Add("yy", 4.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if lines[0] != "T" {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a    bbbb") {
		t.Fatalf("header line %q", lines[1])
	}
	if !strings.Contains(lines[3], "123") || !strings.Contains(lines[4], "4.5") {
		t.Fatalf("rows wrong: %q", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	tb.Add("x,y", `q"z`)
	out := tb.CSV()
	want := "a,b\n\"x,y\",\"q\"\"z\"\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}

// TestTableCSVQuoting round-trips cells with every special character
// through encoding/csv to prove the quoting is RFC 4180 compliant.
func TestTableCSVQuoting(t *testing.T) {
	rows := [][]string{
		{"plain", "with,comma", `with"quote`},
		{"multi\nline", `",mix\n"`, ""},
		{`""`, ",", "\n"},
	}
	tb := Table{Headers: []string{"h1", "h,2", `h"3`}}
	tb.Rows = rows
	got, err := csv.NewReader(strings.NewReader(tb.CSV())).ReadAll()
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	want := append([][]string{{"h1", "h,2", `h"3`}}, rows...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %q, want %q", got, want)
	}
}
