package obs

import (
	"strings"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, b.String())
	}
	return b.String()
}

// TestCounterVecRegistersWithFirstChild: a declared family is invisible
// until its first With, families appear in first-With order (not
// declaration order), and With memoises.
func TestCounterVecRegistersWithFirstChild(t *testing.T) {
	r := NewRegistry()
	first := r.CounterVec("declared_first_total", "declared first", "k")
	second := r.CounterVec("declared_second_total", "declared second", "k")
	unused := r.CounterVec("never_used_total", "never used", "k")
	if out := expose(t, r); out != "" {
		t.Fatalf("families without children were exposed:\n%s", out)
	}
	second.With("x").Inc()
	first.With("y").Add(2)
	if c := second.With("x"); c != second.With("x") || c.Value() != 1 {
		t.Fatal("With on the same values did not return the same counter")
	}
	if unused.Find("x") != nil || unused.Sum() != 0 {
		t.Fatal("Find/Sum on an unused family must not create children")
	}
	want := "# HELP declared_second_total declared second\n" +
		"# TYPE declared_second_total counter\n" +
		"declared_second_total{k=\"x\"} 1\n" +
		"# HELP declared_first_total declared first\n" +
		"# TYPE declared_first_total counter\n" +
		"declared_first_total{k=\"y\"} 2\n"
	if out := expose(t, r); out != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", out, want)
	}
}

// TestCounterVecSum: the three read-back shapes agree with a hand sum and
// register nothing.
func TestCounterVecSum(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("drops_total", "", "class", "reason")
	v.With("SRT", "queue full").Add(3)
	v.With("SRT", "budget").Add(4)
	v.With("NRT", "queue full").Add(5)
	before := expose(t, r)
	for _, c := range []struct {
		leading []string
		want    float64
	}{
		{nil, 12},
		{[]string{"SRT"}, 7},
		{[]string{"NRT"}, 5},
		{[]string{"SRT", "budget"}, 4},
		{[]string{"HRT"}, 0},
		{[]string{"SRT", "never"}, 0},
	} {
		if got := v.Sum(c.leading...); got != c.want {
			t.Errorf("Sum(%q) = %v, want %v", c.leading, got, c.want)
		}
	}
	if after := expose(t, r); after != before {
		t.Fatalf("Sum registered something:\n%s", after)
	}
}

// TestCounterVecHostileLabelValues: values holding the separators of the
// old hand-rolled keys ("a|b"+"c" vs "a"+"b|c"), colons and quotes stay
// distinct children and a valid exposition.
func TestCounterVecHostileLabelValues(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hostile_total", "", "class", "decision", "reason")
	tuples := [][3]string{
		{"a|b", "c", "d"},
		{"a", "b|c", "d"},
		{"a", "b", "c|d"},
		{"a:b", "c", `say "hi"`},
		{"a", "b:c", `say "hi"`},
		{"", "a", "b"},
		{"a", "", "b"},
	}
	for i, tp := range tuples {
		v.With(tp[0], tp[1], tp[2]).Add(float64(i + 1))
	}
	for i, tp := range tuples {
		if got := v.With(tp[0], tp[1], tp[2]).Value(); got != float64(i+1) {
			t.Errorf("tuple %q collided: value %v, want %d", tp, got, i+1)
		}
	}
	out := expose(t, r)
	if n := strings.Count(out, "hostile_total{"); n != len(tuples) {
		t.Fatalf("%d sample lines for %d tuples:\n%s", n, len(tuples), out)
	}
	if !strings.Contains(out, `hostile_total{class="a:b",decision="c",reason="say \"hi\""} 4`) {
		t.Fatalf("escaped tuple missing:\n%s", out)
	}
}

func TestVecArityIsChecked(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("arity_total", "", "a", "b")
	for name, fn := range map[string]func(){
		"too few":       func() { v.With("x") },
		"too many":      func() { v.With("x", "y", "z") },
		"no label name": func() { r.CounterVec("none_total", "") },
		"four names":    func() { r.CounterVec("four_total", "", "a", "b", "c", "d") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.LogHistogramVec("lat_us", "latency", 1, 100, 2, "loop")
	if v.Find("cart") != nil {
		t.Fatal("Find created a child")
	}
	v.With("cart").Observe(5)
	v.With("cart").Observe(50)
	if h := v.Find("cart"); h == nil || h.Snapshot().N() != 2 {
		t.Fatal("With did not memoise the histogram")
	}
	if out := expose(t, r); !strings.Contains(out, `lat_us_count{loop="cart"} 2`) {
		t.Fatalf("exposition:\n%s", out)
	}
}
