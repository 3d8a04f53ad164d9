package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"canec/internal/stats"
)

func fakeExperiment() Experiment {
	return Experiment{
		ID: "EX", Name: "fake",
		Run: func(seed uint64) Result {
			t := stats.Table{Headers: []string{"label", "v", "pct"}}
			t.Add("row", float64(seed), stats.Pct(float64(seed)/100))
			return Result{ID: "EX", Title: "fake", Table: t}
		},
	}
}

func TestRunSeedsParallelOrder(t *testing.T) {
	e := fakeExperiment()
	seeds := []uint64{3, 1, 7, 5, 9, 2, 8, 4}
	results := RunSeeds(e, seeds)
	if len(results) != len(seeds) {
		t.Fatalf("results = %d", len(results))
	}
	// Seed order preserved: row value equals the seed.
	for i, r := range results {
		want := float64(seeds[i])
		got, _, err := parseNumeric(r.Table.Rows[0][1])
		if err != nil || got != want {
			t.Fatalf("result %d carries %v, want %v", i, got, want)
		}
	}
}

// TestRunSeedsIndependentOfGOMAXPROCS: the full-stack integration
// experiment yields the same per-seed results whether RunSeeds runs the
// seeds one at a time or on parallel workers.
func TestRunSeedsIndependentOfGOMAXPROCS(t *testing.T) {
	e, ok := Find("E9")
	if !ok {
		t.Fatal("E9 not registered")
	}
	seeds := []uint64{1, 2, 3, 4}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial := RunSeeds(e, seeds)
	runtime.GOMAXPROCS(max(prev, len(seeds)))
	if parallel := RunSeeds(e, seeds); !reflect.DeepEqual(parallel, serial) {
		t.Errorf("GOMAXPROCS(%d) results differ from GOMAXPROCS(1):\n%v\nvs\n%v",
			runtime.GOMAXPROCS(0), parallel, serial)
	}
}

func TestAggregateMeanSD(t *testing.T) {
	e := fakeExperiment()
	results := RunSeeds(e, []uint64{2, 4, 6})
	agg := Aggregate(results)
	if !strings.Contains(agg.Title, "3 seeds") {
		t.Fatalf("title %q", agg.Title)
	}
	// mean of 2,4,6 = 4.00, sd = 1.63.
	cell := agg.Table.Rows[0][1]
	if !strings.HasPrefix(cell, "4.00±1.6") {
		t.Fatalf("aggregated cell = %q", cell)
	}
	// Percent suffix preserved.
	if !strings.HasSuffix(agg.Table.Rows[0][2], "%") {
		t.Fatalf("pct cell = %q", agg.Table.Rows[0][2])
	}
	// Label column untouched.
	if agg.Table.Rows[0][0] != "row" {
		t.Fatalf("label cell = %q", agg.Table.Rows[0][0])
	}
}

func TestAggregateConstantCollapses(t *testing.T) {
	e := Experiment{Run: func(uint64) Result {
		tb := stats.Table{Headers: []string{"v"}}
		tb.Add(7)
		return Result{Table: tb}
	}}
	agg := Aggregate(RunSeeds(e, []uint64{1, 2, 3}))
	if agg.Table.Rows[0][0] != "7.00" {
		t.Fatalf("constant cell = %q (no ±0 noise expected)", agg.Table.Rows[0][0])
	}
}

func TestAggregateShapeDivergence(t *testing.T) {
	a := Result{Table: stats.Table{Headers: []string{"v"}, Rows: [][]string{{"1"}}}}
	b := Result{Table: stats.Table{Headers: []string{"v"}, Rows: [][]string{{"2"}, {"3"}}}}
	agg := Aggregate([]Result{a, b})
	found := false
	for _, n := range agg.Notes {
		if strings.Contains(n, "divergent") {
			found = true
		}
	}
	if !found {
		t.Fatal("shape divergence not noted")
	}
	if len(agg.Table.Rows) != 1 {
		t.Fatalf("rows = %d", len(agg.Table.Rows))
	}
}

func TestAggregateEmpty(t *testing.T) {
	if got := Aggregate(nil); got.ID != "" || len(got.Table.Rows) != 0 {
		t.Fatal("empty aggregate not zero")
	}
}

func TestParseNumeric(t *testing.T) {
	cases := []struct {
		in   string
		v    float64
		sfx  string
		fail bool
	}{
		{"12.5", 12.5, "", false},
		{"3.1%", 3.1, "%", false},
		{"1.61x", 1.61, "x", false},
		{" 7 ", 7, "", false},
		{"true", 0, "", true},
		{"-", 0, "", true},
	}
	for _, c := range cases {
		v, sfx, err := parseNumeric(c.in)
		if c.fail {
			if err == nil {
				t.Fatalf("%q parsed", c.in)
			}
			continue
		}
		if err != nil || v != c.v || sfx != c.sfx {
			t.Fatalf("%q -> %v %q %v", c.in, v, sfx, err)
		}
	}
}

// BenchmarkRunSeedsScaling measures the wall-clock benefit of the
// parallel multi-seed sweep: independent simulation instances scale with
// the available cores.
func BenchmarkRunSeedsScaling(b *testing.B) {
	e, _ := Find("E10")
	seeds := []uint64{1, 2, 3, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = RunSeeds(e, seeds)
	}
}
