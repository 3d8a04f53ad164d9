package experiments

import (
	"strconv"
	"testing"
)

// These tests pin the *shape* of each remaining experiment — who wins, in
// which direction the curves bend — rather than exact values, which is
// precisely the reproduction contract stated in EXPERIMENTS.md. They run
// complete experiments and are skipped with -short.

func TestE4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	res := resultAt(t, "E4", 1)
	sawOverload := false
	for _, row := range res.Table.Rows {
		load, _ := strconv.ParseFloat(row[0], 64)
		edf := cell(t, row, 3)
		dm := cell(t, row, 4)
		oracle := cell(t, row, 5)
		edfWorst := cell(t, row, 6)
		dmWorst := cell(t, row, 7)
		if load <= 0.7 {
			// Comfortably schedulable region: nobody misses.
			if edf != 0 || dm != 0 || oracle != 0 {
				t.Fatalf("misses at load %v: %v", load, row)
			}
		}
		if load >= 1.0 {
			sawOverload = true
			// Past saturation: EDF degrades uniformly (total high) while
			// DM starves whole streams (its worst stream is total loss).
			if dmWorst < 99 {
				t.Fatalf("DM did not starve its victim stream at load %v: %v", load, row)
			}
			if oracle < edf-20 {
				t.Fatalf("oracle and EDF should collapse together at load %v: %v", load, row)
			}
			_ = edfWorst
		}
	}
	if !sawOverload {
		t.Fatal("sweep missed the overload region")
	}
}

func TestE5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	res := resultAt(t, "E5", 1)
	rows := res.Table.Rows
	// beyondHorizon% strictly decreases with Δt_p; promotions decrease;
	// inversions at the largest Δt_p exceed those at the paper's default.
	for i := 1; i < len(rows); i++ {
		if cell(t, rows[i], 4) > cell(t, rows[i-1], 4) {
			t.Fatalf("beyondHorizon not decreasing: %v -> %v", rows[i-1], rows[i])
		}
		if cell(t, rows[i], 5) > cell(t, rows[i-1], 5)+0.01 {
			t.Fatalf("promotions not decreasing: %v -> %v", rows[i-1], rows[i])
		}
	}
	defIdx := 2 // 160 µs row
	last := len(rows) - 1
	if cell(t, rows[last], 3) <= cell(t, rows[defIdx], 3) {
		t.Fatalf("coarse Δt_p should raise inversions: %v vs %v", rows[last], rows[defIdx])
	}
}

func TestE7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	res := resultAt(t, "E7", 1)
	rows := res.Table.Rows
	// Within each load block (4 rows), promos/job decreases with Δt_p;
	// and the higher load block dominates the lower at equal Δt_p.
	for b := 0; b < len(rows); b += 4 {
		for i := 1; i < 4; i++ {
			if cell(t, rows[b+i], 2) > cell(t, rows[b+i-1], 2)+0.01 {
				t.Fatalf("promos not decreasing in Δt_p: %v -> %v", rows[b+i-1], rows[b+i])
			}
		}
	}
	for i := 0; i < 4; i++ {
		if cell(t, rows[4+i], 2) < cell(t, rows[i], 2) {
			t.Fatalf("higher load should promote more: %v vs %v", rows[4+i], rows[i])
		}
	}
}

func TestE9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	res := resultAt(t, "E9", 1)
	for _, row := range res.Table.Rows {
		if row[1] != "HRT" {
			continue
		}
		// HRT application jitter stays at clock-precision level (< 30 µs)
		// at every network size, and nothing is missed.
		if jit := cell(t, row, 5); jit > 30 {
			t.Fatalf("HRT jitter %v µs at %s nodes", jit, row[0])
		}
		if row[6] != "0" {
			t.Fatalf("HRT misses: %v", row)
		}
	}
}

func TestA1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	res := resultAt(t, "A1", 1)
	last := res.Table.Rows[len(res.Table.Rows)-1] // highest load
	onMiss, offMiss := cell(t, last, 2), cell(t, last, 3)
	onInv, offInv := cell(t, last, 4), cell(t, last, 5)
	if offInv <= onInv {
		t.Fatalf("disabling promotion should raise inversions: on=%v off=%v", onInv, offInv)
	}
	if offMiss < onMiss {
		t.Fatalf("disabling promotion should not reduce misses: on=%v off=%v", onMiss, offMiss)
	}
}

func TestA2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	res := resultAt(t, "A2", 1)
	for i, row := range res.Table.Rows {
		onJ, offJ := cell(t, row, 1), cell(t, row, 2)
		if onJ != 0 {
			t.Fatalf("de-jittered delivery has jitter: %v", row)
		}
		if i > 0 && offJ < 50 {
			t.Fatalf("raw delivery under load should jitter ≥50µs: %v", row)
		}
	}
}

func TestA3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	res := resultAt(t, "A3", 1)
	vals := map[string]float64{}
	for _, row := range res.Table.Rows {
		vals[row[0]] = cell(t, row, 5)
	}
	if !(vals["value"] > vals["expire"] && vals["expire"] > vals["none"]) {
		t.Fatalf("accrued value ordering broken: %v", vals)
	}
	if vals["value"] < 2*vals["expire"] {
		t.Fatalf("value shedding should at least double expiration's accrued value: %v", vals)
	}
}
