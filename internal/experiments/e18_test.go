package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// e18Seeds are the seeds the E18 shape tests read: every seed whose table
// the goldens pin, so the shape holds wherever the table is checked. The
// tests are parallel, so in a full run they start after
// TestAllExperimentsProduceTables and read the tables it already made.
var e18Seeds = []uint64{1, 2, 3, 5}

// e18Rows returns the lookup of E18's rows at seed by "class load
// campaign", e.g. "SRT 0.45 none" or "SRT 0.45 +1 hop"; it fails the test
// on a key with no row.
func e18Rows(t *testing.T, seed uint64) func(key string) []string {
	t.Helper()
	rows := map[string][]string{}
	for _, row := range resultAt(t, "E18", seed).Table.Rows {
		rows[row[0]+" "+row[1]+" "+row[2]] = row
	}
	return func(key string) []string {
		t.Helper()
		row, ok := rows[key]
		if !ok {
			t.Fatalf("E18 at seed %d has no row %q", seed, key)
		}
		return row
	}
}

// e18Applied is a row's count of applied commands (the numerator of its
// applied/commands cell).
func e18Applied(t *testing.T, row []string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimSpace(strings.SplitN(row[8], "/", 2)[0]))
	if err != nil {
		t.Fatalf("applied cell %q: %v", row[8], err)
	}
	return n
}

// TestE18ShapeClassHierarchy pins the experiment's reproduction contract:
// quality-of-control cost is monotone in bus load for every class, and
// the classes degrade in the paper's order — NRT first (visible by 0.85),
// SRT only past saturation (and it still settles), HRT never (calendar
// slots are load-immune).
func TestE18ShapeClassHierarchy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	loads := []string{"0.00", "0.45", "0.85", "1.20"}
	for _, seed := range e18Seeds {
		rows := e18Rows(t, seed)
		cost := map[string][]float64{}
		for _, class := range []string{"HRT", "SRT", "NRT"} {
			for i, load := range loads {
				row := rows(class + " " + load + " none")
				cost[class] = append(cost[class], cell(t, row, 3))
				// Monotone: more load never improves control.
				if i > 0 && cost[class][i] < cost[class][i-1]*0.999 {
					t.Errorf("seed %d %s: cost fell from %v to %v as load rose to %s",
						seed, class, cost[class][i-1], cost[class][i], load)
				}
				if class == "SRT" && row[5] == "-" {
					t.Errorf("seed %d: SRT loop failed to settle at load %s: %v", seed, load, row)
				}
			}
		}
		// HRT is load-immune: overload costs what an idle bus costs.
		if hrt := cost["HRT"]; hrt[3] > hrt[0]*1.02 {
			t.Errorf("seed %d: HRT cost moved with load: %v", seed, hrt)
		}
		// SRT holds through 0.85 but pays past saturation.
		if srt := cost["SRT"]; srt[2] > srt[0]*1.1 || srt[3] < srt[0]*1.5 {
			t.Errorf("seed %d: SRT should hold at 0.85 and degrade at 1.2: %v", seed, srt)
		}
		// NRT degrades before SRT at every stressed point and is the worst
		// class once the bus saturates.
		for _, i := range []int{2, 3} {
			if cost["NRT"][i] <= cost["SRT"][i] {
				t.Errorf("seed %d: NRT should cost more than SRT at %s: NRT %v, SRT %v",
					seed, loads[i], cost["NRT"][i], cost["SRT"][i])
			}
		}
	}
}

// TestE18BusOffAttackTaxesEveryClass: the bus-off adversary removes the
// controller station, and no channel class can schedule its way around a
// dead peer — cost rises and stale ticks appear for HRT too.
func TestE18BusOffAttackTaxesEveryClass(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	for _, seed := range e18Seeds {
		rows := e18Rows(t, seed)
		for _, class := range []string{"HRT", "SRT"} {
			clean := rows(class + " 0.45 none")
			hit := rows(class + " 0.45 busoff")
			if cell(t, hit, 3) < cell(t, clean, 3)*1.2 {
				t.Errorf("seed %d %s: attack cost %s vs clean %s — outage left no mark",
					seed, class, hit[3], clean[3])
			}
			if cell(t, hit, 7) == 0 {
				t.Errorf("seed %d %s: no stale ticks during the controller outage", seed, class)
			}
			if e18Applied(t, hit) >= e18Applied(t, clean) {
				t.Errorf("seed %d %s: attack should cost commands (%s vs %s)",
					seed, class, hit[8], clean[8])
			}
		}
	}
}

// TestE18RelayHopSettles: a controller across a store-and-forward
// gateway still settles the loop on SRT channels, and the extra hop is
// visible in the latency oracle.
func TestE18RelayHopSettles(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	for _, seed := range e18Seeds {
		rows := e18Rows(t, seed)
		direct := rows("SRT 0.45 none")
		relayed := rows("SRT 0.45 +1 hop")
		if relayed[5] == "-" {
			t.Errorf("seed %d: relayed loop did not settle: %v", seed, relayed)
		}
		if n := e18Applied(t, relayed); n < 100 {
			t.Errorf("seed %d: relayed loop applied only %d commands", seed, n)
		}
		if cell(t, relayed, 9) <= cell(t, direct, 9) {
			t.Errorf("seed %d: gateway hop invisible in latency: relay p50 %s vs direct %s",
				seed, relayed[9], direct[9])
		}
	}
}
