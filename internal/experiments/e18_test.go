package experiments

import (
	"testing"

	"canec/internal/core"
)

// TestE18ShapeClassHierarchy pins the experiment's reproduction contract:
// quality-of-control cost is monotone in bus load for every class, and
// the classes degrade in the paper's order — NRT first (visible by 0.85),
// SRT only past saturation (and it still settles), HRT never (calendar
// slots are load-immune).
func TestE18ShapeClassHierarchy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	loads := []float64{0, 0.85, 1.2}
	cost := map[core.Class][]float64{}
	for _, class := range []core.Class{core.HRT, core.SRT, core.NRT} {
		for i, load := range loads {
			q := e18Run(1, class, load, false)
			cost[class] = append(cost[class], q.CostPerSec)
			// Monotone: more load never improves control.
			if i > 0 && q.CostPerSec < cost[class][i-1]*0.999 {
				t.Fatalf("%s: cost fell from %v to %v as load rose to %v",
					class, cost[class][i-1], q.CostPerSec, load)
			}
			if class == core.SRT && !q.Settled {
				t.Fatalf("SRT loop failed to settle at load %v: %+v", load, q)
			}
		}
	}
	// HRT is load-immune: overload costs what an idle bus costs.
	if hrt := cost[core.HRT]; hrt[2] > hrt[0]*1.02 {
		t.Fatalf("HRT cost moved with load: %v", hrt)
	}
	// SRT holds through 0.85 but pays past saturation.
	if srt := cost[core.SRT]; srt[1] > srt[0]*1.1 || srt[2] < srt[0]*1.5 {
		t.Fatalf("SRT should hold at 0.85 and degrade at 1.2: %v", srt)
	}
	// NRT degrades before SRT at every stressed point and is the worst
	// class once the bus saturates.
	if cost[core.NRT][1] <= cost[core.SRT][1] {
		t.Fatalf("NRT should degrade before SRT at 0.85: NRT %v, SRT %v",
			cost[core.NRT][1], cost[core.SRT][1])
	}
	if cost[core.NRT][2] <= cost[core.SRT][2] {
		t.Fatalf("NRT should be worst past saturation: NRT %v, SRT %v",
			cost[core.NRT][2], cost[core.SRT][2])
	}
}

// TestE18BusOffAttackTaxesEveryClass: the bus-off adversary removes the
// controller station, and no channel class can schedule its way around a
// dead peer — cost rises and stale ticks appear for HRT too.
func TestE18BusOffAttackTaxesEveryClass(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	for _, class := range []core.Class{core.HRT, core.SRT} {
		clean := e18Run(1, class, 0.45, false)
		hit := e18Run(1, class, 0.45, true)
		if hit.CostPerSec < clean.CostPerSec*1.2 {
			t.Fatalf("%s: attack cost %v vs clean %v — outage left no mark",
				class, hit.CostPerSec, clean.CostPerSec)
		}
		if hit.Stale == 0 {
			t.Fatalf("%s: no stale ticks during the controller outage", class)
		}
		if hit.Applied >= clean.Applied {
			t.Fatalf("%s: attack should cost commands (%d vs %d)",
				class, hit.Applied, clean.Applied)
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
	direct := e18Run(1, core.SRT, 0.45, false)
	relayed := e18Relay(1, 0.45)
	if !relayed.Settled {
		t.Fatalf("relayed loop did not settle: %+v", relayed)
	}
	if relayed.Applied < 100 {
		t.Fatalf("relayed loop applied only %d commands", relayed.Applied)
	}
	if relayed.Latency.Quantile(0.5) <= direct.Latency.Quantile(0.5) {
		t.Fatalf("gateway hop invisible in latency: relay p50 %v vs direct %v",
			relayed.Latency.Quantile(0.5), direct.Latency.Quantile(0.5))
	}
}
