package experiments

import (
	"reflect"
	"testing"

	"canec/internal/obs/causal"
)

// TestE19Attribution pins the causal engine's verdicts against the
// ground truth of the injected faults: every campaign must attribute
// incident chains on the faulted channel to the injected cause family,
// the control group must never carry a top cause from that family, and
// the residual-zero invariant must hold for every chain.
func TestE19Attribution(t *testing.T) {
	for _, c := range e19Campaigns() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out := e19Exec(7, c)
			if out.chains == 0 || out.faulted == 0 {
				t.Fatalf("campaign produced no chains: %+v", out)
			}
			if out.familyIncidents == 0 {
				t.Fatalf("no incident attributed to %s: %+v", e19Family(c.family), out)
			}
			if out.familyDebit <= 0 {
				t.Fatalf("no debit charged to %s: %+v", e19Family(c.family), out)
			}
			fam := map[causal.Cause]bool{}
			for _, cause := range c.family {
				fam[cause] = true
			}
			if !fam[out.topCause] {
				t.Fatalf("dominant top cause %q outside family %s", out.topCause, e19Family(c.family))
			}
			// Zero misattribution: not one control chain blamed on the
			// injected fault.
			if out.misattributed != 0 {
				t.Fatalf("%d control chains misattributed to %s", out.misattributed, e19Family(c.family))
			}
			// The engine is exact: segment debits tile publish→end for
			// every chain, faulted or not.
			if out.residualBad != 0 {
				t.Fatalf("%d chains with nonzero residual", out.residualBad)
			}
		})
	}
}

// TestE19Deterministic replays every campaign: identical seeds must
// yield identical attribution outcomes, including the exact family debit
// the table prints rounded. The tables are pinned by the goldens.
func TestE19Deterministic(t *testing.T) {
	for _, c := range e19Campaigns() {
		a, b := e19Exec(3, c), e19Exec(3, c)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s diverged:\n%+v\nvs\n%+v", c.name, a, b)
		}
	}
}
