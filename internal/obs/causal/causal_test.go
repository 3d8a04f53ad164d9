package causal

import (
	"reflect"
	"testing"

	"canec/internal/obs"
	"canec/internal/sim"
)

// assertExact checks the engine's core invariant on every chain.
func assertExact(t *testing.T, a *Analyzer) {
	t.Helper()
	for _, ch := range a.Chains() {
		if res := ch.Residual(); res != 0 {
			t.Fatalf("chain %d residual = %v ns, want 0 (segments %s, latency %v)",
				ch.ID, res, FormatSegments(ch.Segments), ch.Latency)
		}
	}
}

func one(t *testing.T, a *Analyzer) Chain {
	t.Helper()
	if len(a.Chains()) != 1 {
		t.Fatalf("chains = %d, want 1", len(a.Chains()))
	}
	return a.Chains()[0]
}

func TestCleanChainBaselineOnly(t *testing.T) {
	a := Analyze([]obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageTxStart, At: 10, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxOK, At: 110, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageRx, At: 110, Node: 1, Subject: 0x300},
		{ID: 1, Stage: obs.StageDelivered, At: 120, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	}, Config{})
	assertExact(t, a)
	ch := one(t, a)
	if ch.Latency != 120 || ch.Outcome != "delivered" {
		t.Fatalf("latency %v outcome %q", ch.Latency, ch.Outcome)
	}
	if ch.Top != CauseNone {
		t.Fatalf("top = %v, want none (segments %s)", ch.Top, FormatSegments(ch.Segments))
	}
	if d := ch.Debit(CauseWireTx); d != 100 {
		t.Fatalf("wire_tx = %v, want 100", d)
	}
	if d := ch.Debit(CauseQueueWait); d != 10 {
		t.Fatalf("queue_wait = %v, want 10", d)
	}
	if d := ch.Debit(CauseDelivery); d != 10 {
		t.Fatalf("delivery = %v, want 10", d)
	}
}

func TestInterferenceCarving(t *testing.T) {
	a := Analyze([]obs.Record{
		// Foreign frame 9 occupies the wire over [0, 100).
		{ID: 9, Stage: obs.StageTxStart, At: 0, Node: 5, Subject: 0x42, Attempt: 1},
		{ID: 1, Stage: obs.StagePublished, At: 20, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 20, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 9, Stage: obs.StageTxOK, At: 100, Node: 5, Subject: 0x42},
		{ID: 1, Stage: obs.StageTxStart, At: 100, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxOK, At: 200, Node: 0, Subject: 0x300},
		{ID: 1, Stage: obs.StageRx, At: 200, Node: 1, Subject: 0x300},
		{ID: 1, Stage: obs.StageDelivered, At: 200, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	}, Config{LateOver: map[string]sim.Duration{"SRT": 150}})
	assertExact(t, a)
	ch := one(t, a)
	if !ch.Late {
		t.Fatal("chain not late under 150 ns bound")
	}
	if ch.Top != CauseArbInterference {
		t.Fatalf("top = %v, want arb_interference", ch.Top)
	}
	if d := ch.Debit(CauseArbInterference); d != 80 {
		t.Fatalf("interference = %v, want 80", d)
	}
	found := false
	for _, s := range ch.Segments {
		if s.Cause == CauseArbInterference && s.Label == "subject=0x42" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing interferer label: %s", FormatSegments(ch.Segments))
	}
}

func TestErrorRetransmitAttribution(t *testing.T) {
	a := Analyze([]obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageTxStart, At: 10, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxErr, At: 50, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxStart, At: 80, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: 1, Stage: obs.StageTxOK, At: 180, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: 1, Stage: obs.StageRx, At: 180, Node: 1, Subject: 0x300},
		{ID: 1, Stage: obs.StageDelivered, At: 180, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	}, Config{LateOver: map[string]sim.Duration{"SRT": 150}})
	assertExact(t, a)
	ch := one(t, a)
	if ch.Top != CauseErrorRetransmit {
		t.Fatalf("top = %v, want error_retransmit", ch.Top)
	}
	// Corrupted attempt (40) + recovery to the retry (30).
	if d := ch.Debit(CauseErrorRetransmit); d != 70 {
		t.Fatalf("error_retransmit = %v, want 70", d)
	}
	if d := ch.Debit(CauseWireTx); d != 100 {
		t.Fatalf("wire_tx = %v, want 100", d)
	}
}

func TestBusoffRecoveryWindow(t *testing.T) {
	a := Analyze([]obs.Record{
		{Stage: obs.StageBusOff, At: 100, Node: 0},
		{ID: 1, Stage: obs.StagePublished, At: 150, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 150, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{Stage: obs.StageBusOffRecovered, At: 500, Node: 0},
		{ID: 1, Stage: obs.StageTxStart, At: 510, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxOK, At: 610, Node: 0, Subject: 0x300},
		{ID: 1, Stage: obs.StageRx, At: 610, Node: 1, Subject: 0x300},
		{ID: 1, Stage: obs.StageDelivered, At: 620, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	}, Config{LateOver: map[string]sim.Duration{"SRT": 200}})
	assertExact(t, a)
	ch := one(t, a)
	if ch.Top != CauseBusoffRecovery {
		t.Fatalf("top = %v, want busoff_recovery", ch.Top)
	}
	if d := ch.Debit(CauseBusoffRecovery); d != 350 {
		t.Fatalf("busoff_recovery = %v, want 350 ([150,500))", d)
	}
	if d := ch.Debit(CauseQueueWait); d != 10 {
		t.Fatalf("queue_wait = %v, want 10", d)
	}
}

func TestBusoffStillOpenAtDrop(t *testing.T) {
	// The chain dies while its node is still bus-off: the open window
	// must be charged even though no recovery record exists yet.
	a := Analyze([]obs.Record{
		{Stage: obs.StageBusOff, At: 100, Node: 0},
		{ID: 1, Stage: obs.StagePublished, At: 150, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 150, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageDropped, At: 400, Node: 0, Class: obs.ClassSRT, Subject: 0x300, Detail: obs.Text("tx_abandoned")},
	}, Config{})
	assertExact(t, a)
	ch := one(t, a)
	if ch.Top != CauseBusoffRecovery {
		t.Fatalf("top = %v, want busoff_recovery", ch.Top)
	}
	if ch.Outcome != "dropped(tx_abandoned)" {
		t.Fatalf("outcome = %q", ch.Outcome)
	}
	if d := ch.Debit(CauseBusoffRecovery); d != 250 {
		t.Fatalf("busoff_recovery = %v, want 250", d)
	}
}

func TestHoldoverWideningOnHRTHold(t *testing.T) {
	a := Analyze([]obs.Record{
		{Stage: obs.StageHoldoverEnter, At: 0, Node: 2},
		{ID: 1, Stage: obs.StagePublished, At: 100, Node: 0, Class: obs.ClassHRT, Subject: 0x700},
		{ID: 1, Stage: obs.StageEnqueued, At: 100, Node: 0, Class: obs.ClassHRT, Subject: 0x700},
		{ID: 1, Stage: obs.StageTxStart, At: 110, Node: 0, Subject: 0x700, Attempt: 1},
		{ID: 1, Stage: obs.StageTxOK, At: 210, Node: 0, Subject: 0x700},
		{ID: 1, Stage: obs.StageRx, At: 210, Node: 1, Subject: 0x700},
		{ID: 1, Stage: obs.StageDelivered, At: 900, Node: 1, Class: obs.ClassHRT, Subject: 0x700},
		{Stage: obs.StageHoldoverExit, At: 1000, Node: 2},
	}, Config{LateOver: map[string]sim.Duration{"HRT": 700}})
	assertExact(t, a)
	ch := one(t, a)
	if ch.Top != CauseHoldoverWidening {
		t.Fatalf("top = %v, want holdover_widening (%s)", ch.Top, FormatSegments(ch.Segments))
	}
	if d := ch.Debit(CauseHoldoverWidening); d != 690 {
		t.Fatalf("holdover_widening = %v, want 690", d)
	}
	// Waiting for the slot is a scheduled baseline cause, never a "why".
	if d := ch.Debit(CauseSlotWait); d != 10 {
		t.Fatalf("slot_wait = %v, want 10", d)
	}
}

func TestDejitterHoldIsBaselineWithoutHoldover(t *testing.T) {
	a := Analyze([]obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassHRT, Subject: 0x700},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassHRT, Subject: 0x700},
		{ID: 1, Stage: obs.StageTxStart, At: 10, Node: 0, Subject: 0x700, Attempt: 1},
		{ID: 1, Stage: obs.StageTxOK, At: 110, Node: 0, Subject: 0x700},
		{ID: 1, Stage: obs.StageRx, At: 110, Node: 1, Subject: 0x700},
		{ID: 1, Stage: obs.StageDelivered, At: 800, Node: 1, Class: obs.ClassHRT, Subject: 0x700},
	}, Config{})
	assertExact(t, a)
	ch := one(t, a)
	if ch.Top != CauseNone {
		t.Fatalf("top = %v, want none", ch.Top)
	}
	if d := ch.Debit(CauseDejitterHold); d != 690 {
		t.Fatalf("dejitter_hold = %v, want 690", d)
	}
}

func TestRelaySegments(t *testing.T) {
	a := Analyze([]obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageTxStart, At: 0, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxOK, At: 100, Node: 0, Subject: 0x300},
		{ID: 1, Stage: obs.StageRx, At: 100, Node: 3, Subject: 0x300},
		{ID: 1, Stage: obs.StageRelayTx, At: 150, Node: 3, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageRelayDrop, At: 250, Node: 3, Class: obs.ClassSRT, Subject: 0x300, Detail: obs.Text("backpressure")},
	}, Config{})
	assertExact(t, a)
	ch := one(t, a)
	if d := ch.Debit(CauseRelayQueue); d != 50 {
		t.Fatalf("relay_queue = %v, want 50", d)
	}
	if d := ch.Debit(CauseRelayLink); d != 100 {
		t.Fatalf("relay_link = %v, want 100", d)
	}
	if ch.Outcome != "relay_drop(backpressure)" {
		t.Fatalf("outcome = %q", ch.Outcome)
	}
}

func TestAdmissionBackoffOverride(t *testing.T) {
	a := Analyze([]obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{Stage: obs.StageAdmitShed, At: 50, Node: 0, Class: obs.ClassSRT, Subject: 0x300, Detail: obs.Text("error-rate miss 0.2 target 0.05")},
		{ID: 1, Stage: obs.StageDropped, At: 100, Node: 0, Class: obs.ClassSRT, Subject: 0x300, Detail: obs.Text("tx_abandoned")},
	}, Config{})
	assertExact(t, a)
	ch := one(t, a)
	if ch.Top != CauseAdmissionBackoff {
		t.Fatalf("top = %v, want admission_backoff", ch.Top)
	}
	if d := ch.Debit(CauseAdmissionBackoff); d != 100 {
		t.Fatalf("admission_backoff = %v, want 100", d)
	}
}

func TestGuardianMuteAttribution(t *testing.T) {
	a := Analyze([]obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageGuardMuted, At: 10, Node: 0, Subject: 0x300},
		{ID: 1, Stage: obs.StageTxStart, At: 200, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxOK, At: 300, Node: 0, Subject: 0x300},
		{ID: 1, Stage: obs.StageRx, At: 300, Node: 1, Subject: 0x300},
		{ID: 1, Stage: obs.StageDelivered, At: 300, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	}, Config{LateOver: map[string]sim.Duration{"SRT": 200}})
	assertExact(t, a)
	ch := one(t, a)
	if ch.Top != CauseGuardianMute {
		t.Fatalf("top = %v, want guardian_mute", ch.Top)
	}
	if d := ch.Debit(CauseGuardianMute); d != 190 {
		t.Fatalf("guardian_mute = %v, want 190", d)
	}
}

func TestSecondDeliveryIgnored(t *testing.T) {
	recs := []obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassHRT, Subject: 0x700},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassHRT, Subject: 0x700},
		{ID: 1, Stage: obs.StageDelivered, At: 100, Node: 1, Class: obs.ClassHRT, Subject: 0x700},
		{ID: 1, Stage: obs.StageDelivered, At: 120, Node: 2, Class: obs.ClassHRT, Subject: 0x700},
		{ID: 1, Stage: obs.StageDropped, At: 130, Node: 3, Class: obs.ClassHRT, Subject: 0x700, Detail: obs.Text("duplicate")},
	}
	a := Analyze(recs, Config{})
	assertExact(t, a)
	ch := one(t, a)
	if ch.Latency != 100 {
		t.Fatalf("latency = %v, want 100 (first delivery closes the chain)", ch.Latency)
	}
	if s := a.Snapshot(); s.Chains != 1 {
		t.Fatalf("snapshot chains = %d, want 1", s.Chains)
	}
}

func TestDeterministicReplay(t *testing.T) {
	recs := []obs.Record{
		{ID: 9, Stage: obs.StageTxStart, At: 0, Node: 5, Subject: 0x42, Attempt: 1},
		{ID: 1, Stage: obs.StagePublished, At: 10, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 10, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 9, Stage: obs.StageTxOK, At: 100, Node: 5, Subject: 0x42},
		{ID: 1, Stage: obs.StageTxStart, At: 110, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxErr, At: 150, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxStart, At: 160, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: 1, Stage: obs.StageTxOK, At: 260, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: 1, Stage: obs.StageRx, At: 260, Node: 1, Subject: 0x300},
		{ID: 1, Stage: obs.StageDelivered, At: 270, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	}
	cfg := Config{LateOver: map[string]sim.Duration{"SRT": 100}}
	a, b := Analyze(recs, cfg), Analyze(recs, cfg)
	assertExact(t, a)
	if !reflect.DeepEqual(a.Chains(), b.Chains()) {
		t.Fatal("chains differ across identical replays")
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("snapshots differ across identical replays")
	}
	if a.BreachSummary(0, 3) != b.BreachSummary(0, 3) {
		t.Fatal("breach summaries differ across identical replays")
	}
	if a.BreachSummary(obs.ClassSRT, 3) == "" {
		t.Fatal("late chain produced no breach summary")
	}
}

func TestEvictionBound(t *testing.T) {
	a := New(Config{MaxOpen: 4})
	for i := uint64(1); i <= 10; i++ {
		a.Add(obs.Record{ID: i, Stage: obs.StagePublished, At: sim.Time(i), Node: 0, Class: obs.ClassSRT, Subject: 0x300})
	}
	if len(a.open) != 4 {
		t.Fatalf("open = %d, want 4", len(a.open))
	}
	if a.evicted != 6 {
		t.Fatalf("evicted = %d, want 6", a.evicted)
	}
	// A terminal record for an evicted chain is ignored, not resurrected.
	a.Add(obs.Record{ID: 1, Stage: obs.StageDelivered, At: 100, Node: 1, Class: obs.ClassSRT, Subject: 0x300})
	if s := a.Snapshot(); s.Chains != 0 || s.Evicted != 6 {
		t.Fatalf("snapshot = %+v, want 0 chains / 6 evicted", s)
	}
}

// pruneWatch feeds an analyzer and observes its prune passes from the
// outside: a pass either drops spans or moves the trigger (one that trims
// nothing doubles it), and after every Add the next trigger must still lie
// ahead — a trigger left at or below the retained spans is the old
// prune-on-every-Add behaviour.
type pruneWatch struct {
	a                *Analyzer
	maxSpans, passes int
}

func (w *pruneWatch) add(t *testing.T, r obs.Record) {
	n, at := len(w.a.spans), w.a.pruneAt
	w.a.Add(r)
	if len(w.a.spans) < n || w.a.pruneAt != at {
		w.passes++
	}
	if len(w.a.spans) >= w.a.pruneAt {
		t.Fatalf("%d spans retained with the next prune at %d", len(w.a.spans), w.a.pruneAt)
	}
	w.maxSpans = max(w.maxSpans, len(w.a.spans))
}

// TestPinnedChainBoundsSpans: a publish nobody subscribes to reaches
// tx_ok but is never delivered, so it pins every wire span after its
// publish. The retained spans must stay under spanCap (the stalled chain
// is evicted, not kept forever), and prune passes must stay geometric —
// the old trigger pruned on every Add once 8,192 spans were retained,
// ~42,000 passes over this stream.
func TestPinnedChainBoundsSpans(t *testing.T) {
	w := &pruneWatch{a: New(Config{})}
	for _, r := range []obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x500},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x500},
		{ID: 1, Stage: obs.StageTxStart, At: 10, Node: 0, Subject: 0x500, Attempt: 1},
		{ID: 1, Stage: obs.StageTxOK, At: 110, Node: 0, Subject: 0x500, Attempt: 1},
	} {
		w.add(t, r)
	}
	const n = 50_000
	for i := 0; i < n; i++ {
		id, at := uint64(i+2), sim.Time(1000+i*200)
		for _, r := range []obs.Record{
			{ID: id, Stage: obs.StagePublished, At: at, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
			{ID: id, Stage: obs.StageEnqueued, At: at, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
			{ID: id, Stage: obs.StageTxStart, At: at + 10, Node: 1, Subject: 0x300, Attempt: 1},
			{ID: id, Stage: obs.StageTxOK, At: at + 110, Node: 1, Subject: 0x300, Attempt: 1},
			{ID: id, Stage: obs.StageRx, At: at + 110, Node: 2, Subject: 0x300},
			{ID: id, Stage: obs.StageDelivered, At: at + 120, Node: 2, Class: obs.ClassSRT, Subject: 0x300},
		} {
			w.add(t, r)
		}
	}
	if w.maxSpans > spanCap {
		t.Fatalf("retained spans peaked at %d, cap %d", w.maxSpans, spanCap)
	}
	s := w.a.Snapshot()
	if s.Evicted != 1 || s.Open != 0 || s.Chains != n {
		t.Fatalf("snapshot = %+v, want the pinned chain evicted and %d chains finished", s, n)
	}
	// Three doublings while pinned (8k, 16k, 32k), the evicting pass, then
	// one pass per spanPruneLen new spans.
	if limit := 4 + (n+1)/spanPruneLen; w.passes > limit {
		t.Fatalf("%d prune passes over %d spans, want ≤ %d", w.passes, n+1, limit)
	}
}

// TestProgressingChainKeepsSpans: a chain that keeps making progress —
// an arb_lost every 1,000 interfering frames — while 40,000 spans go by
// crosses spanCap. It must not be evicted with the stalled chain beside
// it: it finishes with every interfering span charged to it, and the
// prune passes it forces stay logarithmic in the spans it pins.
func TestProgressingChainKeepsSpans(t *testing.T) {
	w := &pruneWatch{a: New(Config{KeepAll: true})}
	for _, r := range []obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassNRT, Subject: 0x700},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassNRT, Subject: 0x700},
		{ID: 2, Stage: obs.StagePublished, At: 50, Node: 1, Class: obs.ClassSRT, Subject: 0x500},
		{ID: 2, Stage: obs.StageEnqueued, At: 50, Node: 1, Class: obs.ClassSRT, Subject: 0x500},
	} {
		w.add(t, r)
	}
	const n = 40_000
	for i := 0; i < n; i++ {
		at := sim.Time(1000 + i*200)
		w.add(t, obs.Record{Stage: obs.StageTxStart, At: at, Node: 2, Subject: 0x100})
		w.add(t, obs.Record{Stage: obs.StageTxOK, At: at + 100, Node: 2, Subject: 0x100})
		if i%1000 == 999 {
			w.add(t, obs.Record{ID: 1, Stage: obs.StageArbLost, At: at + 100, Node: 0, Subject: 0x700})
		}
	}
	end := sim.Time(1000 + n*200)
	for _, r := range []obs.Record{
		{ID: 1, Stage: obs.StageTxStart, At: end, Node: 0, Subject: 0x700, Attempt: 1},
		{ID: 1, Stage: obs.StageTxOK, At: end + 100, Node: 0, Subject: 0x700, Attempt: 1},
		{ID: 1, Stage: obs.StageRx, At: end + 100, Node: 3, Subject: 0x700},
		{ID: 1, Stage: obs.StageDelivered, At: end + 110, Node: 3, Class: obs.ClassNRT, Subject: 0x700},
	} {
		w.add(t, r)
	}
	if s := w.a.Snapshot(); s.Evicted != 1 || s.Open != 0 || s.Chains != 1 {
		t.Fatalf("snapshot = %+v, want the stalled chain evicted and the progressing one finished", s)
	}
	chains := w.a.Chains()
	if len(chains) != 1 || chains[0].ID != 1 {
		t.Fatalf("chains = %+v, want chain 1", chains)
	}
	ch := chains[0]
	if ch.Residual() != 0 || ch.Debit(CauseArbInterference) != n*100 || ch.Latency != end+110 {
		t.Fatalf("chain 1: latency %d, interference %d, residual %d; want %d, %d, 0",
			ch.Latency, ch.Debit(CauseArbInterference), ch.Residual(), end+110, n*100)
	}
	if w.maxSpans < n {
		t.Fatalf("retained spans peaked at %d, want all %d the chain overlaps", w.maxSpans, n)
	}
	// 8k, 16k, 32k, the cap pass that evicts only the stalled chain (the
	// trigger then doubles to 64k).
	if w.passes > 4 {
		t.Fatalf("%d prune passes over %d pinned spans, want ≤ 4", w.passes, n)
	}
}

func TestMetricsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	a := Analyze([]obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageTxStart, At: 10, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxErr, At: 50, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxStart, At: 400, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: 1, Stage: obs.StageTxOK, At: 500, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: 1, Stage: obs.StageRx, At: 500, Node: 1, Subject: 0x300},
		{ID: 1, Stage: obs.StageDelivered, At: 510, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	}, Config{Registry: reg, LateOver: map[string]sim.Duration{"SRT": 100}})
	assertExact(t, a)
	var b []byte
	w := &bytesWriter{&b}
	if err := reg.WriteText(w); err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, fam := range []string{
		"canec_why_chains_total", "canec_why_debit_ns_total",
		"canec_why_late_total", "canec_why_debit_microseconds",
	} {
		if !contains(text, fam) {
			t.Fatalf("exposition missing %s:\n%s", fam, text)
		}
	}
	if !contains(text, `cause="error_retransmit"`) {
		t.Fatalf("exposition missing error_retransmit label:\n%s", text)
	}
}

type bytesWriter struct{ b *[]byte }

func (w *bytesWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
