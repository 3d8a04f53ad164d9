package causal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"canec/internal/obs"
	"canec/internal/sim"
)

// checkOracle replays recs through the engine and the oracle (oracle_test.go)
// and requires identical output: Chains, Snapshot JSON, BreachSummary and
// TopCause for every class and "", and the canec_why_* exposition — once
// as a batch (KeepAll) and once streamed with snapshots compared along
// the way. The metric families do not depend on KeepAll, so only the
// streamed run backs them.
func checkOracle(tb testing.TB, recs []obs.Record, cfg Config) {
	tb.Helper()
	cfg.Registry = nil
	got, want := Analyze(recs, cfg), refAnalyze(recs, cfg)
	if !reflect.DeepEqual(got.Chains(), want.Chains()) {
		tb.Fatalf("batch chains differ: %s", chainDiff(got.Chains(), want.Chains()))
	}
	compareViews(tb, "batch", got, want)

	cfg.KeepAll = false
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	ca, cb := cfg, cfg
	ca.Registry, cb.Registry = regA, regB
	sa, sb := New(ca), newRef(cb)
	step := len(recs)/4 + 1
	for i, r := range recs {
		sa.Add(r)
		sb.Add(r)
		if (i+1)%step == 0 {
			compareViews(tb, fmt.Sprintf("streamed@%d", i+1), sa, sb)
		}
	}
	compareViews(tb, "streamed", sa, sb)
	compareExposition(tb, "streamed", regA, regB)
}

func compareViews(tb testing.TB, mode string, got *Analyzer, want *refAnalyzer) {
	tb.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	gj, _ := json.Marshal(gs)
	wj, _ := json.Marshal(ws)
	if !bytes.Equal(gj, wj) {
		tb.Fatalf("%s snapshot differs:\n got %s\nwant %s", mode, gj, wj)
	}
	// Class 0 is every class, and a class no chain has matches none.
	classes := []obs.Class{0, obs.ClassNRT + 1}
	for _, cp := range ws.Classes {
		var c obs.Class
		if err := c.UnmarshalText([]byte(cp.Class)); err != nil {
			tb.Fatal(err)
		}
		classes = append(classes, c)
	}
	for _, class := range classes {
		name := class.String()
		if class > obs.ClassNRT {
			name = "no-such-class"
		}
		for _, n := range []int{0, 1, 3} {
			if g, w := got.BreachSummary(class, n), want.BreachSummary(name, n); g != w {
				tb.Fatalf("%s BreachSummary(%q, %d) = %q, want %q", mode, name, n, g, w)
			}
		}
		if g, w := got.TopCause(class), want.TopCause(name); g != w {
			tb.Fatalf("%s TopCause(%q) = %q, want %q", mode, name, g, w)
		}
	}
}

// compareExposition requires the two registries to render the same
// canec_why_* exposition. Equal registries render the same text, so the
// texts are rendered, compared and shown only when the values differ.
func compareExposition(tb testing.TB, mode string, regA, regB *obs.Registry) {
	tb.Helper()
	if reflect.DeepEqual(regA, regB) {
		return
	}
	var ga, wa bytes.Buffer
	if err := regA.WriteText(&ga); err != nil {
		tb.Fatal(err)
	}
	if err := regB.WriteText(&wa); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(ga.Bytes(), wa.Bytes()) {
		tb.Fatalf("%s canec_why_* exposition differs:\n got %s\nwant %s", mode, ga.Bytes(), wa.Bytes())
	}
}

func chainDiff(got, want []Chain) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d chains, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("chain %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	return "equal"
}

// streamGen builds well-formed random record streams: non-decreasing time
// (the emission-order contract of Analyze), chains of every class walking
// plausible stage sequences with interleaved foreign and untraced frames,
// error retransmits, bus-off and holdover windows, admission sheds, relay
// legs, stray records and chains that never terminate.
type streamGen struct {
	pick func(n int) int // uniform in [0, n)
	at   sim.Time
	recs []obs.Record

	nextID   uint64
	live     []*genChain
	finished []uint64
	reuseIDs bool
	wireBusy bool
}

type genChain struct {
	id      uint64
	class   obs.Class
	subject uint64
	node    int32
	stage   obs.Stage
	attempt uint16
	pinned  bool
}

// genNext is the stage transition table the chains walk.
var genNext = map[obs.Stage][]obs.Stage{
	obs.StagePublished:  {obs.StageEnqueued, obs.StageEnqueued, obs.StageEnqueued, obs.StageGuardMuted, obs.StageRelayTx, obs.StageDropped, obs.StageArbLost},
	obs.StageEnqueued:   {obs.StageArbLost, obs.StageArbWon, obs.StageTxStart, obs.StageTxStart, obs.StagePromoted, obs.StageExpired, obs.StageShed, obs.StageGuardMuted, obs.StageDropped, obs.StageMissed},
	obs.StagePromoted:   {obs.StageArbLost, obs.StageArbWon, obs.StageTxStart, obs.StagePromoted},
	obs.StageArbLost:    {obs.StageArbLost, obs.StageArbWon, obs.StageTxStart, obs.StageExpired},
	obs.StageArbWon:     {obs.StageTxStart},
	obs.StageTxStart:    {obs.StageTxOK, obs.StageTxOK, obs.StageTxOK, obs.StageTxErr, obs.StageTxErr, obs.StageTxAbort},
	obs.StageTxErr:      {obs.StageTxStart, obs.StageTxStart, obs.StageDropped, obs.StageGuardMuted},
	obs.StageGuardMuted: {obs.StageTxStart, obs.StageDropped, obs.StageArbLost},
	obs.StageTxOK:       {obs.StageRx, obs.StageRx, obs.StageRelayTx, obs.StageDelivered},
	obs.StageRx:         {obs.StageRx, obs.StageDelivered, obs.StageDelivered, obs.StageDelivered, obs.StageRelayTx},
	obs.StageRelayTx:    {obs.StageRelayRx, obs.StageRelayRx, obs.StageRelayDrop},
	obs.StageRelayRx:    {obs.StageEnqueued, obs.StageDelivered, obs.StagePublished},
	obs.StageMissed:     {obs.StageTxStart, obs.StageDropped},
}

var (
	genClasses  = []obs.Class{obs.ClassHRT, obs.ClassSRT, obs.ClassSRT, obs.ClassNRT, 0}
	genSubjects = []uint64{0x101, 0x102, 0x300, 0x301, 0x700, 0}
	genBands    = []obs.Band{obs.BandHRT, obs.BandSRT, obs.BandNRT, 0}
	genDetails  = []obs.Detail{0, 0, obs.DetailTxAbandoned, obs.Text("backpressure"), obs.Text("duplicate")}
)

func (g *streamGen) emit(r obs.Record) {
	r.At = g.at
	g.recs = append(g.recs, r)
}

func (g *streamGen) oneOf(n int) bool { return g.pick(n) == 0 }

// step performs one random action at a time a little after the last.
func (g *streamGen) step() {
	if !g.oneOf(4) {
		g.at += sim.Time(g.pick(400))
	}
	switch a := g.pick(100); {
	case a < 18 && len(g.live) < 16:
		g.publish()
	case a < 70:
		if len(g.live) > 0 {
			g.advance(g.live[g.pick(len(g.live))])
		}
	case a < 80:
		g.foreignFrame()
	case a < 84:
		st := obs.StageBusOff
		if g.oneOf(2) {
			st = obs.StageBusOffRecovered
		}
		g.emit(obs.Record{Stage: st, Node: int32(g.pick(4)), Prio: -1, Detail: obs.Text("tec=256 rec=0")})
	case a < 88:
		st := obs.StageHoldoverEnter
		if g.oneOf(2) {
			st = obs.StageHoldoverExit
		}
		g.emit(obs.Record{Stage: st, Node: int32(g.pick(6)), Prio: -1})
	case a < 90:
		g.emit(obs.Record{Stage: obs.StageAdmitShed, Node: int32(g.pick(4)), Class: obs.ClassSRT,
			Subject: genSubjects[g.pick(len(genSubjects))], Prio: -1, Detail: obs.Text("miss 0.2")})
	case a < 94:
		// Stray records: a finished chain's late receivers, an unknown ID.
		if len(g.finished) > 0 {
			id := g.finished[g.pick(len(g.finished))]
			st := []obs.Stage{obs.StageRx, obs.StageDelivered, obs.StageDropped}[g.pick(3)]
			g.emit(obs.Record{ID: id, Stage: st, Node: int32(g.pick(6)), Class: obs.ClassSRT, Prio: -1})
		} else {
			g.emit(obs.Record{ID: g.nextID + 1000, Stage: obs.StageEnqueued, Node: 1, Prio: -1})
		}
	default:
		if len(g.live) > 0 {
			c := g.live[g.pick(len(g.live))]
			g.emit(obs.Record{ID: c.id, Stage: obs.StageCtrlSample, Node: c.node, Prio: -1})
		}
	}
}

func (g *streamGen) publish() {
	c := &genChain{class: genClasses[g.pick(len(genClasses))],
		subject: genSubjects[g.pick(len(genSubjects))], node: int32(g.pick(6)),
		stage: obs.StagePublished, pinned: g.oneOf(12)}
	if g.reuseIDs && len(g.finished) > 0 && g.oneOf(10) {
		c.id = g.finished[g.pick(len(g.finished))]
	} else {
		g.nextID++
		c.id = g.nextID
	}
	var detail obs.Detail
	if g.oneOf(8) {
		detail = obs.Text("relayed")
	}
	g.live = append(g.live, c)
	g.emit(obs.Record{ID: c.id, Stage: obs.StagePublished, Node: c.node, Class: c.class,
		Subject: c.subject, Prio: -1, Detail: detail})
}

func (g *streamGen) advance(c *genChain) {
	if c.pinned && !g.oneOf(50) {
		return
	}
	next := genNext[c.stage]
	st := next[g.pick(len(next))]
	r := obs.Record{ID: c.id, Stage: st, Node: c.node, Subject: c.subject, Prio: -1}
	switch st {
	case obs.StageTxStart, obs.StageTxOK, obs.StageTxErr, obs.StageTxAbort,
		obs.StageArbWon, obs.StageArbLost, obs.StageGuardMuted:
		if st == obs.StageTxStart {
			c.attempt++
			g.wireBusy = true
		}
		r.Etag, r.Prio, r.Band = uint16(c.subject)&0x3fff, 5, genBands[g.pick(len(genBands))]
		r.Attempt = c.attempt
		if g.oneOf(6) {
			r.Attempt = 0
		}
		if st == obs.StageTxOK || st == obs.StageTxErr {
			g.wireBusy = false
		}
	case obs.StageRx:
		r.Node = int32(g.pick(6))
	default:
		r.Class = c.class
		r.Detail = genDetails[g.pick(len(genDetails))]
	}
	c.stage = st
	g.emit(r)
	switch st {
	case obs.StageDelivered, obs.StageDropped, obs.StageExpired, obs.StageShed,
		obs.StageTxAbort, obs.StageRelayDrop:
		for i, l := range g.live {
			if l == c {
				g.live = append(g.live[:i], g.live[i+1:]...)
				break
			}
		}
		g.finished = append(g.finished, c.id)
	}
}

// foreignFrame opens or closes wire occupancy of a frame no chain here
// owns: untraced (ID 0) or another segment's, with or without a subject.
func (g *streamGen) foreignFrame() {
	if g.wireBusy {
		st := obs.StageTxOK
		if g.oneOf(4) {
			st = obs.StageTxErr
		}
		g.wireBusy = false
		g.emit(obs.Record{Stage: st, Node: 7, Prio: 3})
		return
	}
	var id uint64
	if g.oneOf(3) {
		id = 1 << 40
	}
	g.wireBusy = true
	g.emit(obs.Record{ID: id, Stage: obs.StageTxStart, Node: 7, Prio: 3, Attempt: 1,
		Subject: genSubjects[g.pick(len(genSubjects))], Etag: uint16(g.pick(1 << 14)),
		Band: genBands[g.pick(len(genBands))]})
}

// genStream draws a stream of n actions and a config to replay it with.
func genStream(pick func(int) int, n int) ([]obs.Record, Config) {
	g := &streamGen{pick: pick}
	var cfg Config
	if g.oneOf(2) {
		cfg.LateOver = map[string]sim.Duration{}
		for _, class := range []string{"HRT", "SRT", "NRT"} {
			if !g.oneOf(3) {
				cfg.LateOver[class] = sim.Duration(g.pick(3000))
			}
		}
	}
	cfg.KeepRecent = g.pick(6)
	// The engine's eviction order is per chain, the oracle's per trace ID:
	// they part ways only when a re-published ID meets MaxOpen pressure,
	// so a stream exercises one or the other.
	if g.oneOf(3) {
		cfg.MaxOpen = 1 + g.pick(8)
	} else {
		g.reuseIDs = true
	}
	for i := 0; i < n; i++ {
		g.step()
	}
	return g.recs, cfg
}

// TestEngineMatchesOracleRandomStreams is the differential property test
// over synthetic streams.
func TestEngineMatchesOracleRandomStreams(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 150
	}
	for seed := 0; seed < n; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		recs, cfg := genStream(rng.Intn, 50+rng.Intn(600))
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkOracle(t, recs, cfg) })
	}
}

// TestEngineMatchesOracleLongStream crosses the prune threshold several
// times (no chain pins the spans, so the oracle stays linear too).
func TestEngineMatchesOracleLongStream(t *testing.T) {
	if testing.Short() {
		t.Skip("long stream")
	}
	rng := rand.New(rand.NewSource(99))
	g := &streamGen{pick: rng.Intn}
	for len(g.recs) < 120_000 {
		g.step()
		for _, c := range g.live {
			c.pinned = false
		}
	}
	checkOracle(t, g.recs, Config{LateOver: map[string]sim.Duration{"SRT": 800}})
}

// FuzzCausalOracle: any stream the generator can draw from the fuzz bytes
// must attribute identically in the engine and the oracle.
func FuzzCausalOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x05\x10\x30\x02\x11\x40\x05\x33\x00\x47\x12\x99\x07\x02\x50\x51\x52\x53\x54\x60\x61"))
	seed := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		pick := func(n int) int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1]) % n
		}
		recs, cfg := genStream(pick, min(len(data), 2000))
		checkOracle(t, recs, cfg)
	})
}

// TopCause returns the dominant incident cause for one class ("" = all
// classes merged), CauseNone without incidents. Kernel context.
func (a *Analyzer) TopCause(class obs.Class) Cause {
	m := a.merged(class)
	return causeNames[m.top()]
}
