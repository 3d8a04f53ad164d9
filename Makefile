GO ?= go

.PHONY: all build fmt vet test race check portable golden chaos-smoke busoff-smoke admission-smoke control-smoke fuzz-smoke relay-smoke obs-smoke why-smoke bench bench-record bench-check bench-smoke tier1-time tidy

all: check

build:
	$(GO) build ./...

# fmt fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos-smoke replays the seeded fault campaigns (crash/restart, error
# burst, omission window, babbling idiot + bus guardian, the bus-off
# adversary with supervised recovery, and the control-plane failovers:
# binding-agent standby takeover and time-master failover) on fixed seeds
# under the race detector and asserts per-seed determinism — the fast
# dependability gate.
chaos-smoke:
	$(GO) test -race -short -run 'TestChaosSmokeSeeds|TestCampaignDeterministicPerSeed|TestCampaignControlPlaneFailover|TestCampaignControlPlaneDeterministic|TestBusOffAttackRecoveryAndHRTSurvival' ./internal/chaos/

# busoff-smoke, control-smoke, admission-smoke and why-smoke drive canecsim
# in-process (run(args, stdout, stderr)) as Go tests, so tier-1 runs them
# too.
#
# busoff-smoke replays the bus-off adversary campaign end to end through
# canecsim: the scripted attack must drive the victim bus-off, the
# supervisor must bring it back, the guardian must isolate the attacker,
# and every trace invariant must hold — deterministically.
busoff-smoke:
	$(GO) test -race -run TestBusoffSmoke ./cmd/canecsim

# control-smoke replays the closed-loop control demo clean and under a
# scripted bus-off attack on the controller station: the quality-of-
# control measure must show the outage and the supervised recovery.
control-smoke:
	$(GO) test -race -run TestControlSmoke ./cmd/canecsim

# admission-smoke replays the probabilistic-admission gate through
# canecsim: on the over-admission scenario the overcommitted channel must
# be rejected with a typed reason, the bit-error ramp must shed the
# marginal channel while the surviving admitted SRT channels keep the
# target miss probability and HRT stays unaffected — deterministically.
admission-smoke:
	$(GO) test -race -run TestAdmissionSmoke ./cmd/canecsim

# fuzz-smoke runs each native fuzz target briefly (~5 s): the wire-facing
# frame handlers (agent, client, syncer) and the codec round-trips must
# never panic on arbitrary frames, and the why-late engine must attribute
# random record streams exactly as its oracle does.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAgentHandleFrame -fuzztime 5s ./internal/binding/
	$(GO) test -run '^$$' -fuzz FuzzClientHandleFrame -fuzztime 5s ./internal/binding/
	$(GO) test -run '^$$' -fuzz FuzzPut56RoundTrip -fuzztime 5s ./internal/binding/
	$(GO) test -run '^$$' -fuzz FuzzSyncerHandleFrame -fuzztime 5s ./internal/clock/
	$(GO) test -run '^$$' -fuzz FuzzTraceJSONL -fuzztime 5s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzTSRoundTrip -fuzztime 5s ./internal/clock/
	$(GO) test -run '^$$' -fuzz FuzzWireRoundTrip -fuzztime 5s ./internal/can/
	$(GO) test -run '^$$' -fuzz FuzzScript -fuzztime 5s ./internal/chaos/
	$(GO) test -run '^$$' -fuzz FuzzControlLoops -fuzztime 5s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzCausalOracle -fuzztime 5s ./internal/obs/causal/

# relay-smoke and obs-smoke are the two-daemon federation gates, run as
# Go tests that host both canecd segments (testdata/segment-{a,b}.json)
# inside the test process (so tier-1 runs them too and nothing can outlive
# them): three SRT events streamed by segment a's scenario are delivered on
# segment b with trace continuity; with -admin on both, /healthz /slo
# /profile /metrics answer live, every exposition validates strictly and
# a's /control serves its scenario's control loop.
relay-smoke:
	$(GO) test -race -run TestRelaySmoke ./cmd/canecd

obs-smoke:
	$(GO) test -race -run TestObsSmoke ./cmd/canecd

# why-smoke is the root-cause attribution gate: the E19 injected-fault
# campaigns run under the race detector (known causes attributed, zero
# control-group misattribution, residual-zero exact), then a scripted
# bit-error campaign drives an SLO breach whose post-mortem must carry
# the correct top cause through canecwhy — bit-identically, twice.
why-smoke:
	$(GO) test -race -run TestE19Attribution ./internal/experiments/
	$(GO) test -race -run TestWhySmoke ./cmd/canecsim ./cmd/canecwhy

# bench-smoke is the performance-trajectory gate, a Go test run
# in-process (so tier-1 runs it too): the committed BENCH_seed.json
# self-compares clean, an injected regression trips the compare gate, a
# short live recording round-trips the JSON schema, and the kernel
# profiler reports every pipeline stage.
bench-smoke:
	$(GO) test -run TestBenchGate ./cmd/canecbench

# portable runs the golden and digest tests on a 32-bit target: the
# experiment tables, scenario reports, CLI pins, gateway tests and the
# pinned example outputs must come out byte-identical under GOARCH=386
# too, and the bus, middleware and observer tests (the frame's metadata,
# each delivery's publish instant, the record layout) and the chaos
# tests (the order of invariant violations) must pass there.
portable:
	GOARCH=386 $(GO) test -count=1 ./internal/experiments ./internal/scenario ./cmd/canecsim ./cmd/canecwhy ./internal/gateway ./internal/core ./internal/obs ./internal/can ./internal/chaos ./examples/...

# check is the PR gate: compile everything, check gofmt, vet, run the
# full suite under the race detector, smoke the fuzz targets and rerun
# the goldens on 386. The suite already holds every smoke gate above
# (chaos, bus-off, admission, control, relay, obs, why, bench), so each
# runs once; their targets stay for single runs.
check: build fmt vet race fuzz-smoke portable

# tier1-time runs tier-1 uncached and prints its wall time and its 10
# slowest tests, subtests included (a parent whose subtests run in
# parallel reports 0 s), to check a change against the tier-1 budget in
# DESIGN.md. It needs only go, sh and coreutils; check does not run it.
tier1-time:
	@log=$$(mktemp); t0=$$(date +%s%N); \
	$(GO) test -count=1 -json ./... >$$log; st=$$?; t1=$$(date +%s%N); \
	echo "tier-1: $$(( (t1 - t0) / 1000000 )) ms wall, go test exit $$st"; \
	echo "slowest tests (s):"; \
	while IFS= read -r l; do \
		case $$l in *'"Action":"pass"'*'"Test":"'*|*'"Action":"fail"'*'"Test":"'*) ;; *) continue ;; esac; \
		pkg=$${l#*'"Package":"'}; test=$${l#*'"Test":"'}; el=$${l##*'"Elapsed":'}; \
		echo "$${el%'}'} $${pkg%%'"'*} $${test%%'"'*}"; \
	done <$$log | sort -rn | head -n 10; \
	rm -f $$log; exit $$st

# golden rewrites every golden file under testdata/golden from the code
# under test: run it only for an intended output change, and review the
# diff. It lists exactly the packages whose tests import internal/golden
# (the others reject -update).
golden:
	$(GO) test -count=1 ./internal/experiments ./internal/scenario ./cmd/canecsim ./cmd/canecwhy -update

bench:
	$(GO) test -bench . -benchmem ./internal/can ./internal/sim ./internal/obs/causal ./internal/prob

# bench-record records a trajectory point (full calibrated suite; takes a
# few minutes) as BENCH_$(LABEL).json. Every PR commits its own point
# (make bench-record LABEL=pr13) and shows canecbench -compare against
# the previous one clean.
LABEL ?= seed
bench-record:
	$(GO) run ./cmd/canecbench -json $(LABEL) -bench-dir .

# bench-check records a fresh trajectory point and gates it against the
# committed baseline with the default thresholds.
bench-check:
	@tmp=$$(mktemp -d); st=0; \
	$(GO) run ./cmd/canecbench -json head -bench-dir $$tmp -bench-time 500ms && \
	$(GO) run ./cmd/canecbench -compare BENCH_seed.json $$tmp/BENCH_head.json || st=$$?; \
	rm -rf $$tmp; exit $$st

tidy:
	gofmt -l -w .
