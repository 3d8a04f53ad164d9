#!/usr/bin/env bash
# obs_smoke: the live-introspection gate. Spawns the relay-smoke
# two-daemon federation with the admin plane enabled on both daemons,
# then drives canecstat against the fleet: /healthz and /slo must
# answer on both segments, and every /metrics exposition must pass the
# strict Prometheus text-format validator.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
bpid=""
apid=""
# However the script ends — success, a failed check, set -e, INT or TERM
# (a timed-out `make check`) — both daemons are killed *and reaped*, and
# the exit fails if either is still alive afterwards.
cleanup() {
    local st=$? p
    trap - EXIT INT TERM
    for p in $apid $bpid; do kill "$p" 2>/dev/null || true; done
    for p in $apid $bpid; do wait "$p" 2>/dev/null || true; done
    for p in $apid $bpid; do
        if kill -0 "$p" 2>/dev/null; then
            echo "obs-smoke: daemon $p is still running" >&2
            st=1
        fi
    done
    rm -rf "$workdir"
    exit "$st"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

GO="${GO:-go}"
"$GO" build -o "$workdir/canecd" ./cmd/canecd
"$GO" build -o "$workdir/canecstat" ./cmd/canecstat

"$workdir/canecd" -segment b -trace-base 2 -listen 127.0.0.1:0 \
    -admin 127.0.0.1:0 -flight-dir "$workdir" \
    -sub 0x42 -announce srt:0x42 -expect 0x42:20 -expect-origin 1 \
    -dur 60s -hb 100ms > "$workdir/b.log" 2>&1 &
bpid=$!

wait_line() { # file sed-pattern
    local out=""
    for _ in $(seq 1 100); do
        out="$(sed -n "s/.*$2 //p" "$1" | head -n1)"
        [ -n "$out" ] && { echo "$out"; return 0; }
        sleep 0.1
    done
    return 1
}

addr="$(wait_line "$workdir/b.log" 'listening on')" || {
    echo "obs-smoke: listener never came up" >&2; cat "$workdir/b.log" >&2; exit 1; }
admin_b="$(wait_line "$workdir/b.log" 'admin on')" || {
    echo "obs-smoke: segment b admin never came up" >&2; cat "$workdir/b.log" >&2; exit 1; }

"$workdir/canecd" -segment a -trace-base 1 -uplink "$addr" \
    -admin 127.0.0.1:0 -flight-dir "$workdir" \
    -forward srt:0x42 -publish srt:0x42:20:100ms -dur 60s -hb 100ms \
    > "$workdir/a.log" 2>&1 &
apid=$!

admin_a="$(wait_line "$workdir/a.log" 'admin on')" || {
    echo "obs-smoke: segment a admin never came up" >&2; cat "$workdir/a.log" >&2; exit 1; }

# Raw endpoint checks on both daemons while they run: segment b exits
# with its twentieth delivery and a shortly after its last publish, so
# the 20 × 100 ms stream is the window these checks have (five events
# left ≈0.4 s, which a loaded machine missed about one run in ten).
for admin in "$admin_a" "$admin_b"; do
    curl -fsS "http://$admin/healthz" > "$workdir/healthz.json"
    grep -q '"status": "ok"' "$workdir/healthz.json" || {
        echo "obs-smoke: $admin /healthz not ok" >&2; cat "$workdir/healthz.json" >&2; exit 1; }
    curl -fsS "http://$admin/slo" > "$workdir/slo.json"
    grep -q '"srt-miss-rate"' "$workdir/slo.json" || {
        echo "obs-smoke: $admin /slo missing srt-miss-rate objective" >&2; cat "$workdir/slo.json" >&2; exit 1; }
    curl -fsS "http://$admin/metrics" > "$workdir/metrics.txt"
    grep -q '^# TYPE canec_events_published_total counter' "$workdir/metrics.txt" || {
        echo "obs-smoke: $admin /metrics missing exposition" >&2; exit 1; }
done

# Fleet view: one canecstat poll over both daemons with strict
# exposition validation; exit 0 means reachable, healthy and valid.
"$workdir/canecstat" -once -validate-metrics "$admin_a" "$admin_b" > "$workdir/stat.out" || {
    echo "obs-smoke: canecstat reported an unhealthy fleet" >&2
    cat "$workdir/stat.out" "$workdir/a.log" "$workdir/b.log" >&2
    exit 1
}
grep -q 'UNREACHABLE\|INVALID' "$workdir/stat.out" && {
    echo "obs-smoke: canecstat table shows a bad target" >&2
    cat "$workdir/stat.out" >&2
    exit 1
}

# The federation itself must still meet its delivery expectation.
if ! wait "$bpid"; then
    echo "obs-smoke: segment b failed" >&2
    cat "$workdir/a.log" "$workdir/b.log" >&2
    exit 1
fi
wait "$apid" || true
grep -q "expect met" "$workdir/b.log" || {
    echo "obs-smoke: no expectation report in b's log" >&2
    cat "$workdir/b.log" >&2
    exit 1
}
echo "obs-smoke: OK"
cat "$workdir/stat.out"
