#!/usr/bin/env bash
# relay_smoke: the multi-process federation gate. Spawns two canecd
# daemons on localhost, publishes three SRT events on segment a, and
# requires segment b to deliver all three with the origin trace intact
# (continuous trace ID from a's base, relay_rx recorded on b).
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
            echo "relay-smoke: daemon $p is still running" >&2
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

"$workdir/canecd" -segment b -trace-base 2 -listen 127.0.0.1:0 \
    -sub 0x42 -announce srt:0x42 -expect 0x42:3 -expect-origin 1 \
    -dur 30s -hb 100ms > "$workdir/b.log" 2>&1 &
bpid=$!

# The listener picks an ephemeral port and prints it; wait for the line.
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/.*listening on //p' "$workdir/b.log" | head -n1)"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "relay-smoke: listener never came up" >&2
    cat "$workdir/b.log" >&2
    exit 1
fi

"$workdir/canecd" -segment a -trace-base 1 -uplink "$addr" \
    -forward srt:0x42 -publish srt:0x42:3:20ms -dur 30s -hb 100ms \
    > "$workdir/a.log" 2>&1 &
apid=$!

# Both daemons run in the background so that a signal interrupts the wait
# (bash defers traps while a foreground child runs).
wait "$apid" || true
if ! wait "$bpid"; then
    echo "relay-smoke: segment b failed" >&2
    cat "$workdir/a.log" "$workdir/b.log" >&2
    exit 1
fi
grep -q "expect met" "$workdir/b.log" || {
    echo "relay-smoke: no expectation report in b's log" >&2
    cat "$workdir/b.log" >&2
    exit 1
}
echo "relay-smoke: OK ($(sed -n 's/.*expect met: //p' "$workdir/b.log" | head -n1))"
