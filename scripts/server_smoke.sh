#!/bin/sh
# End-to-end smoke test of the storage-service front-end: build iosnapd
# and iosnapctl, start a real daemon on loopback, drive writes and
# snapshots over the wire, shut down gracefully, then restart and verify
# the data and the snapshot survived the image round-trip; write into the
# remounted devices, shut down and restart once more to verify those
# writes and both snapshots.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/iosnapd" ./cmd/iosnapd
go build -o "$WORK/iosnapctl" ./cmd/iosnapctl

ADDR=127.0.0.1:7648
CTL="$WORK/iosnapctl -remote $ADDR"
IMG="$WORK/dev.img"

start_daemon() {
    "$WORK/iosnapd" -image "$IMG" -addr "$ADDR" -shards 2 -megabytes 16 &
    DAEMON_PID=$!
    # Poll until the server answers (or the daemon died).
    i=0
    until $CTL ping 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "server never came up" >&2
            exit 1
        fi
        kill -0 "$DAEMON_PID" 2>/dev/null || { echo "daemon exited early" >&2; exit 1; }
        sleep 0.2
    done
}

wait_daemon() {
    wait "$DAEMON_PID"
    DAEMON_PID=""
}

echo "== first start: format, write, snapshot"
start_daemon
$CTL write -lba 0 -text "smoke v1"
$CTL write -lba 4097 -text "far sector"   # lands on the second shard
$CTL snap-create | grep "created snapshot 1"
$CTL write -lba 0 -text "smoke v2"
$CTL read -lba 0 | grep "smoke v2"
# A -text longer than its -count sectors is refused, and the LBA keeps its
# value.
LONG=$(head -c 9000 /dev/zero | tr '\0' x)
if $CTL write -lba 0 -count 2 -text "$LONG" 2>"$WORK/long.err"; then
    echo "a 9000-byte -text with -count 2 was accepted" >&2
    exit 1
fi
grep -- "-count" "$WORK/long.err"
$CTL read -lba 0 | grep "smoke v2"
$CTL snap-read -id 1 -lba 0 | grep "smoke v1"
$CTL stats | grep "shards:             2"
$CTL stats | grep "shard skew:"
$CTL stats | grep "view cache:"

echo "== graceful shutdown persists the shard images"
$CTL shutdown
wait_daemon
for i in 0 1; do
    [ -s "$IMG.shard$i" ] || { echo "missing shard image $i" >&2; exit 1; }
done
[ ! -e "$IMG.shard0.tmp" ] || { echo "temp file left behind" >&2; exit 1; }

echo "== second start: remount and verify, then write into the mapped images"
start_daemon
$CTL read -lba 0 | grep "smoke v2"
$CTL read -lba 4097 | grep "far sector"
$CTL snap-read -id 1 -lba 0 | grep "smoke v1"
$CTL write -lba 0 -text "smoke v3"
$CTL write -lba 4097 -text "far sector v2"
$CTL snap-create | grep "created snapshot 2"

# The shutdown saves devices whose pages are windows into the very image
# files the save renames over.
$CTL shutdown
wait_daemon

echo "== third start: the writes into the mapped images survived"
start_daemon
$CTL read -lba 0 | grep "smoke v3"
$CTL read -lba 4097 | grep "far sector v2"
$CTL snap-read -id 1 -lba 0 | grep "smoke v1"
$CTL snap-read -id 1 -lba 4097 | grep '"far sector"'   # not v2
$CTL snap-read -id 2 -lba 0 | grep "smoke v3"
$CTL snap-read -id 2 -lba 4097 | grep "far sector v2"

$CTL shutdown
wait_daemon

echo "server smoke: all green"
