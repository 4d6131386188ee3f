#!/bin/sh
# End-to-end smoke test of the multi-node page service: boot a 3-node
# cluster as three independent lrukd processes, drive a ledger-recorded
# update load plus a skew-gated mixed load through the ring-aware client,
# rebalance one node away with the crash-safe handoff and SIGTERM it,
# verify every acknowledged update survived the move, SIGKILL a second
# node under live load and require the load run to absorb it, then drain
# the survivor cleanly.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid0=""
pid1=""
pid2=""
cleanup() {
    for p in "$pid0" "$pid1" "$pid2"; do
        if [ -n "$p" ] && kill -0 "$p" 2>/dev/null; then
            kill -KILL "$p" 2>/dev/null || true
        fi
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "== build lrukd + lrukload + lrukcluster"
go build -o "$tmp/lrukd" ./cmd/lrukd
go build -o "$tmp/lrukload" ./cmd/lrukload
go build -o "$tmp/lrukcluster" ./cmd/lrukcluster

# The cluster spec must name real ports before any node boots (every
# member bootstraps the same epoch-1 view from it), so ports are fixed up
# front: a PID-derived base keeps concurrent runs apart, and stays below
# the kernel's ephemeral range (32768 up) so a client socket left by an
# earlier smoke cannot hold one of them.
base=$((20000 + $$ % 12000))
p0=$base
p1=$((base + 1))
p2=$((base + 2))
spec3="n0=127.0.0.1:$p0,n1=127.0.0.1:$p1,n2=127.0.0.1:$p2"
spec2="n0=127.0.0.1:$p0,n1=127.0.0.1:$p1"
keys=2000

echo "== start 3 lrukd nodes on $spec3"
"$tmp/lrukd" -addr "127.0.0.1:$p0" -node-id n0 -cluster "$spec3" \
    -customers $keys -frames 128 >"$tmp/n0.log" 2>&1 &
pid0=$!
"$tmp/lrukd" -addr "127.0.0.1:$p1" -node-id n1 -cluster "$spec3" \
    -customers $keys -frames 128 >"$tmp/n1.log" 2>&1 &
pid1=$!
"$tmp/lrukd" -addr "127.0.0.1:$p2" -node-id n2 -cluster "$spec3" \
    -customers $keys -frames 128 >"$tmp/n2.log" 2>&1 &
pid2=$!

for n in 0 1 2; do
    eval "pid=\$pid$n"
    i=0
    while ! grep -q "lrukd: serving on " "$tmp/n$n.log" 2>/dev/null; do
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "node n$n died during startup:"
            cat "$tmp/n$n.log"
            exit 1
        fi
        i=$((i + 1))
        if [ $i -gt 100 ]; then
            echo "node n$n never printed its serving line:"
            cat "$tmp/n$n.log"
            exit 1
        fi
        sleep 0.1
    done
    if ! grep -q "node=n$n" "$tmp/n$n.log"; then
        echo "node n$n serving line lacks its node id:"
        cat "$tmp/n$n.log"
        exit 1
    fi
done
echo "   n0=$pid0 n1=$pid1 n2=$pid2"

echo "== cluster view"
"$tmp/lrukcluster" view -cluster "$spec3" | tee "$tmp/view1.log"
grep -q "epoch=1" "$tmp/view1.log"

echo "== read load with skew and hit-ratio gates"
# Ring placement over this key space is deterministic: max/min ownership
# share is ~1.2, so 2.5 gates real imbalance without flaking. Reads only:
# the ledger verify below asserts untouched keys still hold the loader's
# zero filler, so the ledger load must be the only writer until then.
"$tmp/lrukload" -cluster "$spec3" -clients 4 -duration 1s -keys $keys \
    -get 99 -update 0 -scan 1 -max-skew 2.5 -min-hit-ratio 0.01

echo "== ledger load through the ring-aware client"
# Updates land on their ring owners; the ledger records each key's last
# acknowledged fill so the post-rebalance verify below can prove the
# handoff moved every acknowledged byte. Nothing may write between this
# load and the verify, or the ledger's claims go stale.
"$tmp/lrukload" -cluster "$spec3" -ledger "$tmp/led.json" \
    -clients 4 -duration 1s -keys $keys

echo "== rebalance n2 out of the cluster"
"$tmp/lrukcluster" remove -cluster "$spec3" -node n2 | tee "$tmp/remove.log"
grep -q "remove complete" "$tmp/remove.log"
"$tmp/lrukcluster" view -cluster "$spec2" | tee "$tmp/view2.log"
grep -q "epoch=2" "$tmp/view2.log"

echo "== graceful shutdown of the removed node (SIGTERM n2)"
kill -TERM "$pid2"
status=0
wait "$pid2" || status=$?
pid2=""
if [ "$status" -ne 0 ]; then
    echo "n2 exited $status:"
    cat "$tmp/n2.log"
    exit 1
fi
if ! grep -q "lrukd: clean shutdown" "$tmp/n2.log"; then
    echo "n2 exited 0 but never declared a clean shutdown:"
    cat "$tmp/n2.log"
    exit 1
fi

echo "== verify the ledger against the shrunk cluster"
# Keys that n2 owned were copied to the survivors before it flipped to
# shedding; every acknowledged update must still be readable.
"$tmp/lrukload" -cluster "$spec2" -ledger "$tmp/led.json" -verify

echo "== SIGKILL n1 under live load"
# A cluster-mode load run counts transport errors instead of dying with
# them: killing a member mid-burst must still end in exit 0 with work done.
"$tmp/lrukload" -cluster "$spec2" -clients 4 -duration 3s -keys $keys \
    >"$tmp/killload.log" 2>&1 &
load_pid=$!
sleep 0.7
kill -KILL "$pid1"
wait "$pid1" 2>/dev/null || true
pid1=""
status=0
wait "$load_pid" || status=$?
if [ "$status" -ne 0 ]; then
    echo "load run across the node kill exited $status:"
    cat "$tmp/killload.log"
    exit 1
fi
if ! grep -q "lrukload: ops=" "$tmp/killload.log" || grep -q "lrukload: ops=0 " "$tmp/killload.log"; then
    echo "load run across the node kill did no work:"
    cat "$tmp/killload.log"
    exit 1
fi

echo "== graceful shutdown of the survivor (SIGTERM n0)"
kill -TERM "$pid0"
status=0
wait "$pid0" || status=$?
pid0=""
if [ "$status" -ne 0 ]; then
    echo "n0 exited $status:"
    cat "$tmp/n0.log"
    exit 1
fi
if ! grep -q "lrukd: clean shutdown" "$tmp/n0.log"; then
    echo "n0 exited 0 but never declared a clean shutdown:"
    cat "$tmp/n0.log"
    exit 1
fi
echo "cluster-smoke OK"
